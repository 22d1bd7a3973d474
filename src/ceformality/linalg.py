"""Exact rational linear algebra: echelon forms, solving, subspaces, quotients.

All arithmetic uses fractions.Fraction; nothing here ever rounds.  Each echelon
basis is the unique reduced one of its row space, built by the one elimination
loop ``Subspace.extend``, so bases and representatives are reproducible.
Subspaces, quotients and the spectral pages hold sparse vectors
{index: entry}, updated only by ``_axpy``; the dense entry points (``rref``,
the solves, ``nullspace``, ``block_kernel``) convert at their boundary.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

Q0 = Fraction(0)
Q1 = Fraction(1)


def zero_vec(n):
    return [Q0] * n


def zeros(rows, cols):
    return [[Q0] * cols for _ in range(rows)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Q1
    return m


def transpose(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def mat_add(a, b):
    """a + b; returns a itself when b is zero."""
    if is_zero_mat(b):
        return a
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    """a − b; returns a itself when b is zero."""
    if is_zero_mat(b):
        return a
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch in mat_mul")
    ncols = len(b[0]) if b else 0
    out = []
    for row in a:
        orow = [Q0] * ncols
        for k, x in enumerate(row):
            if x:
                brow = b[k]
                for j, y in enumerate(brow):
                    if y:
                        orow[j] += x * y
        out.append(orow)
    return out


def mat_vec(a, v):
    if a and len(a[0]) != len(v):
        raise ValueError("dimension mismatch in mat_vec")
    support = [j for j, y in enumerate(v) if y]
    out = []
    for row in a:
        s = Q0
        for j in support:
            x = row[j]
            if x:
                s += x * v[j]
        out.append(s)
    return out


def vec_add(u, v):
    return [x + y for x, y in zip(u, v)]


def vec_scale(c, v):
    return [c * x for x in v]


def is_zero_vec(v):
    return all(x == 0 for x in v)


def is_zero_mat(a):
    return all(is_zero_vec(row) for row in a)


def rref(a):
    """Reduced row echelon form.

    Returns (R, pivots) where pivots is the list of pivot column indices:
    the echelon basis of the row space (``Subspace.extend``), then zero
    rows.  Deterministic: leftmost nonzero column, pivots normalized to 1,
    full reduction above and below.
    """
    cols = len(a[0]) if a else 0
    s = Subspace(cols, map(sparse_vec, a))
    return ([dense_vec(row, cols) for row in s.basis]
            + [zero_vec(cols) for _ in range(len(a) - s.dim)], s.pivots)


def rank(a):
    return len(rref(a)[1])


def solve(a, b):
    """One exact solution of A x = b, or None if inconsistent: the
    one-column case of ``solve_matrix``."""
    x = solve_matrix(a, [[y] for y in b])
    return None if x is None else [row[0] for row in x]


def solve_matrix(a, y):
    """Solve A X = Y with one elimination of [A | Y]; None if any column of
    Y is inconsistent.

    Free variables are set to zero (the echelon-least solution for the fixed
    pivot rule), so each column equals ``solve(a, column)``.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    k = len(y[0]) if y else 0
    # a Y with no columns may arrive as [] (the transpose of an empty matrix)
    if k and len(y) != rows:
        raise ValueError("dimension mismatch in solve")
    r, pivots = rref([ra + ry for ra, ry in zip(a, y)])
    if pivots and pivots[-1] >= cols:
        return None
    x = zeros(cols, k)
    for i, c in enumerate(pivots):
        x[c] = r[i][cols:]
    return x


def nullspace(a):
    """Basis of ker A as a list of vectors, from the echelon form."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if rows == 0:
        return [e for e in identity(cols)]
    r, pivots = rref(a)
    pivot_set = set(pivots)
    basis = []
    for c in range(cols):
        if c in pivot_set:
            continue
        v = zero_vec(cols)
        v[c] = Q1
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][c]
        basis.append(v)
    return basis


def block_kernel(a, rows, cols, ambient):
    """Kernel of the block of ``a`` on ``rows`` × ``cols`` as a subspace of
    Q^ambient, its vectors scattered back to the positions ``cols``."""
    block = [[a[r][c] for c in cols] for r in rows] or [[Q0] * len(cols)]
    return Subspace(ambient, ({pos: x for pos, x in zip(cols, ker) if x}
                              for ker in nullspace(block)))


# -- sparse vectors: {index: entry} over the nonzero entries only ----------

def sparse_vec(v):
    """The nonzero entries of a dense vector."""
    return {i: x for i, x in enumerate(v) if x}


def dense_vec(v, n):
    """The dense vector of length n with the entries of a sparse one."""
    out = [Q0] * n
    for i, x in v.items():
        out[i] = x
    return out


def _axpy(u, a, v):
    """u += a·v on sparse vectors, dropping zeros: the one sparse update."""
    for i, x in v.items():
        w = u.get(i, 0) + a * x
        if w:
            u[i] = w
        else:
            u.pop(i, None)


def apply_columns(columns, v):
    """Σ v[x]·columns[x] for a map given as sparse columns and a sparse v."""
    out = {}
    for x, a in v.items():
        _axpy(out, a, columns[x])
    return out


class Subspace:
    """A subspace of Q^n, stored as its reduced echelon basis of sparse rows.

    ``extend`` is the one elimination loop: every echelon basis, and so
    every ``rref``, solve and kernel, is built by it.  Basis rows are never
    changed in place, since callers such as ``Quotient`` share them.
    """

    def __init__(self, ambient, vectors=()):
        self.ambient = ambient
        self.basis, self.pivots = [], []
        for v in vectors:
            self.extend(v)

    @property
    def dim(self):
        return len(self.basis)

    def reduce(self, v):
        """Residual of v after reduction against the echelon basis.  Each
        row is 1 at its own pivot and 0 at every other, so row i's
        coefficient is v[pivot_i], read off v itself."""
        w = dict(v)
        for row, pc in zip(self.basis, self.pivots):
            f = v.get(pc)
            if f:
                _axpy(w, -f, row)
        return w

    def contains(self, v):
        return not self.reduce(v)

    def extend(self, v):
        """Insert v into the reduced echelon basis; True when the span
        grew.  The basis then equals that of
        ``Subspace(ambient, old basis + [v])``."""
        w = self.reduce(v)
        if not w:
            return False
        c = min(w)
        pv = w[c]
        if pv != 1:
            inv = Q1 / pv
            for j in w:
                w[j] *= inv
        # clear column c from the other rows
        for i, row in enumerate(self.basis):
            f = row.get(c)
            if f:
                row = dict(row)
                _axpy(row, -f, w)
                self.basis[i] = row
        k = bisect_left(self.pivots, c)
        self.basis.insert(k, w)
        self.pivots.insert(k, c)
        return True

    def coordinates(self, v):
        """Coefficients of v on the echelon basis, or None if v is outside."""
        if self.reduce(v):
            return None
        return [v.get(pc, Q0) for pc in self.pivots]


class Quotient:
    """Z/B with representatives and a coordinate map on Z.

    Contract: B ⊆ Z, as for every spectral-page cell (B_r ⊆ Z_r).  The
    representatives are the echelon basis vectors of Z that extend the
    basis of B, in order; B together with them must span exactly Z, which
    checks the contract and raises AssertionError when it fails.  The map
    from coordinates on Z's echelon basis to quotient coordinates is
    factored once here, so ``coordinates`` eliminates nothing.
    """

    def __init__(self, z: Subspace, b: Subspace):
        if z.ambient != b.ambient:
            raise AssertionError("ambient dimensions differ")
        self.z = z
        span = Subspace(z.ambient, b.basis)
        self.reps = [v for v in z.basis if span.extend(v)]
        if span.dim != z.dim:
            raise AssertionError("quotient by a subspace not inside Z")
        # On Z's echelon basis a vector of Z has its entries at Z's pivots
        # as coordinates; invert the square matrix of B's basis and the
        # representatives there, keeping the representatives' rows.
        cols = b.basis + self.reps
        square = [[v.get(pc, Q0) for v in cols] for pc in z.pivots]
        self._coord_map = solve_matrix(square, identity(z.dim))[b.dim:]

    @property
    def dim(self):
        return len(self.reps)

    def coordinates(self, v):
        """Quotient coordinates of v ∈ Z; raises if v lies outside Z."""
        zc = self.z.coordinates(v)
        if zc is None:
            raise AssertionError(
                "vector outside the subspace being quotiented")
        return mat_vec(self._coord_map, zc)
