"""Exact rational linear algebra: echelon forms, solving, subspaces, quotients.

All arithmetic uses fractions.Fraction; nothing here ever rounds.  Each echelon
basis is the unique reduced one of its row space, built by the one elimination
loop ``Subspace.extend``, so bases and representatives are reproducible.
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
    s = Subspace(cols, a)
    return s.basis + [zero_vec(cols) for _ in range(len(a) - s.dim)], s.pivots


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


def solve_right(a, y):
    """Solve X A = Y (matrix unknown on the left); None if inconsistent."""
    xt = solve_matrix(transpose(a), transpose(y))
    return None if xt is None else transpose(xt)


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
    vecs = []
    for ker in nullspace(block):
        full = zero_vec(ambient)
        for pos, x in zip(cols, ker):
            full[pos] = x
        vecs.append(full)
    return Subspace(ambient, vecs)


class Subspace:
    """A subspace of Q^n, stored with a cached reduced echelon basis and the
    nonzero positions of each basis row.

    ``extend`` is the one elimination loop: every echelon basis, and so
    every ``rref``, solve and kernel, is built by it.  Basis rows are never
    changed in place, since callers such as ``Quotient`` share them.
    """

    def __init__(self, ambient, vectors=()):
        self.ambient = ambient
        self.basis, self.pivots, self._supports = [], [], []
        for v in vectors:
            if len(v) != ambient:
                raise ValueError("vector length does not match ambient dimension")
            self.extend(v)

    @property
    def dim(self):
        return len(self.basis)

    def _eliminate(self, v):
        """(residual, coefficients) of v against the echelon basis, reading
        only the nonzero positions of each basis row."""
        w = list(v)
        coeffs = []
        for row, pc, support in zip(self.basis, self.pivots, self._supports):
            f = w[pc]
            coeffs.append(f)
            if f:
                for j in support:
                    w[j] -= f * row[j]
        return w, coeffs

    def reduce(self, v):
        """Residual of v after reduction against the echelon basis."""
        return self._eliminate(v)[0]

    def contains(self, v):
        return is_zero_vec(self.reduce(v))

    def extend(self, v):
        """Insert v into the reduced echelon basis; True when the span
        grew.  The basis then equals that of
        ``Subspace(ambient, old basis + [v])``."""
        w = self.reduce(v)
        support = [j for j, x in enumerate(w) if x]
        if not support:
            return False
        c = support[0]
        pv = w[c]
        if pv != 1:
            inv = Q1 / pv
            for j in support:
                w[j] *= inv
        # clear column c from the other rows, over the new row's support
        for i, row in enumerate(self.basis):
            f = row[c]
            if f:
                row = row[:]
                for j in support:
                    row[j] -= f * w[j]
                self.basis[i] = row
                self._supports[i] = [
                    j for j in sorted(set(self._supports[i]).union(support))
                    if row[j]]
        k = bisect_left(self.pivots, c)
        self.basis.insert(k, w)
        self.pivots.insert(k, c)
        self._supports.insert(k, support)
        return True

    def coordinates(self, v):
        """Coefficients of v on the echelon basis, or None if v is outside."""
        w, coeffs = self._eliminate(v)
        return coeffs if is_zero_vec(w) else None


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
            raise ValueError("ambient dimensions differ")
        self.z = z
        span = Subspace(z.ambient, b.basis)
        self.reps = [v for v in z.basis if span.extend(v)]
        if span.dim != z.dim:
            raise AssertionError("quotient by a subspace not inside Z")
        # On Z's echelon basis a vector of Z has its entries at Z's pivots
        # as coordinates; invert the square matrix of B's basis and the
        # representatives there, keeping the representatives' rows.
        cols = b.basis + self.reps
        square = [[v[pc] for v in cols] for pc in z.pivots]
        self._coord_map = solve_matrix(square, identity(z.dim))[b.dim:]

    @property
    def dim(self):
        return len(self.reps)

    def coordinates(self, v):
        """Quotient coordinates of v ∈ Z; raises if v lies outside Z."""
        zc = self.z.coordinates(v)
        if zc is None:
            raise ValueError("vector outside the subspace being quotiented")
        return mat_vec(self._coord_map, zc)
