"""Differential graded Lie algebras, their axiom and morphism checks, the
adjoint module, and cohomology with explicit contraction data."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .graded import (
    EXTERIOR, GradedMap, GradedVectorSpace, PowerBasis, PowerMap, parity_sign,
)
from .linalg import (
    Q0, Q1, Subspace, block_kernel, dense_vec, identity, is_zero_mat, mat_add,
    mat_mul, mat_sub, solve_matrix, transpose, zero_vec, zeros,
)


class DgLieAlgebra:
    """(L, d, [-,-]) with exact structure constants.

    The bracket is stored on the canonical exterior-square basis; evaluation
    on arbitrary pairs goes through normalization signs, which encodes graded
    antisymmetry once and for all.
    """

    def __init__(self, space, differential, bracket):
        self.space = space
        self.differential = differential
        self.bracket = bracket  # PowerMap on PowerBasis(space, EXTERIOR, 2)
        # [e_i, e_j] for every ordered pair with a nonzero bracket, as its
        # (row, entry) pairs with the normalization sign of (i, j) applied
        self._columns = {}
        pb, m = bracket.pb, bracket.matrix
        for c, (i, j) in enumerate(pb.elements):
            col = [(r, row[c]) for r, row in enumerate(m) if row[c]]
            if col:
                self._columns[i, j] = col
                if i != j:
                    sign = pb.normalize((j, i))[0]
                    self._columns[j, i] = [(r, sign * e) for r, e in col]

    @classmethod
    def from_data(cls, components, d_images, bracket_images, check=True):
        """Build from label data.

        ``d_images``: {label: [(label, coeff), ...]}.
        ``bracket_images``: {(label1, label2): [(label, coeff), ...]} given on
        any pairs; they are normalized onto the canonical exterior basis.
        With ``check=False`` non-homogeneous differentials are accepted so
        that validation can report them instead.
        """
        v = GradedVectorSpace(components)
        d = GradedMap.from_images(v, v, 1, d_images, check=check)
        pb = PowerBasis(v, EXTERIOR, 2)
        m = zeros(v.dim, len(pb))
        for (la, lb), terms in bracket_images.items():
            i, j = v.index(la), v.index(lb)
            sign, canon = pb.normalize((i, j))
            if sign == 0:
                if terms:
                    raise ValueError(f"bracket [{la},{lb}] must vanish")
                continue
            c = pb.index(canon)
            for tlab, coeff in terms:
                m[v.index(tlab)][c] += sign * Fraction(coeff)
        bracket = PowerMap(pb, v, 0, m)
        return cls(v, d, bracket)

    def bracket_column(self, i, j):
        """[e_i, e_j] as its (row, entry) pairs; [] for a zero bracket."""
        return self._columns.get((i, j), [])

    def bracket_vec(self, x, y):
        out = zero_vec(self.space.dim)
        y_support = [(j, yj) for j, yj in enumerate(y) if yj]
        for i, xi in enumerate(x):
            if xi:
                for j, yj in y_support:
                    c = xi * yj
                    for r, e in self.bracket_column(i, j):
                        out[r] += c * e
        return out


def validate_dgla(cand):
    """Check d²=0, graded Leibniz, and graded Jacobi on a basis.

    Returns a list of axiom reports; an empty failure list means valid.
    """
    v = cand.space
    d = cand.differential
    report = []

    hom_wit = d.homogeneity_violation()
    report.append({"axiom": "degree_homogeneity", "ok": hom_wit is None,
                   "witness": hom_wit})

    dd = mat_mul(d.matrix, d.matrix)
    report.append({
        "axiom": "d_squared_zero",
        "ok": is_zero_mat(dd),
        "witness": None if is_zero_mat(dd) else "d∘d has a nonzero entry",
    })

    n = v.dim
    d_cols = [[(r, row[c]) for r, row in enumerate(d.matrix) if row[c]]
              for c in range(n)]
    col = cand.bracket_column

    leib_wit = None
    for i, j in product(range(n), repeat=2):
        # d[e_i, e_j] − [d e_i, e_j] − (−1)^{|e_i|} [e_i, d e_j]
        s = -parity_sign(v.degrees[i])
        terms = [(e, d_cols[r]) for r, e in col(i, j)]
        terms += [(-x, col(k, j)) for k, x in d_cols[i]]
        terms += [(s * x, col(i, k)) for k, x in d_cols[j]]
        if not _vanishes(terms):
            leib_wit = (v.labels[i], v.labels[j])
            break
    report.append({"axiom": "leibniz", "ok": leib_wit is None,
                   "witness": leib_wit})

    jac_wit = None
    for i, j, k in product(range(n), repeat=3):
        # Σ over cyclic (a, b, c) of (−1)^{|a||c|} [[a, b], c]
        terms = [(parity_sign(v.degrees[a] * v.degrees[c]) * e, col(r, c))
                 for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
                 for r, e in col(a, b)]
        if not _vanishes(terms):
            jac_wit = (v.labels[i], v.labels[j], v.labels[k])
            break
    report.append({"axiom": "jacobi", "ok": jac_wit is None,
                   "witness": jac_wit})
    return report


def _vanishes(terms):
    """Whether Σ coeff · column is zero, over (coeff, sparse column) pairs."""
    acc = {}
    for coeff, column in terms:
        for r, e in column:
            acc[r] = acc.get(r, 0) + coeff * e
    return not any(acc.values())


def dgla_is_valid(cand):
    return all(entry["ok"] for entry in validate_dgla(cand))


class DgModule:
    """A right module (M, d, [-,-]: M⊗L → M) over a dg-Lie algebra."""

    def __init__(self, base, space, differential, action):
        """``action``: list over the base flat basis; action[j] is the matrix
        of m ↦ [m, e_j] on M (degree deg(e_j))."""
        self.base = base
        self.space = space
        self.differential = differential
        self.action = action


def adjoint_module(alg):
    mats = []
    n = alg.space.dim
    for j in range(n):
        m = zeros(n, n)
        for i in range(n):
            for r, e in alg.bracket_column(i, j):
                m[r][i] = e
        mats.append(m)
    return DgModule(alg, alg.space, alg.differential, mats)


def validate_morphism(f, src, tgt):
    """Check that a degree-0 graded map is a dg-Lie algebra morphism."""
    if f.degree != 0:
        return {"ok": False, "witness": "nonzero degree"}
    if mat_mul(f.matrix, src.differential.matrix) != mat_mul(
            tgt.differential.matrix, f.matrix):
        return {"ok": False, "witness": "does not commute with differentials"}
    n = src.space.dim
    f_cols = [[row[c] for row in f.matrix] for c in range(n)]
    for i in range(n):
        for j in range(i, n):
            lhs = zero_vec(tgt.space.dim)
            for r, e in src.bracket_column(i, j):
                for t, x in enumerate(f_cols[r]):
                    if x:
                        lhs[t] += e * x
            if lhs != tgt.bracket_vec(f_cols[i], f_cols[j]):
                return {"ok": False,
                        "witness": (src.space.labels[i], src.space.labels[j])}
    return {"ok": True, "witness": None}


class Contraction:
    """Cohomology H of a complex (V, d) together with maps i, p, h
    satisfying p i = 1, i p − 1 = d h + h d, and the side conditions
    hi = ph = hh = 0."""

    def __init__(self, d, cohomology, inclusion, projection, homotopy):
        self.d = d
        self.cohomology = cohomology
        self.i = inclusion
        self.p = projection
        self.h = homotopy

    def verify(self):
        n = self.d.source.dim
        d = self.d.matrix
        i, p, h = self.i.matrix, self.p.matrix, self.h.matrix
        hdim = self.cohomology.dim
        ip = mat_mul(i, p) if hdim else zeros(n, n)
        dh_plus_hd = mat_add(mat_mul(d, h), mat_mul(h, d))
        checks = {
            "pi_identity": mat_mul(p, i) == identity(hdim),
            "ip_minus_one": mat_sub(ip, identity(n)) == dh_plus_hd,
            "hi_zero": is_zero_mat(mat_mul(h, i)),
            "ph_zero": is_zero_mat(mat_mul(p, h)),
            "hh_zero": is_zero_mat(mat_mul(h, h)),
        }
        return checks


def cohomology(d):
    """Compute H* of the complex (V, d), for d a degree +1 ``GradedMap`` on
    V, with an explicit deterministic contraction: complements and
    representatives are picked in index order."""
    if d.degree != 1:
        raise ValueError("differential must have degree +1")
    v = d.source
    dmat = d.matrix
    if not is_zero_mat(mat_mul(dmat, dmat)):
        raise ValueError("differential does not square to zero")
    degs = v.degree_support()
    if not degs:
        h = GradedVectorSpace({})
        zero = GradedMap.zero
        return Contraction(d, h, zero(h, v, 0), zero(v, h, 0), zero(v, v, -1))

    # per-degree kernels and chosen complements of the kernel: the unit
    # vectors e_i, i ∈ w_index[k], outside the kernel's span
    kernel = {}
    w_index = {}
    for k in degs:
        idx = v.indices_in_degree(k)
        kernel[k] = block_kernel(dmat, v.indices_in_degree(k + 1), idx, v.dim)
        span = Subspace(v.dim, kernel[k].basis)
        w_index[k] = [i for i in idx if span.extend({i: Q1})]

    # image basis d e_i, i ∈ w_index[k − 1], and cohomology representatives
    b_basis = {k: [{r: row[i] for r, row in enumerate(dmat) if row[i]}
                   for i in w_index.get(k - 1, [])] for k in degs}
    h_reps = {}
    for k in degs:
        span = Subspace(v.dim, b_basis[k])
        h_reps[k] = [z for z in kernel[k].basis if span.extend(z)]

    hcomps = {k: [f"h{k}_{t}" for t in range(len(h_reps[k]))]
              for k in degs if h_reps[k]}
    hspace = GradedVectorSpace(hcomps)

    i_mat = zeros(v.dim, hspace.dim)
    col = 0
    for k in sorted(hcomps):
        for rep in h_reps[k]:
            for r, x in rep.items():
                i_mat[r][col] = x
            col += 1

    # decompose each degree-k unit vector in the basis B ∪ H ∪ W
    p_mat = zeros(hspace.dim, v.dim)
    h_mat = zeros(v.dim, v.dim)
    for k in degs:
        cols = b_basis[k] + h_reps[k] + [{i: Q1} for i in w_index[k]]
        if not cols:
            continue
        idx = v.indices_in_degree(k)
        coords = solve_matrix(
            transpose([dense_vec(c, v.dim) for c in cols]),
            [[Q1 if r == i else Q0 for i in idx] for r in range(v.dim)])
        nb, nh = len(b_basis[k]), len(h_reps[k])
        hoffset = hspace.degrees.index(k) if nh else 0
        for j, i in enumerate(idx):
            # projection reads off the H-block coordinates
            for t in range(nh):
                p_mat[hoffset + t][i] = coords[nb + t][j]
            # homotopy inverts d on the B-block, with a sign
            for t, pre in enumerate(w_index.get(k - 1, [])):
                h_mat[pre][i] = -coords[t][j]

    inc = GradedMap(hspace, v, 0, i_mat)
    proj = GradedMap(v, hspace, 0, p_mat)
    htpy = GradedMap(v, v, -1, h_mat)
    return Contraction(d, hspace, inc, proj, htpy)


def cohomology_lie(alg):
    """Graded Lie algebra structure on H*(L) induced by representatives.

    Returns (H as a DgLieAlgebra with zero differential, contraction).
    """
    con = cohomology(alg.differential)
    h = con.cohomology
    pb = PowerBasis(h, EXTERIOR, 2)
    m = zeros(h.dim, len(pb))
    for c, (a, b) in enumerate(pb.elements):
        ea = [Q1 if t == a else Q0 for t in range(h.dim)]
        eb = [Q1 if t == b else Q0 for t in range(h.dim)]
        val = con.p.apply(alg.bracket_vec(con.i.apply(ea), con.i.apply(eb)))
        for r in range(h.dim):
            m[r][c] = val[r]
    bracket = PowerMap(pb, h, 0, m)
    halg = DgLieAlgebra(h, GradedMap.zero(h, h, 1), bracket)
    return halg, con
