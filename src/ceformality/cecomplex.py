"""Bicomplex of module-valued alternating forms on a dg-Lie algebra:
the two anticommuting differentials, the column filtration, and the
column-truncated filtered total complex.  The column and total-complex
bookkeeping also serves the coderivation complex in ``linf``, which every
command builds; the bicomplex is the independent reference that checks
and the benchmark's page oracle compare it against."""

from __future__ import annotations

from .graded import (
    EXTERIOR, GradedVectorSpace, PowerBasis, koszul_sign, parity_sign,
)
from .linalg import is_zero_mat, mat_add, mat_mul, zeros
from .specseq import FilteredTotalComplex


class HomColumn:
    """Hom*(V^p, W) with a flat graded basis, where V^p is the power basis
    ``pb`` (exterior for forms, symmetric for coderivations) of the space of
    ``source`` and W the space of ``target``.

    Basis elements are pairs (canonical tuple t, target basis vector w) of
    internal degree deg(w) − deg(t); within each degree they are ordered by
    (source tuple, target index).  ``flat[t][w]`` is the flat position.
    """

    def __init__(self, source, target, pb):
        self.source = source
        self.target = target
        self.pb = pb
        self.p = pb.arity
        wspace = target.space
        items = sorted((wspace.degrees[w] - pb.degree(t_pos), t_pos, w)
                       for t_pos in range(len(pb)) for w in range(wspace.dim))
        comps = {}
        self.pairs = []
        self.flat = [[0] * wspace.dim for _ in range(len(pb))]
        for pos, (q, t_pos, w) in enumerate(items):
            tl = pb.label(t_pos) if self.p else "1"
            comps.setdefault(q, []).append(f"{tl}=>{wspace.labels[w]}")
            self.pairs.append((t_pos, w))
            self.flat[t_pos][w] = pos
        self.space = GradedVectorSpace(comps)

    def index(self, t_pos, w):
        return self.flat[t_pos][w]


def form_column(alg, mod, p):
    """The column Hom*(L^∧p, M) of alternating forms."""
    return HomColumn(alg, mod, PowerBasis(alg.space, EXTERIOR, p))


class ColumnComplex:
    """Columns ``self.columns[p]`` (HomColumns, p < l) assembled into one
    filtered total complex.  Column p is filtration level p and its internal
    degree q sits in total degree q + shift·p; the flat order is (total
    degree, p, position in the column)."""

    def _assemble(self, blocks, shift, check):
        """The filtered total complex whose differential has the sparse
        block ``blocks[(p, p2)]`` = {(row, col): entry} from column p to
        column p2, written straight into the total complex's columns."""
        order = sorted((q + shift * p, p, i)
                       for p, col in enumerate(self.columns)
                       for i, q in enumerate(col.space.degrees))
        comps = {}
        self._glob = [[0] * col.space.dim for col in self.columns]
        for g, (n, p, i) in enumerate(order):
            comps.setdefault(n, []).append(
                f"p{p}|{self.columns[p].space.labels[i]}")
            self._glob[p][i] = g
        space = GradedVectorSpace(comps)
        columns = [{} for _ in order]
        for (p, p2), block in blocks.items():
            rows, cols = self._glob[p2], self._glob[p]
            for (r, c), x in block.items():
                if x:
                    columns[cols[c]][rows[r]] = x
        if check:
            degrees = space.degrees
            bad = min(((r, x) for x, col in enumerate(columns) for r in col
                       if degrees[r] != degrees[x] + 1), default=None)
            if bad is not None:
                entry = tuple(space.labels[i] for i in bad)
                raise ValueError(
                    f"entry {entry} violates degree 1 homogeneity")
        return FilteredTotalComplex(space, columns,
                                    [p for _n, p, _i in order],
                                    len(self.columns), check=check)

    def global_index(self, p, local):
        """Flat index in the total complex of position ``local`` of
        column p."""
        return self._glob[p][local]

    def block(self, p, j):
        """Block of the total differential from column p to column j, on
        the two columns' own bases."""
        return self.total.block(self._glob[j], self._glob[p])


def ce_delta_bar_on(col):
    """(δ̄φ)(s) = d_M φ(s) − Σ_i (−1)^{φ̄+|s₀…s_{i−1}|} φ(s₀, …, ds_i, …),
    built in one pass over the row tuples s: each term lands in the column
    of the basis tuple its argument normalizes to."""
    L, M, pb = col.source, col.target, col.pb
    dl, dm = L.differential.matrix, M.differential.matrix
    mdeg = M.space.degrees
    m = zeros(col.space.dim, col.space.dim)
    for s_pos, s in enumerate(pb.elements):
        rows = col.flat[s_pos]
        for r, drow in enumerate(dm):
            for w, c in enumerate(drow):
                if c:
                    m[rows[r]][rows[w]] += c
        prefix = 0
        for i, si in enumerate(s):
            for j, drow in enumerate(dl):
                c = drow[si]
                if not c:
                    continue
                sign, t = pb.normalize(s[:i] + (j,) + s[i + 1:])
                if not sign:
                    continue
                t_pos = pb.index(t)
                tdeg = pb.degree(t_pos)
                for w, pos in enumerate(col.flat[t_pos]):
                    m[rows[w]][pos] -= \
                        parity_sign(mdeg[w] - tdeg + prefix) * sign * c
            prefix += L.space.degrees[si]
    return m


def ce_delta_on(src, dst):
    """(δφ)(s) = (−1)^{φ̄+p} (Σ_i χ_i s_i·φ(s without s_i)
    − Σ_{i<j} χ_ij φ(s without s_i, s_j, [s_i, s_j])) with Koszul signs χ,
    built in one pass over the row tuples s of column p+1."""
    L, M = src.source, src.target
    p, p1 = src.p, dst.p
    mdeg = M.space.degrees
    m = zeros(dst.space.dim, src.space.dim)
    for s_pos, s in enumerate(dst.pb.elements):
        rows = dst.flat[s_pos]
        degs = [L.space.degrees[i] for i in s]
        for i, si in enumerate(s):
            sign, t = src.pb.normalize(s[:i] + s[i + 1:])
            if not sign:
                continue
            t_pos = src.pb.index(t)
            tdeg = src.pb.degree(t_pos)
            perm = [k for k in range(p1) if k != i] + [i]
            chi = sign * koszul_sign(degs, perm, antisymmetric=True)
            cols = src.flat[t_pos]
            for r, arow in enumerate(M.action[si]):
                for w, c in enumerate(arow):
                    if c:
                        m[rows[r]][cols[w]] += \
                            parity_sign(mdeg[w] - tdeg + p) * chi * c
        for i in range(p1):
            for j in range(i + 1, p1):
                br = L.bracket_column(s[i], s[j])
                if not br:
                    continue
                rest = tuple(s[k] for k in range(p1) if k != i and k != j)
                perm = [k for k in range(p1) if k != i and k != j] + [i, j]
                chi = koszul_sign(degs, perm, antisymmetric=True)
                for k, c in br:
                    sign, t = src.pb.normalize(rest + (k,))
                    if not sign:
                        continue
                    t_pos = src.pb.index(t)
                    tdeg = src.pb.degree(t_pos)
                    for w, pos in enumerate(src.flat[t_pos]):
                        m[rows[w]][pos] -= \
                            parity_sign(mdeg[w] - tdeg + p) * chi * sign * c
    return m


class CeBicomplex(ColumnComplex):
    """Columns Hom*(L^∧p, M) for p < l with both differentials, plus the
    assembled filtered total complex."""

    def __init__(self, alg, mod, l):
        if l < 1:
            raise ValueError("column bound must be at least 1")
        self.alg = alg
        self.mod = mod
        self.l = l
        self.columns = [form_column(alg, mod, p) for p in range(l)]
        self.delta_bar = [ce_delta_bar_on(c) for c in self.columns]
        self.delta = [ce_delta_on(self.columns[p], self.columns[p + 1])
                      for p in range(l - 1)]
        self._assert_bicomplex()
        # homogeneity, filtration compatibility and d**2 = 0 all follow
        # from the column-level identities asserted above
        blocks = {(p, p): _entries(db)
                  for p, db in enumerate(self.delta_bar)}
        blocks.update(((p, p + 1), _entries(dd))
                      for p, dd in enumerate(self.delta))
        self.total = self._assemble(blocks, shift=1, check=False)

    def _assert_bicomplex(self):
        for p in range(self.l):
            if not is_zero_mat(mat_mul(self.delta_bar[p], self.delta_bar[p])):
                raise ValueError(f"vertical differential squared ≠ 0 at p={p}")
        for p in range(self.l - 2):
            if not is_zero_mat(mat_mul(self.delta[p + 1], self.delta[p])):
                raise ValueError(f"horizontal differential squared ≠ 0 at p={p}")
        for p in range(self.l - 1):
            anti = mat_add(mat_mul(self.delta_bar[p + 1], self.delta[p]),
                           mat_mul(self.delta[p], self.delta_bar[p]))
            if not is_zero_mat(anti):
                raise ValueError(f"differentials do not anticommute at p={p}")


def _entries(m):
    """The nonzero entries of a dense matrix as {(row, col): entry}."""
    return {(r, c): x for r, row in enumerate(m) for c, x in enumerate(row)
            if x}


def build_ce(alg, mod, l):
    """Filtered total complex of the bicomplex of Hom*(L^∧p, M), p < l.

    The page oracle of ``perfbench/run.py`` calls ``build_ce(alg,
    adjoint_module(alg), l)`` to check the pages the CLI reads on a dg-Lie
    algebra's décalage, so this signature must not change."""
    return CeBicomplex(alg, mod, l).total


def pushforward_matrix(f, ce_src, ce_dst):
    """Chain map induced by postcomposition with f: L→M, as sparse columns
    {row: entry} on the flat bases, the form of the total differential.

    Both arguments are column complexes over the same source with the same
    column bound, the target's columns valued in M: CE(L,L) → CE(L,M) for
    two CeBicomplex instances, or the coderivation complex of the identity
    to the one along f for two LinfCeComplex instances.
    """
    cols = [{} for _ in range(ce_src.total.space.dim)]
    for p in range(ce_src.l):
        src, dst = ce_src.columns[p], ce_dst.columns[p]
        for m_idx in range(src.target.space.dim):
            image = [(r, row[m_idx]) for r, row in enumerate(f.matrix)
                     if row[m_idx]]
            for t_pos in range(len(src.pb)):
                cols[ce_src.global_index(p, src.index(t_pos, m_idx))] = {
                    ce_dst.global_index(p, dst.index(t_pos, r)): c
                    for r, c in image}
    return cols
