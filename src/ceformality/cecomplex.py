"""Bicomplex of module-valued alternating forms on a dg-Lie algebra:
the two anticommuting differentials, the column filtration, and the
column-truncated filtered total complex."""

from __future__ import annotations

from collections import Counter

from .dgla import CochainComplex, cohomology
from .graded import (
    EXTERIOR, GradedMap, GradedVectorSpace, PowerBasis, koszul_sign, parity_sign,
)
from .linalg import (
    Q1, Subspace, is_zero_mat, mat_add, mat_mul, vec_scale,
    zero_vec, zeros,
)


class HomColumn:
    """Hom*(L^∧p, M) with a flat graded basis.

    Basis elements are pairs (canonical wedge tuple t, target basis vector m)
    of internal degree deg(m) − deg(t); within each degree they are ordered by
    (source tuple, target index).
    """

    def __init__(self, alg, mod, p):
        self.alg = alg
        self.mod = mod
        self.p = p
        self.pb = PowerBasis(alg.space, EXTERIOR, p)
        items = []
        for t_pos in range(len(self.pb)):
            tdeg = self.pb.degree(t_pos)
            for m_idx in range(mod.space.dim):
                q = mod.space.degrees[m_idx] - tdeg
                items.append((q, t_pos, m_idx))
        items.sort()
        comps = {}
        self.pairs = []
        self._flat = {}
        for flat, (q, t_pos, m_idx) in enumerate(items):
            tl = self.pb.label(t_pos) if p > 0 else "1"
            lab = f"{tl}=>{mod.space.labels[m_idx]}"
            comps.setdefault(q, []).append(lab)
            self.pairs.append((t_pos, m_idx))
            self._flat[(t_pos, m_idx)] = flat
        self.space = GradedVectorSpace(comps)

    def index(self, t_pos, m_idx):
        return self._flat[(t_pos, m_idx)]

    def evaluate(self, vec, args):
        """Value of the form ``vec`` on an arbitrary index tuple, in M."""
        out = zero_vec(self.mod.space.dim)
        sign, canon = self.pb.normalize(args)
        if sign == 0 or canon not in self.pb._index:
            return out
        t_pos = self.pb.index(canon)
        for m_idx in range(self.mod.space.dim):
            c = vec[self.index(t_pos, m_idx)]
            if c:
                out[m_idx] += sign * c
        return out


def _delta_bar_on_basis(col, t_pos, m_idx):
    """Vertical differential of the basis form e_{t,m}, as a column vector.

    The form is supported on the single canonical tuple t, so evaluation on
    an argument tuple reduces to a normalize-and-compare.
    """
    L, M, p = col.alg, col.mod, col.p
    t = col.pb.elements[t_pos]
    phi_deg = col.space.degrees[col.index(t_pos, m_idx)]

    def eval_on(args):
        sign, canon = col.pb.normalize(args)
        return sign if sign and canon == t else 0

    out = zero_vec(col.space.dim)
    t_count = Counter(t)
    for s_pos, s in enumerate(col.pb.elements):
        # the form vanishes unless s minus at most one entry matches t
        if sum((Counter(s) - t_count).values()) > 1:
            continue
        val = zero_vec(M.space.dim)
        if s == t:
            for r in range(M.space.dim):
                val[r] = M.differential.matrix[r][m_idx]
        sign_exp = phi_deg
        for i in range(p):
            outer = -parity_sign(sign_exp)
            for j in range(L.space.dim):
                c = L.differential.matrix[j][s[i]]
                if c:
                    sgn = eval_on(s[:i] + (j,) + s[i + 1:])
                    if sgn:
                        val[m_idx] += outer * sgn * c
            sign_exp += L.space.degrees[s[i]]
        for m2 in range(M.space.dim):
            if val[m2]:
                out[col.index(s_pos, m2)] += val[m2]
    return out


def ce_delta_bar(alg, mod, p):
    """Matrix of the vertical differential on Hom*(L^∧p, M)."""
    col = HomColumn(alg, mod, p)
    return ce_delta_bar_on(col), col


def ce_delta_bar_on(col):
    n = col.space.dim
    m = zeros(n, n)
    for t_pos in range(len(col.pb)):
        for m_idx in range(col.mod.space.dim):
            v = _delta_bar_on_basis(col, t_pos, m_idx)
            c = col.index(t_pos, m_idx)
            for r in range(n):
                m[r][c] = v[r]
    return m


def _delta_on_basis(src, dst, t_pos, m_idx):
    """Horizontal differential of a basis form of Hom*(L^∧p, M), landing in
    Hom*(L^∧(p+1), M)."""
    L, M = src.alg, src.mod
    p1 = dst.p
    t = src.pb.elements[t_pos]
    phi_deg = src.space.degrees[src.index(t_pos, m_idx)]
    lead = parity_sign(phi_deg + src.p)
    out = zero_vec(dst.space.dim)

    def eval_on(args):
        sign, canon = src.pb.normalize(args)
        return sign if sign and canon == t else 0

    t_count = Counter(t)
    for s_pos, s in enumerate(dst.pb.elements):
        # the form vanishes unless s minus at most two entries matches t
        extras = sum((Counter(s) - t_count).values())
        if extras > 2:
            continue
        degs = [L.space.degrees[i] for i in s]
        val = zero_vec(M.space.dim)
        for i in range(p1):
            sgn = eval_on(s[:i] + s[i + 1:])
            if not sgn:
                continue
            perm = [k for k in range(p1) if k != i] + [i]
            chi = koszul_sign(degs, perm, antisymmetric=True)
            # s[i] acting on the basis vector m is column m of its action
            for r, row in enumerate(M.action[s[i]]):
                if row[m_idx]:
                    val[r] += chi * sgn * row[m_idx]
        for i in range(p1):
            for j in range(i + 1, p1):
                rest = tuple(s[k] for k in range(p1) if k != i and k != j)
                br = L.bracket_basis(s[i], s[j])
                coeff = 0
                for k, c in enumerate(br):
                    if c:
                        sgn = eval_on(rest + (k,))
                        if sgn:
                            coeff += sgn * c
                if not coeff:
                    continue
                perm = [k for k in range(p1) if k != i and k != j] + [i, j]
                chi = koszul_sign(degs, perm, antisymmetric=True)
                val[m_idx] -= chi * coeff
        val = vec_scale(lead, val)
        for m2 in range(M.space.dim):
            if val[m2]:
                out[dst.index(s_pos, m2)] += val[m2]
    return out


def ce_delta(alg, mod, p):
    """Matrix of the horizontal differential Hom*(L^∧p,M) → Hom*(L^∧(p+1),M)."""
    src = HomColumn(alg, mod, p)
    dst = HomColumn(alg, mod, p + 1)
    return ce_delta_on(src, dst), src, dst


def ce_delta_on(src, dst):
    m = zeros(dst.space.dim, src.space.dim)
    for t_pos in range(len(src.pb)):
        for m_idx in range(src.mod.space.dim):
            v = _delta_on_basis(src, dst, t_pos, m_idx)
            c = src.index(t_pos, m_idx)
            for r in range(dst.space.dim):
                m[r][c] = v[r]
    return m


class FilteredTotalComplex:
    """A finite complex with a decreasing coordinate filtration.

    Every flat basis vector carries a level 0 ≤ level < length; F^p is the
    span of basis vectors of level ≥ p, and the differential never lowers
    the level.
    """

    def __init__(self, space, differential, levels, length, check=True):
        self.space = space
        self.differential = differential
        self.levels = list(levels)
        self.length = length
        if check:
            d = differential.matrix
            for c in range(space.dim):
                for r in range(space.dim):
                    if d[r][c] != 0 and self.levels[r] < self.levels[c]:
                        raise ValueError(
                            "differential does not respect the filtration")
            if not is_zero_mat(mat_mul(d, d)):
                raise ValueError("total differential does not square to zero")

    @property
    def complex(self):
        return CochainComplex(self.space, self.differential, check=False)

    def filtration_subspace(self, p):
        vecs = []
        for i, lev in enumerate(self.levels):
            if lev >= p:
                e = zero_vec(self.space.dim)
                e[i] = Q1
                vecs.append(e)
        return Subspace(self.space.dim, vecs)

    def quotient_by_level(self, lev):
        """The quotient complex by F^lev, with the index map old → new."""
        keep = [i for i, l in enumerate(self.levels) if l < lev]
        comps = {}
        for i in keep:
            comps.setdefault(self.space.degrees[i], []).append(
                self.space.labels[i])
        qspace = GradedVectorSpace(comps)
        index_map = {i: qspace.index(self.space.labels[i]) for i in keep}
        d = self.differential.matrix
        qd = zeros(qspace.dim, qspace.dim)
        for c in keep:
            for r in keep:
                qd[index_map[r]][index_map[c]] = d[r][c]
        qlevels = [0] * qspace.dim
        for i in keep:
            qlevels[index_map[i]] = self.levels[i]
        qdiff = GradedMap(qspace, qspace, 1, qd)
        return (FilteredTotalComplex(qspace, qdiff, qlevels, lev, check=False),
                index_map)


class CeBicomplex:
    """Columns Hom*(L^∧p, M) for p < l with both differentials, plus the
    assembled filtered total complex."""

    def __init__(self, alg, mod, l):
        if l < 1:
            raise ValueError("column bound must be at least 1")
        self.alg = alg
        self.mod = mod
        self.l = l
        self.columns = [HomColumn(alg, mod, p) for p in range(l)]
        self.delta_bar = [ce_delta_bar_on(c) for c in self.columns]
        self.delta = [ce_delta_on(self.columns[p], self.columns[p + 1])
                      for p in range(l - 1)]
        self._assert_bicomplex()
        self.total = self._assemble()

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

    def _assemble(self):
        comps = {}
        order = []  # (p, local flat index) in total flat order
        for n in self._total_degrees():
            for p, col in enumerate(self.columns):
                for i in col.space.indices_in_degree(n - p):
                    comps.setdefault(n, []).append(
                        f"p{p}|{col.space.labels[i]}")
                    order.append((p, i))
        space = GradedVectorSpace(comps)
        glob = {}
        for g, (p, i) in enumerate(order):
            glob[(p, i)] = g
        levels = [p for (p, _i) in order]
        dmat = zeros(space.dim, space.dim)
        for p, col in enumerate(self.columns):
            db = self.delta_bar[p]
            for c in range(col.space.dim):
                gc = glob[(p, c)]
                for r in range(col.space.dim):
                    if db[r][c]:
                        dmat[glob[(p, r)]][gc] += db[r][c]
                if p < self.l - 1:
                    dd = self.delta[p]
                    for r in range(self.columns[p + 1].space.dim):
                        if dd[r][c]:
                            dmat[glob[(p + 1, r)]][gc] += dd[r][c]
        # homogeneity, filtration compatibility and d**2 = 0 all follow
        # from the column-level identities asserted above
        diff = GradedMap(space, space, 1, dmat, check=False)
        ftc = FilteredTotalComplex(space, diff, levels, self.l, check=False)
        ftc.cell_of_index = order
        return ftc

    def _total_degrees(self):
        ns = set()
        for p, col in enumerate(self.columns):
            for q in col.space.degree_support():
                ns.add(p + q)
        return sorted(ns)

    def global_index(self, p, local):
        lab = f"p{p}|{self.columns[p].space.labels[local]}"
        return self.total.space.index(lab)


def build_ce(alg, mod, l):
    """Filtered total complex of the bicomplex of Hom*(L^∧p, M), p < l."""
    return CeBicomplex(alg, mod, l).total


def pushforward_matrix(f, ce_src, ce_dst):
    """Chain map CE(L,L) → CE(L,M) induced by postcomposition with f: L→M.

    Both arguments are CeBicomplex instances over the same L with the same
    column bound; the target has coefficients in M via f.
    """
    m = zeros(ce_dst.total.space.dim, ce_src.total.space.dim)
    for p in range(ce_src.l):
        src, dst = ce_src.columns[p], ce_dst.columns[p]
        for t_pos in range(len(src.pb)):
            for m_idx in range(src.mod.space.dim):
                gc = ce_src.global_index(p, src.index(t_pos, m_idx))
                for r in range(dst.mod.space.dim):
                    c = f.matrix[r][m_idx]
                    if c:
                        gr = ce_dst.global_index(p, dst.index(t_pos, r))
                        m[gr][gc] += c
    return m


def pullback_matrix(f, ce_src, ce_dst):
    """Chain map CE(M,M) → CE(L,M) induced by precomposition with wedge
    powers of f: L→M."""
    m = zeros(ce_dst.total.space.dim, ce_src.total.space.dim)
    for p in range(ce_src.l):
        src, dst = ce_src.columns[p], ce_dst.columns[p]
        for s_pos, s in enumerate(dst.pb.elements):
            # expand f^∧p on the canonical wedge s of L-basis vectors
            terms = [(Q1, ())]
            for idx in s:
                new = []
                for coeff, tup in terms:
                    for r in range(f.target.dim):
                        c = f.matrix[r][idx]
                        if c:
                            new.append((coeff * c, tup + (r,)))
                terms = new
            for coeff, tup in terms:
                sign, canon = src.pb.normalize(tup)
                if sign == 0 or canon not in src.pb._index:
                    continue
                t_pos = src.pb.index(canon)
                for m_idx in range(src.mod.space.dim):
                    gc = ce_src.global_index(p, src.index(t_pos, m_idx))
                    gr = ce_dst.global_index(p, dst.index(s_pos, m_idx))
                    m[gr][gc] += sign * coeff
    return m


def ce_first_page_check(alg, mod, l):
    """Compare E₁ of the truncated bicomplex against graded dimensions of
    forms on cohomology with values in cohomology."""
    from .specseq import page

    ftc = build_ce(alg, mod, l)
    hl = cohomology(CochainComplex(alg.space, alg.differential,
                                   check=False)).cohomology
    hm = cohomology(CochainComplex(mod.space, mod.differential,
                                   check=False)).cohomology
    e1 = page(ftc, 1)
    report = {"ok": True, "cells": []}
    for p in range(l):
        pb = PowerBasis(hl, EXTERIOR, p)
        expected = {}
        for t_pos in range(len(pb)):
            tdeg = pb.degree(t_pos)
            for m_idx in range(hm.dim):
                q = hm.degrees[m_idx] - tdeg
                expected[q] = expected.get(q, 0) + 1
        qs = set(expected) | {q for (pp, q) in e1.cells if pp == p}
        for q in sorted(qs):
            got = e1.dim(p, q)
            want = expected.get(q, 0)
            report["cells"].append(
                {"p": p, "q": q, "e1_dim": got, "hom_dim": want,
                 "ok": got == want})
            if got != want:
                report["ok"] = False
    return report
