"""The block-kernel page engine, kept as the tests' reference for the cells
that ``specseq`` reads off the barcode's reduction.

Every cycle space here is the kernel of one block of d, reduced from
scratch; every boundary space is the span of a cycle space one level deeper
and the images of the cycles one column left.  ``SpectralPage`` builds whole
pages eagerly, with the matrix of d_r out of every cell, and checks that d_r
never leaves the computed support.  Nothing here reads the barcode, so the
tests compare two independent constructions of the same cells.
``sparse_columns`` turns a dense differential into the columns that
``FilteredTotalComplex`` takes.

It also holds the reference checks that compare the engine's pages with
what they must equal: ``abutment_check`` (E_∞ against the filtration
induced on the total cohomology), ``quotient_compare`` (pages against the
pages of the quotient by F^lev) and ``ce_first_page_check`` (E₁ of the
bicomplex against forms on cohomology).  Each reads the engine's barcode
on one side and exact linear algebra on the other.

This module is imported by the tests; pytest does not collect it.
"""

from __future__ import annotations

from weakref import WeakKeyDictionary

from ceformality.cecomplex import build_ce
from ceformality.dgla import cohomology
from ceformality.graded import EXTERIOR, GradedVectorSpace, PowerBasis
from ceformality.linalg import (
    Q1, Quotient, Subspace, block_kernel, dense_vec, nullspace, rank,
    sparse_vec, vec_add, vec_scale, zero_vec, zeros,
)
from ceformality.specseq import (
    FilteredTotalComplex, barcode, page_map, r_max,
)

_caches = WeakKeyDictionary()


def _cache(ftc, kind):
    return _caches.setdefault(ftc, {}).setdefault(kind, {})


def cycle_space(ftc, p, n, r):
    """Z_r^{p,n-p} = {x in F^p of degree n with dx in F^{p+r}} (r ≥ -1),
    the kernel of the block of d on the degree-n columns at levels ≥ p and
    the degree-(n+1) rows at levels < p + r, memoized by that block."""
    levels = ftc.levels
    cols = tuple(i for i in ftc.space.indices_in_degree(n)
                 if levels[i] >= p)
    rows = tuple(i for i in ftc.space.indices_in_degree(n + 1)
                 if levels[i] < p + r)
    cache = _cache(ftc, "cycles")
    key = (rows, cols)
    if key not in cache:
        cache[key] = block_kernel(ftc.differential.matrix, rows, cols,
                                  ftc.space.dim)
    return cache[key]


def apply_dense(ftc, v):
    """d v for a sparse v, through the dense matrix of d rather than the
    columns the engine reads."""
    dim = ftc.space.dim
    return sparse_vec(ftc.differential.apply(dense_vec(v, dim)))


def boundary_space(ftc, p, n, r):
    """B_r at (p, n-p): Z_{r-1} one level deeper plus d(Z_{r-1} one column
    left)."""
    cache = _cache(ftc, "boundaries")
    key = (p, n, r)
    if key not in cache:
        below = cycle_space(ftc, p + 1, n, r - 1)
        dz_src = cycle_space(ftc, p - r + 1, n - 1, r - 1)
        images = [apply_dense(ftc, v) for v in dz_src.basis]
        cache[key] = Subspace(ftc.space.dim, below.basis + images)
    return cache[key]


def page_cell(ftc, r, p, q):
    """Cell E_r^{p,q} as {"z", "b", "quot"}, or None when it is zero."""
    cache = _cache(ftc, "cells")
    key = (r, p, q)
    if key not in cache:
        cell = None
        if 0 <= p < ftc.length:
            z = cycle_space(ftc, p, q + p, r)
            if z.dim:
                b = boundary_space(ftc, p, q + p, r)
                quot = Quotient(z, b)
                if quot.dim:
                    cell = {"z": z, "b": b, "quot": quot}
        cache[key] = cell
    return cache[key]


class SpectralPage:
    """Page r, built whole: each populated cell (p, q) carries Z_r, B_r,
    the quotient E_r = Z_r/B_r and the matrix of d_r into (p+r, q-r+1)."""

    def __init__(self, ftc, r):
        self.ftc = ftc
        self.r = r
        self.cells = {}
        for p in range(ftc.length):
            for n in ftc.space.degree_support():
                cell = page_cell(ftc, r, p, n - p)
                if cell is not None:
                    self.cells[(p, n - p)] = dict(cell)
        for (p, q), cell in self.cells.items():
            tgt = self.cells.get((p + r, q - r + 1))
            mat = zeros(tgt["quot"].dim if tgt else 0, cell["quot"].dim)
            for c, rep in enumerate(cell["quot"].reps):
                dv = apply_dense(ftc, rep)
                if tgt is None:
                    b = boundary_space(ftc, p + r, q + p + 1, r)
                    if not b.contains(dv):
                        raise AssertionError(
                            "differential leaves the computed page support")
                    continue
                for rr, val in enumerate(tgt["quot"].coordinates(dv)):
                    mat[rr][c] = val
            cell["d"] = mat

    def dim(self, p, q):
        cell = self.cells.get((p, q))
        return cell["quot"].dim if cell else 0

    def differential(self, p, q):
        cell = self.cells.get((p, q))
        return cell["d"] if cell else []

    def representatives(self, p, q):
        cell = self.cells.get((p, q))
        return cell["quot"].reps if cell else []

    def coordinates(self, p, q, vec):
        """Coordinates of the class of the r-cycle ``vec`` in E_r^{p,q}."""
        cell = self.cells.get((p, q))
        z = cell["z"] if cell else cycle_space(self.ftc, p, q + p, self.r)
        if not z.contains(vec):
            raise ValueError("vector is not an r-cycle at this cell")
        return cell["quot"].coordinates(vec) if cell else []

    def is_zero_class(self, p, q, vec):
        return all(c == 0 for c in self.coordinates(p, q, vec))

    def differential_is_zero(self, p, q):
        return all(x == 0 for row in self.differential(p, q) for x in row)


def sparse_columns(d):
    """d(e_x) as {row: entry} over its nonzero rows, for each column x of a
    dense ``GradedMap``: the form ``FilteredTotalComplex`` takes d in."""
    return [{r: row[x] for r, row in enumerate(d.matrix) if row[x]}
            for x in range(d.source.dim)]


def page(ftc, r):
    """Page r of ``ftc``, built once per complex."""
    cache = _cache(ftc, "pages")
    if r not in cache:
        cache[r] = SpectralPage(ftc, r)
    return cache[r]


def intersect(a, b):
    """The subspace a ∩ b, via the kernel of the stacked coefficient
    system."""
    if not a.basis or not b.basis:
        return Subspace(a.ambient)
    a_rows = [dense_vec(v, a.ambient) for v in a.basis]
    b_rows = [dense_vec(v, b.ambient) for v in b.basis]
    # columns: coefficients on a.basis then on b.basis
    m = []
    for i in range(a.ambient):
        m.append([v[i] for v in a_rows] + [-v[i] for v in b_rows])
    vecs = []
    for k in nullspace(m):
        v = zero_vec(a.ambient)
        for c, av in zip(k[: len(a_rows)], a_rows):
            if c:
                v = vec_add(v, vec_scale(c, av))
        vecs.append(sparse_vec(v))
    return Subspace(a.ambient, vecs)


def filtration_subspace(ftc, p):
    """F^p: the span of the basis vectors of level ≥ p."""
    return Subspace(ftc.space.dim, ({i: Q1}
                                    for i, lev in enumerate(ftc.levels)
                                    if lev >= p))


def quotient_by_level(ftc, lev):
    """The quotient complex by F^lev, with the index map old → new."""
    keep = [i for i, l in enumerate(ftc.levels) if l < lev]
    comps = {}
    for i in keep:
        comps.setdefault(ftc.space.degrees[i], []).append(
            ftc.space.labels[i])
    qspace = GradedVectorSpace(comps)
    index_map = {i: qspace.index(ftc.space.labels[i]) for i in keep}
    qcolumns = [{} for _ in range(qspace.dim)]
    qlevels = [0] * qspace.dim
    for i in keep:
        qcolumns[index_map[i]] = {index_map[r]: a
                                  for r, a in ftc.columns[i].items()
                                  if r in index_map}
        qlevels[index_map[i]] = ftc.levels[i]
    return (FilteredTotalComplex(qspace, qcolumns, qlevels, lev,
                                 check=False),
            index_map)


def abutment_check(ftc):
    """Assert dim E_∞^{p,q} equals the graded dimension of the filtration
    induced on the cohomology of the total complex."""
    einf = barcode(ftc).dims(r_max(ftc))
    dim = ftc.space.dim
    d = ftc.differential.matrix
    report = {"ok": True, "cells": []}
    for n in ftc.space.degree_support():
        below = ftc.space.indices_in_degree(n - 1)
        z = block_kernel(d, ftc.space.indices_in_degree(n + 1),
                         ftc.space.indices_in_degree(n), dim)
        b = Subspace(dim, (ftc.apply({i: Q1}) for i in below))

        def filt_h_dim(p):
            zp = intersect(z, filtration_subspace(ftc, p))
            bp = intersect(b, filtration_subspace(ftc, p))
            return zp.dim - bp.dim

        for p in range(ftc.length):
            gr = filt_h_dim(p) - filt_h_dim(p + 1)
            got = einf[(p, n - p)]
            report["cells"].append(
                {"p": p, "q": n - p, "e_inf": got, "gr_h": gr,
                 "ok": got == gr})
            if got != gr:
                report["ok"] = False
    return report


def quotient_compare(ftc, lev):
    """Compare pages of the complex with pages of its quotient by F^lev.

    The projection induces maps E_r^{p,q} → E(lev)_r^{p,q}; they must be
    injective for p < lev and surjective when additionally p + r ≤ lev.
    """
    qftc, index_map = quotient_by_level(ftc, lev)
    proj = [{} for _ in range(ftc.space.dim)]
    for old, new in index_map.items():
        proj[old] = {new: Q1}
    report = {"ok": True, "cells": []}
    for r in range(0, r_max(ftc) + 1):
        for (p, q), mat in page_map(ftc, qftc, proj, r).items():
            if p >= lev:
                continue
            ddim, sdim = len(mat), len(mat[0]) if mat else 0
            rk = rank(mat) if sdim and ddim else 0
            inj = rk == sdim
            surj = rk == ddim
            ok = inj and (surj or p + r > lev)
            report["cells"].append({"r": r, "p": p, "q": q, "injective": inj,
                                    "surjective": surj, "ok": ok})
            if not ok:
                report["ok"] = False
    return report


def ce_first_page_check(alg, mod, l):
    """Compare E₁ of the truncated bicomplex against graded dimensions of
    forms on cohomology with values in cohomology."""
    ftc = build_ce(alg, mod, l)
    hl = cohomology(alg.differential).cohomology
    hm = cohomology(mod.differential).cohomology
    e1 = barcode(ftc).dims(1)
    report = {"ok": True, "cells": []}
    for p in range(l):
        pb = PowerBasis(hl, EXTERIOR, p)
        expected = {}
        for t_pos in range(len(pb)):
            tdeg = pb.degree(t_pos)
            for m_idx in range(hm.dim):
                q = hm.degrees[m_idx] - tdeg
                expected[q] = expected.get(q, 0) + 1
        qs = set(expected) | {q for (pp, q) in e1 if pp == p}
        for q in sorted(qs):
            got = e1[(p, q)]
            want = expected.get(q, 0)
            report["cells"].append(
                {"p": p, "q": q, "e1_dim": got, "hom_dim": want,
                 "ok": got == want})
            if got != want:
                report["ok"] = False
    return report
