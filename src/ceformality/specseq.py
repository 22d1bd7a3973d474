"""Finite filtered complexes and their spectral sequences: pages,
differentials, degeneration checks, abutment comparison, and
quotient-filtration comparison."""

from __future__ import annotations

from itertools import compress

from .graded import GradedMap, GradedVectorSpace
from .linalg import (
    Q1, Quotient, Subspace, block_kernel, is_zero_vec, mat_vec, rank,
    zero_vec, zeros,
)


class FilteredTotalComplex:
    """A finite complex with a decreasing coordinate filtration.

    Every flat basis vector carries a level 0 ≤ level < length; F^p is the
    span of basis vectors of level ≥ p, and the differential never lowers
    the level.  The cycle, boundary, cell and page caches are filled by
    ``cycle_space``, ``boundary_space``, ``page_cell`` and ``page``.
    """

    def __init__(self, space, differential, levels, length, check=True):
        self.space = space
        self.differential = differential
        self.levels = list(levels)
        self.length = length
        self._cycle_cache = {}
        self._boundary_cache = {}
        self._cell_cache = {}
        self._page_cache = {}
        if check:
            # filtration, then d² = 0, from the nonzero entries of each row
            d = differential.matrix
            levels = self.levels
            support = [list(compress(range(space.dim), row)) for row in d]
            for r, cols in enumerate(support):
                if any(levels[r] < levels[c] for c in cols):
                    raise ValueError(
                        "differential does not respect the filtration")
            for row, cols in zip(d, support):
                acc = {}
                for k in cols:
                    x, drow = row[k], d[k]
                    for c in support[k]:
                        acc[c] = acc.get(c, 0) + x * drow[c]
                if any(acc.values()):
                    raise ValueError(
                        "total differential does not square to zero")

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


def cycle_space(ftc, p, n, r):
    """Z_r^{p,n-p} = {x in F^p of degree n with dx in F^{p+r}} (r ≥ -1).

    Results are memoized on the complex: page constructions across r and
    quotient comparisons revisit the same (p, n, r) triples many times.
    """
    cache = ftc._cycle_cache
    key = (p, n, r)
    hit = cache.get(key)
    if hit is not None:
        return hit
    dim = ftc.space.dim
    p_eff = max(0, p)
    idx = [i for i in range(dim)
           if ftc.levels[i] >= p_eff and ftc.space.degrees[i] == n]
    if p >= ftc.length or not idx:
        cache[key] = Subspace(dim, [])
        return cache[key]
    target_level = p + r
    # d is degree-homogeneous, so only degree n+1 rows can constrain
    rows = [i for i in range(dim) if ftc.levels[i] < target_level
            and ftc.space.degrees[i] == n + 1]
    cache[key] = block_kernel(ftc.differential.matrix, rows, idx, dim)
    return cache[key]


def boundary_space(ftc, p, n, r):
    """B_r at (p, n-p): d(Z_{r-1} one column left) plus Z_{r-1} one level
    deeper.  Memoized alongside the cycle spaces."""
    cache = ftc._boundary_cache
    key = (p, n, r)
    hit = cache.get(key)
    if hit is not None:
        return hit
    below = cycle_space(ftc, p + 1, n, r - 1)
    dz_src = cycle_space(ftc, p - r + 1, n - 1, r - 1)
    d_images = [ftc.differential.apply(v) for v in dz_src.basis]
    cache[key] = below.sum(Subspace(ftc.space.dim, d_images))
    return cache[key]


def page_cell(ftc, r, p, q):
    """Cell E_r^{p,q} as {"z": Z_r, "b": B_r, "quot": Z_r/B_r}, or None
    when E_r^{p,q} = 0.  Memoized on the complex, so a full page and a
    caller reading single cells share one computation per cell."""
    cache = ftc._cell_cache
    key = (r, p, q)
    if key in cache:
        return cache[key]
    cell = None
    if 0 <= p < ftc.length:
        z = cycle_space(ftc, p, q + p, r)
        if z.dim:
            b = boundary_space(ftc, p, q + p, r)
            quot = Quotient(z, b)
            if quot.dim:
                cell = {"z": z, "b": b, "quot": quot}
    cache[key] = cell
    return cell


def cell_coordinates(ftc, r, p, q, vec):
    """Coordinates of the class of the r-cycle ``vec`` in E_r^{p,q}
    (empty when the cell is zero)."""
    cell = page_cell(ftc, r, p, q)
    z = cell["z"] if cell else cycle_space(ftc, p, q + p, r)
    if not z.contains(vec):
        raise ValueError("vector is not an r-cycle at this cell")
    return cell["quot"].coordinates(vec) if cell else []


class SpectralPage:
    """Page r of the spectral sequence of a filtered complex.

    Each populated cell (p, q) carries the cycle space Z_r, the boundary part
    B_r, the quotient E_r = Z_r/B_r with canonical representatives, and the
    matrix of d_r into cell (p+r, q-r+1).
    """

    def __init__(self, ftc, r):
        self.ftc = ftc
        self.r = r
        self.cells = {}
        self._build()

    def _build(self):
        ftc = self.ftc
        r = self.r
        for p in range(ftc.length):
            for n in ftc.space.degree_support():
                cell = page_cell(ftc, r, p, n - p)
                if cell is not None:
                    self.cells[(p, n - p)] = dict(cell)
        for (p, q), cell in self.cells.items():
            tgt = self.cells.get((p + r, q - r + 1))
            mat = zeros(tgt["quot"].dim if tgt else 0, cell["quot"].dim)
            for c, rep in enumerate(cell["quot"].reps):
                dv = self.ftc.differential.apply(rep)
                if tgt is None:
                    if not tgt_free_is_zero(self, p + r, q - r + 1, dv):
                        raise AssertionError(
                            "differential leaves the computed page support")
                    continue
                coords = tgt["quot"].coordinates(dv)
                for rr, val in enumerate(coords):
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
        """Coordinates of the class of ``vec`` in E_r^{p,q}."""
        return cell_coordinates(self.ftc, self.r, p, q, vec)

    def is_zero_class(self, p, q, vec):
        coords = self.coordinates(p, q, vec)
        return all(c == 0 for c in coords)

    def differential_is_zero(self, p, q):
        cell = self.cells.get((p, q))
        if cell is None:
            return True
        return all(all(x == 0 for x in row) for row in cell["d"])


def tgt_free_is_zero(page_obj, p, q, vec):
    """When the target cell collapsed to zero, the class of ``vec`` there
    must vanish; check membership in the boundary subspace."""
    b = boundary_space(page_obj.ftc, p, q + p, page_obj.r)
    return b.contains(vec)


def page(ftc, r):
    cache = ftc._page_cache
    if r not in cache:
        cache[r] = SpectralPage(ftc, r)
    return cache[r]


def r_max(ftc):
    return ftc.length + 1


def degenerates_at(ftc, k, cell=None):
    """True when d_r vanishes for all k ≤ r ≤ r_max (at one cell or all).

    Returns (flag, first violating (r, p, q) or None).
    """
    for r in range(k, r_max(ftc) + 1):
        pg = page(ftc, r)
        if cell is not None:
            if not pg.differential_is_zero(*cell):
                return False, (r, cell[0], cell[1])
            continue
        for (p, q) in sorted(pg.cells):
            if not pg.differential_is_zero(p, q):
                return False, (r, p, q)
    return True, None


def abutment_check(ftc):
    """Assert dim E_∞^{p,q} equals the graded dimension of the filtration
    induced on the cohomology of the total complex."""
    einf = page(ftc, r_max(ftc))
    dim = ftc.space.dim
    d = ftc.differential.matrix
    report = {"ok": True, "cells": []}
    for n in ftc.space.degree_support():
        below = ftc.space.indices_in_degree(n - 1)
        z = block_kernel(d, ftc.space.indices_in_degree(n + 1),
                         ftc.space.indices_in_degree(n), dim)
        bvecs = []
        for i in below:
            e = zero_vec(dim)
            e[i] = Q1
            bvecs.append(ftc.differential.apply(e))
        b = Subspace(dim, bvecs)

        def filt_h_dim(p):
            zp = z.intersect(ftc.filtration_subspace(p))
            bp = b.intersect(ftc.filtration_subspace(p))
            return zp.dim - bp.dim

        for p in range(ftc.length):
            gr = filt_h_dim(p) - filt_h_dim(p + 1)
            got = einf.dim(p, n - p)
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
    qftc, index_map = ftc.quotient_by_level(lev)
    proj = zeros(qftc.space.dim, ftc.space.dim)
    for old, new in index_map.items():
        proj[new][old] = Q1
    report = {"ok": True, "cells": []}
    for r in range(0, r_max(ftc) + 1):
        src_pg = page(ftc, r)
        dst_pg = page(qftc, r)
        cells = {(p, q) for (p, q) in src_pg.cells if p < lev}
        cells |= {(p, q) for (p, q) in dst_pg.cells if p < lev}
        for (p, q) in sorted(cells):
            sdim = src_pg.dim(p, q)
            ddim = dst_pg.dim(p, q)
            mat = zeros(ddim, sdim)
            for c, rep in enumerate(src_pg.representatives(p, q)):
                coords = dst_pg.coordinates(p, q, mat_vec(proj, rep)) \
                    if ddim else []
                for rr, val in enumerate(coords):
                    mat[rr][c] = val
            rk = rank(mat) if sdim and ddim else 0
            inj = rk == sdim
            surj = rk == ddim
            entry = {"r": r, "p": p, "q": q, "injective": inj,
                     "surjective": surj}
            ok = inj and (surj or p + r > lev)
            entry["ok"] = ok
            report["cells"].append(entry)
            if not ok:
                report["ok"] = False
    return report


def page_map(src_ftc, dst_ftc, fmat, r):
    """Matrices induced on page r by a filtered chain map given as a matrix
    on the flat bases.  Returns {(p, q): matrix}."""
    src_pg = page(src_ftc, r)
    dst_pg = page(dst_ftc, r)
    out = {}
    cells = set(src_pg.cells) | set(dst_pg.cells)
    for (p, q) in sorted(cells):
        sdim = src_pg.dim(p, q)
        ddim = dst_pg.dim(p, q)
        mat = zeros(ddim, sdim)
        for c, rep in enumerate(src_pg.representatives(p, q)):
            img = mat_vec(fmat, rep)
            if ddim:
                coords = dst_pg.coordinates(p, q, img)
                for rr, val in enumerate(coords):
                    mat[rr][c] = val
            elif not is_zero_vec(img):
                # target cell collapsed; the image class must vanish there
                if not tgt_free_is_zero(dst_pg, p, q, img):
                    raise ValueError("map does not respect cycle spaces")
        out[(p, q)] = mat
    return out
