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

This module is imported by the tests; pytest does not collect it.
"""

from __future__ import annotations

from weakref import WeakKeyDictionary

from ceformality.linalg import Quotient, Subspace, block_kernel, zeros

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


def boundary_space(ftc, p, n, r):
    """B_r at (p, n-p): Z_{r-1} one level deeper plus d(Z_{r-1} one column
    left)."""
    cache = _cache(ftc, "boundaries")
    key = (p, n, r)
    if key not in cache:
        below = cycle_space(ftc, p + 1, n, r - 1)
        dz_src = cycle_space(ftc, p - r + 1, n - 1, r - 1)
        images = [ftc.differential.apply(v) for v in dz_src.basis]
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
                dv = ftc.differential.apply(rep)
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
