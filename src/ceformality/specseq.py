"""Finite filtered complexes and their spectral sequences: the barcode,
one column reduction that gives every page dimension, every d_r source
and every cell's cycles and boundaries; page maps and degeneration
checks."""

from __future__ import annotations

from collections import Counter
from math import inf

from .graded import GradedMap
from .linalg import Q1, Quotient, Subspace, _axpy, apply_columns, zeros


class FilteredTotalComplex:
    """A finite complex with a decreasing coordinate filtration.

    Every flat basis vector carries a level 0 ≤ level < length; F^p is the
    span of basis vectors of level ≥ p, and the differential never lowers
    the level.  The differential is given as sparse columns: ``columns[x]``
    is d(e_x) as {row: entry} over its nonzero rows.  The dense
    ``differential`` is built from them on first read.  The cell cache is
    filled by ``page_cell``, the barcode by ``barcode``.
    """

    def __init__(self, space, columns, levels, length, check=True):
        self.space = space
        self.columns = columns
        self._differential = None
        self.levels = list(levels)
        self.length = length
        self._cell_cache = {}
        self._barcode = None
        if check:
            # filtration, then d² = 0, from the nonzero entries of each
            # column
            levels, columns = self.levels, self.columns
            if any(levels[r] < levels[x]
                   for x, col in enumerate(columns) for r in col):
                raise ValueError(
                    "differential does not respect the filtration")
            for col in columns:
                acc = {}
                for k, a in col.items():
                    for r, y in columns[k].items():
                        acc[r] = acc.get(r, 0) + a * y
                if any(acc.values()):
                    raise ValueError(
                        "total differential does not square to zero")

    @property
    def differential(self):
        """d as a dense ``GradedMap``, built once from the columns."""
        if self._differential is None:
            m = zeros(self.space.dim, self.space.dim)
            for x, col in enumerate(self.columns):
                for r, a in col.items():
                    m[r][x] = a
            self._differential = GradedMap(self.space, self.space, 1, m,
                                           check=False)
        return self._differential

    def apply(self, v):
        """d v for a sparse vector v, through the columns of its support."""
        return apply_columns(self.columns, v)

    def block(self, rows, cols):
        """The dense block of d on the flat indices ``rows`` × ``cols``."""
        at = {r: i for i, r in enumerate(rows)}
        m = zeros(len(rows), len(cols))
        for j, x in enumerate(cols):
            for r, a in self.columns[x].items():
                i = at.get(r)
                if i is not None:
                    m[i][j] = a
        return m


def page_cell(ftc, r, p, q):
    """Cell E_r^{p,q} as {"z": Z_r, "b": B_r, "quot": Z_r/B_r}, or None
    when E_r^{p,q} = 0.  Z_r and B_r are read off the barcode's reduction;
    the cell is memoized on the complex."""
    cache = ftc._cell_cache
    key = (r, p, q)
    if key not in cache:
        cell = None
        if 0 <= p < ftc.length:
            bc = barcode(ftc)
            z = bc.cycles(p, q + p, r)
            if z.dim:
                b = bc.boundaries(p, q + p, r)
                quot = Quotient(z, b)
                if quot.dim:
                    cell = {"z": z, "b": b, "quot": quot}
        cache[key] = cell
    return cache[key]


def cell_coordinates(ftc, r, p, q, vec):
    """Coordinates of the class of the r-cycle ``vec``, a sparse vector, in
    E_r^{p,q} (empty when the cell is zero)."""
    cell = page_cell(ftc, r, p, q)
    z = cell["z"] if cell else barcode(ftc).cycles(p, q + p, r)
    if not z.contains(vec):
        raise AssertionError("vector is not an r-cycle at this cell")
    return cell["quot"].coordinates(vec) if cell else []


def r_max(ftc):
    return ftc.length + 1


class Barcode:
    """The persistence pairing of a filtered complex, which fixes every
    cell of every page.

    One column reduction of d, with the basis ordered deepest level first
    and each column's pivot its lowest-level nonzero row, gives R = D·V:
    column x of R is d of the combination V_x = e_x + (earlier columns),
    which lies in F^{level(x)}, and the nonzero R_x have distinct pivots,
    so no combination of them cancels at its lowest level.  Rows and
    columns share one order, so with d² = 0 a pivot row's own column
    reduces to zero and no vector lies in two pairs.  Pairing x with the
    pivot y of R_x, both ends of a pair of gap s = level(y) − level(x)
    survive on pages 0..s, where d_s maps x's class onto y's; an unpaired
    vector survives to E_∞.  So dim E_r^{p,q} counts the unpaired vectors
    at (p, q) and both ends of the pairs with gap ≥ r there, and d_r is
    nonzero out of (p, q) exactly when a pair of gap r starts there.
    """

    def __init__(self, ftc):
        self.ftc = ftc
        levels = ftc.levels
        order = sorted(range(ftc.space.dim), key=lambda i: (-levels[i], i))
        pos = {i: k for k, i in enumerate(order)}
        self.owner = {}  # pivot row → the column whose R owns it
        self.reduced, self.combination = {}, {}  # x → R_x, V_x
        self._reach = [inf] * ftc.space.dim  # x → level(pivot of R_x)
        self.pairs = []
        for x in order:
            col, comb = dict(ftc.columns[x]), {x: Q1}
            while col:
                low = max(col, key=pos.__getitem__)
                y = self.owner.get(low)
                if y is None:
                    self.owner[low] = x
                    self._reach[x] = levels[low]
                    self.pairs.append((x, low, levels[low] - levels[x]))
                    break
                f = col[low] / self.reduced[y][low]
                _axpy(col, -f, self.reduced[y])
                _axpy(comb, -f, self.combination[y])
            self.reduced[x], self.combination[x] = col, comb
        paired = {i for x, y, _ in self.pairs for i in (x, y)}
        self.unpaired = [i for i in range(ftc.space.dim) if i not in paired]
        self._check()

    def _check(self):
        """Engine invariants: no pair lowers the level, and the unpaired
        vectors of degree n count dim H^n, from ranks of d computed apart
        from the reduction (``sparse_rank``, in index order)."""
        if any(gap < 0 for _, _, gap in self.pairs):
            raise AssertionError("barcode pair lowers the filtration level")
        space, columns = self.ftc.space, self.ftc.columns
        rank_out = {n: sparse_rank(columns[x]
                                   for x in space.indices_in_degree(n))
                    for n in space.degree_support()}
        for n, rk in rank_out.items():
            h = space.dim_in_degree(n) - rk - rank_out.get(n - 1, 0)
            got = sum(space.degrees[i] == n for i in self.unpaired)
            if got != h:
                raise AssertionError(
                    f"barcode leaves {got} unpaired vectors in degree {n}, "
                    f"but dim H^{n} = {h}")

    def _cell(self, i):
        p = self.ftc.levels[i]
        return p, self.ftc.space.degrees[i] - p

    def dims(self, r):
        """{(p, q): dim E_r^{p,q}} over the nonzero cells of page r."""
        ends = [i for x, y, gap in self.pairs if gap >= r for i in (x, y)]
        return Counter(map(self._cell, self.unpaired + ends))

    def differential_sources(self, r):
        """The cells (p, q) out of which d_r is nonzero."""
        return {self._cell(x) for x, _, gap in self.pairs if gap == r}

    def _generators(self, p, n, r):
        """The x of degree n whose V_x span Z_r^{p,n−p}: level(x) ≥ p, and
        R_x = 0 or its pivot has level ≥ p + r."""
        levels, reach = self.ftc.levels, self._reach
        return [x for x in self.ftc.space.indices_in_degree(n)
                if levels[x] >= p and reach[x] >= p + r]

    def cycles(self, p, n, r):
        """Z_r^{p,n−p} = {v ∈ F^p of degree n with dv ∈ F^{p+r}}."""
        return Subspace(self.ftc.space.dim, (
            self.combination[x] for x in self._generators(p, n, r)))

    def boundaries(self, p, n, r):
        """B_r^{p,n−p} = Z_{r−1}^{p+1} + d Z_{r−1}^{p−r+1}, where d V_x is
        R_x."""
        below = [self.combination[x]
                 for x in self._generators(p + 1, n, r - 1)]
        images = [self.reduced[x]
                  for x in self._generators(p - r + 1, n - 1, r - 1)]
        return Subspace(self.ftc.space.dim, below + images)


def sparse_rank(columns):
    """Rank of sparse columns {row: entry}, eliminated in index order: a
    column's pivot is its first nonzero row."""
    owners = {}
    for col in columns:
        col = dict(col)
        while col:
            top = min(col)
            other = owners.get(top)
            if other is None:
                owners[top] = col
                break
            _axpy(col, -col[top] / other[top], other)
    return len(owners)


def barcode(ftc):
    """The complex's ``Barcode``, computed once and cached on it."""
    if ftc._barcode is None:
        ftc._barcode = Barcode(ftc)
    return ftc._barcode


def degenerates_at(ftc, k, cell=None, last=None):
    """True when d_r vanishes for all k ≤ r ≤ last (at one cell or all),
    where ``last`` defaults to r_max.

    Returns (flag, first violating (r, p, q) or None), read off the
    barcode: d_r is nonzero exactly out of the cells where a pair of gap
    r starts.
    """
    bc = barcode(ftc)
    if last is None:
        last = r_max(ftc)
    for r in range(k, last + 1):
        sources = bc.differential_sources(r)
        if cell is not None:
            sources &= {tuple(cell)}
        if sources:
            return False, (r, *min(sources))
    return True, None


def page_map(src_ftc, dst_ftc, fcols, r):
    """Matrices induced on page r by a filtered chain map given as sparse
    columns on the flat bases, as d is, over the cells nonzero at either
    end.  Returns {(p, q): matrix}."""
    out = {}
    cells = set(barcode(src_ftc).dims(r)) | set(barcode(dst_ftc).dims(r))
    for (p, q) in sorted(cells):
        src = page_cell(src_ftc, r, p, q)
        dst = page_cell(dst_ftc, r, p, q)
        reps = src["quot"].reps if src else []
        mat = zeros(dst["quot"].dim if dst else 0, len(reps))
        for c, rep in enumerate(reps):
            img = apply_columns(fcols, rep)
            if dst:
                coords = cell_coordinates(dst_ftc, r, p, q, img)
                for rr, val in enumerate(coords):
                    mat[rr][c] = val
            elif img and not barcode(dst_ftc).boundaries(
                    p, q + p, r).contains(img):
                # target cell collapsed; the image class must vanish there
                raise AssertionError("map does not respect cycle spaces")
        out[(p, q)] = mat
    return out
