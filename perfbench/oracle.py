"""Independent page-dimension oracle for filtered complexes.

For a filtered complex with decreasing filtration F^p (basis vectors of level
≥ p) and differential d, let R(a, b, n) be the rank of the block of d whose
columns are the degree-n basis vectors of level ≥ a and whose rows are the
degree-(n+1) basis vectors of level < b.  With Z_r^{p,n} = F^p ∩ d⁻¹(F^{p+r})
and E_r = Z_r / (Z_{r-1}^{p+1} + d Z_{r-1}^{p-r+1}),

    dim Z_r^{p,n} = dim F^p_n − R(p, p+r, n)
    dim E_r^{p,n} = dim Z_r^{p,n} − dim Z_{r-1}^{p+1,n}
                    − R(p−r+1, p+1, n−1) + R(p−r+1, p, n−1)

(the last two terms count d Z_{r-1}^{p-r+1} modulo F^{p+1}).  Only ranks of
blocks of the total differential enter, computed by sympy over QQ, so neither
``specseq`` nor ``linalg`` is checked against itself.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def page_dimensions(levels, degrees, matrix, length, pages):
    """{r: {(p, q): dim}} for the given pages, nonzero cells only."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    dim = len(levels)
    support = sorted(set(degrees))

    def cols(a, n):
        return [i for i in range(dim) if levels[i] >= a and degrees[i] == n]

    @lru_cache(maxsize=None)
    def rank(a, b, n):
        cs = cols(a, n)
        rs = [i for i in range(dim)
              if levels[i] < b and degrees[i] == n + 1]
        if not cs or not rs:
            return 0
        block = [[_qq(QQ, matrix[r][c]) for c in cs] for r in rs]
        return DomainMatrix(block, (len(rs), len(cs)), QQ).rank()

    def z_dim(p, r, n):
        return len(cols(p, n)) - rank(p, p + r, n)

    out = {}
    for r in pages:
        cells = {}
        for p in range(length):
            for n in support:
                d = (z_dim(p, r, n) - z_dim(p + 1, r - 1, n)
                     - rank(p - r + 1, p + 1, n - 1)
                     + rank(p - r + 1, p, n - 1))
                if d:
                    cells[(p, n - p)] = d
        out[r] = cells
    return out


def _qq(field, x):
    if isinstance(x, float):
        # The exactness defect leaves floats such as 0.333… in the engine's
        # matrices; read each as the rational the engine meant, not as the
        # binary fraction it happens to hold.
        x = Fraction(x).limit_denominator(10 ** 6)
    x = Fraction(x)
    return field(x.numerator, x.denominator)
