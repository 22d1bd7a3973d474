import os
import random
from fractions import Fraction

import pytest

from ceformality.cecomplex import (
    CeBicomplex, build_ce, pushforward_matrix,
)
from ceformality.dgla import DgLieAlgebra, adjoint_module, module_via_morphism
from ceformality.graded import GradedMap, GradedVectorSpace
from ceformality.linalg import Q1, rank, rref, zeros
from ceformality.linf import ce_linf_self, decalage
from ceformality.problems import load_problem
from ceformality.specseq import (
    FilteredTotalComplex, abutment_check, cell_coordinates, degenerates_at,
    page, page_cell, page_map, quotient_compare, r_max,
)

F = Fraction


def two_column_collapse():
    """x in F^0 degree 0 mapping isomorphically onto y in F^1 degree 1."""
    v = GradedVectorSpace({0: ["x"], 1: ["y"]})
    d = GradedMap.from_images(v, v, 1, {"x": [("y", 1)]})
    return FilteredTotalComplex(v, d, [0, 1], 2)


def zero_differential_ftc():
    v = GradedVectorSpace({0: ["a", "b"], 1: ["c"]})
    d = GradedMap.zero(v, v, 1)
    return FilteredTotalComplex(v, d, [0, 1, 0], 2)


def random_filtered_complex(seed, dim=6, length=3):
    """Seeded filtered complex: upper-triangular-in-level differential with
    d² = 0 arranged by construction (two-step flag)."""
    rng = random.Random(seed)
    degs = {}
    levels = []
    labels = []
    for i in range(dim):
        deg = rng.randint(0, 2)
        labels.append((deg, f"v{i}"))
        levels.append(rng.randint(0, length - 1))
    comps = {}
    order = sorted(range(dim), key=lambda i: (labels[i][0], i))
    sorted_levels = [levels[i] for i in order]
    for i in order:
        comps.setdefault(labels[i][0], []).append(labels[i][1])
    v = GradedVectorSpace(comps)
    # build d as N with rows/cols compatible with degree +1 and levels,
    # then enforce d² = 0 by zeroing one of each violating pair greedily
    m = zeros(dim, dim)
    entries = []
    for c in range(dim):
        for r in range(dim):
            if v.degrees[r] == v.degrees[c] + 1 \
                    and sorted_levels[r] >= sorted_levels[c]:
                entries.append((r, c))
    rng.shuffle(entries)
    for r, c in entries:
        m[r][c] = F(rng.randint(-2, 2))
        from ceformality.linalg import mat_mul, is_zero_mat
        if not is_zero_mat(mat_mul(m, m)):
            m[r][c] = F(0)
    d = GradedMap(v, v, 1, m)
    return FilteredTotalComplex(v, d, sorted_levels, length)


def test_zero_differential_pages_stationary():
    ftc = zero_differential_ftc()
    p0 = page(ftc, 0)
    for r in range(0, r_max(ftc) + 1):
        pr = page(ftc, r)
        for cell in p0.cells:
            assert pr.dim(*cell) == p0.dim(*cell)
            assert pr.differential_is_zero(*cell)
    ok, viol = degenerates_at(ftc, 0)
    assert ok and viol is None


def test_two_column_collapse_at_e2():
    ftc = two_column_collapse()
    p1 = page(ftc, 1)
    assert p1.dim(0, 0) == 1
    assert p1.dim(1, 0) == 1
    assert not p1.differential_is_zero(0, 0)
    p2 = page(ftc, 2)
    assert p2.dim(0, 0) == 0
    assert p2.dim(1, 0) == 0
    ok, viol = degenerates_at(ftc, 1)
    assert not ok and viol == (1, 0, 0)
    ok, _ = degenerates_at(ftc, 2)
    assert ok


def test_page_dimension_recursion():
    ftc = random_filtered_complex(11)
    for r in range(0, r_max(ftc)):
        pr = page(ftc, r)
        pnext = page(ftc, r + 1)
        cells = set(pr.cells) | set(pnext.cells)
        for (p, q) in cells:
            d_out = pr.differential(p, q)
            rk_out = rank(d_out) if d_out else 0
            d_in = pr.differential(p - r, q + r - 1)
            rk_in = rank(d_in) if d_in else 0
            assert pnext.dim(p, q) == pr.dim(p, q) - rk_out - rk_in


def test_dr_squares_to_zero():
    ftc = random_filtered_complex(23)
    from ceformality.linalg import mat_mul, is_zero_mat
    for r in range(0, r_max(ftc) + 1):
        pr = page(ftc, r)
        for (p, q) in pr.cells:
            a = pr.differential(p, q)
            b = pr.differential(p + r, q - r + 1)
            if a and b and len(b[0]) == len(a):
                assert is_zero_mat(mat_mul(b, a))


def test_ce_trivial_differential_degenerates_at_e2():
    L = DgLieAlgebra.from_data(
        {0: ["h", "e"]}, {}, {("h", "e"): [("e", 1)]})
    ftc = build_ce(L, adjoint_module(L), 4)
    for r in range(2, r_max(ftc) + 1):
        pr = page(ftc, r)
        for cell in pr.cells:
            assert pr.differential_is_zero(*cell)
    ok, _ = degenerates_at(ftc, 2)
    assert ok


def test_abutment_zero_differential():
    rep = abutment_check(zero_differential_ftc())
    assert rep["ok"]


@pytest.mark.parametrize("seed", [3, 7, 42])
def test_abutment_random(seed):
    rep = abutment_check(random_filtered_complex(seed))
    assert rep["ok"]


def test_abutment_single_column_ce():
    L = DgLieAlgebra.from_data(
        {0: ["a"], 1: ["b"]}, {"a": [("b", 1)]}, {})
    ftc = build_ce(L, adjoint_module(L), 1)
    rep = abutment_check(ftc)
    assert rep["ok"]


def test_quotient_compare_identity_at_full_length():
    ftc = random_filtered_complex(5)
    rep = quotient_compare(ftc, ftc.length)
    assert rep["ok"]
    for cell in rep["cells"]:
        assert cell["injective"] and cell["surjective"]


def test_quotient_compare_truncation():
    L = DgLieAlgebra.from_data(
        {0: ["h", "e"]}, {}, {("h", "e"): [("e", 1)]})
    ftc = build_ce(L, adjoint_module(L), 4)
    rep = quotient_compare(ftc, 2)
    assert rep["ok"]


@pytest.mark.parametrize("seed", [1, 9])
def test_quotient_compare_random(seed):
    ftc = random_filtered_complex(seed, dim=7, length=3)
    rep = quotient_compare(ftc, 2)
    assert rep["ok"]


def test_page_morphisms_commute_with_dr():
    # identity morphism L → L induces compatible page maps CE(L,L) → CE(L,M)
    L = DgLieAlgebra.from_data(
        {0: ["a", "c"], 1: ["b"]},
        {"a": [("b", 1)]},
        {("c", "a"): [("a", 1)], ("c", "b"): [("b", 1)]})
    f = GradedMap.identity_map(L.space)
    mod = module_via_morphism(f, L, L)
    ce_ll = CeBicomplex(L, adjoint_module(L), 3)
    ce_lm = CeBicomplex(L, mod, 3)
    push = pushforward_matrix(f, ce_ll, ce_lm)
    from ceformality.linalg import mat_mul
    for r in (1, 2):
        maps = page_map(ce_ll.total, ce_lm.total, push, r)
        src_pg = page(ce_ll.total, r)
        dst_pg = page(ce_lm.total, r)
        for (p, q), mat in maps.items():
            a = src_pg.differential(p, q)
            b = dst_pg.differential(p, q)
            tgt = maps.get((p + r, q - r + 1))
            if not (mat and a and b and tgt):
                continue
            lhs = mat_mul(b, mat)
            rhs = mat_mul(tgt, a)
            assert lhs == rhs


def test_quasi_isomorphism_pages_match_dimensionwise():
    # inclusion of the trivial-differential point algebra into its acyclic
    # extension is a quasi-isomorphism; E_r dims agree for r ≥ 1
    Lbig = DgLieAlgebra.from_data(
        {0: ["h", "e", "a"], 1: ["b"]},
        {"a": [("b", 1)]},
        {("h", "e"): [("e", 1)]})
    Lsmall = DgLieAlgebra.from_data(
        {0: ["h", "e"]}, {}, {("h", "e"): [("e", 1)]})
    ftc_small = build_ce(Lsmall, adjoint_module(Lsmall), 3)
    ftc_big = build_ce(Lbig, adjoint_module(Lbig), 3)
    for r in (1, 2):
        ps = page(ftc_small, r)
        pb = page(ftc_big, r)
        for cell in set(ps.cells) | set(pb.cells):
            assert ps.dim(*cell) == pb.dim(*cell), (r, cell)


def fixture_algebra(name):
    path = os.path.join(os.path.dirname(__file__), "fixtures", name + ".json")
    return load_problem(path)["algebra"]


def quadcone_total(l):
    alg = fixture_algebra("quadcone")
    return CeBicomplex(alg, adjoint_module(alg), l).total


@pytest.mark.parametrize("make", [
    lambda: ce_linf_self(decalage(fixture_algebra("endu"), 4), 4).total,
    lambda: quadcone_total(4),
], ids=["endu_decalage", "quadcone"])
def test_lazy_cells_equal_full_page_cells(make):
    lazy, full = make(), make()
    keys = [(r, p, n - p) for r in range(r_max(full) + 1)
            for p in range(-1, full.length + 1)
            for n in full.space.degree_support()]
    # read in reverse, so the lazy caches fill in another order than a page's
    cells = {key: page_cell(lazy, *key) for key in reversed(keys)}
    assert lazy._page_cache == {}
    populated = 0
    for r, p, q in keys:
        pg = page(full, r)
        cell = cells[(r, p, q)]
        if (p, q) not in pg.cells:
            assert cell is None and pg.dim(p, q) == 0, (r, p, q)
            continue
        want = pg.cells[(p, q)]
        assert cell["z"].basis == want["z"].basis, (r, p, q)
        assert cell["b"].basis == want["b"].basis, (r, p, q)
        assert cell["quot"].reps == want["quot"].reps, (r, p, q)
        for i, rep in enumerate(pg.representatives(p, q)):
            unit = [int(j == i) for j in range(pg.dim(p, q))]
            assert cell_coordinates(lazy, r, p, q, rep) == unit
            assert pg.coordinates(p, q, rep) == unit
        populated += 1
    assert populated
