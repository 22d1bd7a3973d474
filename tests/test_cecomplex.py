from fractions import Fraction

import pytest

from ceformality.cecomplex import (
    CeBicomplex, HomColumn, build_ce, ce_delta, ce_delta_bar,
    ce_first_page_check, pushforward_matrix,
)
from ceformality.dgla import DgLieAlgebra, adjoint_module, module_via_morphism
from ceformality.graded import GradedMap
from ceformality.linalg import Q1, is_zero_mat, mat_mul, mat_vec, zero_vec
from ceformality.linf import (
    LInfinityMorphism, LinfCeComplex, ce_linf_self, decalage,
)

F = Fraction


def affine2():
    return DgLieAlgebra.from_data(
        {0: ["h", "e"]}, {}, {("h", "e"): [("e", 1)]})


def contractible2():
    return DgLieAlgebra.from_data(
        {0: ["a"], 1: ["b"]}, {"a": [("b", 1)]}, {})


def unit(n, i):
    v = zero_vec(n)
    v[i] = Q1
    return v


def test_delta_bar_p0_is_module_differential():
    L = contractible2()
    mod = adjoint_module(L)
    mat, col = ce_delta_bar(L, mod, 0)
    # on the p=0 column the vertical differential is just d_M
    for m_idx in range(2):
        c = col.index(0, m_idx)
        got = [mat[r][c] for r in range(col.space.dim)]
        want = zero_vec(col.space.dim)
        dm = mod.differential.apply(unit(2, m_idx))
        for r, val in enumerate(dm):
            if val:
                want[col.index(0, r)] = val
        assert got == want


def test_delta_bar_zero_when_differentials_vanish():
    L = affine2()
    mod = adjoint_module(L)
    for p in range(3):
        mat, _ = ce_delta_bar(L, mod, p)
        assert is_zero_mat(mat)


def test_delta_bar_is_hom_complex_differential():
    # single generator a in degree 0, b in degree 1, d(a)=b, zero bracket:
    # on Hom(L, L) the vertical differential must be φ ↦ d∘φ − (−1)^{φ̄} φ∘d
    L = contractible2()
    mod = adjoint_module(L)
    mat, col = ce_delta_bar(L, mod, 1)
    n = col.space.dim
    assert n == 4
    for t_pos in range(2):
        for m_idx in range(2):
            c = col.index(t_pos, m_idx)
            phi_deg = col.space.degrees[c]
            got = [mat[r][c] for r in range(n)]
            want = zero_vec(n)
            # d∘φ part: φ(x_t) = e_m, so value d(e_m) on x_t
            dm = mod.differential.apply(unit(2, m_idx))
            for r, val in enumerate(dm):
                if val:
                    want[col.index(t_pos, r)] += val
            # −(−1)^{φ̄} φ∘d part: for each source s with d(e_s) ⊇ e_t
            for s in range(2):
                coeff = L.differential.matrix[t_pos][s]
                if coeff:
                    want[col.index(s, m_idx)] += -((-1) ** phi_deg) * coeff
            assert got == want


def test_delta_on_identity_gives_bracket():
    # (δ Id)(x, y) = (−1)^{x̄ȳ}[y, x] = −[x, y] for even arguments
    L = affine2()
    mod = adjoint_module(L)
    mat, src, dst = ce_delta(L, mod, 1)
    phi = zero_vec(src.space.dim)
    phi[src.index(0, 0)] = Q1  # h => h
    phi[src.index(1, 1)] = Q1  # e => e
    img = mat_vec(mat, phi)
    val = dst.evaluate(img, (0, 1))  # on h ∧ e
    assert val == [-c for c in L.bracket_basis(0, 1)] == [F(0), F(-1)]


def test_delta_p0_formula():
    # (δ m)(x) = (−1)^{m̄} [m, x]
    L = affine2()
    mod = adjoint_module(L)
    mat, src, dst = ce_delta(L, mod, 0)
    for m_idx in range(2):
        phi = zero_vec(src.space.dim)
        phi[src.index(0, m_idx)] = Q1
        img = mat_vec(mat, phi)
        for x in range(2):
            got = dst.evaluate(img, (x,))
            want = mod.act(unit(2, m_idx), unit(2, x))
            assert got == want


def test_delta_kernel_is_derivations():
    # kernel of δ: Hom(L,M) → Hom(Λ²L,M) = derivations L→M
    L = affine2()
    mod = adjoint_module(L)
    mat, src, dst = ce_delta(L, mod, 1)
    from ceformality.linalg import nullspace
    ker = nullspace(mat)
    # independent derivation check on [h,e]=e: φ(e) = [φ(h), e] + [h, φ(e)]
    for phi in ker:
        lhs = src.evaluate(phi, (1,))
        rhs_a = L.bracket_vec(src.evaluate(phi, (0,)), unit(2, 1))
        rhs_b = L.bracket_vec(unit(2, 0), src.evaluate(phi, (1,)))
        assert lhs == [a + b for a, b in zip(rhs_a, rhs_b)]
    # dimension: derivations of the affine algebra form a 2-dim space
    assert len(ker) == 2


def test_bicomplex_identities_affine2():
    L = affine2()
    mod = adjoint_module(L)
    bi = CeBicomplex(L, mod, 3)  # constructor asserts the three identities
    assert bi.total.space.dim == 8
    assert bi.total.length == 3


def test_bicomplex_identities_with_differential():
    L = DgLieAlgebra.from_data(
        {0: ["a", "c"], 1: ["b"]},
        {"a": [("b", 1)]},
        {("c", "a"): [("a", 1)], ("c", "b"): [("b", 1)]})
    from ceformality.dgla import dgla_is_valid
    assert dgla_is_valid(L)
    CeBicomplex(L, adjoint_module(L), 3)


def test_build_ce_l1_is_module_complex():
    L = contractible2()
    mod = adjoint_module(L)
    ftc = build_ce(L, mod, 1)
    assert ftc.space.dim == 2
    assert ftc.levels == [0, 0]
    assert ftc.differential.matrix[ftc.space.index("p0|1=>b")][
        ftc.space.index("p0|1=>a")] == 1


def test_total_degree_zero_count():
    L = affine2()
    mod = adjoint_module(L)
    ftc = build_ce(L, mod, 3)
    # columns contribute 2 + 4 + 2 basis elements, all in total degree p
    assert ftc.space.dim_in_degree(0) == 2
    assert ftc.space.dim_in_degree(1) == 4
    assert ftc.space.dim_in_degree(2) == 2


def test_first_page_check_trivial_differential():
    L = affine2()
    rep = ce_first_page_check(L, adjoint_module(L), 3)
    assert rep["ok"]


def test_first_page_check_acyclic():
    L = contractible2()
    rep = ce_first_page_check(L, adjoint_module(L), 3)
    assert rep["ok"]
    for cell in rep["cells"]:
        if cell["p"] >= 1:
            assert cell["e1_dim"] == 0


def test_first_page_check_acyclic_plus_point():
    L = DgLieAlgebra.from_data(
        {0: ["a", "c"], 1: ["b"]}, {"a": [("b", 1)]}, {})
    rep = ce_first_page_check(L, adjoint_module(L), 3)
    assert rep["ok"]
    by_cell = {(c["p"], c["q"]): c for c in rep["cells"]}
    # H is 1-dim in degree 0, so E1^{1,q} = Hom^q(H, H) is 1-dim at q=0
    assert by_cell[(1, 0)]["e1_dim"] == 1


def test_pushforward_is_a_filtered_chain_map():
    L = affine2()
    f = GradedMap.identity_map(L.space)
    mod = module_via_morphism(f, L, L)
    # the projection onto the abelian quotient spanned by h, acting on the
    # coderivation complexes of the décalages
    ab = DgLieAlgebra.from_data({0: ["h"]}, {}, {})
    proj = GradedMap(L.space, ab.space, 0, [[Q1, F(0)]])
    dec_l, dec_ab = decalage(L, 2), decalage(ab, 2)
    cases = [
        (f, CeBicomplex(L, adjoint_module(L), 3), CeBicomplex(L, mod, 3)),
        (proj, ce_linf_self(dec_l, 3), LinfCeComplex(
            LInfinityMorphism.from_linear(dec_l, dec_ab, proj.matrix), 3)),
    ]
    for g, src, dst in cases:
        push = pushforward_matrix(g, src, dst)
        assert mat_mul(push, src.total.differential.matrix) == \
            mat_mul(dst.total.differential.matrix, push)
