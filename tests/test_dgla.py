from fractions import Fraction

import pytest

from ceformality.dgla import (
    CochainComplex, DgLieAlgebra, adjoint_module, cohomology, cohomology_lie,
    dgla_is_valid, module_via_morphism, validate_dgla, validate_module,
    validate_morphism,
)
from ceformality.graded import GradedMap, GradedVectorSpace
from ceformality.linalg import is_zero_mat, mat_mul

F = Fraction


def affine2():
    """span{h, e} in degree 0, [h,e] = e, no differential."""
    return DgLieAlgebra.from_data(
        {0: ["h", "e"]}, {}, {("h", "e"): [("e", 1)]})


def contractible2():
    """d(a) = b, zero bracket."""
    return DgLieAlgebra.from_data(
        {0: ["a"], 1: ["b"]}, {"a": [("b", 1)]}, {})


def test_abelian_dgla_valid():
    L = DgLieAlgebra.from_data({0: ["x", "y"]}, {}, {})
    assert dgla_is_valid(L)


def test_affine2_valid():
    assert dgla_is_valid(affine2())


def test_leibniz_failure_witnessed():
    # injecting d(e)=h (not even degree-homogeneous) breaks Leibniz at (h,e)
    bad = DgLieAlgebra.from_data(
        {0: ["h", "e"]}, {"e": [("h", 1)]}, {("h", "e"): [("e", 1)]},
        check=False)
    rep = {r["axiom"]: r for r in validate_dgla(bad)}
    assert not rep["degree_homogeneity"]["ok"]
    assert rep["d_squared_zero"]["ok"]
    assert not rep["leibniz"]["ok"]
    assert rep["leibniz"]["witness"] == ("h", "e")


def test_jacobi_failure_witnessed():
    bad = DgLieAlgebra.from_data(
        {0: ["x", "y", "z"]},
        {},
        {("x", "y"): [("z", 1)], ("y", "z"): [("x", 1)],
         ("z", "x"): [("x", 1)]})
    rep = {r["axiom"]: r for r in validate_dgla(bad)}
    assert not rep["jacobi"]["ok"]
    assert rep["jacobi"]["witness"] is not None


def test_bracket_graded_antisymmetry():
    L = DgLieAlgebra.from_data(
        {1: ["x"], 2: ["y"]}, {}, {("x", "x"): [("y", 1)]})
    # odd element may bracket with itself; swap sign is -(-1)^{1*1} = +1
    assert L.bracket_basis(0, 0) == [F(0), F(1)]


def test_cohomology_zero_differential():
    v = GradedVectorSpace({0: ["a"], 1: ["b"]})
    c = CochainComplex(v, GradedMap.zero(v, v, 1))
    con = cohomology(c)
    assert con.cohomology.dim == 2
    assert all(con.verify().values())
    assert is_zero_mat(con.h.matrix)


def test_cohomology_acyclic():
    L = contractible2()
    con = cohomology(L.complex())
    assert con.cohomology.dim == 0
    assert all(con.verify().values())


def test_cohomology_rank_one_kernel():
    v = GradedVectorSpace({0: ["a", "b"], 1: ["x"]})
    d = GradedMap.from_images(v, v, 1, {"a": [("x", 1)], "b": [("x", 1)]})
    con = cohomology(CochainComplex(v, d))
    assert con.cohomology.dim_in_degree(0) == 1
    assert con.cohomology.dim_in_degree(1) == 0
    # the surviving class is a - b
    rep = [con.i.matrix[r][0] for r in range(3)]
    assert rep[0] + rep[1] == 0 or rep[0] == -rep[1]
    assert all(con.verify().values())


def test_contraction_identities_pivot_orders():
    v = GradedVectorSpace({-1: ["u"], 0: ["a", "b", "c"], 1: ["x", "y"]})
    d = GradedMap.from_images(
        v, v, 1,
        {"u": [("a", 1), ("b", -1)], "a": [("x", 1)], "b": [("x", 1)],
         "c": [("x", 3), ("y", 0)]})
    con = cohomology(CochainComplex(v, d))
    assert all(con.verify().values())


def test_euler_characteristic_conserved():
    L = contractible2()
    con = cohomology(L.complex())
    v, h = L.space, con.cohomology
    chi_v = sum((-1) ** d for d in v.degrees)
    chi_h = sum((-1) ** d for d in h.degrees)
    assert chi_v == chi_h


def test_cohomology_lie_trivial_differential_is_same_algebra():
    L = affine2()
    H, con = cohomology_lie(L)
    assert H.space.dim == 2
    assert dgla_is_valid(H)
    # structure constants agree under the (identity) representatives
    for i in range(2):
        for j in range(2):
            assert H.bracket_basis(i, j) == L.bracket_basis(i, j)


def test_cohomology_lie_jacobi_and_pivot_invariance():
    # sl2-like algebra extended by an acyclic summand
    L = DgLieAlgebra.from_data(
        {0: ["h", "e", "f", "a"], 1: ["b"]},
        {"a": [("b", 1)]},
        {("h", "e"): [("e", 2)], ("h", "f"): [("f", -2)],
         ("e", "f"): [("h", 1)]})
    assert dgla_is_valid(L)
    H, con = cohomology_lie(L)
    assert dgla_is_valid(H) and all(con.verify().values())
    assert H.space.dim == H.space.dim_in_degree(0) == 3


def test_adjoint_module_axioms():
    mod = adjoint_module(affine2())
    assert all(r["ok"] for r in validate_module(mod))


def test_module_via_zero_morphism():
    L = affine2()
    f = GradedMap.zero(L.space, L.space, 0)
    mod = module_via_morphism(f, L, L)
    assert all(is_zero_mat(m) for m in mod.action)
    assert all(r["ok"] for r in validate_module(mod))


def test_module_via_identity_is_adjoint():
    L = affine2()
    f = GradedMap.identity_map(L.space)
    assert validate_morphism(f, L, L)["ok"]
    mod = module_via_morphism(f, L, L)
    adj = adjoint_module(L)
    assert mod.action == adj.action


def test_bad_morphism_rejected():
    L = affine2()
    f = GradedMap.from_images(L.space, L.space, 0,
                              {"h": [("e", 1)], "e": [("h", 1)]})
    rep = validate_morphism(f, L, L)
    assert not rep["ok"]
    with pytest.raises(ValueError):
        module_via_morphism(f, L, L)
