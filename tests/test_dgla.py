import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ceformality.dgla import (
    DgLieAlgebra, adjoint_module, cohomology, cohomology_lie, dgla_is_valid,
    validate_dgla, validate_morphism,
)
from ceformality.graded import GradedMap, GradedVectorSpace
from ceformality.linalg import is_zero_mat
from ceformality.problems import load_problem, parse_problem
from dgla_oracle import bracket_vec as dense_bracket_vec
from dgla_oracle import validate_dgla as dense_validate_dgla
from dgla_oracle import validate_morphism as dense_validate_morphism
from dgla_oracle import identity_map, module_via_morphism, validate_module
from test_cli import end_u, voronov

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
    assert L.bracket_column(0, 0) == [(1, F(1))]


def test_cohomology_zero_differential():
    v = GradedVectorSpace({0: ["a"], 1: ["b"]})
    con = cohomology(GradedMap.zero(v, v, 1))
    assert con.cohomology.dim == 2
    assert all(con.verify().values())
    assert is_zero_mat(con.h.matrix)


def test_cohomology_acyclic():
    L = contractible2()
    con = cohomology(L.differential)
    assert con.cohomology.dim == 0
    assert all(con.verify().values())


def test_cohomology_rank_one_kernel():
    v = GradedVectorSpace({0: ["a", "b"], 1: ["x"]})
    d = GradedMap.from_images(v, v, 1, {"a": [("x", 1)], "b": [("x", 1)]})
    con = cohomology(d)
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
    con = cohomology(d)
    assert all(con.verify().values())


def test_cohomology_rejects_a_map_that_is_no_differential():
    v = GradedVectorSpace({0: ["a"], 1: ["b"], 2: ["c"]})
    with pytest.raises(ValueError, match="must have degree \\+1"):
        cohomology(GradedMap.from_images(v, v, 0, {"a": [("a", 1)]}))
    d = GradedMap.from_images(v, v, 1, {"a": [("b", 1)], "b": [("c", 1)]})
    with pytest.raises(ValueError, match="does not square to zero"):
        cohomology(d)


def test_euler_characteristic_conserved():
    L = contractible2()
    con = cohomology(L.differential)
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
            assert H.bracket_column(i, j) == L.bracket_column(i, j)


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
    f = identity_map(L.space)
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


# -- sparse bracket columns against the dense reference ----------------------

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_algebras():
    """name → DgLieAlgebra for every dgla/voronov/mc fixture, both sides of
    the morphism fixture, the Voronov ambient algebras n = 3..6 and
    End(U_1), End(U_2)."""
    out = {}
    for name in sorted(os.listdir(FIXTURES)):
        problem = load_problem(os.path.join(FIXTURES, name))
        if problem["kind"] == "morphism":
            out[f"{name}:source"] = problem["source"]
            out[f"{name}:target"] = problem["target"]
        elif problem["kind"] != "linf":
            out[name] = problem["algebra"]
    for n in range(3, 7):
        out[f"voronov{n}"] = parse_problem(voronov(n))["algebra"]
    for k in (1, 2):
        out[f"end_u{k}"] = parse_problem(end_u(k))["algebra"]
    out.update(affine2=affine2(), contractible2=contractible2())
    return out


ALGEBRAS = fixture_algebras()


def units(n):
    return [[F(1) if t == i else F(0) for t in range(n)] for i in range(n)]


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_sparse_reports_equal_dense(name):
    alg = ALGEBRAS[name]
    assert validate_dgla(alg) == dense_validate_dgla(alg)
    basis = units(alg.space.dim)
    for x in basis:
        for y in basis:
            assert alg.bracket_vec(x, y) == dense_bracket_vec(alg, x, y)


def test_fixtures_cover_invalid_and_odd_degrees():
    # the comparison above sees a failing witness and odd-degree signs
    assert not dgla_is_valid(ALGEBRAS["sl2_bad.json"])
    assert any(d & 1 for d in ALGEBRAS["end_u1"].space.degrees)


def morphisms(alg):
    """Identity, zero, and a degree-preserving swap of the first two
    vectors of each degree, which is not a morphism in general."""
    v = alg.space
    swap = {}
    for labs in v.components.values():
        if len(labs) >= 2:
            swap[labs[0]], swap[labs[1]] = [(labs[1], 1)], [(labs[0], 1)]
    return [identity_map(v), GradedMap.zero(v, v, 0),
            GradedMap.from_images(v, v, 0, swap)]


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_sparse_morphism_reports_equal_dense(name):
    alg = ALGEBRAS[name]
    for f in morphisms(alg):
        assert validate_morphism(f, alg, alg) == \
            dense_validate_morphism(f, alg, alg)


def test_sparse_morphism_fixture_report_equals_dense():
    problem = load_problem(os.path.join(FIXTURES, "sl2_identity_map.json"))
    args = problem["map"], problem["source"], problem["target"]
    assert validate_morphism(*args) == dense_validate_morphism(*args)


def label_data(alg):
    """(components, d images, bracket images) that ``from_data`` rebuilds
    ``alg`` from, as mutable lists of [label, coefficient] terms."""
    v, d, br = alg.space, alg.differential.matrix, alg.bracket
    d_images = {v.labels[c]: [[v.labels[r], row[c]]
                              for r, row in enumerate(d) if row[c]]
                for c in range(v.dim)}
    brackets = {(v.labels[i], v.labels[j]): [[v.labels[r], row[c]]
                                             for r, row in enumerate(br.matrix)
                                             if row[c]]
                for c, (i, j) in enumerate(br.pb.elements)}
    return v.components, d_images, brackets


def add_term(terms, label, delta):
    for term in terms:
        if term[0] == label:
            term[1] += delta
            return
    terms.append([label, delta])


PERTURBED = ["sl2.json", "sl2_bad.json", "heis3.json", "endu.json",
             "quadcone.json", "voronov5.json", "voronov3", "end_u1",
             "affine2", "contractible2"]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_perturbed_constant_reports_equal_dense(data):
    # one structure constant or one entry of d moves; the algebra is rebuilt
    # from label data, and both checks give the same report, first Leibniz
    # and Jacobi witnesses included
    alg = ALGEBRAS[data.draw(st.sampled_from(PERTURBED))]
    v = alg.space
    comps, d_images, brackets = label_data(alg)
    delta = data.draw(st.sampled_from([F(1), F(-1), F(2), F(1, 2), F(-1, 3)]))
    pairs = [(p, r) for p in brackets for r in v.labels
             if v.degrees[v.index(r)] == sum(v.degrees[v.index(x)] for x in p)]
    if pairs and data.draw(st.booleans()):
        pair, row = data.draw(st.sampled_from(pairs))
        add_term(brackets[pair], row, delta)
    else:
        col = data.draw(st.sampled_from(v.labels))
        row = data.draw(st.sampled_from(v.labels))
        add_term(d_images[col], row, delta)
    bad = DgLieAlgebra.from_data(comps, d_images, brackets, check=False)
    assert validate_dgla(bad) == dense_validate_dgla(bad)
