import os
import random
from collections import Counter
from fractions import Fraction

import pytest

from ceformality import formality, specseq
from ceformality.dgla import DgLieAlgebra, cohomology_lie
from ceformality.formality import (
    InsufficientBounds, euler_class, euler_power_map, formality_verdict,
    gauge_reduce, kaledin_class, minimal_model, obstruction_sequence,
    transfer_criterion,
)
from ceformality.graded import (
    GradedMap, GradedVectorSpace, PowerBasis, PowerMap, SYMMETRIC,
)
from ceformality.linalg import zeros
from ceformality.linf import (
    LInfinityAlgebra, decalage, derived_brackets, exp_coderivation,
    nr_bracket, validate_linf, validate_linf_morphism,
)
from ceformality.problems import load_problem

F = Fraction


def sl2():
    return DgLieAlgebra.from_data(
        {0: ["h", "e", "f"]}, {},
        {("h", "e"): [("e", 2)], ("h", "f"): [("f", -2)],
         ("e", "f"): [("h", 1)]})


def voronov_derived(bound=5, n=3):
    """Derived brackets of the Voronov family member n: [v_i, u] = −i v_{i−1}
    for 1 ≤ i ≤ n, derivation v_n.  n = 3 is the shipped voronov5.json."""
    v = [f"v{i}" for i in range(n + 1)]
    amb = DgLieAlgebra.from_data(
        {0: ["u"], 1: v}, {},
        {(v[i], "u"): [(v[i - 1], -i)] for i in range(1, n + 1)})
    alg, _ = derived_brackets(amb, v[1:], v[n], bound)
    return alg


def two_step():
    return DgLieAlgebra.from_data(
        {0: ["a", "c"], 1: ["b"]}, {"a": [("b", 1)]},
        {("c", "a"): [("a", 1)], ("c", "b"): [("b", 1)]})


def random_degree_map(space, arity, degree, rng, ctx_alg):
    pb = ctx_alg.ctx.pb[arity]
    m = zeros(space.dim, len(pb))
    for c, t in enumerate(pb.elements):
        tdeg = sum(space.degrees[i] for i in t) + degree
        for r in range(space.dim):
            if space.degrees[r] == tdeg:
                m[r][c] = F(rng.randint(-2, 2))
    return PowerMap(pb, space, degree, m)


# -- euler derivation ------------------------------------------------------


def test_euler_bracket_eigenvalue_identity():
    # [beta, e] = (j - h - 1) beta for beta of arity j and degree h
    rng = random.Random(5)
    v = GradedVectorSpace({-1: ["m"], 0: ["a"], 1: ["x"], 2: ["y"]})
    alg = LInfinityAlgebra(v, {}, 4)
    e = euler_power_map(alg)
    for _ in range(20):
        j = rng.randint(1, 3)
        h = rng.randint(-1, 2)
        beta = random_degree_map(v, j, h, rng, alg)
        br = nr_bracket(beta, e, alg.ctx)
        assert br.matrix == beta.scale(F(j - h - 1)).matrix


def test_euler_class_zero_for_lie_algebra():
    res = euler_class(sl2(), 4)
    assert res["cell"] == (1, 0)
    assert res["is_zero"]


def test_euler_class_nonzero_for_cubic_structure():
    res = euler_class(voronov_derived(), 5)
    assert res["cell"] == (1, -1)
    assert not res["is_zero"]


def test_euler_class_routes_through_cohomology():
    res = euler_class(two_step(), 4)
    assert res["computed_on"] == "cohomology"
    assert res["is_zero"]


# -- obstruction sequence --------------------------------------------------


def test_obstruction_sequence_first_class():
    res = obstruction_sequence(voronov_derived(), 5, 2)
    assert res["first_nonzero"] == 2
    entry = res["entries"][0]
    assert entry["cell"] == (3, -2)
    assert entry["coordinates"] == [F(-6)]


def test_obstruction_sequence_needs_columns():
    with pytest.raises(InsufficientBounds):
        obstruction_sequence(voronov_derived(), 4, 3)


def test_obstructions_vanish_for_quadratic_structure():
    alg = decalage(sl2(), 5)
    res = obstruction_sequence(alg, 5, 3)
    assert res["all_vanish"]


# -- minimal model ---------------------------------------------------------


def test_minimal_model_of_acyclic_is_zero():
    L = DgLieAlgebra.from_data({0: ["a"], 1: ["b"]}, {"a": [("b", 1)]}, {})
    mm = minimal_model(decalage(L, 4), 4)
    assert mm["minimal"].space.dim == 0


def test_minimal_model_morphisms_validate():
    alg = decalage(two_step(), 4)
    mm = minimal_model(alg, 4)
    w = mm["minimal"]
    assert w.is_minimal()
    assert validate_linf(w)["ok"]
    assert validate_linf_morphism(mm["into"])["ok"]
    assert validate_linf_morphism(mm["onto"])["ok"]


def test_minimal_model_fixes_minimal_input():
    alg = voronov_derived()
    mm = minimal_model(alg, 5)
    assert mm["minimal"].space.dim == alg.space.dim
    assert sorted(mm["minimal"].taylor) == sorted(alg.taylor)


# -- gauge reduction and verdicts -------------------------------------------


def test_gauge_reduce_detects_cubic_witness():
    res = gauge_reduce(voronov_derived())
    assert res["verdict"] == "NotFormal"
    assert res["stage"] == 3
    assert res["witness"]["r"] == 2
    assert res["witness"]["cell"] == (3, -2)


def test_gauge_reduce_quadratic_is_formal():
    res = gauge_reduce(decalage(sl2(), 5))
    assert res["verdict"] == "FormalUpTo"
    assert res["final"].is_trivial_beyond_q2()


def test_gauge_reduce_recovers_gauged_structure():
    # conjugating a quadratic structure produces higher terms that gauge
    # reduction must clear again
    rng = random.Random(19)
    alg = decalage(sl2(), 4)
    alpha = random_degree_map(alg.space, 2, 0, rng, alg)
    gauged, _phi = exp_coderivation(alg, alpha)
    res = gauge_reduce(gauged)
    assert res["verdict"] == "FormalUpTo"
    assert validate_linf_morphism(res["gauge"])["ok"]


def test_formality_verdict_pipeline_not_formal():
    res = formality_verdict(voronov_derived(), weight=5, columns=5)
    assert res["verdict"] == "NotFormal"
    assert res["witness"]["r"] == 2
    assert res["obstruction_check"]["first_nonzero"] == 2


def test_formality_verdict_pipeline_formal():
    res = formality_verdict(sl2(), weight=5, columns=5)
    assert res["verdict"] == "FormalUpTo"


def test_formality_verdict_bounds_guard():
    with pytest.raises(InsufficientBounds):
        formality_verdict(sl2(), weight=2, columns=5)
    with pytest.raises(InsufficientBounds):
        formality_verdict(sl2(), weight=5, columns=3)


# -- transfer criterion ------------------------------------------------------


def test_transfer_identity_map_is_injective():
    src, tgt = sl2(), sl2()
    n = src.space.dim
    fmap = GradedMap(src.space, tgt.space, 0,
                     [[F(1) if i == j else F(0) for j in range(n)]
                      for i in range(n)])
    res = transfer_criterion(fmap, src, tgt, 5, m_formal_assumed=True)
    assert res["all_injective"]
    assert "formal" in res["conclusion"]


@pytest.mark.parametrize("columns", [4, 5, 6])
@pytest.mark.parametrize("endo,injective", [
    (GradedMap.identity_map, True),
    (lambda space: GradedMap.zero(space, space, 0), False)],
    ids=["identity", "zero"])
def test_transfer_on_quadcone_endomorphisms(endo, injective, columns):
    path = os.path.join(os.path.dirname(__file__), "fixtures",
                        "quadcone.json")
    alg = load_problem(path)["algebra"]
    res = transfer_criterion(endo(alg.space), alg, alg, columns)
    assert res["injectivity"] == [
        {"p": p, "dim_source": 1, "injective": injective}
        for p in range(3, columns)]
    assert res["all_injective"] is injective


def test_transfer_rejects_non_morphism():
    src, tgt = sl2(), two_step()
    fmap = GradedMap.zero(src.space, tgt.space, 0)
    m = [row[:] for row in fmap.matrix]
    m[0][0] = F(1)
    bad = GradedMap(src.space, tgt.space, 0, m)
    with pytest.raises(ValueError):
        transfer_criterion(bad, src, tgt, 4)


# -- deformed-parameter class -------------------------------------------------


def test_kaledin_identities_and_nonzero_class():
    res = kaledin_class(voronov_derived(), 5, 3)
    assert res["identities"] == {"square_zero": True, "cocycle": True,
                                 "euler_relation": True}
    assert not res["class_is_zero"]


def test_kaledin_class_vanishes_for_quadratic():
    res = kaledin_class(decalage(sl2(), 5), 5, 3)
    assert all(res["identities"].values())
    assert res["class_is_zero"]


@pytest.fixture
def counted(monkeypatch):
    """Counts full spectral pages built and obstruction sequences run."""
    calls = Counter()
    init = specseq.SpectralPage.__init__
    sequence = formality.obstruction_sequence

    def counting_init(self, ftc, r):
        calls["pages"] += 1
        init(self, ftc, r)

    def counting_sequence(*args):
        calls["obstruction_sequence"] += 1
        return sequence(*args)

    monkeypatch.setattr(specseq.SpectralPage, "__init__", counting_init)
    monkeypatch.setattr(formality, "obstruction_sequence", counting_sequence)
    return calls


def test_verdict_reuses_the_gauge_obstruction_sequence(counted):
    # the gauge fails at stage 4 and runs the sequence at (5, 3), the
    # cross-check's own bounds at weight 4, columns 5
    res = formality_verdict(voronov_derived(4, n=4), 4, 5)
    assert res["verdict"] == "NotFormal" and res["stage"] == 4
    assert res["obstruction_check"] is res["obstructions"]
    assert (res["obstructions"]["columns"], res["obstructions"]["r_max"]) \
        == (5, 3)
    assert counted == {"obstruction_sequence": 1}


def test_verdict_recomputes_the_sequence_at_other_bounds(counted):
    # voronov5.json's defaults: the gauge runs (4, 2), the cross-check (5, 3)
    res = formality_verdict(voronov_derived(5), 5, 5)
    assert res["verdict"] == "NotFormal" and res["stage"] == 3
    assert res["obstruction_check"]["first_nonzero"] == 2
    assert counted == {"obstruction_sequence": 2}


def test_euler_class_builds_no_page(counted):
    path = os.path.join(os.path.dirname(__file__), "fixtures", "endu.json")
    res = euler_class(load_problem(path)["algebra"], 4)
    assert res["cell"] == (1, 0) and len(res["coordinates"]) > 0
    assert counted == {}
    specseq.page(res["complex"], 2)
    assert counted == {"pages": 1}
