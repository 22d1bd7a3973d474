import os
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ceformality import formality, specseq
from ceformality.cli import _algebra
from ceformality.dgla import DgLieAlgebra
from ceformality.formality import (
    InsufficientBounds, euler_class, euler_power_map, formality_verdict,
    gauge_reduce, kaledin_class, minimal_model, obstruction_sequence,
    transfer_criterion,
)
from ceformality.graded import GradedMap, GradedVectorSpace, PowerMap
from ceformality.linalg import (
    Q0, Q1, _axpy, dense_vec, solve, sparse_vec, zero_vec, zeros,
)
from ceformality.linf import (
    LInfinityAlgebra, ce_linf_self, decalage, derived_brackets,
    exp_coderivation, linf_structure, nr_bracket, validate_linf,
    validate_linf_morphism,
)
from ceformality.problems import load_problem, parse_problem
from ceformality.specseq import FilteredTotalComplex, cell_coordinates
from dgla_oracle import identity_map
from linf_oracle import projection
from test_cli import end_u

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


def solve_correction(ftc, rep, p, r):
    """The representative's correction by one solve, the reference for
    ``_correct_representative``: the block of d from F^{p+1} to the rows
    below level p+r+1, eliminated from scratch."""
    drep = ftc.apply(rep)
    cols = [j for j in range(ftc.space.dim) if ftc.levels[j] >= p + 1]
    rows = [i for i in range(ftc.space.dim) if ftc.levels[i] < p + r + 1]
    if not rows:
        return rep
    a = ftc.block(rows, cols)
    b = [drep.get(i, Q0) for i in rows]
    sol = solve(a, b)
    if sol is None:
        raise AssertionError("page class vanished but no correction exists")
    out = dense_vec(rep, ftc.space.dim)
    for k, j in enumerate(cols):
        out[j] -= sol[k]
    return sparse_vec(out)


def in_filtration(ftc, vec, p):
    """The sparse vector vec lies in F^p."""
    return all(ftc.levels[i] >= p for i in vec)


def fixture_structure(name, weight):
    path = os.path.join(os.path.dirname(__file__), "fixtures", name + ".json")
    return _algebra(load_problem(path), weight)


# (structure, weight, columns) on which the obstruction sequence runs at
# formality_verdict's bounds; only the gauged conjugates, whose Euler
# vector has d in F^3 but not in F^4, need a nonzero correction
CORRECTION_CASES = {
    **{f"{name}.json": (lambda name=name: (fixture_structure(name, 5), 5, 6))
       for name in ("sl2", "heis3", "quadcone", "endu", "linf_min",
                    "voronov5")},
    **{f"voronov{n}": (lambda n=n: (voronov_derived(n, n=n), n, n + 1))
       for n in range(3, 10)},
    "end_u1": lambda: (parse_problem(end_u(1))["algebra"], 5, 6),
    **{f"gauged_{name}": (lambda args=args: (gauged(*args)[0], args[1],
                                             args[1] + 1))
       for name, args in [("endu", ("endu", 5, 2)),
                          ("quadcone", ("quadcone", 4, 3)),
                          ("linf_min", ("linf_min", 4, 2))]},
}


@pytest.mark.parametrize("case", CORRECTION_CASES)
def test_corrections_from_the_barcode_equal_the_solve_reference(
        case, monkeypatch):
    # at each r the sequence reaches, both corrections leave d(rep′) in
    # F^{p+r+1} and rep − rep′ in F^{p+1}, and the reports are equal
    obj, weight, columns = CORRECTION_CASES[case]()
    v = linf_structure(obj, weight)
    alg = v if v.is_minimal() else minimal_model(v, weight)["minimal"]
    l = min(columns, weight + 1)
    r_max = min(l - 2, weight - 1)
    ce = ce_linf_self(alg, l)
    ftc, p = ce.total, 1
    rep = formality._euler_vector(ce, alg)
    reached, changed = [], False
    for r in range(2, r_max + 1):
        coords = cell_coordinates(ftc, r, p + r, -r, ftc.apply(rep))
        if any(coords):
            break
        reached.append(r)
        new = formality._correct_representative(ftc, rep, p, r)
        for out in (new, solve_correction(ftc, rep, p, r)):
            assert in_filtration(ftc, ftc.apply(out), p + r + 1), r
            diff = dict(rep)
            _axpy(diff, -Q1, out)
            assert in_filtration(ftc, diff, p + 1), r
        changed |= new != rep
        rep = new
    assert changed == case.startswith("gauged")
    report = obstruction_sequence(alg, l, r_max)
    assert len(report["entries"]) == len(reached) + \
        (report["first_nonzero"] is not None)
    monkeypatch.setattr(formality, "_correct_representative",
                        solve_correction)
    assert obstruction_sequence(alg, l, r_max) == report


def test_correction_of_a_nonvanishing_class_is_an_engine_fault():
    # d a = b with a at level 1 and b at level 3: the class of b on page 2
    # does not vanish, since nothing of level ≥ 2 reaches it
    v = GradedVectorSpace({0: ["a"], 1: ["b"]})
    hand = FilteredTotalComplex(v, [{1: Q1}, {}], [1, 3], 4)
    # and Voronov's Euler vector, whose d_2 class is the witness
    alg = voronov_derived(3, n=3)
    ce = ce_linf_self(alg, 4)
    for ftc, rep in ((hand, {0: Q1}),
                     (ce.total, formality._euler_vector(ce, alg))):
        for correct in (formality._correct_representative, solve_correction):
            with pytest.raises(AssertionError, match="no correction exists"):
                correct(ftc, rep, 1, 2)


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
    assert validate_linf_morphism(projection(mm))["ok"]


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
    assert all(n <= 2 for n in res["final"].taylor)


def test_gauge_reduce_recovers_gauged_structure():
    # conjugating a minimal model that has only q₂ produces higher terms
    # that gauge reduction must clear again, in at least one step
    for name, make in GAUGED.items():
        res = gauge_reduce(make())
        assert res["verdict"] == "FormalUpTo" and res["steps"], name
        assert validate_linf_morphism(res["gauge"])["ok"], name


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


def abelian():
    """{a, c ↦ b}: an abelian DGLA, homotopy abelian with a zero minimal
    model."""
    return DgLieAlgebra.from_data(
        {0: ["a", "c"], 1: ["b"]}, {"c": [("b", 1)]}, {})


def test_degeneration_reads_the_trichotomy():
    # formal ⟺ degenerate at E₂, read off the barcode of the minimal
    # model's complex at (weight, columns) = (n, n + 1)
    def first_failure(obj, n, k):
        mm = minimal_model(linf_structure(obj, n), n)["minimal"]
        ftc = ce_linf_self(mm, n + 1).total
        return specseq.degenerates_at(ftc, k)[1], specseq.barcode(ftc)

    assert first_failure(abelian(), 5, 1)[0] is None
    assert first_failure(sl2(), 5, 1)[0][0] == 1
    assert first_failure(sl2(), 5, 2)[0] is None
    for n in (3, 4, 5):
        first, bc = first_failure(voronov_derived(n, n=n), n, 2)
        assert first[0] == n - 1 and (1, -1) in bc.differential_sources(n - 1)


# every fixture at three bounds, and two gauge conjugates at columns =
# weight + 1, where the cross-check must stop at d_{weight−1}: d_weight out
# of column 0 needs the q_{weight+1} that the truncation drops
DEGENERATION_CASES = {
    **{name: (lambda name=name: fixture_algebra(name),
              ((4, 5), (5, 6), (3, 4)))
       for name in ("sl2", "heis3", "quadcone", "endu", "linf_min")},
    "gauged_endu": (lambda: gauged("endu", 5, 2)[0], ((5, 6),)),
    "gauged_quadcone": (lambda: gauged("quadcone", 4, 2)[0], ((4, 5),)),
}


@pytest.mark.parametrize("make, bounds", DEGENERATION_CASES.values(),
                         ids=DEGENERATION_CASES)
def test_formal_fixtures_pass_the_degeneration_check(make, bounds):
    for weight, columns in bounds:
        res = formality_verdict(make(), weight, columns)
        assert res["verdict"] == "FormalUpTo", (weight, columns)


def test_degeneration_disagreement_is_an_engine_fault(monkeypatch):
    assert formality_verdict(abelian(), 5, 5)["verdict"] == \
        "HomotopyAbelianUpTo"
    monkeypatch.setattr(formality, "degenerates_at",
                        lambda ftc, k, last: (False, (k, 0, 0)))
    for obj in (sl2(), abelian()):
        with pytest.raises(AssertionError, match="degeneration"):
            formality_verdict(obj, 5, 5)
    monkeypatch.setattr(formality, "degenerates_at",
                        lambda ftc, k, last: (True, None))
    with pytest.raises(AssertionError, match="degeneration"):
        formality_verdict(voronov_derived(5), 5, 5)


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
    (identity_map, True),
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


# -- references: [q_i, −]_NR through nr_bracket one basis map at a time ------


def fixture_algebra(name):
    path = os.path.join(os.path.dirname(__file__), "fixtures", name + ".json")
    return load_problem(path)["algebra"]


def minimal_fixture(name, weight):
    v = linf_structure(fixture_algebra(name), weight)
    return v if v.is_minimal() else minimal_model(v, weight)["minimal"]


def bracket_with_q2_matrix(alg, arity):
    """Matrix of α ↦ [q₂, α]_NR from degree-0 maps of the given arity, rows
    (tuple, target) of arity + 1, with the list of degree-0 basis pairs."""
    q2 = alg.q(2)
    pb_src = alg.ctx.pb[arity]
    pairs = [(t_pos, w) for t_pos in range(len(pb_src))
             for w in range(alg.space.dim)
             if alg.space.degrees[w] == pb_src.degree(t_pos)]
    pb_dst = alg.ctx.pb[arity + 1]
    mat = zeros(len(pb_dst) * alg.space.dim, len(pairs))
    for cidx, (t_pos, w) in enumerate(pairs):
        amat = zeros(alg.space.dim, len(pb_src))
        amat[w][t_pos] = Q1
        br = nr_bracket(q2, PowerMap(pb_src, alg.space, 0, amat), alg.ctx)
        for tt in range(len(pb_dst)):
            for ww in range(alg.space.dim):
                mat[tt * alg.space.dim + ww][cidx] = br.matrix[ww][tt]
    return mat, pairs, pb_src


def reference_gauge(alg):
    """The gauge loop on ``bracket_with_q2_matrix``: (α of each solved
    stage, the first stage with no solution or None)."""
    current, alphas = alg, []
    while True:
        stage = next((i for i in range(3, alg.bound + 1)
                      if i in current.taylor), None)
        if stage is None:
            return alphas, None
        mat, pairs, pb_src = bracket_with_q2_matrix(current, stage - 1)
        qi = current.q(stage)
        sol = solve(mat, [-qi.matrix[ww][tt]
                          for tt in range(len(current.ctx.pb[stage]))
                          for ww in range(current.space.dim)])
        if sol is None:
            return alphas, stage
        amat = zeros(current.space.dim, len(pb_src))
        for k, (t_pos, w) in enumerate(pairs):
            amat[w][t_pos] = sol[k]
        alphas.append(amat)
        current, _ = exp_coderivation(
            current, PowerMap(pb_src, current.space, 0, amat))


def reference_coboundary(alg, n, m):
    """kaledin_class's coboundary system [q(t), x(t)]_NR = ∂_t q(t) mod
    (t^m, weight n), each column a bracket of q_i with one basis map:
    (class_is_zero, primitive)."""
    unknowns = []
    for s in range(m):
        for a in range(1, n):
            pb = alg.ctx.pb[a]
            for t_pos in range(len(pb)):
                for w in range(alg.space.dim):
                    if alg.space.degrees[w] == pb.degree(t_pos):
                        unknowns.append((s, a, t_pos, w))
    rows, col_data = {}, []
    for s0, a, t_pos, w in unknowns:
        amat = zeros(alg.space.dim, len(alg.ctx.pb[a]))
        amat[w][t_pos] = Q1
        x = PowerMap(alg.ctx.pb[a], alg.space, 0, amat)
        entries = {}
        for i, qi in alg.taylor.items():
            s = s0 + i - 2
            if s >= m or qi.arity + a - 1 > n:
                continue
            br = nr_bracket(qi, x, None)
            for tt in range(len(alg.ctx.pb[br.arity])):
                for ww in range(alg.space.dim):
                    v = br.matrix[ww][tt]
                    if v:
                        key = (s, br.arity, tt, ww)
                        entries[key] = entries.get(key, Q0) + v
        col_data.append(entries)
        for k in entries:
            rows.setdefault(k, len(rows))
    target = {}
    for s in range(m):
        qi = alg.taylor.get(s + 3)
        if qi is None:
            continue
        for tt in range(len(alg.ctx.pb[qi.arity])):
            for ww in range(alg.space.dim):
                if qi.matrix[ww][tt]:
                    key = (s, qi.arity, tt, ww)
                    target[key] = (s + 1) * qi.matrix[ww][tt]
                    rows.setdefault(key, len(rows))
    a_mat = zeros(len(rows), len(unknowns))
    for c, entries in enumerate(col_data):
        for k, v in entries.items():
            a_mat[rows[k]][c] = v
    b_vec = zero_vec(len(rows))
    for k, v in target.items():
        b_vec[rows[k]] = v
    sol = solve(a_mat, b_vec) if rows else zero_vec(len(unknowns))
    if sol is None:
        return False, None
    return True, [{"t_power": s, "arity": a, "tuple": t_pos, "target": w,
                   "coefficient": sol[k]}
                  for k, (s, a, t_pos, w) in enumerate(unknowns) if sol[k]]


def gauged(name, weight, arity):
    """A fixture's minimal model, which has only q₂, conjugated by exp of a
    random degree-0 map: the gauge has higher q_i to clear again.  Returns
    the conjugate and the conjugating morphism."""
    alg = minimal_fixture(name, weight)
    alpha = random_degree_map(alg.space, arity, 0, random.Random(19), alg)
    return exp_coderivation(alg, alpha)


VORONOV = {f"voronov{n}": (lambda n=n: voronov_derived(n, n=n))
           for n in (3, 4, 5, 6)}
GAUGED = {"gauged_endu": lambda: gauged("endu", 5, 2)[0],
          "gauged_quadcone": lambda: gauged("quadcone", 4, 3)[0],
          "gauged_linf_min": lambda: gauged("linf_min", 4, 2)[0]}


def assert_own_minimal_model(v, columns):
    """A minimal v is its own minimal model: the transfer runs along
    i = p = id, h = 0 and returns v's degrees and q_n matrices, and
    ``formality_verdict``, which reads v directly, equals the gauge and the
    obstruction sequence run on the transferred W (its old path)."""
    weight = v.bound
    mm = minimal_model(v, weight)
    w, con = mm["minimal"], mm["contraction"]
    ident = [[Q1 if r == c else Q0 for c in range(v.space.dim)]
             for r in range(v.space.dim)]
    assert con.i.matrix == ident and con.p.matrix == ident
    assert con.h.matrix == zeros(v.space.dim, v.space.dim)
    assert w.space.degrees == v.space.degrees
    assert sorted(w.taylor) == sorted(v.taylor)
    assert all(w.taylor[n].matrix == q.matrix for n, q in v.taylor.items())
    res = formality_verdict(v, weight, columns)
    ref = gauge_reduce(w, weight)
    obs_l = min(columns, weight + 1)
    ref_obs = obstruction_sequence(w, obs_l, min(obs_l - 2, weight - 1))
    assert (res["verdict"], res.get("stage")) == \
        (ref["verdict"], ref.get("stage"))
    assert [s["alpha"] for s in res["steps"]] == \
        [s["alpha"] for s in ref["steps"]]
    assert res["witness"] == ref["witness"]
    assert res["obstruction_check"] == ref_obs
    return res


# every minimal input of this module, with the column bound of its verdict
MINIMAL = {
    **{name: (make, 6) for name, make in GAUGED.items()},
    **{name: (make, int(name[-1]) + 1) for name, make in VORONOV.items()},
    **{name: (lambda name=name: minimal_fixture(name, 5), 5)
       for name in ("sl2", "heis3", "linf_min", "quadcone")},
}


def test_minimal_model_fixes_minimal_input():
    for name, (make, columns) in MINIMAL.items():
        v = make()
        assert v.is_minimal(), name
        assert_own_minimal_model(v, columns)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([("linf_min", 5), ("quadcone", 4)]),
       st.integers(2, 3), st.data())
def test_gauge_conjugates_are_their_own_minimal_models(base, arity, data):
    # a conjugate by exp of a drawn degree-0 α, at columns = weight
    alg = minimal_fixture(*base)
    pb = alg.ctx.pb[arity]
    amat = zeros(alg.space.dim, len(pb))
    for c in range(len(pb)):
        for r in range(alg.space.dim):
            if alg.space.degrees[r] == pb.degree(c):
                amat[r][c] = F(data.draw(st.integers(-2, 2)))
    v, _ = exp_coderivation(alg, PowerMap(pb, alg.space, 0, amat))
    assert assert_own_minimal_model(v, base[1])["verdict"] == "FormalUpTo"


@pytest.mark.parametrize("make", [*GAUGED.values(), *VORONOV.values()],
                         ids=[*GAUGED, *VORONOV])
def test_gauge_steps_equal_the_nr_bracket_reference(make):
    # every α, and the stage that cannot be gauged, against the systems
    # built through nr_bracket
    alg = make()
    alphas, failed = reference_gauge(alg)
    res = gauge_reduce(alg)
    assert [step["alpha"] for step in res["steps"]] == alphas
    assert res.get("stage") == failed
    if failed is None:
        assert alphas and res["verdict"] == "FormalUpTo"
    else:
        assert failed == alg.bound and res["verdict"] == "NotFormal"


@pytest.mark.parametrize("make, weight", [
    *((make, int(name[-1])) for name, make in VORONOV.items()),
    (lambda: decalage(sl2(), 5), 5),
    (lambda: decalage(fixture_algebra("heis3"), 5), 5),
    (lambda: minimal_fixture("linf_min", 5), 5),
    (lambda: minimal_fixture("quadcone", 4), 4),
    (lambda: minimal_fixture("endu", 4), 4),
    (lambda: gauged("endu", 4, 2)[0], 4),
    (lambda: gauged("linf_min", 5, 2)[0], 5),
], ids=[*VORONOV, "sl2", "heis3", "linf_min", "quadcone", "endu",
        "gauged_endu", "gauged_linf_min"])
def test_kaledin_coboundary_equals_the_nr_bracket_reference(make, weight):
    alg = make()
    res = kaledin_class(alg, weight, 3)
    assert (res["class_is_zero"], res["primitive"]) == \
        reference_coboundary(alg, weight, 3)
    # ∂_t q(t) mod t³ is q₃ + 2t q₄ + 3t² q₅: a zero class of a nonzero
    # one has a nonzero primitive
    if res["class_is_zero"]:
        assert bool(res["primitive"]) == any(i in alg.taylor
                                             for i in (3, 4, 5))


@pytest.fixture
def counted(monkeypatch):
    """Counts page cells read and obstruction sequences run."""
    calls = Counter()
    page_cell = specseq.page_cell
    sequence = formality.obstruction_sequence

    def counting_cell(*args):
        calls["page_cell"] += 1
        return page_cell(*args)

    def counting_sequence(*args):
        calls["obstruction_sequence"] += 1
        return sequence(*args)

    monkeypatch.setattr(specseq, "page_cell", counting_cell)
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
    # the sequence reads d_2(e) and d_3(e), one cell each
    assert counted == {"obstruction_sequence": 1, "page_cell": 2}


def test_verdict_recomputes_the_sequence_at_other_bounds(counted):
    # voronov5.json's defaults: the gauge runs (4, 2), the cross-check (5, 3)
    res = formality_verdict(voronov_derived(5), 5, 5)
    assert res["verdict"] == "NotFormal" and res["stage"] == 3
    assert res["obstruction_check"]["first_nonzero"] == 2
    assert counted == {"obstruction_sequence": 2, "page_cell": 2}


def test_euler_class_builds_no_page(counted):
    # the Euler class reads its own cell of page 2 and no other
    path = os.path.join(os.path.dirname(__file__), "fixtures", "endu.json")
    res = euler_class(load_problem(path)["algebra"], 4)
    assert res["cell"] == (1, 0) and len(res["coordinates"]) > 0
    assert counted == {"page_cell": 1}
