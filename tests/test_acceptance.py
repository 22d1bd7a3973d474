"""Acceptance gate: one test per shipped criterion, each printing a single
PASS/FAIL line.  Every check is exact rational arithmetic; the runtime
bounds are asserted with a wall clock."""

import functools
import os
import random
import time
from fractions import Fraction

from ceformality.cecomplex import CeBicomplex, build_ce
from ceformality.dgla import (
    DgLieAlgebra, adjoint_module, cohomology_lie, dgla_is_valid, validate_dgla,
)
from ceformality.formality import (
    euler_class, euler_power_map, formality_verdict, gauge_reduce,
    kaledin_class, obstruction_sequence,
)
from ceformality.graded import (
    EXTERIOR, GradedMap, GradedVectorSpace, PowerBasis, PowerMap,
)
from ceformality.linalg import (
    dense_vec, is_zero_mat, mat_add, mat_mul, mat_vec, sparse_vec, zeros,
)
from ceformality.linf import (
    LInfinityAlgebra, ce_linf_self, compose_morphisms, decalage,
    derived_brackets, exp_coderivation, nr_bracket, validate_linf,
    validate_linf_morphism,
)
from ceformality.mc import lift_to_order
from ceformality.problems import load_problem
from ceformality.formality import _euler_vector
from dgla_oracle import eval_tuple
from linf_oracle import decalage_conjugation
from page_oracle import abutment_check, page, quotient_compare, sparse_columns
from test_formality import gauged as conjugate

F = Fraction
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

VALID_FIXTURES = ["sl2.json", "heis3.json", "endu.json", "voronov5.json",
                  "linf_min.json", "quadcone.json", "sl2_identity_map.json"]


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **k):
            try:
                fn(*a, **k)
            except BaseException:
                print(f"criterion {num:2d} [{label}]: FAIL")
                raise
            print(f"criterion {num:2d} [{label}]: PASS")
        return wrapper
    return deco


def fixture_algebras():
    """All shipped Lie-algebra objects (kind dgla/voronov/mc ambient)."""
    out = {}
    for name in VALID_FIXTURES:
        problem = load_problem(os.path.join(FIXTURES, name))
        if problem["kind"] in ("dgla", "voronov", "mc"):
            out[name] = problem["algebra"]
    return out


def voronov_problem():
    return load_problem(os.path.join(FIXTURES, "voronov5.json"))


def dgla_from(name):
    return load_problem(os.path.join(FIXTURES, name))["algebra"]


@criterion(1, "axiom suites with negative controls")
def test_criterion_01_axiom_suites():
    t0 = time.monotonic()
    algs = fixture_algebras()
    assert len(load_list := VALID_FIXTURES) >= 6
    for name, alg in algs.items():
        assert dgla_is_valid(alg), name
        assert validate_linf(decalage(alg, 3))["ok"], name
    linf = load_problem(os.path.join(FIXTURES, "linf_min.json"))["algebra"]
    assert validate_linf(linf)["ok"]

    # negative controls: one corrupted constant each, all witnessed
    jac_bad = DgLieAlgebra.from_data(
        {0: ["h", "e", "f"]}, {},
        {("h", "e"): [("e", 3)], ("h", "f"): [("f", -2)],
         ("e", "f"): [("h", 1)]}, check=False)
    rep = {r["axiom"]: r for r in validate_dgla(jac_bad)}
    assert not rep["jacobi"]["ok"] and rep["jacobi"]["witness"]

    leib_bad = DgLieAlgebra.from_data(
        {0: ["a", "c"], 1: ["b"]}, {"a": [("b", 1)]},
        {("c", "a"): [("a", 1)], ("c", "b"): [("b", 2)]}, check=False)
    rep = {r["axiom"]: r for r in validate_dgla(leib_bad)}
    assert not rep["leibniz"]["ok"] and rep["leibniz"]["witness"]

    dd_bad = DgLieAlgebra.from_data(
        {0: ["a"], 1: ["b"], 2: ["c"]},
        {"a": [("b", 1)], "b": [("c", 1)]}, {}, check=False)
    rep = {r["axiom"]: r for r in validate_dgla(dd_bad)}
    assert not rep["d_squared_zero"]["ok"]

    bad_linf = validate_linf(decalage(jac_bad, 4))
    assert not bad_linf["ok"] and bad_linf["failures"]
    assert time.monotonic() - t0 < 1.0


@criterion(2, "bicomplex identities")
def test_criterion_02_bicomplex_identities():
    t0 = time.monotonic()
    for name, alg in fixture_algebras().items():
        if alg.space.dim > 6:
            continue
        bi = CeBicomplex(alg, adjoint_module(alg), 5)
        for p in range(bi.l):
            assert is_zero_mat(mat_mul(bi.delta_bar[p], bi.delta_bar[p]))
        for p in range(bi.l - 2):
            assert is_zero_mat(mat_mul(bi.delta[p + 1], bi.delta[p]))
        for p in range(bi.l - 1):
            anti = mat_add(mat_mul(bi.delta_bar[p + 1], bi.delta[p]),
                           mat_mul(bi.delta[p], bi.delta_bar[p]))
            assert is_zero_mat(anti), name
    assert time.monotonic() - t0 < 5.0


@criterion(3, "first-page identification")
def test_criterion_03_e1_dimensions():
    l = 4
    for name, alg in fixture_algebras().items():
        hl, _ = cohomology_lie(alg)
        ftc = build_ce(alg, adjoint_module(alg), l)
        pg = page(ftc, 1)
        for p in range(l):
            pb = PowerBasis(hl.space, EXTERIOR, p)
            counts = {}
            for t_pos in range(len(pb)):
                tdeg = pb.degree(t_pos)
                for m in range(hl.space.dim):
                    q = hl.space.degrees[m] - tdeg
                    counts[q] = counts.get(q, 0) + 1
            qs = set(counts) | {q for (pp, q) in pg.cells if pp == p}
            for q in qs:
                assert pg.dim(p, q) == counts.get(q, 0), (name, p, q)


@criterion(4, "abutment on random filtered complexes")
def test_criterion_04_abutment():
    t0 = time.monotonic()
    for seed in range(25):
        ftc = random_filtered_complex(seed, dim=10, length=4)
        assert abutment_check(ftc)["ok"], seed
    assert time.monotonic() - t0 < 10.0


@criterion(5, "quotient comparison maps")
def test_criterion_05_quotient_comparison():
    for name, alg in fixture_algebras().items():
        ftc = build_ce(alg, adjoint_module(alg), 4)
        for lev in (1, 2, 3):
            assert quotient_compare(ftc, lev)["ok"], (name, lev)


@criterion(6, "worked derivation chain")
def test_criterion_06_worked_chain():
    t0 = time.monotonic()
    problem = voronov_problem()
    amb = problem["algebra"]
    u = amb.space.index("u")
    d = amb.space.index("v3")
    # [d, u] = -3 v2 and [[d, u], u] = 6 v1
    unit_d, unit_u = ([F(1) if i == k else F(0) for i in range(amb.space.dim)]
                      for k in (d, u))
    du = amb.bracket_vec(unit_d, unit_u)
    expect = [F(0)] * amb.space.dim
    expect[amb.space.index("v2")] = F(-3)
    assert du == expect
    ddu = amb.bracket_vec(du, unit_u)
    expect = [F(0)] * amb.space.dim
    expect[amb.space.index("v1")] = F(6)
    assert ddu == expect

    alg, rep = derived_brackets(amb, problem["subalgebra"],
                                problem["derivation"], 5)
    assert rep["ok"]
    assert 1 not in alg.taylor and 2 not in alg.taylor
    q3 = alg.q(3)
    uu = alg.space.index("u")
    val = eval_tuple(q3, (uu, uu, uu))
    v0 = alg.space.index("v0")
    assert abs(val[v0]) == 6 and all(
        x == 0 for i, x in enumerate(val) if i != v0)

    res = formality_verdict(alg, weight=5, columns=5)
    assert res["verdict"] == "NotFormal"
    assert res["witness"]["r"] == 2
    assert time.monotonic() - t0 < 1.0


@criterion(7, "intrinsic formality of the endomorphism fixture")
def test_criterion_07_intrinsic_formality():
    L = dgla_from("endu.json")
    # H*(L) is the endomorphism algebra of one even plus one odd generator
    hl, _ = cohomology_lie(L)
    assert hl.space.dim == 4
    assert sorted(hl.space.degrees) == [-1, 0, 0, 1]
    e = euler_class(L, 5)
    assert e["is_zero"]
    res = formality_verdict(L, weight=5, columns=5)
    assert res["verdict"] in ("FormalUpTo", "HomotopyAbelianUpTo")


@criterion(8, "criterion agreement and gauge round trip")
def test_criterion_08_agreement():
    # agreement on every fixture is asserted inside the pipeline; exercise
    # it explicitly on the nonformal one and on quadratic ones
    problem = voronov_problem()
    alg, _ = derived_brackets(problem["algebra"], problem["subalgebra"],
                              problem["derivation"], 5)
    gr = gauge_reduce(alg)
    obs = obstruction_sequence(alg, 5, 3)
    assert gr["verdict"] == "NotFormal"
    assert obs["first_nonzero"] == gr["stage"] - 1

    for name in ("sl2.json", "heis3.json"):
        v = decalage(dgla_from(name), 5)
        gr = gauge_reduce(v)
        obs = obstruction_sequence(v, 5, 3)
        assert gr["verdict"] in ("FormalUpTo", "HomotopyAbelianUpTo")
        assert obs["all_vanish"]

    # gauge-constructed fixtures: conjugate a minimal model that has only
    # q₂ by a random exp and demand the reduction recovers and inverts it
    for args in (("endu", 5, 2), ("quadcone", 4, 3), ("linf_min", 4, 2)):
        gauged, phi = conjugate(*args)
        res = gauge_reduce(gauged)
        assert res["verdict"] == "FormalUpTo" and res["steps"], args
        assert res["final"].q(2).matrix == gauged.q(2).matrix
        assert all(n <= 2 for n in res["final"].taylor)
        # recovered gauge composed with the construction is an automorphism
        # of the gauged structure with identity linear part
        comp = compose_morphisms(phi, res["gauge"])
        assert validate_linf_morphism(comp)["ok"]
        dim = gauged.space.dim
        ident = [[F(1) if i == j else F(0) for j in range(dim)]
                 for i in range(dim)]
        assert comp.f1(1) == ident


@criterion(9, "diagonal derivation identities")
def test_criterion_09_euler_identities():
    rng = random.Random(41)
    v = GradedVectorSpace({-1: ["m"], 0: ["a"], 1: ["x"]})
    host = LInfinityAlgebra(v, {}, 4)
    e = euler_power_map(host)
    for _ in range(20):
        j = rng.randint(1, 3)
        h = rng.randint(-1, 1)
        pb = host.ctx.pb[j]
        m = zeros(v.dim, len(pb))
        for c, t in enumerate(pb.elements):
            tdeg = sum(v.degrees[i] for i in t) + h
            for r in range(v.dim):
                if v.degrees[r] == tdeg:
                    m[r][c] = F(rng.randint(-3, 3))
        beta = PowerMap(pb, v, h, m)
        br = nr_bracket(beta, e, host.ctx)
        assert br.matrix == beta.scale(F(j - h - 1)).matrix

    # [q_k, id] = (k-1) q_k for k <= 4 on a structure carrying q3 and q4;
    # gauging a cubic structure by a quadratic degree-0 map creates a q4
    problem = voronov_problem()
    cubic, _ = derived_brackets(problem["algebra"], problem["subalgebra"],
                                problem["derivation"], 5)
    pb2 = cubic.ctx.pb[2]
    m = zeros(cubic.space.dim, len(pb2))
    for c, t in enumerate(pb2.elements):
        tdeg = sum(cubic.space.degrees[i] for i in t)
        for r in range(cubic.space.dim):
            if cubic.space.degrees[r] == tdeg:
                m[r][c] = F(1)
    gauged, _ = exp_coderivation(cubic, PowerMap(pb2, cubic.space, 0, m))
    ident = PowerMap(gauged.ctx.pb[1], gauged.space, 0,
                     [[F(1) if i == j else F(0)
                       for j in range(gauged.space.dim)]
                      for i in range(gauged.space.dim)])
    seen = set()
    for k, qk in gauged.taylor.items():
        if k > 4:
            continue
        seen.add(k)
        br = nr_bracket(qk, ident, gauged.ctx)
        assert br.matrix == qk.scale(F(k - 1)).matrix
    assert {3, 4} <= seen

    # the first-page differential kills the diagonal class on all fixtures
    for name, alg in fixture_algebras().items():
        valg = decalage(alg, 4)
        if not valg.is_minimal():
            continue
        ce = ce_linf_self(valg, 4)
        rep = dense_vec(_euler_vector(ce, valg), ce.total.space.dim)
        dvec = sparse_vec(mat_vec(ce.total.differential.matrix, rep))
        pg = page(ce.total, 1)
        assert pg.is_zero_class(2, -1, dvec), name


@criterion(10, "shift comparison identities and page shift")
def test_criterion_10_shift_comparison():
    for name, alg in fixture_algebras().items():
        if alg.space.dim > 5:
            continue
        _, rep = decalage_conjugation(alg, 3)
        assert rep["ok"], (name, rep["columns"])
        ftc_l = build_ce(alg, adjoint_module(alg), 3)
        ftc_v = ce_linf_self(decalage(alg, 4), 3).total
        pl, pv = page(ftc_l, 2), page(ftc_v, 2)
        cells = {(p, q) for (p, q) in pl.cells} | \
                {(p, q + 1) for (p, q) in pv.cells}
        for (p, q) in cells:
            assert pl.dim(p, q) == pv.dim(p, q - 1), (name, p, q)


@criterion(11, "quadratic cone controls third-order lifting")
def test_criterion_11_mc_quadraticity():
    t0 = time.monotonic()
    alg = dgla_from("quadcone.json")
    assert alg.differential.is_zero()
    x_i = alg.space.index("x")
    z_i = alg.space.index("z")
    for a in range(-3, 4):
        for b in range(-3, 4):
            x1 = [F(0)] * alg.space.dim
            x1[x_i], x1[z_i] = F(a), F(b)
            bracket_sq = alg.bracket_vec(x1, x1)
            res = lift_to_order(alg, x1, 3)
            assert res["liftable"] == all(v == 0 for v in bracket_sq), (a, b)
    assert time.monotonic() - t0 < 5.0


@criterion(12, "deformed-parameter identities")
def test_criterion_12_kaledin_identities():
    problem = voronov_problem()
    cubic, _ = derived_brackets(problem["algebra"], problem["subalgebra"],
                                problem["derivation"], 5)
    for alg in (cubic, decalage(dgla_from("sl2.json"), 5),
                decalage(dgla_from("heis3.json"), 5)):
        res = kaledin_class(alg, 5, 3)
        assert res["identities"]["square_zero"]
        assert res["identities"]["cocycle"]
        assert res["identities"]["euler_relation"]
    res = kaledin_class(cubic, 5, 3)
    assert not res["class_is_zero"]


def random_filtered_complex(seed, dim=10, length=4):
    """Seeded filtered complex with d² = 0 enforced greedily."""
    rng = random.Random(seed)
    labels = []
    levels = []
    for i in range(dim):
        labels.append((rng.randint(0, 2), f"v{i}"))
        levels.append(rng.randint(0, length - 1))
    order = sorted(range(dim), key=lambda i: (labels[i][0], i))
    sorted_levels = [levels[i] for i in order]
    comps = {}
    for i in order:
        comps.setdefault(labels[i][0], []).append(labels[i][1])
    v = GradedVectorSpace(comps)
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
        if not is_zero_mat(mat_mul(m, m)):
            m[r][c] = F(0)
    from ceformality.specseq import FilteredTotalComplex
    d = GradedMap(v, v, 1, m)
    return FilteredTotalComplex(v, sparse_columns(d), sorted_levels, length)
