import os
import random
from fractions import Fraction
from itertools import combinations

import pytest

from ceformality.cli import _algebra
from ceformality.dgla import DgLieAlgebra, dgla_is_valid
from ceformality.formality import minimal_model
from ceformality.graded import (
    GradedVectorSpace, PowerBasis, PowerMap, SYMMETRIC, koszul_sign,
)
from ceformality.linalg import (
    Q0, Q1, identity, is_zero_mat, is_zero_vec, mat_mul, zero_vec, zeros,
)
from ceformality.linf import (
    LInfinityAlgebra, LInfinityMorphism, LinfCeComplex, ce_linf_self,
    coder_lift_block, compose_morphisms, decalage, derived_brackets,
    exp_coderivation, identity_morphism, linf_structure, nr_bracket,
    validate_linf, validate_linf_morphism,
)
from ceformality.problems import load_problem, parse_problem
from dgla_oracle import eval_tuple
from linf_oracle import decalage_conjugation, projection, undecalage
from page_oracle import page
from test_cli import end_u
from test_formality import VORONOV, gauged

F = Fraction


def sl2():
    return DgLieAlgebra.from_data(
        {0: ["h", "e", "f"]}, {},
        {("h", "e"): [("e", 2)], ("h", "f"): [("f", -2)],
         ("e", "f"): [("h", 1)]})


def two_step():
    """da = b with a nontrivial bracket on top: [c, a] = a, [c, b] = b."""
    return DgLieAlgebra.from_data(
        {0: ["a", "c"], 1: ["b"]}, {"a": [("b", 1)]},
        {("c", "a"): [("a", 1)], ("c", "b"): [("b", 1)]})


def voronov_ambient():
    return DgLieAlgebra.from_data(
        {0: ["u"], 1: ["v0", "v1", "v2", "v3"]}, {},
        {("v1", "u"): [("v0", -1)], ("v2", "u"): [("v1", -2)],
         ("v3", "u"): [("v2", -3)]})


def random_power_map(space, arity, degree, rng, density=0.5):
    pb = PowerBasis(space, SYMMETRIC, arity)
    m = zeros(space.dim, len(pb))
    for c, t in enumerate(pb.elements):
        tdeg = sum(space.degrees[i] for i in t) + degree
        for r in range(space.dim):
            if space.degrees[r] == tdeg and rng.random() < density:
                m[r][c] = F(rng.randint(-3, 3))
    return PowerMap(pb, space, degree, m)


# -- structure and validation -------------------------------------------


@pytest.mark.parametrize("make", [sl2, two_step, voronov_ambient])
def test_decalage_satisfies_relations(make):
    alg = decalage(make(), 4)
    assert validate_linf(alg)["ok"]


def test_decalage_undecalage_round_trip():
    L = two_step()
    back = undecalage(decalage(L, 4))
    assert back.differential.matrix == L.differential.matrix
    assert back.bracket.matrix == L.bracket.matrix


def test_undecalage_rejects_higher_operations():
    amb = voronov_ambient()
    alg, _ = derived_brackets(amb, ["v1", "v2", "v3"], "v3", 4)
    with pytest.raises(ValueError):
        undecalage(alg)


def test_validate_detects_corrupted_coefficient():
    # changing the single constant [h,e] = 2e to 3e breaks jacobi, and the
    # shifted structure must fail the quadratic relations at weight 3
    bad_l = DgLieAlgebra.from_data(
        {0: ["h", "e", "f"]}, {},
        {("h", "e"): [("e", 3)], ("h", "f"): [("f", -2)],
         ("e", "f"): [("h", 1)]}, check=False)
    rep = validate_linf(decalage(bad_l, 4))
    assert not rep["ok"]
    assert rep["failures"][0]["weight"] == 3


def test_taylor_coefficients_must_raise_degree():
    v = GradedVectorSpace({0: ["s"], 1: ["t"]})
    pb = PowerBasis(v, SYMMETRIC, 2)
    m = zeros(v.dim, len(pb))
    with pytest.raises(ValueError):
        LInfinityAlgebra(v, {2: PowerMap(pb, v, 0, m)}, 3)


def test_taylor_coefficients_start_at_arity_one():
    # a curvature q₀ has no place in the relations J_n the checks read
    v = GradedVectorSpace({0: ["s"], 1: ["t"]})
    pb = PowerBasis(v, SYMMETRIC, 0)
    q0 = PowerMap(pb, v, 1, [[Q0], [Q1]])
    with pytest.raises(ValueError, match="arities 1..N"):
        LInfinityAlgebra(v, {0: q0}, 3)


# -- coderivation lifts and the NR bracket ------------------------------


def test_lift_of_arity_k_against_identity_bracket():
    # [q_k, id] = (k-1) q_k for every taylor coefficient present
    amb = voronov_ambient()
    alg, _ = derived_brackets(amb, ["v1", "v2", "v3"], "v3", 5)
    v = alg.space
    ident = PowerMap(alg.ctx.pb[1], v,
                     0, [[F(1) if i == j else F(0) for j in range(v.dim)]
                         for i in range(v.dim)])
    for k, qk in alg.taylor.items():
        br = nr_bracket(qk, ident, alg.ctx)
        expect = qk.scale(F(k - 1))
        assert br.matrix == expect.matrix


def test_nr_bracket_graded_antisymmetry():
    rng = random.Random(11)
    v = GradedVectorSpace({0: ["a", "b"], 1: ["x"], 2: ["y"]})
    ctx_alg = LInfinityAlgebra(v, {}, 5)
    for _ in range(20):
        da, db = rng.choice([0, 1]), rng.choice([0, 1])
        f = random_power_map(v, rng.randint(1, 3), da, rng)
        g = random_power_map(v, rng.randint(1, 3), db, rng)
        lhs = nr_bracket(f, g, ctx_alg.ctx)
        rhs = nr_bracket(g, f, ctx_alg.ctx).scale(F(-(-1) ** (da * db)))
        assert lhs.matrix == rhs.matrix


def test_coder_lift_is_coderivation_shape():
    # lifting q2 to weight 3 lands in weight 2 and is built from all the
    # 2-subsets of positions: on s⊙s⊙s with q2(s,s)=t it gives 3·(t⊙s)
    v = GradedVectorSpace({0: ["s"], 1: ["t"]})
    pb2 = PowerBasis(v, SYMMETRIC, 2)
    m = zeros(v.dim, len(pb2))
    s, t = v.index("s"), v.index("t")
    m[t][pb2.index((s, s))] = F(1)
    q2 = PowerMap(pb2, v, 1, m)
    alg = LInfinityAlgebra(v, {2: q2}, 3)
    block = coder_lift_block(q2, alg.ctx, 3)
    pb3 = alg.ctx.pb[3]
    out_pb = alg.ctx.pb[2]
    col = pb3.index((s, s, s))
    vals = [block[r][col] for r in range(len(out_pb))]
    assert vals[out_pb.index((s, t))] == 3


# -- morphisms -----------------------------------------------------------


def test_identity_morphism_validates():
    alg = decalage(sl2(), 4)
    assert validate_linf_morphism(identity_morphism(alg))["ok"]


def test_exp_gauge_is_a_morphism_and_structures_validate():
    alg = decalage(sl2(), 4)
    rng = random.Random(3)
    alpha = random_power_map(alg.space, 2, 0, rng)
    new, phi = exp_coderivation(alg, alpha)
    assert validate_linf(new)["ok"]
    rep = validate_linf_morphism(phi)
    assert rep["ok"], rep
    assert phi.source is new and phi.target is alg


def test_composition_of_gauges_validates():
    alg = decalage(two_step(), 4)
    rng = random.Random(7)
    a1 = random_power_map(alg.space, 2, 0, rng)
    mid, phi1 = exp_coderivation(alg, a1)
    a2 = random_power_map(mid.space, 3, 0, rng)
    inner, phi2 = exp_coderivation(mid, a2)
    comp = compose_morphisms(phi1, phi2)
    assert comp.source is inner and comp.target is alg
    assert validate_linf_morphism(comp)["ok"]


def test_morphism_failure_detected():
    alg = decalage(sl2(), 3)
    # the identity with one linear entry scaled is no longer a morphism
    m = identity_morphism(alg).f1(1)
    m = [row[:] for row in m]
    m[0][0] = F(2)
    bad = LInfinityMorphism.from_linear(alg, alg, m)
    assert not validate_linf_morphism(bad)["ok"]


def all_tuples(ctx):
    return [t for n in range(ctx.bound + 1) for t in ctx.pb[n].elements]


class FlatBasis:
    """The flat basis of ⊕_{0≤n≤N} V^⊙n over a ``SymContext``: the dense
    references' own indexing, in which a sparse ``component_value`` is
    read as one vector."""

    def __init__(self, ctx):
        self.pb = ctx.pb
        self.flat = []
        self._index = {}
        self._starts = []
        for n in range(ctx.bound + 1):
            self._starts.append(len(self.flat))
            for t_pos in range(len(ctx.pb[n])):
                self._index[(n, t_pos)] = len(self.flat)
                self.flat.append((n, t_pos))
        self.dim = len(self.flat)

    def index(self, n, t_pos):
        return self._index[(n, t_pos)]

    def weight_slice(self, n):
        """Positions of the weight-n block, as a slice."""
        start = self._starts[n]
        return slice(start, start + len(self.pb[n]))

    def dense(self, value):
        """A value {weight: {position: entry}} as a vector on this basis."""
        out = zero_vec(self.dim)
        for n, part in value.items():
            for t_pos, x in part.items():
                out[self.index(n, t_pos)] = x
        return out


def assert_values_sparse(f):
    """Every memoized value of f holds only nonzero entries, no empty
    weight and no weight above the target's bound."""
    assert f._values
    for t, value in f._values.items():
        for j, part in value.items():
            assert part and 0 <= j <= f.target.bound, (t, j)
            assert all(part.values()), (t, j)


def assert_matches_fresh(f):
    """Every memoized or new value of f equals that of an unmemoized copy."""
    fresh = LInfinityMorphism(f.source, f.target, f.components)
    for t in all_tuples(f.source.ctx):
        assert f.component_value(t) == fresh.component_value(t), t
    assert big_matrix(f) == big_matrix(fresh)


def set_partitions(items):
    """All partitions of a list into unordered blocks (each block is a tuple
    in input order, blocks ordered by first element)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [(first,)] + part
        for i in range(len(part)):
            yield part[:i] + [(first,) + part[i]] + part[i + 1:]


def test_set_partitions_bell_numbers():
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15)]:
        assert sum(1 for _ in set_partitions(range(n))) == bell


def partition_sum_value(f, tup):
    """(f(tup), number of product terms killed by a repeated odd-degree
    index), with f(tup) summed over all Bell(n) set partitions of the
    positions: ε · f¹(x_B₁) ⊙ … ⊙ f¹(x_Bⱼ), ε the Koszul sign of putting
    the blocks side by side."""
    sctx, tctx = f.source.ctx, f.target.ctx
    flat = FlatBasis(tctx)
    out = zero_vec(flat.dim)
    if not tup:
        out[flat.index(0, 0)] = Q1
        return out, 0
    killed = 0
    degs = [f.source.space.degrees[i] for i in tup]
    for part in set_partitions(range(len(tup))):
        j = len(part)
        if j > tctx.bound:
            continue
        perm = [i for block in part for i in block]
        terms = [(F(koszul_sign(degs, perm)), ())]
        for block in part:
            pb = sctx.pb[len(block)]
            sign, canon = pb.normalize(tuple(tup[i] for i in block))
            if not sign:
                terms = []
                break
            c = pb.index(canon)
            terms = [(coeff * sign * row[c], t + (a,))
                     for coeff, t in terms
                     for a, row in enumerate(f.f1(len(block))) if row[c]]
        for coeff, t in terms:
            sign, canon = tctx.pb[j].normalize(t)
            if sign:
                out[flat.index(j, tctx.pb[j].index(canon))] += sign * coeff
            else:
                killed += 1
    return out, killed


@pytest.mark.parametrize("seed", range(12))
def test_component_value_equals_the_partition_sum(seed):
    # three odd basis vectors (two in one degree), so products of component
    # values repeat odd-degree indices; the target's bound 3 is below the
    # source's 5, so the weight truncation drops terms
    space = GradedVectorSpace({-1: ["x"], 0: ["a", "b"], 1: ["c", "d"]})
    rng = random.Random(seed)
    comps = {k: random_power_map(space, k, 0, rng).matrix
             for k in range(1, 6)}
    f = LInfinityMorphism(LInfinityAlgebra(space, {}, 5),
                          LInfinityAlgebra(space, {}, 3), comps)
    # longest tuples first, so the recursion fills its own memo
    tuples = sorted(all_tuples(f.source.ctx), key=len, reverse=True)
    flat = FlatBasis(f.target.ctx)
    nonzero = killed = 0
    for t in tuples:
        want, k = partition_sum_value(f, t)
        assert flat.dense(f.component_value(t)) == want, t
        killed += k
        if len(t) >= 3:
            nonzero += sum(1 for x in want if x)
    assert nonzero and killed
    assert_values_sparse(f)


def gauge_morphism():
    """A coalgebra morphism with a nonzero component in every arity ≤ 4."""
    alg = decalage(two_step(), 4)
    alpha = random_power_map(alg.space, 2, 0, random.Random(5), density=1.0)
    _new, phi = exp_coderivation(alg, alpha)
    assert sorted(phi.components) == [1, 2, 3, 4]
    return phi


@pytest.mark.parametrize("longest", [2, 4])
@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_set_component_drops_exactly_the_stale_values(longest, j):
    # memo filled up to tuples of length `longest`: j runs below, at and
    # above it, and every arity's new component changes some value
    phi = gauge_morphism()
    if longest == phi.source.bound:
        big_matrix(phi)
    else:
        for t in all_tuples(phi.source.ctx):
            if len(t) <= longest:
                phi.component_value(t)
    rng = random.Random(j)
    new = random_power_map(phi.source.space, j, 0, rng, density=1.0).matrix
    assert new != phi.f1(j) and not is_zero_mat(new)
    phi.set_component(j, new)
    assert phi.f1(j) is new
    assert_matches_fresh(phi)


def test_set_component_to_zero_removes_it():
    phi = gauge_morphism()
    big_matrix(phi)
    phi.set_component(3, zeros(phi.target.space.dim,
                               len(phi.source.ctx.pb[3])))
    assert 3 not in phi.components
    assert_matches_fresh(phi)


def exact_bracket():
    """[u, v] = z = dw: the transfer's morphism gains an arity-2 component,
    where the fixtures' zero differentials keep theirs linear."""
    return DgLieAlgebra.from_data(
        {0: ["u", "w"], 1: ["v", "z"]}, {"w": [("z", 1)]},
        {("u", "v"): [("z", 1)]})


def fixture_algebra(name):
    path = os.path.join(os.path.dirname(__file__), "fixtures", name + ".json")
    return load_problem(path)["algebra"]


@pytest.mark.parametrize("make", [
    lambda: fixture_algebra("quadcone"), lambda: fixture_algebra("endu"),
    exact_bracket], ids=["quadcone", "endu", "exact_bracket"])
def test_minimal_model_morphism_values_match_fresh(make):
    mm = minimal_model(decalage(make(), 4), 4)
    for mor in (mm["into"], projection(mm)):
        assert_matches_fresh(mor)


# -- dense references on ⊕_{n≤N} V^⊙n -------------------------------------


def reference_lift_block(q, ctx, n):
    """``coder_lift_block`` by sorting: each ε is ``koszul_sign`` of
    sel + rest, each q(t_sel) an ``eval_tuple`` and each product with
    t_rest a ``normalize``."""
    k = q.arity
    out_w = n - k + 1
    pb_in = ctx.pb[n]
    if out_w < 0 or out_w > ctx.bound:
        return zeros(0, len(pb_in))
    pb_out = ctx.pb[out_w]
    m = zeros(len(pb_out), len(pb_in))
    for c, t in enumerate(pb_in.elements):
        degs = [ctx.space.degrees[i] for i in t]
        for sel in combinations(range(n), k):
            rest = tuple(i for i in range(n) if i not in sel)
            eps = koszul_sign(degs, list(sel) + list(rest))
            val = eval_tuple(q, tuple(t[i] for i in sel))
            tail = tuple(t[i] for i in rest)
            for a, coeff in enumerate(val):
                if not coeff:
                    continue
                sign, canon = pb_out.normalize((a,) + tail)
                if sign:
                    m[pb_out.index(canon)][c] += eps * sign * coeff
    return m


def assert_lifts_match_reference(q, ctx):
    for n in range(ctx.bound + 1):
        assert coder_lift_block(q, ctx, n) == \
            reference_lift_block(q, ctx, n), (q.arity, n)


def add_block(big, flat, out_w, in_w, block):
    """Add a weight in_w → out_w block into a matrix on a flat basis."""
    start = flat.weight_slice(in_w).start
    for row, brow in zip(big[flat.weight_slice(out_w)], block):
        for c, x in enumerate(brow):
            if x:
                row[start + c] += x


def qhat(alg):
    """Square matrix of the codifferential on ⊕_{n≤N} V^⊙n."""
    ctx = alg.ctx
    flat = FlatBasis(ctx)
    m = zeros(flat.dim, flat.dim)
    for n in range(1, ctx.bound + 1):
        for k, qk in alg.taylor.items():
            if k <= n:
                add_block(m, flat, n - k + 1, n,
                          reference_lift_block(qk, ctx, n))
    return m


def big_matrix(f):
    """Matrix of the full coalgebra morphism on the truncated bases."""
    sctx = f.source.ctx
    sflat, tflat = FlatBasis(sctx), FlatBasis(f.target.ctx)
    m = zeros(tflat.dim, sflat.dim)
    for c, (n, t_pos) in enumerate(sflat.flat):
        val = tflat.dense(f.component_value(sctx.pb[n].elements[t_pos]))
        for r in range(tflat.dim):
            m[r][c] = val[r]
    return m


def dense_validate_linf(alg):
    """q̂² = 0 on every column of the truncated coalgebra."""
    ctx = alg.ctx
    flat = FlatBasis(ctx)
    qq = mat_mul(qhat(alg), qhat(alg))
    failures = []
    for n in range(1, ctx.bound + 1):
        for t_pos, t in enumerate(ctx.pb[n].elements):
            c = flat.index(n, t_pos)
            col = [qq[r][c] for r in range(flat.dim)]
            if not is_zero_vec(col):
                label = "⊙".join(alg.space.labels[i] for i in t)
                failures.append({"weight": n, "tuple": label, "residual": [
                    x for x in col if x][:4]})
    return {"ok": not failures, "failures": failures}


def dense_validate_linf_morphism(f):
    """f Q̂ = R̂ f on every column of the truncated coalgebra, and f(1) = 1."""
    src, tgt = f.source, f.target
    big = big_matrix(f)
    lhs = mat_mul(big, qhat(src))
    rhs = mat_mul(qhat(tgt), big)
    failures = []
    sflat, tflat = FlatBasis(src.ctx), FlatBasis(tgt.ctx)
    for c, (n, t_pos) in enumerate(sflat.flat):
        col = [lhs[r][c] - rhs[r][c] for r in range(tflat.dim)]
        if not is_zero_vec(col):
            t = src.ctx.pb[n].elements[t_pos]
            failures.append({
                "weight": n,
                "tuple": "⊙".join(src.space.labels[i] for i in t)})
    unit_ok = big[tflat.index(0, 0)][sflat.index(0, 0)] == 1
    return {"ok": not failures and unit_ok, "unit": unit_ok,
            "failures": failures}


def dense_compose_morphisms(g, f):
    """g ∘ f, its components read off the product of the big matrices."""
    big = mat_mul(big_matrix(g), big_matrix(f))
    w1 = big[FlatBasis(g.target.ctx).weight_slice(1)]
    sctx = f.source.ctx
    sflat = FlatBasis(sctx)
    comps = {j: [row[sflat.weight_slice(j)] for row in w1]
             for j in range(1, sctx.bound + 1)}
    return LInfinityMorphism(f.source, g.target, comps)


def exp_nilpotent(m):
    n = len(m)
    out = identity(n)
    term = identity(n)
    k = 0
    while True:
        k += 1
        term = mat_mul(term, m)
        if is_zero_mat(term):
            return out
        inv = Fraction(1)
        for t in range(1, k + 1):
            inv /= t
        out = [[out[i][j] + inv * term[i][j] for j in range(n)]
               for i in range(n)]
        assert k <= n, "exp argument is not nilpotent"


def dense_exp_coderivation(alg, alpha):
    """(R, e^{α̂}) with r read off e^{−α̂} Q̂ e^{α̂} as square matrices."""
    ctx = alg.ctx
    flat = FlatBasis(ctx)
    lift = zeros(flat.dim, flat.dim)
    for n in range(alpha.arity - 1, ctx.bound + 1):
        add_block(lift, flat, n - alpha.arity + 1, n,
                  reference_lift_block(alpha, ctx, n))
    expm = exp_nilpotent(lift)
    expm_inv = exp_nilpotent([[-x for x in row] for row in lift])
    conj = mat_mul(expm_inv, mat_mul(qhat(alg), expm))
    w1 = flat.weight_slice(1)
    taylor = {}
    comps = {}
    for j in range(1, ctx.bound + 1):
        cols = flat.weight_slice(j)
        m = [row[cols] for row in conj[w1]]
        if not is_zero_mat(m):
            taylor[j] = PowerMap(ctx.pb[j], alg.space, 1, m)
        comps[j] = [row[cols] for row in expm[w1]]
    new_alg = LInfinityAlgebra(alg.space, taylor, alg.bound)
    return new_alg, LInfinityMorphism(new_alg, alg, comps)


def first_weight(rep):
    return rep["failures"][0]["weight"] if rep["failures"] else None


def assert_same_verdict(rep, dense):
    """Equal ok, unit and first failing weight; the corestriction's failing
    tuples are among the dense ones."""
    assert (rep["ok"], rep.get("unit"), first_weight(rep)) == \
        (dense["ok"], dense.get("unit"), first_weight(dense))
    assert {(x["weight"], x["tuple"]) for x in rep["failures"]} <= \
        {(x["weight"], x["tuple"]) for x in dense["failures"]}


def taylor_of(alg):
    return {n: q.matrix for n, q in alg.taylor.items()}


def assert_morphism_matches_dense(f):
    assert_same_verdict(validate_linf_morphism(f),
                        dense_validate_linf_morphism(f))


def cli_structure(name, weight):
    """The structure a command reads off a fixture at a weight bound."""
    path = os.path.join(os.path.dirname(__file__), "fixtures", name + ".json")
    return linf_structure(_algebra(load_problem(path), weight), weight)


ORACLE_MODELS = {
    **{name: (lambda name=name, n=n: cli_structure(name, n))
       for name, n in [("sl2", 4), ("sl2_bad", 4), ("heis3", 4),
                       ("endu", 4), ("quadcone", 4), ("linf_min", 4),
                       ("voronov5", 5)]},
    **{name: make for name, make in VORONOV.items()},
    "end_u1": lambda: linf_structure(
        parse_problem(end_u(1))["algebra"], 3),
    **{f"gauged_{name}": (lambda args=args: gauged(*args)[0])
       for name, args in [("endu", ("endu", 5, 2)),
                          ("quadcone", ("quadcone", 4, 3)),
                          ("linf_min", ("linf_min", 4, 2))]},
}


@pytest.mark.parametrize("make", ORACLE_MODELS.values(), ids=ORACLE_MODELS)
def test_corestriction_checks_equal_the_dense_references(make):
    # every check on the structure and, when it is valid, on its minimal
    # model, both transfer morphisms, their composites and a gauge
    alg = make()
    assert_same_verdict(validate_linf(alg), dense_validate_linf(alg))
    if not validate_linf(alg)["ok"]:
        return
    mm = minimal_model(alg, alg.bound)
    w, g, f = mm["minimal"], mm["into"], projection(mm)
    assert_same_verdict(validate_linf(w), dense_validate_linf(w))
    for mor in (g, f, compose_morphisms(g, f), compose_morphisms(f, g)):
        assert_morphism_matches_dense(mor)
        assert_values_sparse(mor)
    for outer, inner in ((g, f), (f, g)):
        assert compose_morphisms(outer, inner).components == \
            dense_compose_morphisms(outer, inner).components
    rng = random.Random(len(alg.space.labels))
    for arity in range(2, min(alg.bound, 3) + 1):
        for target in (alg, w):
            alpha = random_power_map(target.space, arity, 0, rng)
            new, phi = exp_coderivation(target, alpha)
            dense_new, dense_phi = dense_exp_coderivation(target, alpha)
            assert taylor_of(new) == taylor_of(dense_new)
            assert phi.components == dense_phi.components
            assert_morphism_matches_dense(phi)
            assert_values_sparse(phi)


@pytest.mark.parametrize("make", ORACLE_MODELS.values(), ids=ORACLE_MODELS)
def test_lifts_equal_the_sorting_reference(make):
    # every q_k of the structure and of its minimal model, and the lifts of
    # the gauge generators exp_coderivation conjugates by, on every weight
    alg = make()
    models = [alg]
    if validate_linf(alg)["ok"]:
        models.append(minimal_model(alg, alg.bound)["minimal"])
    rng = random.Random(len(alg.space.labels))
    for model in models:
        for k in range(1, model.bound + 1):
            assert_lifts_match_reference(model.q(k), model.ctx)
        for arity in range(2, min(model.bound, 3) + 1):
            alpha = random_power_map(model.space, arity, 0, rng)
            assert_lifts_match_reference(alpha, model.ctx)


def first_failures(check, dense_check, variants, n):
    """Run both checks on each variant until one fails first at weight n,
    asserting that they agree on every variant tried."""
    for bad in variants:
        rep = check(bad)
        assert_same_verdict(rep, dense_check(bad))
        if first_weight(rep) == n:
            return True
    return False


def mutations(matrix, degree, pb, space, rng):
    """Copies of a matrix on ``pb`` with one entry of the given map degree
    changed, in a random order of entries."""
    entries = [(r, c) for c in range(len(pb)) for r in range(space.dim)
               if space.degrees[r] == pb.degree(c) + degree]
    rng.shuffle(entries)
    for r, c in entries:
        m = [row[:] for row in matrix]
        m[r][c] += rng.choice([-2, -1, 1, 2])
        yield m


def test_mutations_are_rejected_at_their_arity():
    # endu's décalage has q₁ ≠ 0 over three degrees, so a change of one
    # entry of q_n, or of f¹_n of the identity or of a transfer morphism,
    # can show first at weight n for every n ≤ N: some does, and the
    # dense references reject each change tried at the same weight
    alg = cli_structure("endu", 4)
    mm = minimal_model(alg, alg.bound)
    transfer = (mm["into"], projection(mm))
    rng = random.Random(23)

    def with_q(n, m):
        bad = LInfinityAlgebra(alg.space, alg.taylor, alg.bound)
        bad.set_q(n, m)
        return bad

    def with_f1(mor, n, m):
        bad = LInfinityMorphism(mor.source, mor.target, mor.components)
        bad.set_component(n, m)
        return bad

    for n in range(1, alg.bound + 1):
        assert first_failures(
            validate_linf, dense_validate_linf,
            (with_q(n, m) for m in mutations(
                alg.q(n).matrix, 1, alg.ctx.pb[n], alg.space, rng)), n), n
        for mor in (identity_morphism(alg), *transfer):
            assert first_failures(
                validate_linf_morphism, dense_validate_linf_morphism,
                (with_f1(mor, n, m) for m in mutations(
                    mor.f1(n), 0, mor.source.ctx.pb[n], mor.target.space,
                    rng)), n), (n, mor.source.space.dim)


def test_set_q_drops_stale_lifts_and_complexes():
    # q_n ↦ λ^{n−1} q_n is conjugation by λ·id, so the structure stays
    # valid; after set_q on every arity, each lift and coderivation complex
    # equals that of a freshly built algebra
    alg = gauged("endu", 4, 2)[0]
    keys = [(k, n) for k in range(1, alg.bound + 1)
            for n in range(k, alg.bound + 1)]
    for lam in (F(2), F(0)):
        for key in keys:
            alg.lift(*key)
        for l in (2, 3, 4):
            ce_linf_self(alg, l)
        for n, q in list(alg.taylor.items()):
            alg.set_q(n, q.scale(lam ** (n - 1)).matrix)
        fresh = LInfinityAlgebra(alg.space, alg.taylor, alg.bound)
        for key in keys:
            assert alg.lift(*key) == fresh.lift(*key), (lam, key)
        for l in (2, 3, 4):
            assert ce_linf_self(alg, l).total.differential.matrix == \
                LinfCeComplex(identity_morphism(fresh), l) \
                .total.differential.matrix, (lam, l)
    assert not alg.taylor


# -- coderivation complex and the comparison with alternating forms ------


def test_ce_linf_differential_squares_to_zero():
    amb = voronov_ambient()
    alg, _ = derived_brackets(amb, ["v1", "v2", "v3"], "v3", 5)
    ftc = ce_linf_self(alg, 5).total
    d = ftc.differential.matrix
    assert is_zero_mat(mat_mul(d, d))


def voronov5_brackets():
    path = os.path.join(os.path.dirname(__file__), "fixtures", "voronov5.json")
    prob = load_problem(path)
    alg, _ = derived_brackets(prob["algebra"], prob["subalgebra"],
                              prob["derivation"], 5)
    return alg


def nr_column_matrix(alg, ce, p, k):
    """Matrix of α ↦ [q_k, α]_NR from column p to column p+k−1 of the
    coderivation complex of the identity, through ``nr_bracket`` one basis
    map at a time: the reference for ``ce.block(p, p + k − 1)``."""
    qk = alg.q(k)
    src_col = ce.columns[p]
    dst_col = ce.columns[p + k - 1]
    m = zeros(dst_col.space.dim, src_col.space.dim)
    if p + k - 1 > alg.ctx.bound:
        return m
    for cidx, (t_pos, w_idx) in enumerate(src_col.pairs):
        amat = zeros(alg.space.dim, len(alg.ctx.pb[p]))
        amat[w_idx][t_pos] = Q1
        adeg = src_col.space.degrees[cidx]
        alpha = PowerMap(alg.ctx.pb[p], alg.space, adeg, amat)
        br = nr_bracket(qk, alpha, alg.ctx)
        for out_t in range(len(alg.ctx.pb[p + k - 1])):
            for out_w in range(alg.space.dim):
                if br.matrix[out_w][out_t]:
                    m[dst_col.index(out_t, out_w)][cidx] = \
                        br.matrix[out_w][out_t]
    return m


def test_nr_bracket_on_an_empty_power_basis_is_zero():
    # sl2's décalage is odd, so it has no weight-4 tuples: q₄ is a map on an
    # empty power basis and [q₄, α] must be the zero map of full width
    alg = decalage(sl2(), 4)
    assert len(alg.ctx.pb[4]) == 0 and len(alg.ctx.pb[3]) == 1
    ce = ce_linf_self(alg, 4)
    for m in (nr_column_matrix(alg, ce, 0, 4), ce.block(0, 3)):
        assert len(m) == ce.columns[3].space.dim and is_zero_mat(m)
    alpha = PowerMap(alg.ctx.pb[0], alg.space, -1, [[Q1], [Q0], [Q0]])
    for br in (nr_bracket(alg.q(4), alpha, alg.ctx),
               nr_bracket(alpha, alg.q(4), alg.ctx)):
        assert br.arity == 3 and br.matrix == zeros(3, 1)


@pytest.mark.parametrize("make, l", [
    (voronov5_brackets, 5),
    (lambda: decalage(fixture_algebra("endu"), 3), 3),
    (lambda: decalage(fixture_algebra("sl2"), 4), 4),
], ids=["voronov5", "endu_decalage", "sl2_decalage"])
def test_ce_linf_differential_is_nr_bracket(make, l):
    # block p → p+k−1 of the total differential is [q_k, −]_NR, computed
    # through nr_bracket one basis map at a time; every other block is zero
    alg = make()
    ce = ce_linf_self(alg, l)
    d = ce.total.differential.matrix
    compared = 0
    for p, src in enumerate(ce.columns):
        for p2, dst in enumerate(ce.columns):
            block = ce.block(p, p2)
            assert block == [
                [d[ce.global_index(p2, r)][ce.global_index(p, c)]
                 for c in range(src.space.dim)]
                for r in range(dst.space.dim)]
            k = p2 - p + 1
            if k in alg.taylor:
                assert block == nr_column_matrix(alg, ce, p, k), (p, k)
                compared += not is_zero_mat(block)
            else:
                assert is_zero_mat(block), (p, p2)
    assert compared


@pytest.mark.parametrize("make", [
    sl2, two_step, lambda: fixture_algebra("endu")],
    ids=["sl2", "two_step", "endu"])
def test_shift_comparison_identities(make):
    _, rep = decalage_conjugation(make(), 3)
    assert rep["ok"], rep["columns"]


def test_shift_comparison_page_dimensions():
    # the comparison is degree +1 columnwise, so page cells move (p,q) to
    # (p, q+1) with equal dimensions
    from ceformality.cecomplex import build_ce
    from ceformality.dgla import adjoint_module
    L = two_step()
    l = 3
    v_alg = decalage(L, l + 1)
    ftc_l = build_ce(L, adjoint_module(L), l)
    ftc_v = ce_linf_self(v_alg, l).total
    for r in (1, 2):
        pl, pv = page(ftc_l, r), page(ftc_v, r)
        for p in range(l):
            qs = [q for (pp, q) in pl.cells if pp == p]
            for q in qs:
                assert pl.dim(p, q) == pv.dim(p, q - 1)


# -- derived brackets -----------------------------------------------------


def test_derived_brackets_on_polynomial_derivation_model():
    amb = voronov_ambient()
    assert dgla_is_valid(amb)
    alg, rep = derived_brackets(amb, ["v1", "v2", "v3"], "v3", 5)
    assert rep["ok"]
    assert sorted(alg.taylor) == [3]
    q3 = alg.q(3)
    u = alg.space.index("u")
    val = eval_tuple(q3, (u, u, u))
    expect = [F(0)] * alg.space.dim
    expect[alg.space.index("v0")] = F(-6)
    assert val == expect


def test_derived_brackets_rejects_nonabelian_complement():
    L = sl2()
    with pytest.raises(ValueError):
        derived_brackets(L, ["h"], "h", 3)
