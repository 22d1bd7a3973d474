import os
import random
from fractions import Fraction

import pytest

from ceformality.dgla import DgLieAlgebra, dgla_is_valid
from ceformality.formality import minimal_model
from ceformality.graded import (
    GradedVectorSpace, PowerBasis, PowerMap, SYMMETRIC, koszul_sign,
)
from ceformality.linalg import (
    Q0, Q1, is_zero_mat, is_zero_vec, mat_mul, zero_vec, zeros,
)
from ceformality.linf import (
    LInfinityAlgebra, LInfinityMorphism, ce_linf_self, coder_lift_block,
    compose_morphisms, decalage, decalage_conjugation, derived_brackets,
    exp_coderivation, identity_morphism, nr_bracket, undecalage,
    validate_linf, validate_linf_morphism,
)
from ceformality.problems import load_problem
from page_oracle import page

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


def assert_matches_fresh(f):
    """Every memoized or new value of f equals that of an unmemoized copy."""
    fresh = LInfinityMorphism(f.source, f.target, f.components)
    for t in all_tuples(f.source.ctx):
        assert f.component_value(t) == fresh.component_value(t), t
    assert f.big_matrix() == fresh.big_matrix()


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
    out = zero_vec(tctx.dim)
    if not tup:
        out[tctx.index(0, 0)] = Q1
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
                out[tctx.index(j, tctx.pb[j].index(canon))] += sign * coeff
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
    nonzero = killed = 0
    for t in tuples:
        want, k = partition_sum_value(f, t)
        assert f.component_value(t) == want, t
        killed += k
        if len(t) >= 3:
            nonzero += sum(1 for x in want if x)
    assert nonzero and killed


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
        phi.big_matrix()
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
    phi.big_matrix()
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
    for side in ("into", "onto"):
        assert_matches_fresh(mm[side])


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
    val = q3.eval_tuple((u, u, u))
    expect = [F(0)] * alg.space.dim
    expect[alg.space.index("v0")] = F(-6)
    assert val == expect


def test_derived_brackets_rejects_nonabelian_complement():
    L = sl2()
    with pytest.raises(ValueError):
        derived_brackets(L, ["h"], "h", 3)
