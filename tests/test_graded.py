from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ceformality.graded import (
    EXTERIOR, SYMMETRIC, GradedMap, GradedVectorSpace, PowerBasis, PowerMap,
    koszul_sign, shuffle_sign, sort_sign,
)
from dgla_oracle import compose, eval_tuple

F = Fraction


def test_koszul_sign_examples():
    assert koszul_sign([1, 1], [1, 0]) == -1
    assert koszul_sign([0, 5], [0, 1]) == 1
    assert koszul_sign([1, 2, 1], [2, 0, 1]) == -1
    # antisymmetric variant adds sgn of the permutation
    assert koszul_sign([0, 0], [1, 0], antisymmetric=True) == -1
    assert koszul_sign([1, 1], [1, 0], antisymmetric=True) == 1


def test_koszul_sign_rejects_bad_permutation():
    with pytest.raises(ValueError):
        koszul_sign([1, 1], [0, 0])


def test_koszul_sign_composition():
    degs = [1, 2, 3, 1]
    p = [2, 0, 3, 1]
    # applying p then its inverse gives the identity, so signs cancel
    inv = [p.index(i) for i in range(4)]
    permuted = [degs[i] for i in p]
    assert koszul_sign(degs, p) * koszul_sign(permuted, inv) == 1


@given(st.lists(st.tuples(st.integers(-3, 3), st.booleans()), max_size=9))
def test_shuffle_sign_matches_koszul(marked):
    # each entry is (degree, whether the position is selected)
    degs = [d for d, _ in marked]
    sel = [i for i, (_, chosen) in enumerate(marked) if chosen]
    rest = [i for i, (_, chosen) in enumerate(marked) if not chosen]
    assert shuffle_sign(degs, sel) == koszul_sign(degs, sel + rest)


def test_sort_sign_matches_koszul():
    items = (3, 1, 2)
    degs = (1, 1, 2)
    sign, out = sort_sign(items, degs)
    assert out == (1, 2, 3)
    # swapping two odds across an even: (3,1,2) -> (1,3,2) -> (1,2,3)
    assert sign == (-1) ** (1 * 1) * (-1) ** (1 * 2)


def test_graded_space_flat_order():
    v = GradedVectorSpace({1: ["x"], 0: ["a", "b"], 2: ["y"]})
    assert v.labels == ["a", "b", "x", "y"]
    assert v.degrees == [0, 0, 1, 2]
    assert v.dim == 4
    assert v.index("x") == 2
    assert v.indices_in_degree(0) == [0, 1]


def test_graded_space_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        GradedVectorSpace({0: ["a"], 1: ["a"]})


def test_graded_space_shift():
    v = GradedVectorSpace({1: ["x"], 2: ["y"]})
    w = v.shift(1)
    assert w.degrees == [0, 1]
    assert w.labels == ["x", "y"]


def test_graded_map_homogeneity_enforced():
    v = GradedVectorSpace({0: ["a"], 1: ["x"]})
    with pytest.raises(ValueError):
        GradedMap(v, v, 1, [[F(0), F(1)], [F(0), F(0)]])
    d = GradedMap.from_images(v, v, 1, {"a": [("x", 1)]})
    assert d.apply([F(2), F(0)]) == [F(0), F(2)]


def test_graded_map_compose():
    v = GradedVectorSpace({0: ["a"], 1: ["x"], 2: ["y"]})
    d = GradedMap.from_images(v, v, 1, {"a": [("x", 1)], "x": [("y", 3)]})
    dd = compose(d, d)
    assert dd.degree == 2
    assert dd.apply([F(1), F(0), F(0)]) == [F(0), F(0), F(3)]


def test_symmetric_power_excludes_odd_squares():
    v = GradedVectorSpace({1: ["v"]})
    pb = PowerBasis(v, SYMMETRIC, 2)
    assert pb.elements == []


def test_symmetric_power_mixed_degrees():
    v = GradedVectorSpace({0: ["a"], 1: ["b"]})
    pb = PowerBasis(v, SYMMETRIC, 2)
    assert pb.elements == [(0, 0), (0, 1)]
    sign, canon = pb.normalize((1, 0))
    assert canon == (0, 1) and sign == 1


def test_exterior_power_excludes_even_squares():
    v = GradedVectorSpace({0: ["a", "b"], 1: ["c"]})
    pb = PowerBasis(v, EXTERIOR, 2)
    assert (0, 0) not in pb.elements
    assert (2, 2) in pb.elements  # odd degree repeats allowed in wedge
    sign, canon = pb.normalize((1, 0))
    assert canon == (0, 1) and sign == -1


def test_power_basis_degree():
    v = GradedVectorSpace({1: ["x"], 2: ["y"]})
    pb = PowerBasis(v, SYMMETRIC, 2)
    assert pb.degree((0, 1)) == 3


def test_power_map_eval_with_normalization():
    v = GradedVectorSpace({0: ["a"], 1: ["b"]})
    pb = PowerBasis(v, SYMMETRIC, 2)
    m = PowerMap.zero(pb, v, 1)
    m.matrix[v.index("b")][pb.index((0, 0))] = F(1)
    assert eval_tuple(m, (0, 0)) == [F(0), F(1)]
    assert eval_tuple(m, (1, 1)) == [F(0), F(0)]  # square-zero
    assert eval_tuple(m, (1, 0)) == eval_tuple(m, (0, 1))


PRODUCT_SPACES = {
    # even and odd repeats in one space, negative degrees included
    "mixed": {0: ["a", "b"], 1: ["x", "y"], -1: ["m"], 2: ["z"]},
    "even": {0: ["a", "b"], 2: ["c"]},
    "odd": {1: ["x", "y"], -1: ["m"]},
}


@pytest.mark.parametrize("kind", [SYMMETRIC, EXTERIOR])
def test_product_equals_normalize(kind):
    # every a times every canonical tail of weight ≤ 4, against the sort
    signs = set()
    for components in PRODUCT_SPACES.values():
        v = GradedVectorSpace(components)
        for w in range(5):
            tails, pb = PowerBasis(v, kind, w), PowerBasis(v, kind, w + 1)
            for tail in tails.elements:
                for a in range(v.dim):
                    sign, canon = pb.normalize((a,) + tail)
                    want = (sign, pb.index(canon)) if sign else (0, None)
                    assert pb.product(a, tail) == want, (components, a, tail)
                    signs.add(sign)
    # square-zero collisions and both signs all occur
    assert signs == {-1, 0, 1}


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=5))
def test_sort_sign_is_plus_minus_one(degs):
    items = list(range(len(degs)))[::-1]
    sign, out = sort_sign(items, [degs[i] for i in items])
    assert sign in (1, -1)
    assert out == tuple(sorted(items))
