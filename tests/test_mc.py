from fractions import Fraction
from math import factorial

import pytest

from ceformality.dgla import DgLieAlgebra
from ceformality.formality import formality_verdict
from ceformality.mc import (
    TruncatedElement, _poly_add, _poly_bracket, _poly_d, _poly_scale,
    lift_to_order, mc_check, mc_lift, quadraticity_check,
)

F = Fraction


def affine2():
    return DgLieAlgebra.from_data(
        {0: ["h"], 1: ["e"]}, {}, {("h", "e"): [("e", 1)]})


def quad_cone():
    """[x,x] = y in degrees 1 and 2, with a central degree-1 element z."""
    return DgLieAlgebra.from_data(
        {1: ["x", "z"], 2: ["y"]}, {}, {("x", "x"): [("y", 1)]})


def elem(alg, order, coeffs):
    vecs = {}
    for k, terms in coeffs.items():
        v = [F(0)] * alg.space.dim
        for lab, c in terms:
            v[alg.space.index(lab)] = F(c)
        vecs[k] = v
    return TruncatedElement(alg, order, vecs, 1)


def test_element_must_be_homogeneous():
    alg = quad_cone()
    with pytest.raises(ValueError):
        elem(alg, 3, {1: [("y", 1)]})


def test_element_lives_in_maximal_ideal():
    alg = quad_cone()
    with pytest.raises(ValueError):
        elem(alg, 2, {2: [("x", 1)]})


def test_central_element_solves():
    x = elem(quad_cone(), 4, {1: [("z", 1)]})
    assert mc_check(x)["is_solution"]


def test_nonsolution_residual_located():
    x = elem(quad_cone(), 3, {1: [("x", 1)]})
    res = mc_check(x)
    assert not res["is_solution"]
    assert res["residuals"][0]["t_power"] == 2


def gauge_act(a, x):
    """e^a ∗ x = x + Σ_{n≥0} [a,−]ⁿ/(n+1)! ([a,x] − da), truncated: the
    exponential gauge action, a reference that no command runs."""
    if a.degree != 0:
        raise ValueError("gauge generator must have degree 0")
    if x.degree != 1:
        raise ValueError("gauge acts on degree-1 elements")
    alg = x.alg
    order = x.order
    seed = _poly_add(_poly_bracket(alg, a.coefficients, x.coefficients, order),
                     _poly_scale(_poly_d(alg, a.coefficients), Fraction(-1)))
    total = dict(x.coefficients)
    term = seed
    n = 0
    while term:
        total = _poly_add(total, _poly_scale(term, Fraction(
            1, factorial(n + 1))))
        term = _poly_bracket(alg, a.coefficients, term, order)
        # scale bookkeeping: [a,−]^n applied to seed, coefficient 1/(n+1)!
        n += 1
        if n > order + 2:
            break
    return TruncatedElement(alg, order, total, 1)


def test_gauge_action_on_zero_produces_series():
    # e^{th} * (te)  picks up t^2 e from the first bracket term
    alg = affine2()
    a = TruncatedElement(alg, 3, {1: [F(1), F(0)]}, 0)
    x = elem(alg, 3, {1: [("e", 1)]})
    moved = gauge_act(a, x)
    assert moved.coeff(1) == [F(0), F(1)]
    assert moved.coeff(2) == [F(0), F(1)]


def test_gauge_action_preserves_solutions():
    alg = affine2()
    a = TruncatedElement(alg, 4, {1: [F(1), F(0)], 2: [F(2), F(0)]}, 0)
    x = elem(alg, 4, {1: [("e", 1)]})
    assert mc_check(x)["is_solution"]
    assert mc_check(gauge_act(a, x))["is_solution"]


def test_lift_blocked_by_quadratic_cone():
    alg = quad_cone()
    x = elem(alg, 2, {1: [("x", 1)]})
    step = mc_lift(x)
    assert not step["solvable"]
    # the obstruction is [x,x]/2 with a nonzero class on y
    y = alg.space.index("y")
    assert step["obstruction"][y] == F(1, 2)
    assert any(step["class"])


def test_lift_succeeds_off_the_cone():
    alg = quad_cone()
    res = lift_to_order(alg, elem(alg, 2, {1: [("z", 1)]}).coeff(1), 6)
    assert res["liftable"]


def test_quadraticity_agreement_on_rank_two_lattice():
    alg = quad_cone()
    x_i, z_i = alg.space.index("x"), alg.space.index("z")
    samples = []
    for a in range(-2, 3):
        for b in range(-2, 3):
            v = [F(0)] * alg.space.dim
            v[x_i], v[z_i] = F(a), F(b)
            samples.append(v)
    cert = formality_verdict(alg, weight=5, columns=5)
    res = quadraticity_check(alg, samples, cert)
    assert res["n_checked"] == len(samples)
    assert res["all_agree"]


def test_quadraticity_requires_certificate():
    alg = quad_cone()
    with pytest.raises(ValueError):
        quadraticity_check(alg, [], {"verdict": "NotFormal"})
