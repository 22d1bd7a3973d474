"""Maurer–Cartan solutions with coefficients in K[t]/(tⁿ), order-by-order
lifting with cohomology obstructions, and the quadraticity comparison for
formal algebras."""

from __future__ import annotations

from fractions import Fraction

from .dgla import cohomology, cohomology_lie
from .linalg import (
    is_zero_vec, mat_vec, solve, vec_add, vec_scale, zero_vec,
)


class TruncatedElement:
    """Element Σ_{1≤k<order} t^k x_k of L ⊗ (t)/(t^order)."""

    def __init__(self, alg, order, coefficients, degree):
        if order < 2:
            raise ValueError("truncation order must be at least 2")
        self.alg = alg
        self.order = order
        self.degree = degree
        self.coefficients = {}
        for k, vec in coefficients.items():
            if not 1 <= k < order:
                raise ValueError("coefficients must sit in the maximal ideal")
            for i, v in enumerate(vec):
                if v and alg.space.degrees[i] != degree:
                    raise ValueError("coefficient is not homogeneous")
            if not is_zero_vec(vec):
                self.coefficients[k] = list(vec)

    def coeff(self, k):
        return self.coefficients.get(k, zero_vec(self.alg.space.dim))


def _poly_bracket(alg, a, b, order):
    out = {}
    for i, xa in a.items():
        for j, xb in b.items():
            if i + j >= order:
                continue
            val = alg.bracket_vec(xa, xb)
            if not is_zero_vec(val):
                out[i + j] = vec_add(out[i + j], val) if i + j in out else val
    return out


def _poly_d(alg, a):
    out = {}
    for k, xv in a.items():
        val = mat_vec(alg.differential.matrix, xv)
        if not is_zero_vec(val):
            out[k] = val
    return out


def _poly_add(a, b):
    out = {k: list(v) for k, v in a.items()}
    for k, v in b.items():
        out[k] = vec_add(out[k], v) if k in out else list(v)
    return {k: v for k, v in out.items() if not is_zero_vec(v)}


def _poly_scale(a, c):
    return {k: vec_scale(c, v) for k, v in a.items()}


def mc_check(x):
    """Residuals of dx + ½[x,x], one vector per power of t."""
    alg = x.alg
    res = _poly_add(
        _poly_d(alg, x.coefficients),
        _poly_scale(_poly_bracket(alg, x.coefficients, x.coefficients,
                                  x.order), Fraction(1, 2)))
    residuals = [{"t_power": k, "vector": v} for k, v in sorted(res.items())]
    return {"is_solution": not residuals, "residuals": residuals,
            "order": x.order}


def mc_lift(x):
    """Obstruction to extending a solution mod tⁿ one order further.

    The tⁿ coefficient of dx + ½[x,x] (with zero candidate increment) is
    d-closed; the lift exists iff it is exact, and the echelon-least
    increment is returned when it is.
    """
    chk = mc_check(x)
    if not chk["is_solution"]:
        raise ValueError(f"not a Maurer–Cartan solution: {chk['residuals']}")
    alg = x.alg
    n = x.order
    br = _poly_bracket(alg, x.coefficients, x.coefficients, n + 1)
    ob = vec_scale(Fraction(1, 2), br.get(n, zero_vec(alg.space.dim)))
    if not is_zero_vec(mat_vec(alg.differential.matrix, ob)):
        raise AssertionError("lifting obstruction is not closed")
    con = cohomology(alg.differential)
    cls = mat_vec(con.p.matrix, ob) if con.cohomology.dim else []
    # solve d(x_n) = −ob within degree 1
    deg1 = alg.space.indices_in_degree(1)
    dmat = alg.differential.matrix
    a_cols = [[dmat[r][c] for c in deg1] for r in range(alg.space.dim)]
    sol = solve(a_cols, [-v for v in ob])
    increment = None
    if sol is not None:
        increment = zero_vec(alg.space.dim)
        for k, c in enumerate(deg1):
            increment[c] = sol[k]
    return {"target_order": n + 1, "obstruction": ob, "class": cls,
            "solvable": sol is not None, "increment": increment}


def lift_to_order(alg, x1, order):
    """Extend t·x₁ to a solution mod t^order greedily; returns the element
    or the first blocking obstruction."""
    coeffs = {1: list(x1)}
    for n in range(2, order):
        x = TruncatedElement(alg, n, {k: v for k, v in coeffs.items()
                                      if k < n}, 1)
        chk = mc_check(x)
        if not chk["is_solution"]:
            return {"liftable": False, "blocked_at": n,
                    "residuals": chk["residuals"]}
        step = mc_lift(x)
        if not step["solvable"]:
            return {"liftable": False, "blocked_at": n + 1,
                    "obstruction": step["obstruction"],
                    "class": step["class"]}
        if not is_zero_vec(step["increment"]):
            coeffs[n] = step["increment"]
    x = TruncatedElement(alg, order, coeffs, 1)
    chk = mc_check(x)
    return {"liftable": chk["is_solution"], "element": x,
            "residuals": chk["residuals"]}


def quadraticity_check(alg, samples, certificate):
    """For a formal algebra, third-order liftability of t·x₁ must coincide
    with liftability to every order on the trivial-differential model."""
    if certificate.get("verdict") not in ("FormalUpTo",
                                          "HomotopyAbelianUpTo"):
        raise ValueError("requires a formality certificate")
    h_alg, h_con = cohomology_lie(alg)
    results = []
    for x1 in samples:
        closed = is_zero_vec(mat_vec(alg.differential.matrix, x1))
        if not closed:
            results.append({"x1": x1, "closed": False})
            continue
        t3 = lift_to_order(alg, x1, 3)
        cls = mat_vec(h_con.p.matrix, x1)
        model_ok = is_zero_vec(h_alg.bracket_vec(cls, cls))
        # on the trivial-differential model the lift is exact at order 2
        agree = t3["liftable"] == model_ok
        results.append({"x1": x1, "closed": True,
                        "t3_liftable": t3["liftable"],
                        "model_liftable_all_orders": model_ok,
                        "agree": agree})
    checked = [r for r in results if r.get("closed")]
    return {"samples": results,
            "all_agree": all(r["agree"] for r in checked),
            "n_checked": len(checked)}
