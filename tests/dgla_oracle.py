"""The dense dg-Lie checks, kept as the tests' reference for the ones that
``dgla`` runs on sparse bracket columns.

Every bracket here is read off the exterior-square matrix through
``PowerMap.eval_tuple`` as a dense vector, every sum is a dense
``vec_add`` of a ``vec_scale``, and ``d`` is applied through its dense
matrix; nothing reads ``DgLieAlgebra.bracket_column``, so the tests
compare two independent evaluations of the same axioms, first failing
witness included.

This module is imported by the tests; pytest does not collect it.
"""

from __future__ import annotations

from ceformality.graded import parity_sign
from ceformality.linalg import (
    Q0, Q1, is_zero_mat, is_zero_vec, mat_mul, vec_add, vec_scale, zero_vec,
)


def bracket_basis(alg, i, j):
    """[e_i, e_j] as a dense vector."""
    return alg.bracket.eval_tuple((i, j))


def bracket_vec(alg, x, y):
    out = zero_vec(alg.space.dim)
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            out = vec_add(out, vec_scale(xi * yj, bracket_basis(alg, i, j)))
    return out


def _unit(i, n):
    return [Q1 if t == i else Q0 for t in range(n)]


def validate_dgla(cand):
    """The list of axiom reports of ``dgla.validate_dgla``, computed on
    dense vectors over every ordered pair and triple."""
    v = cand.space
    d = cand.differential
    report = []

    hom_wit = d.homogeneity_violation()
    report.append({"axiom": "degree_homogeneity", "ok": hom_wit is None,
                   "witness": hom_wit})

    dd = mat_mul(d.matrix, d.matrix)
    report.append({
        "axiom": "d_squared_zero",
        "ok": is_zero_mat(dd),
        "witness": None if is_zero_mat(dd) else "d∘d has a nonzero entry",
    })

    leib_ok, leib_wit = True, None
    for i in range(v.dim):
        for j in range(v.dim):
            lhs = d.apply(bracket_basis(cand, i, j))
            ei, ej = _unit(i, v.dim), _unit(j, v.dim)
            rhs = vec_add(
                bracket_vec(cand, d.apply(ei), ej),
                vec_scale(parity_sign(v.degrees[i]),
                          bracket_vec(cand, ei, d.apply(ej))),
            )
            if lhs != rhs:
                leib_ok, leib_wit = False, (v.labels[i], v.labels[j])
                break
        if not leib_ok:
            break
    report.append({"axiom": "leibniz", "ok": leib_ok, "witness": leib_wit})

    jac_ok, jac_wit = True, None
    for i in range(v.dim):
        for j in range(v.dim):
            for k in range(v.dim):
                di, dj, dk = v.degrees[i], v.degrees[j], v.degrees[k]
                ei, ej, ek = (_unit(t, v.dim) for t in (i, j, k))
                total = zero_vec(v.dim)
                for (a, da), (b, _db), (c, dc) in (
                    ((ei, di), (ej, dj), (ek, dk)),
                    ((ej, dj), (ek, dk), (ei, di)),
                    ((ek, dk), (ei, di), (ej, dj)),
                ):
                    term = bracket_vec(cand, bracket_vec(cand, a, b), c)
                    total = vec_add(total, vec_scale(parity_sign(da * dc),
                                                     term))
                if not is_zero_vec(total):
                    jac_ok = False
                    jac_wit = (v.labels[i], v.labels[j], v.labels[k])
                    break
            if not jac_ok:
                break
        if not jac_ok:
            break
    report.append({"axiom": "jacobi", "ok": jac_ok, "witness": jac_wit})
    return report


def validate_morphism(f, src, tgt):
    """``dgla.validate_morphism`` on dense vectors."""
    if f.degree != 0:
        return {"ok": False, "witness": "nonzero degree"}
    if mat_mul(f.matrix, src.differential.matrix) != mat_mul(
            tgt.differential.matrix, f.matrix):
        return {"ok": False, "witness": "does not commute with differentials"}
    n = src.space.dim
    for i in range(n):
        for j in range(i, n):
            lhs = f.apply(bracket_basis(src, i, j))
            rhs = bracket_vec(tgt, f.apply(_unit(i, n)), f.apply(_unit(j, n)))
            if lhs != rhs:
                return {"ok": False,
                        "witness": (src.space.labels[i], src.space.labels[j])}
    return {"ok": True, "witness": None}
