"""The dense dg-Lie checks, kept as the tests' reference for the ones that
``dgla`` runs on sparse bracket columns.

Every bracket here is read off the exterior-square matrix through
``eval_tuple`` as a dense vector, every sum is a dense ``vec_add`` of a
``vec_scale``, and ``d`` is applied through its dense matrix; nothing reads
``DgLieAlgebra.bracket_column``, so the tests compare two independent
evaluations of the same axioms, first failing witness included.

It also holds the dense helpers the tests build reference data with:
``eval_tuple`` of a ``PowerMap``, ``identity_map`` and ``compose`` of
``GradedMap``s, and modules over a dg-Lie algebra beyond the adjoint one
(``module_via_morphism``, checked by ``validate_module`` through ``act``).

This module is imported by the tests; pytest does not collect it.
"""

from __future__ import annotations

from ceformality.dgla import DgModule
from ceformality.graded import GradedMap, parity_sign
from ceformality.linalg import (
    Q0, Q1, identity, is_zero_mat, is_zero_vec, mat_mul, mat_vec, vec_add,
    vec_scale, zero_vec, zeros,
)


def eval_tuple(q, tup):
    """Value of the ``PowerMap`` q on an arbitrary index tuple, as a
    vector in its target."""
    sign, canon = q.pb.normalize(tup)
    out = [Q0] * q.target.dim
    if sign == 0 or canon not in q.pb._index:
        return out
    c = q.pb.index(canon)
    for r in range(q.target.dim):
        v = q.matrix[r][c]
        if v:
            out[r] = sign * v
    return out


def identity_map(space):
    return GradedMap(space, space, 0, identity(space.dim))


def compose(f, g):
    """f ∘ g of two ``GradedMap``s."""
    if g.target is not f.source and g.target != f.source:
        raise ValueError("composition mismatch")
    return GradedMap(g.source, f.target, f.degree + g.degree,
                     mat_mul(f.matrix, g.matrix))


def bracket_basis(alg, i, j):
    """[e_i, e_j] as a dense vector."""
    return eval_tuple(alg.bracket, (i, j))


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


def act(mod, m_vec, x_vec):
    """[m, x] in the module ``mod``, through its dense action matrices."""
    out = zero_vec(mod.space.dim)
    for j, xj in enumerate(x_vec):
        if xj:
            out = vec_add(out, vec_scale(xj, mat_vec(mod.action[j], m_vec)))
    return out


def module_via_morphism(f, src, tgt):
    """Make the target of a dg-Lie morphism a module over the source via
    [m, x] = [m, f(x)]."""
    rep = validate_morphism(f, src, tgt)
    if not rep["ok"]:
        raise ValueError(f"not a dg-Lie algebra morphism: {rep['witness']}")
    mats = []
    for j in range(src.space.dim):
        fx = f.apply(_unit(j, src.space.dim))
        m = zeros(tgt.space.dim, tgt.space.dim)
        for i in range(tgt.space.dim):
            col = bracket_vec(tgt, _unit(i, tgt.space.dim), fx)
            for r in range(tgt.space.dim):
                m[r][i] = col[r]
        mats.append(m)
    return DgModule(src, tgt.space, tgt.differential, mats)


def validate_module(mod):
    """Chain-map and module-axiom checks for a DgModule; list of reports."""
    L, M = mod.base, mod
    report = []
    chain_ok, chain_wit = True, None
    nl, nm = L.space.dim, M.space.dim
    for i in range(nm):
        for j in range(nl):
            mi, xj = _unit(i, nm), _unit(j, nl)
            lhs = M.differential.apply(act(M, mi, xj))
            rhs = vec_add(
                act(M, M.differential.apply(mi), xj),
                vec_scale(parity_sign(M.space.degrees[i]),
                          act(M, mi, L.differential.apply(xj))),
            )
            if lhs != rhs:
                chain_ok = False
                chain_wit = (M.space.labels[i], L.space.labels[j])
                break
        if not chain_ok:
            break
    report.append({"axiom": "action_chain_map", "ok": chain_ok,
                   "witness": chain_wit})

    ax_ok, ax_wit = True, None
    for i in range(nm):
        for j in range(nl):
            for k in range(nl):
                mi, xj, yk = _unit(i, nm), _unit(j, nl), _unit(k, nl)
                lhs = act(M, mi, bracket_vec(L, xj, yk))
                rhs = vec_add(
                    act(M, act(M, mi, xj), yk),
                    vec_scale(
                        -parity_sign(L.space.degrees[j] * L.space.degrees[k]),
                        act(M, act(M, mi, yk), xj)),
                )
                if lhs != rhs:
                    ax_ok = False
                    ax_wit = (M.space.labels[i], L.space.labels[j],
                              L.space.labels[k])
                    break
            if not ax_ok:
                break
        if not ax_ok:
            break
    report.append({"axiom": "module_axiom", "ok": ax_ok, "witness": ax_wit})
    return report
