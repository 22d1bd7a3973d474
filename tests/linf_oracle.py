"""References for the L∞ layer: the shift equivalence between a dg-Lie
algebra and its décalage, checked both ways, and the projection of a
homotopy transfer.

``undecalage`` inverts the shift on a structure with no q_n for n ≥ 3.
``decalage_conjugation`` builds the column-wise bijection between the
coderivation complex of the décalage and the alternating-forms bicomplex
of L, and checks on the two constructions' own blocks that it
anticommutes with both differentials.  ``projection`` solves, order by
order, for the ∞-morphism f: V → W with f∘g = id that inverts the
transfer's g: W → V, and checks both identities.

This module is imported by the tests; pytest does not collect it.
"""

from __future__ import annotations

from fractions import Fraction

from ceformality.cecomplex import ce_delta_bar_on, ce_delta_on, form_column
from ceformality.dgla import DgLieAlgebra, adjoint_module
from ceformality.graded import (
    EXTERIOR, GradedMap, PowerBasis, PowerMap, parity_sign,
)
from ceformality.linalg import (
    is_zero_mat, mat_add, mat_mul, mat_sub, solve_matrix, transpose, zeros,
)
from ceformality.linf import (
    LInfinityMorphism, ce_linf_self, compose_morphisms, decalage,
    identity_morphism, validate_linf_morphism,
)
from dgla_oracle import eval_tuple


def undecalage(alg_v):
    """Inverse of the shift: requires all q_n (n ≥ 3) to vanish."""
    for n in alg_v.taylor:
        if n >= 3:
            raise ValueError("higher components present; not the shift of a "
                             "dg-Lie algebra")
    lspace = alg_v.space.shift(-1)
    d = [[-x for x in row] for row in alg_v.q(1).matrix]
    pb = PowerBasis(lspace, EXTERIOR, 2)
    q2 = alg_v.q(2)
    m = zeros(lspace.dim, len(pb))
    for c, (i, j) in enumerate(pb.elements):
        # [su, sv] = −(−1)^{ū} s q₂(u, v)
        val = eval_tuple(q2, (i, j))
        sgn = -parity_sign(alg_v.space.degrees[i])
        for r in range(lspace.dim):
            m[r][c] = sgn * val[r]
    bracket = PowerMap(pb, lspace, 0, m)
    return DgLieAlgebra(lspace, GradedMap(lspace, lspace, 1, d), bracket)


def decalage_conjugation(alg_l, l, bound=None):
    """Degree +1 column-wise bijection between the coderivation complex of
    the shifted structure and the alternating-forms bicomplex of L.

    Returns per-column matrices s_p and verifies that s anticommutes with
    both differentials: δ̄∘s + s∘[q₁,−] = 0 and δ∘s + s∘[q₂,−] = 0, so the
    total differentials agree up to a global sign and the two filtered
    complexes have identical pages.
    """
    if bound is None:
        bound = l
    v_alg = decalage(alg_l, bound)
    mod = adjoint_module(alg_l)
    cols_l = [form_column(alg_l, mod, p) for p in range(l + 1)]
    ce_v = ce_linf_self(v_alg, l + 1)
    v = v_alg.space
    smats = []
    for p in range(l + 1):
        colv = ce_v.columns[p]
        coll = cols_l[p]
        m = zeros(coll.space.dim, colv.space.dim)
        for cidx, (t_pos, w_idx) in enumerate(colv.pairs):
            t = v_alg.ctx.pb[p].elements[t_pos]
            sgn = parity_sign(p)
            for i, vi in enumerate(t):
                sgn *= parity_sign((p - 1 - i) * v.degrees[vi])
            # same index tuples name the wedge basis of L
            l_t_pos = coll.pb.index(t) if p else 0
            m[coll.index(l_t_pos, w_idx)][cidx] = Fraction(sgn)
        smats.append(m)

    report = {"ok": True, "columns": []}
    for p in range(l):
        # vertical: δ̄ s_p + s_p [q₁, −] = 0
        db = ce_delta_bar_on(cols_l[p])
        nr1 = ce_v.block(p, p)
        vert = mat_add(mat_mul(db, smats[p]), mat_mul(smats[p], nr1))
        # horizontal: δ s_p + s_{p+1} [q₂, −] = 0
        dd = ce_delta_on(cols_l[p], cols_l[p + 1])
        nr2 = ce_v.block(p, p + 1)
        horiz = mat_add(mat_mul(dd, smats[p]), mat_mul(smats[p + 1], nr2))
        ok = is_zero_mat(vert) and is_zero_mat(horiz)
        report["columns"].append({"p": p, "vertical_ok": is_zero_mat(vert),
                                  "horizontal_ok": is_zero_mat(horiz)})
        if not ok:
            report["ok"] = False
    return smats, report


def solve_right(a, y):
    """Solve X A = Y (matrix unknown on the left); None if inconsistent."""
    xt = solve_matrix(transpose(a), transpose(y))
    return None if xt is None else transpose(xt)


def projection(mm):
    """The projection f: V → W of a transfer ``mm = minimal_model(V, N)``,
    with f¹ = p and f∘g = id, solved order by order up to the bound N, and
    checked to be an ∞-morphism with f∘g = id."""
    alg, w_alg, g = mm["into"].target, mm["minimal"], mm["into"]
    hspace, bound = w_alg.space, w_alg.bound
    f_comps = {1: [row[:] for row in mm["contraction"].p.matrix]}
    f = LInfinityMorphism(alg, w_alg, f_comps)
    for n in range(2, bound + 1):
        pb_nv = alg.ctx.pb[n]
        pb_nw = w_alg.ctx.pb[n]
        d_n = alg.lift(1, n)
        y_n = zeros(hspace.dim, len(pb_nv))
        for k in range(2, n + 1):
            rk = w_alg.taylor.get(k)
            if rk is None:
                continue
            y_n = mat_add(y_n, mat_mul(rk.matrix, f.block(k, n)))
        for j in range(1, n):
            if n - j + 1 in alg.taylor:
                y_n = mat_sub(y_n, mat_mul(f.f1(j), alg.lift(n - j + 1, n)))
        # f∘g identity at arity n pins the values on transferred tuples
        z_n = zeros(hspace.dim, len(pb_nw))
        for a in range(1, n):
            z_n = mat_sub(z_n, mat_mul(f.f1(a), g.block(a, n)))
        b_n = g.block(n, n)
        a_cat = [da + ba for da, ba in zip(d_n, b_n)]
        rhs_cat = [ya + za for ya, za in zip(y_n, z_n)]
        sol = solve_right(a_cat, rhs_cat)
        if sol is None:
            raise AssertionError(f"no arity-{n} projection component exists")
        f.set_component(n, sol)
    if not validate_linf_morphism(f)["ok"]:
        raise AssertionError("transfer produced an invalid morphism")
    comp = compose_morphisms(f, g)
    ident = identity_morphism(w_alg)
    for j in range(1, bound + 1):
        if comp.f1(j) != ident.f1(j):
            raise AssertionError("f∘g is not the identity")
    return f
