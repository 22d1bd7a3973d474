"""Euler derivations and their page classes, the stepwise obstruction
sequence, minimal models by homotopy transfer, the constructive gauging
loop with bounded verdicts, the transfer criterion along a morphism, and
the t-deformation class of a minimal structure."""

from __future__ import annotations

from .cecomplex import pushforward_matrix
from .dgla import (
    CochainComplex, DgLieAlgebra, cohomology, cohomology_lie,
    validate_morphism,
)
from .graded import GradedMap, PowerMap
from .linalg import (
    Q0, Q1, is_zero_mat, mat_add, mat_mul, mat_sub, mat_vec, rank, solve,
    solve_right, vec_sub, zero_vec, zeros,
)
from .linf import (
    LInfinityAlgebra, LInfinityMorphism, LinfCeComplex, ce_linf_self,
    coder_lift_block, compose_morphisms, exp_coderivation, identity_morphism,
    linf_structure, nr_bracket, validate_linf, validate_linf_morphism,
)
from .specseq import cell_coordinates, page, page_map


class InsufficientBounds(Exception):
    """A verdict would require larger weight/column bounds than given."""


def euler_power_map(alg):
    """The diagonal map v ↦ (v̄+1)v as an arity-1 PowerMap."""
    n = alg.space.dim
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Q1 * (alg.space.degrees[i] + 1)
    return PowerMap(alg.ctx.pb[1], alg.space, 0, m)


def _euler_vector(ce, alg):
    vec = zero_vec(ce.total.space.dim)
    for i in range(alg.space.dim):
        vec[ce.global_index(1, ce.columns[1].index(i, i))] = \
            Q1 * (alg.space.degrees[i] + 1)
    return vec


def euler_class(obj, l):
    """Page-2 class of the Euler derivation.

    For a minimal truncated structure the representative is v ↦ (v̄+1)v
    at cell (1, −1).  A graded Lie algebra (zero differential) is read on
    its décalage, where that map is x ↦ deg(x)·x; its cell is reported in
    CE degrees, as (1, 0).  Inputs with a nonzero linear part are replaced
    by their cohomology / minimal model first, since only there does the
    diagonal map represent a page class.
    """
    if l < 2:
        raise ValueError("need at least two columns")
    computed_on = "input"
    cell = (1, -1)
    if isinstance(obj, DgLieAlgebra):
        if not obj.differential.is_zero():
            obj, _con = cohomology_lie(obj)
            computed_on = "cohomology"
        obj = linf_structure(obj, max(l - 1, 2))
        cell = (1, 0)
    elif not obj.is_minimal():
        obj = minimal_model(obj, obj.bound)["minimal"]
        computed_on = "minimal_model"
    ce = ce_linf_self(obj, l)
    vec = _euler_vector(ce, alg=obj)
    coords = cell_coordinates(ce.total, 2, 1, -1, vec)
    return {
        "computed_on": computed_on,
        "cell": cell,
        "page": 2,
        "vector": vec,
        "coordinates": coords,
        "is_zero": all(c == 0 for c in coords),
        "complex": ce.total,
    }


def _correct_representative(ftc, rep, p, r):
    """Subtract w ∈ F^{p+1} so that d(rep − w) ∈ F^{p+r+1}; returns the
    corrected representative (same page-(r+1) class leading term)."""
    dmat = ftc.differential.matrix
    drep = mat_vec(dmat, rep)
    cols = [j for j in range(ftc.space.dim) if ftc.levels[j] >= p + 1]
    rows = [i for i in range(ftc.space.dim) if ftc.levels[i] < p + r + 1]
    if not rows:
        return rep
    a = [[dmat[i][j] for j in cols] for i in rows]
    b = [drep[i] for i in rows]
    sol = solve(a, b)
    if sol is None:
        raise AssertionError("page class vanished but no correction exists")
    w = zero_vec(ftc.space.dim)
    for k, j in enumerate(cols):
        w[j] = sol[k]
    return vec_sub(rep, w)


def obstruction_sequence(alg, l, r_max):
    """Successive classes d_r(e) for 2 ≤ r ≤ r_max on a minimal structure.

    Each step is evaluated only if every previous class vanished; the first
    nonzero class is returned with its cell and coordinates.  Columns must
    satisfy l ≥ r_max + 2 so every target cell lies inside the truncation.
    """
    if not alg.is_minimal():
        raise ValueError("obstruction sequence requires a minimal structure")
    if l > alg.bound + 1:
        raise ValueError("column bound exceeds the weight bound")
    if l < r_max + 2:
        raise InsufficientBounds(
            f"need columns l >= {r_max + 2} to evaluate d_{r_max}")
    ce = ce_linf_self(alg, l)
    ftc = ce.total
    rep = _euler_vector(ce, alg=alg)
    entries = []
    first_nonzero = None
    for r in range(2, r_max + 1):
        target = (1 + r, -r)
        dvec = mat_vec(ftc.differential.matrix, rep)
        coords = cell_coordinates(ftc, r, *target, dvec)
        vanishes = all(c == 0 for c in coords)
        entries.append({"r": r, "cell": target, "coordinates": coords,
                        "is_zero": vanishes})
        if not vanishes:
            first_nonzero = r
            break
        rep = _correct_representative(ftc, rep, 1, r)
    return {"entries": entries, "first_nonzero": first_nonzero,
            "all_vanish": first_nonzero is None, "r_max": r_max,
            "columns": l}


def _morphism_block(f, k, n):
    """Weight-(n → k) block of the coalgebra morphism determined by f."""
    sctx, tctx = f.source.ctx, f.target.ctx
    pb_in, pb_out = sctx.pb[n], tctx.pb[k]
    m = zeros(len(pb_out), len(pb_in))
    for c, t in enumerate(pb_in.elements):
        val = f.component_value(t)
        for r in range(len(pb_out)):
            m[r][c] = val[tctx.index(k, r)]
    return m


def minimal_model(alg, bound):
    """Homotopy transfer onto H*(V, q₁), truncated at the weight bound.

    Returns {"minimal": W, "into": g: W→V, "onto": f: V→W, "contraction"},
    with both morphisms validated and f∘g the identity up to the bound.
    """
    cx = CochainComplex(
        alg.space, GradedMap(alg.space, alg.space, 1, alg.q(1).matrix))
    con = cohomology(cx)
    hspace = con.cohomology
    w_alg = LInfinityAlgebra(hspace, {}, bound)
    imat, pmat, hmat = con.i.matrix, con.p.matrix, con.h.matrix
    g_comps = {1: [row[:] for row in imat]}
    g = LInfinityMorphism(w_alg, alg, g_comps)
    for n in range(2, bound + 1):
        pb_n = w_alg.ctx.pb[n]
        # Neither sum sees g_n or r_n (the lifts use arities < n, and a
        # weight-k ≥ 2 block on n-tuples only g_j with j < n), so the
        # identity gate below reuses both.
        # known transferred terms entering through the coderivation lift
        lifts = zeros(alg.space.dim, len(pb_n))
        for m_w in range(2, n):
            rm = w_alg.taylor.get(m_w)
            if rm is None:
                continue
            block = coder_lift_block(rm, w_alg.ctx, n)
            lifts = mat_add(lifts, mat_mul(g.f1(n - m_w + 1), block))
        # known structure terms through the morphism components
        blocks = zeros(alg.space.dim, len(pb_n))
        for k in range(2, n + 1):
            qk = alg.taylor.get(k)
            if qk is None:
                continue
            blocks = mat_add(blocks,
                             mat_mul(qk.matrix, _morphism_block(g, k, n)))
        x_n = mat_sub(blocks, lifts)
        r_n = mat_mul(pmat, x_n)
        g_n = mat_mul(hmat, x_n)
        if not is_zero_mat(r_n):
            w_alg.taylor[n] = PowerMap(pb_n, hspace, 1, r_n)
            w_alg._qhat = None
        g.set_component(n, g_n)
        # exact arity-n morphism identity as the correctness gate
        lhs = mat_add(mat_mul(imat, r_n), lifts)
        rhs = mat_add(mat_mul(alg.q(1).matrix, g.f1(n)), blocks)
        if lhs != rhs:
            raise AssertionError(
                f"transfer recursion failed the arity-{n} identity")
    # projection morphism f with f∘g = identity, solved order by order
    f_comps = {1: [row[:] for row in pmat]}
    f = LInfinityMorphism(alg, w_alg, f_comps)
    for n in range(2, bound + 1):
        pb_nv = alg.ctx.pb[n]
        pb_nw = w_alg.ctx.pb[n]
        d_n = coder_lift_block(alg.q(1), alg.ctx, n)
        y_n = zeros(hspace.dim, len(pb_nv))
        for k in range(2, n + 1):
            rk = w_alg.taylor.get(k)
            if rk is None:
                continue
            y_n = mat_add(y_n, mat_mul(rk.matrix, _morphism_block(f, k, n)))
        for j in range(1, n):
            qk = alg.taylor.get(n - j + 1)
            if qk is None:
                continue
            block = coder_lift_block(qk, alg.ctx, n)
            y_n = mat_sub(y_n, mat_mul(f.f1(j), block))
        # f∘g identity at arity n pins the values on transferred tuples
        z_n = zeros(hspace.dim, len(pb_nw))
        for a in range(1, n):
            z_n = mat_sub(z_n, mat_mul(f.f1(a), _morphism_block(g, a, n)))
        b_n = _morphism_block(g, n, n)
        a_cat = [da + ba for da, ba in zip(d_n, b_n)]
        rhs_cat = [ya + za for ya, za in zip(y_n, z_n)]
        sol = solve_right(a_cat, rhs_cat)
        if sol is None:
            raise AssertionError(f"no arity-{n} projection component exists")
        f.set_component(n, sol)
    rep = validate_linf(w_alg)
    if not rep["ok"]:
        raise AssertionError("transferred structure fails its relations")
    for mor in (g, f):
        if not validate_linf_morphism(mor)["ok"]:
            raise AssertionError("transfer produced an invalid morphism")
    comp = compose_morphisms(f, g)
    ident = identity_morphism(w_alg)
    for j in range(1, bound + 1):
        if comp.f1(j) != ident.f1(j):
            raise AssertionError("f∘g is not the identity")
    return {"minimal": w_alg, "into": g, "onto": f, "contraction": con}


def _bracket_with_q2_matrix(alg, arity):
    """Matrix of α ↦ [q₂, α]_NR from degree-0 maps of the given arity,
    together with the list of degree-0 basis pairs."""
    q2 = alg.q(2)
    pb_src = alg.ctx.pb[arity]
    pairs = []
    for t_pos in range(len(pb_src)):
        tdeg = pb_src.degree(t_pos)
        for w in range(alg.space.dim):
            if alg.space.degrees[w] - tdeg == 0:
                pairs.append((t_pos, w))
    pb_dst = alg.ctx.pb[arity + 1]
    mat = zeros(len(pb_dst) * alg.space.dim, len(pairs))
    for cidx, (t_pos, w) in enumerate(pairs):
        amat = zeros(alg.space.dim, len(pb_src))
        amat[w][t_pos] = Q1
        alpha = PowerMap(pb_src, alg.space, 0, amat)
        br = nr_bracket(q2, alpha, alg.ctx)
        for tt in range(len(pb_dst)):
            for ww in range(alg.space.dim):
                mat[tt * alg.space.dim + ww][cidx] = br.matrix[ww][tt]
    return mat, pairs, pb_src


def gauge_reduce(alg, bound=None):
    """Iteratively gauge away the least nonquadratic component.

    At each stage i ≥ 3 with q_i ≠ 0 the linear system [q₂, α]_NR = −q_i is
    solved for a degree-0 α of arity i−1 and the structure is conjugated by
    exp of its lift; failure of the solve certifies a nonzero obstruction
    class and the verdict NotFormal.
    """
    if not alg.is_minimal():
        raise ValueError("gauge reduction requires a minimal structure")
    if bound is None:
        bound = alg.bound
    current = alg
    gauge = None
    steps = []
    while True:
        stage = None
        for i in range(3, bound + 1):
            if i in current.taylor:
                stage = i
                break
        if stage is None:
            break
        qi = current.q(stage)
        mat, pairs, pb_src = _bracket_with_q2_matrix(current, stage - 1)
        target = []
        for tt in range(len(current.ctx.pb[stage])):
            for ww in range(current.space.dim):
                target.append(-qi.matrix[ww][tt])
        sol = solve(mat, target)
        if sol is None:
            obs = obstruction_sequence(alg, stage + 1, stage - 1)
            r = obs["first_nonzero"]
            if r is None:
                raise AssertionError(
                    "unsolvable gauge stage without a nonzero obstruction")
            witness = obs["entries"][-1]
            return {"verdict": "NotFormal", "stage": stage,
                    "witness": witness, "steps": steps,
                    "obstructions": obs, "weight": bound, "final": current}
        amat = zeros(current.space.dim, len(pb_src))
        for k, (t_pos, w) in enumerate(pairs):
            amat[w][t_pos] = sol[k]
        alpha = PowerMap(pb_src, current.space, 0, amat)
        new_alg, phi = exp_coderivation(current, alpha)
        for j in range(3, stage + 1):
            if j in new_alg.taylor:
                raise AssertionError("gauge step failed to clear its stage")
        steps.append({"stage": stage, "alpha": amat})
        gauge = phi if gauge is None else compose_morphisms(gauge, phi)
        current = new_alg
    verdict = "HomotopyAbelianUpTo" if not current.taylor else "FormalUpTo"
    if gauge is None:
        gauge = identity_morphism(alg)
    return {"verdict": verdict, "weight": bound, "gauge": gauge,
            "steps": steps, "final": current, "witness": None}


def formality_verdict(obj, weight=5, columns=5):
    """Full pipeline: shift to a truncated structure if needed, transfer to
    the minimal model, gauge-reduce, and cross-check the verdict against
    the obstruction sequence within the column bound."""
    if weight < 3 or columns < 4:
        raise InsufficientBounds("need weight >= 3 and columns >= 4")
    v_alg = linf_structure(obj, weight)
    if v_alg.bound < weight:
        raise InsufficientBounds("weight bound exceeds the structure's")
    mm = minimal_model(v_alg, weight)
    w_alg = mm["minimal"]
    verdict = gauge_reduce(w_alg, weight)
    if verdict["verdict"] == "NotFormal" and \
            verdict["stage"] + 1 > columns:
        raise InsufficientBounds(
            f"witness at stage {verdict['stage']} needs columns >= "
            f"{verdict['stage'] + 1}")
    obs_l = min(columns, weight + 1)
    r_max = min(obs_l - 2, weight - 1)
    obs = None
    if r_max >= 2:
        # a failed gauge has run the sequence already, maybe at these bounds
        obs = verdict.get("obstructions")
        if obs is None or (obs["columns"], obs["r_max"]) != (obs_l, r_max):
            obs = obstruction_sequence(w_alg, obs_l, r_max)
    if obs is not None:
        if verdict["verdict"] == "NotFormal":
            if obs["first_nonzero"] != verdict["stage"] - 1:
                raise AssertionError(
                    "gauge failure and obstruction sequence disagree")
        else:
            if obs["first_nonzero"] is not None:
                raise AssertionError(
                    "gauge success despite a nonzero obstruction")
    verdict["columns"] = columns
    verdict["minimal_model"] = mm
    verdict["obstruction_check"] = obs
    return verdict


def transfer_criterion(fmap, src, tgt, columns, m_formal_assumed=False):
    """Injectivity of the induced page-2 map on cells (p, 2−p), 3 ≤ p < l.

    The map is postcomposition with the morphism φ that ``fmap`` induces on
    cohomology, from the coderivation complex of dec(H L) to the one along
    φ: dec(H L) → dec(H M), where dec is the décalage; its cell (p, 1−p)
    is the CE cell (p, 2−p).  When all the maps are injective and the
    target is declared formal, the source is formal as well; otherwise the
    criterion is inconclusive.
    """
    if columns < 4:
        raise InsufficientBounds("need columns >= 4")
    check = validate_morphism(fmap, src, tgt)
    if not check["ok"]:
        raise ValueError(f"not a morphism: {check['witness']}")
    hl, con_l = cohomology_lie(src)
    hm, con_m = cohomology_lie(tgt)
    induced = mat_mul(con_m.p.matrix, mat_mul(fmap.matrix, con_l.i.matrix))
    phi = GradedMap(hl.space, hm.space, 0, induced)
    check = validate_morphism(phi, hl, hm)
    if not check["ok"]:
        raise AssertionError("induced map on cohomology is not a morphism")
    dec_l = linf_structure(hl, columns - 1)
    dec_m = linf_structure(hm, columns - 1)
    ce_self = ce_linf_self(dec_l, columns)
    ce_phi = LinfCeComplex(
        LInfinityMorphism.from_linear(dec_l, dec_m, induced), columns)
    fmat = pushforward_matrix(phi, ce_self, ce_phi)
    maps = page_map(ce_self.total, ce_phi.total, fmat, 2)
    pg = page(ce_self.total, 2)
    results = []
    for p in range(3, columns):
        cell = (p, 1 - p)
        dim_src = pg.dim(*cell)
        m = maps.get(cell)
        inj = dim_src == 0 or (m is not None and rank(m) == dim_src)
        results.append({"p": p, "dim_source": dim_src, "injective": inj})
    all_inj = all(r["injective"] for r in results)
    if all_inj and m_formal_assumed:
        conclusion = "source formal up to bounds (target declared formal)"
    elif all_inj:
        conclusion = "criterion satisfied; formality of the source " \
            "follows if the target is formal"
    else:
        conclusion = "criterion inconclusive"
    return {"M_formal_assumed": m_formal_assumed, "injectivity": results,
            "all_injective": all_inj, "conclusion": conclusion}


def kaledin_class(alg, weight, t_order):
    """Identities and coboundary test for the t-deformed structure
    q(t) = q₂ + t q₃ + t² q₄ + … mod (t^m, weight N)."""
    if not alg.is_minimal():
        raise ValueError("requires a minimal structure")
    if t_order < 2:
        raise ValueError("t-order must be at least 2")
    n, m = weight, t_order
    euler = euler_power_map(alg)

    def q_coeff(s):
        # coefficient of t^s in q(t)
        return alg.taylor.get(s + 2)

    def dq_coeff(s):
        qi = alg.taylor.get(s + 3)
        return None if qi is None else qi.scale(s + 1)

    def series_bracket(left, right, s):
        acc = {}
        for a in range(s + 1):
            fa = left(a)
            gb = right(s - a)
            if fa is None or gb is None:
                continue
            if fa.arity + gb.arity - 1 > n:
                continue
            br = nr_bracket(fa, gb, None)
            key = br.arity
            acc[key] = br if key not in acc else acc[key].add(br)
        return acc

    identities = {"square_zero": True, "cocycle": True, "euler_relation": True}
    for s in range(m):
        for br in series_bracket(q_coeff, q_coeff, s).values():
            if not br.is_zero():
                identities["square_zero"] = False
        for br in series_bracket(q_coeff, dq_coeff, s).values():
            if not br.is_zero():
                identities["cocycle"] = False
        # t ∂_t q(t) = [q(t), e]: coefficient of t^s
        lhs = {}
        if s >= 1:
            co = dq_coeff(s - 1)
            if co is not None:
                lhs[co.arity] = co
        rhs = {}
        qs = q_coeff(s)
        if qs is not None:
            br = nr_bracket(qs, euler, alg.ctx)
            if not br.is_zero():
                rhs[br.arity] = br
        arities = set(lhs) | set(rhs)
        for a in arities:
            lm = lhs[a].matrix if a in lhs else None
            rm = rhs[a].matrix if a in rhs else None
            if lm is None:
                lm = zeros(len(rm), len(rm[0]) if rm else 0)
            if rm is None:
                rm = zeros(len(lm), len(lm[0]) if lm else 0)
            if lm != rm:
                identities["euler_relation"] = False

    # coboundary test: [q(t), x(t)]_NR = ∂_t q(t) mod (t^m, weight n)
    unknowns = []
    for s in range(m):
        for a in range(1, n):
            pb = alg.ctx.pb[a]
            for t_pos in range(len(pb)):
                tdeg = pb.degree(t_pos)
                for w in range(alg.space.dim):
                    if alg.space.degrees[w] - tdeg == 0:
                        unknowns.append((s, a, t_pos, w))
    rows = {}
    col_data = []
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
        co = dq_coeff(s)
        if co is None:
            continue
        for tt in range(len(alg.ctx.pb[co.arity])):
            for ww in range(alg.space.dim):
                v = co.matrix[ww][tt]
                if v:
                    key = (s, co.arity, tt, ww)
                    target[key] = v
                    rows.setdefault(key, len(rows))
    nrows = len(rows)
    a_mat = zeros(nrows, len(unknowns))
    for c, entries in enumerate(col_data):
        for k, v in entries.items():
            a_mat[rows[k]][c] = v
    b_vec = zero_vec(nrows)
    for k, v in target.items():
        b_vec[rows[k]] = v
    sol = solve(a_mat, b_vec) if nrows else zero_vec(len(unknowns))
    primitive = None
    if sol is not None:
        primitive = [
            {"t_power": s, "arity": a, "tuple": t_pos, "target": w,
             "coefficient": sol[k]}
            for k, (s, a, t_pos, w) in enumerate(unknowns) if sol[k]]
    representative = {
        s: dq_coeff(s).matrix for s in range(m) if dq_coeff(s) is not None}
    return {"identities": identities, "t_order": m, "weight": n,
            "is_coboundary": sol is not None, "primitive": primitive,
            "representative": representative,
            "class_is_zero": sol is not None}
