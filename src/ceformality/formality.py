"""Euler derivations and their page classes, the stepwise obstruction
sequence, minimal models by homotopy transfer, the constructive gauging
loop with bounded verdicts, the transfer criterion along a morphism, and
the t-deformation class of a minimal structure."""

from __future__ import annotations

from .cecomplex import pushforward_matrix
from .dgla import DgLieAlgebra, cohomology, cohomology_lie, validate_morphism
from .graded import GradedMap, PowerMap
from .linalg import (
    Q1, _axpy, mat_add, mat_mul, mat_sub, rank, solve, zero_vec, zeros,
)
from .linf import (
    InsufficientBounds, LInfinityAlgebra, LInfinityMorphism, LinfCeComplex,
    ce_linf_self, compose_morphisms, exp_coderivation, identity_morphism,
    linf_structure, nr_bracket, validate_linf, validate_linf_morphism,
)
from .specseq import barcode, cell_coordinates, degenerates_at, page_map


def euler_power_map(alg):
    """The diagonal map v ↦ (v̄+1)v as an arity-1 PowerMap."""
    n = alg.space.dim
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Q1 * (alg.space.degrees[i] + 1)
    return PowerMap(alg.ctx.pb[1], alg.space, 0, m)


def _euler_vector(ce, alg):
    """v ↦ (v̄+1)v as a sparse vector of the coderivation complex."""
    return {ce.global_index(1, ce.columns[1].index(i, i)): Q1 * (deg + 1)
            for i, deg in enumerate(alg.space.degrees) if deg != -1}


def euler_class(obj, l):
    """Page-2 class of the Euler derivation.

    For a minimal truncated structure the representative is v ↦ (v̄+1)v
    at cell (1, −1).  A graded Lie algebra (zero differential) is read on
    its décalage, where that map is x ↦ deg(x)·x; its cell is reported in
    CE degrees, as (1, 0).  Inputs with a nonzero linear part are replaced
    by their cohomology / minimal structure first, since only there does
    the diagonal map represent a page class.
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
    else:
        minimal = minimal_structure(obj, obj.bound)
        if minimal is not obj:
            obj, computed_on = minimal, "minimal_model"
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
    """Subtract w ∈ F^{p+1} with d(rep − w) ∈ F^{p+r+1}: d rep is cleared
    below level p+r+1 in pivot order by the barcode's V_y, y ∈ F^{p+1}."""
    bc, levels = barcode(ftc), ftc.levels
    rep, drep = dict(rep), ftc.apply(rep)
    rows = sorted((i for i, lev in enumerate(levels) if lev <= p + r),
                  key=lambda i: (levels[i], -i))
    for low in rows:
        y = bc.owner.get(low)
        if low in drep and y is not None and levels[y] > p:
            f = drep[low] / bc.reduced[y][low]
            _axpy(drep, -f, bc.reduced[y])
            _axpy(rep, -f, bc.combination[y])
    if any(levels[i] <= p + r for i in drep):
        raise AssertionError("page class vanished but no correction exists")
    return rep


def obstruction_sequence(alg, l, r_max):
    """Successive classes d_r(e) for 2 ≤ r ≤ r_max on a minimal structure.

    Each step is evaluated only if every previous class vanished; the first
    nonzero class is returned with its cell and coordinates.  Columns must
    satisfy l ≥ r_max + 2 so every target cell lies inside the truncation.
    """
    if not alg.is_minimal():
        raise AssertionError(
            "obstruction sequence requires a minimal structure")
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
        dvec = ftc.apply(rep)
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


def check_relations(alg):
    """Raise ValueError at the first weight and tuple where q̂² ≠ 0."""
    rep = validate_linf(alg)
    if not rep["ok"]:
        first = rep["failures"][0]
        raise ValueError(f"structure fails its relations at weight "
                         f"{first['weight']} ({first['tuple']})")


def minimal_model(alg, bound):
    """Homotopy transfer onto H*(V, q₁), truncated at the weight bound.

    Returns {"minimal": W, "into": g: W→V, "contraction"}.  The input's
    relations are checked first (``check_relations``).  Three checks then
    certify W as a minimal model of V: the contraction's identities (so
    g¹ = i is a quasi-isomorphism), the relations of W, and g as an
    ∞-morphism, the last two up to the bound on corestrictions, which reuse
    the transfer's memoized lifts.  Such a g has an ∞ quasi-inverse, so no
    projection V → W is built.  A minimal input comes back relabelled only
    (i = p = id, h = 0).
    """
    check_relations(alg)
    con = cohomology(GradedMap(alg.space, alg.space, 1, alg.q(1).matrix))
    if not all(con.verify().values()):
        raise AssertionError("contraction fails its identities")
    w_alg = LInfinityAlgebra(con.cohomology, {}, bound)
    pmat, hmat = con.p.matrix, con.h.matrix
    g = LInfinityMorphism(w_alg, alg, {1: [row[:] for row in con.i.matrix]})
    for n in range(2, bound + 1):
        pb_n = w_alg.ctx.pb[n]
        # known transferred terms entering through the coderivation lift
        lifts = zeros(alg.space.dim, len(pb_n))
        for m_w in range(2, n):
            if m_w in w_alg.taylor:
                lifts = mat_add(lifts, mat_mul(g.f1(n - m_w + 1),
                                               w_alg.lift(m_w, n)))
        # known structure terms through the morphism components
        blocks = zeros(alg.space.dim, len(pb_n))
        for k in range(2, n + 1):
            qk = alg.taylor.get(k)
            if qk is None:
                continue
            blocks = mat_add(blocks, mat_mul(qk.matrix, g.block(k, n)))
        x_n = mat_sub(blocks, lifts)
        w_alg.set_q(n, mat_mul(pmat, x_n))
        g.set_component(n, mat_mul(hmat, x_n))
    if not validate_linf(w_alg)["ok"]:
        raise AssertionError("transferred structure fails its relations")
    if not validate_linf_morphism(g)["ok"]:
        raise AssertionError("transfer produced an invalid morphism")
    return {"minimal": w_alg, "into": g, "contraction": con}


def minimal_structure(v, weight):
    """v itself if q₁ = 0 (it is its own minimal model), else the transfer
    onto H*(V, q₁); only the transfer checks v's relations."""
    if v.is_minimal():
        return v
    return minimal_model(v, weight)["minimal"]


def gauge_reduce(alg, bound=None):
    """Iteratively gauge away the least nonquadratic component.

    At each stage i ≥ 3 with q_i ≠ 0 the linear system [q₂, α]_NR = −q_i is
    solved for a degree-0 α of arity i−1, reading [q₂, −] as the block from
    column i−1 to column i of the coderivation complex, and the structure
    is conjugated by exp of its lift; failure of the solve certifies a
    nonzero obstruction class and the verdict NotFormal.
    """
    if not alg.is_minimal():
        raise AssertionError("gauge reduction requires a minimal structure")
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
        ce = ce_linf_self(current, stage + 1)
        src, dst = ce.columns[stage - 1], ce.columns[stage]
        unknowns = src.space.indices_in_degree(0)
        mat = [[row[c] for c in unknowns]
               for row in ce.block(stage - 1, stage)]
        target = [-qi.matrix[ww][tt] for tt, ww in dst.pairs]
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
        amat = zeros(current.space.dim, len(src.pb))
        for c, x in zip(unknowns, sol):
            t_pos, w = src.pairs[c]
            amat[w][t_pos] = x
        alpha = PowerMap(src.pb, current.space, 0, amat)
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
    """Full pipeline: shift to a truncated structure if needed, take its
    minimal structure (a minimal input is read directly once its relations
    are checked; the transfer runs only when q₁ ≠ 0), gauge-reduce, and
    cross-check the verdict twice on the coderivation complex of the
    obstruction sequence's column bound.

    The obstruction sequence must agree with the gauge.  The degeneration
    of the complex's spectral sequence must agree with the paper's theorem
    (formal ⟺ degenerate at E₂), read off the barcode: a homotopy-abelian
    verdict degenerates at E₁, a formal one at E₂, and a witness at gauge
    stage s is the first nonzero differential, d_{s−1} out of the Euler
    cell (1, −1).  On the cells (p, q) of page r with p + r ≤ l, for l
    the column bound, the truncation is exact: projecting the untruncated
    complex onto the truncated one is bijective there, as the tests'
    reference ``quotient_compare`` (``tests/page_oracle.py``) checks.  The
    check stops at d_{weight−1}, as the obstruction sequence does: d_r out
    of column p meets column p + r through [q_{r+1}, −], and the weight
    truncation drops q_{weight+1}.  A disagreement is an engine fault."""
    if weight < 3 or columns < 4:
        raise InsufficientBounds("need weight >= 3 and columns >= 4")
    v_alg = linf_structure(obj, weight)
    if v_alg.is_minimal():
        check_relations(v_alg)
    w_alg = minimal_structure(v_alg, weight)
    verdict = gauge_reduce(w_alg, weight)
    if verdict["verdict"] == "NotFormal" and \
            verdict["stage"] + 1 > columns:
        raise InsufficientBounds(
            f"witness at stage {verdict['stage']} needs columns >= "
            f"{verdict['stage'] + 1}")
    obs_l = min(columns, weight + 1)
    # r_max >= 2, since weight >= 3 and columns >= 4
    r_max = min(obs_l - 2, weight - 1)
    # a failed gauge has run the sequence already, maybe at these bounds
    obs = verdict.get("obstructions")
    if obs is None or (obs["columns"], obs["r_max"]) != (obs_l, r_max):
        obs = obstruction_sequence(w_alg, obs_l, r_max)
    if verdict["verdict"] == "NotFormal":
        if obs["first_nonzero"] != verdict["stage"] - 1:
            raise AssertionError(
                "gauge failure and obstruction sequence disagree")
    elif obs["first_nonzero"] is not None:
        raise AssertionError("gauge success despite a nonzero obstruction")
    ftc = ce_linf_self(w_alg, obs_l).total
    if verdict["verdict"] == "NotFormal":
        r = verdict["stage"] - 1
        _, first = degenerates_at(ftc, 2, last=weight - 1)
        agrees = first is not None and first[0] == r and \
            (1, -1) in barcode(ftc).differential_sources(r)
    else:
        abelian = verdict["verdict"] == "HomotopyAbelianUpTo"
        agrees = degenerates_at(ftc, 1 if abelian else 2,
                                last=weight - 1)[0]
    if not agrees:
        raise AssertionError(
            "verdict disagrees with the degeneration of the spectral sequence")
    verdict["columns"] = columns
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
    dims = barcode(ce_self.total).dims(2)
    results = []
    for p in range(3, columns):
        cell = (p, 1 - p)
        dim_src = dims[cell]
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
        raise AssertionError("requires a minimal structure")
    if t_order < 2:
        raise ValueError("t-order must be at least 2")
    n, m = weight, t_order
    # the complex's own d² = 0 check rejects [q, q]_k ≠ 0 for every k ≤ n,
    # so invalid input fails here and square_zero holds below
    ce = ce_linf_self(alg, n + 1)
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
            br = nr_bracket(fa, gb, alg.ctx)
            key = br.arity
            acc[key] = br if key not in acc else acc[key].add(br)
        return acc

    identities = {"square_zero": True, "cocycle": True, "euler_relation": True}
    for s in range(m):
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

    # coboundary test: [q(t), x(t)]_NR = ∂_t q(t) mod (t^m, weight n), for
    # x(t) of degree 0 and arities 1 … n−1; [q_i, −] from arity a to arity
    # j = a + i − 1 is the block a → j of the coderivation complex
    basis_maps = []
    for a in range(1, n):
        col = ce.columns[a]
        blocks = [(j, ce.block(a, j), ce.columns[j].pairs)
                  for j in range(a + 1, n + 1) if j - a + 1 in alg.taylor]
        for c in col.space.indices_in_degree(0):
            images = [(j, pairs[r], row[c]) for j, blk, pairs in blocks
                      for r, row in enumerate(blk) if row[c]]
            basis_maps.append((a, col.pairs[c], images))
    unknowns = []
    rows = {}
    col_data = []
    for s0 in range(m):
        for a, (t_pos, w), images in basis_maps:
            # x = t^{s0} · (basis map) meets q_i at t^{s0+i−2}
            entries = {(s0 + j - a - 1, j, tt, ww): v
                       for j, (tt, ww), v in images if s0 + j - a - 1 < m}
            unknowns.append((s0, a, t_pos, w))
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
