"""Weight-truncated brace structures on graded spaces: coderivation lifts,
the arity-shifting bracket of multilinear maps, shift equivalence with dg-Lie
algebras both ways, coalgebra-morphism calculus on the truncated symmetric
coalgebra, relative coderivation complexes, and higher derived brackets."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .cecomplex import (
    ColumnComplex, HomColumn, ce_delta_bar_on, ce_delta_on, form_column,
)
from .dgla import DgLieAlgebra
from .graded import (
    EXTERIOR, SYMMETRIC, GradedMap, GradedVectorSpace, PowerBasis, PowerMap,
    koszul_sign, parity_sign,
)
from .linalg import (
    Q1, identity, is_zero_mat, is_zero_vec, mat_add, mat_mul, mat_sub,
    zero_vec, zeros,
)


class SymContext:
    """Cache of symmetric-power bases of one space up to a weight bound,
    with a flat basis for ⊕_{0≤n≤N} V^⊙n."""

    def __init__(self, space, bound):
        self.space = space
        self.bound = bound
        self.pb = [PowerBasis(space, SYMMETRIC, n) for n in range(bound + 1)]
        self.flat = []
        self._index = {}
        self._starts = []
        for n in range(bound + 1):
            self._starts.append(len(self.flat))
            for t_pos, t in enumerate(self.pb[n].elements):
                self._index[(n, t_pos)] = len(self.flat)
                self.flat.append((n, t_pos))
        self.dim = len(self.flat)

    def index(self, n, t_pos):
        return self._index[(n, t_pos)]

    def weight_slice(self, n):
        """Positions of the weight-n block in the flat basis, as a slice:
        ``[row[ctx.weight_slice(n)] for row in big[other.weight_slice(k)]]``
        reads a weight n → k block of a matrix on flat bases."""
        start = self._starts[n]
        return slice(start, start + len(self.pb[n]))

    def tuple_degrees(self, n, t):
        return [self.space.degrees[i] for i in t]


def coder_lift_block(q, ctx, n):
    """Matrix of the coderivation lift of an arity-k map on the weight-n
    component, landing in weight n−k+1 (zero when n < k)."""
    k = q.arity
    out_w = n - k + 1
    pb_in = ctx.pb[n]
    if out_w < 0 or out_w > ctx.bound:
        return zeros(0, len(pb_in))
    pb_out = ctx.pb[out_w]
    m = zeros(len(pb_out), len(pb_in))
    for c, t in enumerate(pb_in.elements):
        degs = ctx.tuple_degrees(n, t)
        for sel in combinations(range(n), k):
            rest = tuple(i for i in range(n) if i not in sel)
            perm = list(sel) + list(rest)
            eps = koszul_sign(degs, perm, antisymmetric=False)
            sub = tuple(t[i] for i in sel)
            val = q.eval_tuple(sub) if k else q.column(0)
            tail = tuple(t[i] for i in rest)
            for a, coeff in enumerate(val):
                if not coeff:
                    continue
                sign, canon = pb_out.normalize((a,) + tail)
                if sign == 0:
                    continue
                m[pb_out.index(canon)][c] += eps * sign * coeff
    return m


def nr_bracket(f, g, ctx=None):
    """[f,g] = f∘ĝ − (−1)^{f̄ḡ} g∘f̂ on multilinear maps V^⊙• → V."""
    space = f.target
    n, k = f.arity, g.arity
    arity = n + k - 1
    if ctx is None or ctx.bound < arity:
        ctx = SymContext(space, arity)
    if not len(f.pb) or not len(g.pb):
        # a map on an empty power basis is zero, and so is the bracket
        # (mat_mul cannot tell the width of a product with no inner rows)
        return PowerMap.zero(ctx.pb[arity], space, f.degree + g.degree)
    lift_g = coder_lift_block(g, ctx, arity)
    lift_f = coder_lift_block(f, ctx, arity)
    a = mat_mul(f.matrix, lift_g)
    b = mat_mul(g.matrix, lift_f)
    m = mat_add(a, b) if (f.degree * g.degree) & 1 else mat_sub(a, b)
    return PowerMap(ctx.pb[arity], space, f.degree + g.degree, m)


class LInfinityAlgebra:
    """(V, q₁, q₂, …) truncated at weight N: all q_n with n > N are zero by
    declaration and every identity is asserted modulo that truncation."""

    def __init__(self, space, taylor, bound):
        self.space = space
        self.bound = bound
        self.ctx = SymContext(space, bound)
        self.taylor = {}
        for n, qn in taylor.items():
            if n > bound:
                raise ValueError("taylor coefficient beyond the weight bound")
            if qn.degree != 1:
                raise ValueError("taylor coefficients must have degree +1")
            if not qn.is_zero():
                self.taylor[n] = qn
        self._qhat = None

    def q(self, n):
        if n in self.taylor:
            return self.taylor[n]
        return PowerMap.zero(self.ctx.pb[n], self.space, 1) \
            if n <= self.bound else None

    def is_minimal(self):
        return 1 not in self.taylor

    def is_trivial_beyond_q2(self):
        return all(n <= 2 for n in self.taylor)

    def qhat(self):
        """Big matrix of the codifferential on ⊕_{n≤N} V^⊙n."""
        if self._qhat is None:
            ctx = self.ctx
            m = zeros(ctx.dim, ctx.dim)
            for n in range(1, ctx.bound + 1):
                for k, qk in self.taylor.items():
                    if k <= n:
                        _add_block(m, ctx, n - k + 1, n,
                                   coder_lift_block(qk, ctx, n))
            self._qhat = m
        return self._qhat


def validate_linf(alg):
    """Check the quadratic relations mod weight truncation.

    Equivalent to the square of the big codifferential vanishing on the
    truncated coalgebra; failures are reported with the source weight,
    basis tuple and residual vector.
    """
    ctx = alg.ctx
    qq = mat_mul(alg.qhat(), alg.qhat())
    failures = []
    for n in range(1, ctx.bound + 1):
        for t_pos, t in enumerate(ctx.pb[n].elements):
            c = ctx.index(n, t_pos)
            col = [qq[r][c] for r in range(ctx.dim)]
            if not is_zero_vec(col):
                label = "⊙".join(alg.space.labels[i] for i in t)
                failures.append({"weight": n, "tuple": label, "residual": [
                    x for x in col if x][:4]})
    return {"ok": not failures, "failures": failures}


def decalage(alg_l, bound):
    """Shifted structure on V with V^i ≅ L^{i+1}: q₁ = −d and
    q₂(u,v) = −(−1)^{ū} s⁻¹[su, sv]."""
    v = alg_l.space.shift(1)
    bound = max(bound, 2)
    taylor = {}
    q1m = [[-x for x in row] for row in alg_l.differential.matrix]
    ctx = SymContext(v, bound)
    taylor[1] = PowerMap(ctx.pb[1], v, 1, q1m)
    pb2 = ctx.pb[2]
    m = zeros(v.dim, len(pb2))
    for c, (i, j) in enumerate(pb2.elements):
        val = alg_l.bracket_basis(i, j)
        sgn = -parity_sign(v.degrees[i])
        for r in range(v.dim):
            m[r][c] = sgn * val[r]
    taylor[2] = PowerMap(pb2, v, 1, m)
    return LInfinityAlgebra(v, taylor, bound)


def linf_structure(obj, weight):
    """The truncated L∞[1]-algebra the engine reads off ``obj`` at weight
    bound ``weight``: the décalage of a dg-Lie algebra, or an L∞[1]-algebra
    with its q_n for n > weight dropped."""
    if weight < 2:
        raise ValueError(f"weight bound {weight} is below 2")
    if isinstance(obj, DgLieAlgebra):
        return decalage(obj, weight)
    if obj.bound <= weight:
        return obj
    return LInfinityAlgebra(
        obj.space, {n: q for n, q in obj.taylor.items() if n <= weight},
        weight)


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
        val = q2.eval_tuple((i, j))
        sgn = -parity_sign(alg_v.space.degrees[i])
        for r in range(lspace.dim):
            m[r][c] = sgn * val[r]
    bracket = PowerMap(pb, lspace, 0, m)
    return DgLieAlgebra(lspace, GradedMap(lspace, lspace, 1, d), bracket)


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


class LInfinityMorphism:
    """Coalgebra morphism between truncated structures, stored through its
    corestriction components f¹_j: V^⊙j → W of degree 0.

    Values on tuples are memoized; ``set_component`` is the one way to
    change a component after construction, since it drops the stale ones.
    """

    def __init__(self, source, target, components):
        self.source = source
        self.target = target
        self.components = {j: m for j, m in components.items()
                           if not is_zero_mat(m)}
        self._big = None
        self._values = {}

    def f1(self, j):
        if j in self.components:
            return self.components[j]
        return zeros(self.target.space.dim, len(self.source.ctx.pb[j]))

    def set_component(self, j, m):
        """Replace f¹_j by m.  Only values on tuples of length ≥ j can see
        f¹_j, so the memoized values of shorter tuples are kept."""
        if is_zero_mat(m):
            self.components.pop(j, None)
        else:
            self.components[j] = m
        self._big = None
        self._values = {t: v for t, v in self._values.items() if len(t) < j}

    @property
    def linear(self):
        return self.f1(1)

    @classmethod
    def from_linear(cls, source, target, matrix):
        return cls(source, target, {1: matrix})

    def component_value(self, tup):
        """f applied to a canonical tuple, as a vector on the target's
        truncated coalgebra basis.

        The vector is memoized and shared between calls: callers must not
        mutate it."""
        out = self._values.get(tup)
        if out is None:
            out = self._values[tup] = self._evaluate(tup)
        return out

    def _evaluate(self, tup):
        src, tgt = self.source, self.target
        sctx, tctx = src.ctx, tgt.ctx
        n = len(tup)
        out = zero_vec(tctx.dim)
        if n == 0:
            out[tctx.index(0, 0)] = Q1
            return out
        degs = [src.space.degrees[i] for i in tup]
        for part in set_partitions(range(n)):
            j = len(part)
            if j > tctx.bound:
                continue
            # a missing component or a zero factor kills the whole product
            factors = []
            for block in part:
                comp = self.components.get(len(block))
                if comp is None:
                    break
                pb = sctx.pb[len(block)]
                sign, canon = pb.normalize(tuple(tup[i] for i in block))
                if sign == 0:
                    break
                c = pb.index(canon)
                vec = [(r, row[c] if sign > 0 else -row[c])
                       for r, row in enumerate(comp) if row[c]]
                if not vec:
                    break
                factors.append(vec)
            else:
                perm = [i for block in part for i in block]
                eps = koszul_sign(degs, perm, antisymmetric=False)
                for coeff, otup in _expand_product(factors):
                    sign, canon = tctx.pb[j].normalize(otup)
                    if sign == 0:
                        continue
                    out[tctx.index(j, tctx.pb[j].index(canon))] += \
                        eps * coeff * sign
        return out

    def big_matrix(self):
        """Matrix of the full coalgebra morphism on the truncated bases."""
        if self._big is None:
            sctx, tctx = self.source.ctx, self.target.ctx
            m = zeros(tctx.dim, sctx.dim)
            for c, (n, t_pos) in enumerate(sctx.flat):
                val = self.component_value(sctx.pb[n].elements[t_pos])
                for r in range(tctx.dim):
                    m[r][c] = val[r]
            self._big = m
        return self._big


def _expand_product(factors):
    """Expand a ⊙-product of weight-1 vectors, each given as its nonzero
    (index, entry) pairs, into (coeff, index tuple)."""
    terms = [(Q1, ())]
    for vec in factors:
        terms = [(coeff * ca, tup + (a,))
                 for coeff, tup in terms for a, ca in vec]
    return terms


def validate_linf_morphism(f):
    """Check fQ = Rf on the truncated coalgebra (plus f(1) = 1)."""
    src, tgt = f.source, f.target
    big = f.big_matrix()
    lhs = mat_mul(big, src.qhat())
    rhs = mat_mul(tgt.qhat(), big)
    failures = []
    sctx = src.ctx
    for c, (n, t_pos) in enumerate(sctx.flat):
        col = [lhs[r][c] - rhs[r][c] for r in range(tgt.ctx.dim)]
        if not is_zero_vec(col):
            t = sctx.pb[n].elements[t_pos]
            failures.append({
                "weight": n,
                "tuple": "⊙".join(src.space.labels[i] for i in t)})
    unit_ok = big[tgt.ctx.index(0, 0)][sctx.index(0, 0)] == 1
    return {"ok": not failures and unit_ok, "unit": unit_ok,
            "failures": failures}


def compose_morphisms(g, f):
    """g ∘ f, recovering corestriction components from the big matrices."""
    big = mat_mul(g.big_matrix(), f.big_matrix())
    w1 = big[g.target.ctx.weight_slice(1)]
    sctx = f.source.ctx
    comps = {j: [row[sctx.weight_slice(j)] for row in w1]
             for j in range(1, sctx.bound + 1)}
    return LInfinityMorphism(f.source, g.target, comps)


def identity_morphism(alg):
    return LInfinityMorphism.from_linear(alg, alg, identity(alg.space.dim))


def exp_coderivation(alg, alpha):
    """Conjugate the structure by exp of the lift of a degree-0 map of
    arity ≥ 2.

    Returns (new LInfinityAlgebra R with r = e^{−α̂} q e^{α̂}, morphism
    e^{α̂}: (V,R) → (V,Q)).
    """
    if alpha.degree != 0 or alpha.arity < 2:
        raise ValueError("gauge generator must be a degree-0 map of arity ≥ 2")
    ctx = alg.ctx
    lift = zeros(ctx.dim, ctx.dim)
    for n in range(alpha.arity - 1, ctx.bound + 1):
        _add_block(lift, ctx, n - alpha.arity + 1, n,
                   coder_lift_block(alpha, ctx, n))
    expm = _exp_nilpotent(lift)
    expm_inv = _exp_nilpotent([[-x for x in row] for row in lift])
    conj = mat_mul(expm_inv, mat_mul(alg.qhat(), expm))
    w1 = ctx.weight_slice(1)
    taylor = {}
    comps = {}
    for j in range(1, ctx.bound + 1):
        cols = ctx.weight_slice(j)
        m = [row[cols] for row in conj[w1]]
        if not is_zero_mat(m):
            taylor[j] = PowerMap(ctx.pb[j], alg.space, 1, m)
        comps[j] = [row[cols] for row in expm[w1]]
    new_alg = LInfinityAlgebra(alg.space, taylor, alg.bound)
    return new_alg, LInfinityMorphism(new_alg, alg, comps)


def _add_block(big, ctx, out_w, in_w, block):
    """Add a weight in_w → out_w block into a matrix on ctx's flat basis.

    Only nonzero entries are added, so the zeros stay the shared Q0."""
    start = ctx.weight_slice(in_w).start
    for row, brow in zip(big[ctx.weight_slice(out_w)], block):
        for c, x in enumerate(brow):
            if x:
                row[start + c] += x


def _exp_nilpotent(m):
    n = len(m)
    out = identity(n)
    term = identity(n)
    k = 0
    while True:
        k += 1
        term = mat_mul(term, m)
        if is_zero_mat(term):
            break
        inv = Fraction(1)
        for t in range(1, k + 1):
            inv /= t
        out = [[out[i][j] + inv * term[i][j] for j in range(n)]
               for i in range(n)]
        if k > n:
            raise ValueError("exp argument is not nilpotent")
    return out


class LinfCeComplex(ColumnComplex):
    """Column-truncated complex of relative coderivations along a morphism
    f: (V, Q) → (W, R), graded by map degree and filtered by the least
    nonvanishing arity: column p is Hom*(V^⊙p, W)."""

    def __init__(self, f, l):
        self.f = f
        self.l = l
        src, tgt = f.source, f.target
        if l < 1:
            raise ValueError("column bound must be at least 1")
        if l > src.bound + 1:
            raise ValueError("column bound exceeds the weight bound")
        self.columns = [HomColumn(src, tgt, src.ctx.pb[p]) for p in range(l)]
        self.total = self._assemble(self._blocks(), shift=0, check=True)

    def _blocks(self):
        """dα = Rα̂ − (−1)^{ᾱ} α Q̂ corestricted, as one block per column
        pair p ≤ j covering every basis map α of column p at once."""
        tgt = self.f.target
        # r_k(w ⊙ y) for every target basis vector w and weight-(k−1)
        # tuple y, as nonzero (row, entry) pairs
        r_on = {k: [[[(r, x) for r, x in enumerate(rk.eval_tuple((w,) + y))
                      if x]
                     for w in range(tgt.space.dim)]
                    for y in tgt.ctx.pb[k - 1].elements]
                for k, rk in tgt.taylor.items()}
        blocks = {}
        for p in range(self.l):
            for j in range(p, self.l):
                m = zeros(self.columns[j].space.dim,
                          self.columns[p].space.dim)
                self._add_r_part(m, p, j, r_on)
                self._add_q_part(m, p, j)
                blocks[(p, j)] = m
        return blocks

    def _add_r_part(self, m, p, j, r_on):
        """Σ_k r_k(α(u_sel) ⊙ f(u_rest)), walking each weight-j tuple u and
        p-subset sel of its positions once: u_sel normalizes to the basis
        tuple of the maps α it feeds, and f is evaluated once on u_rest."""
        f = self.f
        src, tctx = f.source, f.target.ctx
        pb = src.ctx.pb[p]
        col, out = self.columns[p], self.columns[j]
        for u_pos, u in enumerate(src.ctx.pb[j].elements):
            degs = [src.space.degrees[i] for i in u]
            rows = out.flat[u_pos]
            for sel in combinations(range(j), p):
                sign, t = pb.normalize(tuple(u[i] for i in sel))
                if not sign:
                    continue
                cols = col.flat[pb.index(t)]
                rest = tuple(i for i in range(j) if i not in sel)
                eps = sign * koszul_sign(degs, list(sel) + list(rest))
                fval = f.component_value(tuple(u[i] for i in rest))
                for k, r_k in r_on.items():
                    for r_wy, coeff in zip(r_k,
                                           fval[tctx.weight_slice(k - 1)]):
                        if not coeff:
                            continue
                        x = eps * coeff
                        for pos, pairs in zip(cols, r_wy):
                            for r, v in pairs:
                                m[rows[r]][pos] += v * x

    def _add_q_part(self, m, p, j):
        """−(−1)^{ᾱ} α ∘ Q̂ from weight j to weight p, through one
        coderivation lift of q_{j−p+1}."""
        src, tgt = self.f.source, self.f.target
        qk = src.taylor.get(j - p + 1)
        if qk is None:
            return
        pb = src.ctx.pb[p]
        col, out = self.columns[p], self.columns[j]
        for t_pos, brow in enumerate(coder_lift_block(qk, src.ctx, j)):
            tdeg = pb.degree(t_pos)
            for u_pos, x in enumerate(brow):
                if not x:
                    continue
                rows = out.flat[u_pos]
                for w, pos in enumerate(col.flat[t_pos]):
                    m[rows[w]][pos] += \
                        x if (tgt.space.degrees[w] - tdeg) & 1 else -x


def ce_linf_self(alg, l):
    return LinfCeComplex(identity_morphism(alg), l)


def decalage_conjugation(alg_l, l, bound=None):
    """Degree +1 column-wise bijection between the coderivation complex of
    the shifted structure and the alternating-forms bicomplex of L.

    Returns per-column matrices s_p and verifies that s anticommutes with
    both differentials: δ̄∘s + s∘[q₁,−] = 0 and δ∘s + s∘[q₂,−] = 0, so the
    total differentials agree up to a global sign and the two filtered
    complexes have identical pages.
    """
    from .dgla import adjoint_module

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
        nr1 = _nr_column_matrix(v_alg, ce_v, p, 1)
        vert = mat_add(mat_mul(db, smats[p]), mat_mul(smats[p], nr1))
        # horizontal: δ s_p + s_{p+1} [q₂, −] = 0
        dd = ce_delta_on(cols_l[p], cols_l[p + 1])
        nr2 = _nr_column_matrix(v_alg, ce_v, p, 2)
        horiz = mat_add(mat_mul(dd, smats[p]), mat_mul(smats[p + 1], nr2))
        ok = is_zero_mat(vert) and is_zero_mat(horiz)
        report["columns"].append({"p": p, "vertical_ok": is_zero_mat(vert),
                                  "horizontal_ok": is_zero_mat(horiz)})
        if not ok:
            report["ok"] = False
    return smats, report


def _nr_column_matrix(alg, ce, p, k):
    """Matrix of α ↦ [q_k, α]_NR from column p to column p+k−1 of the
    relative coderivation complex of the identity."""
    qk = alg.q(k)
    src_col = ce.columns[p]
    dst_col = ce.columns[p + k - 1]
    m = zeros(dst_col.space.dim, src_col.space.dim)
    for cidx, (t_pos, w_idx) in enumerate(src_col.pairs):
        amat = zeros(alg.space.dim, len(alg.ctx.pb[p]))
        amat[w_idx][t_pos] = Q1
        adeg = src_col.space.degrees[cidx]
        alpha = PowerMap(alg.ctx.pb[p], alg.space, adeg, amat)
        br = nr_bracket(qk, alpha, alg.ctx) if p + k - 1 <= alg.ctx.bound \
            else None
        if br is None:
            continue
        for out_t in range(len(alg.ctx.pb[p + k - 1])):
            for out_w in range(alg.space.dim):
                if br.matrix[out_w][out_t]:
                    m[dst_col.index(out_t, out_w)][cidx] = \
                        br.matrix[out_w][out_t]
    return m


def derived_brackets(ambient, n_sub_labels, d_label, n_max):
    """Higher derived brackets of an inner derivation.

    ``ambient`` is a bracket-closed algebra with zero differential,
    ``n_sub_labels`` span a subalgebra containing the degree +1 square-zero
    element named ``d_label``, and the complementary basis vectors span an
    abelian subalgebra A.  Returns (A-structure as LInfinityAlgebra, report).
    """
    g = ambient
    labels = set(n_sub_labels)
    n_idx = [g.space.index(lab) for lab in n_sub_labels]
    a_idx = [i for i in range(g.space.dim) if g.space.labels[i] not in labels]
    d_i = g.space.index(d_label)
    if d_i not in n_idx:
        raise ValueError("the inner derivation must lie in the subalgebra")
    if g.space.degrees[d_i] != 1:
        raise ValueError("the inner derivation must have degree +1")
    d_vec = zero_vec(g.space.dim)
    d_vec[d_i] = Q1
    if not is_zero_vec(g.bracket_vec(d_vec, d_vec)):
        raise ValueError("the inner derivation does not square to zero")
    n_set = set(n_idx)
    for i in n_idx:
        for j in n_idx:
            val = g.bracket_basis(i, j)
            for r, c in enumerate(val):
                if c and r not in n_set:
                    raise ValueError("subalgebra is not bracket-closed")
    for i in a_idx:
        for j in a_idx:
            if not is_zero_vec(g.bracket_basis(i, j)):
                raise ValueError("complement is not abelian")

    comps = {}
    for i in a_idx:
        comps.setdefault(g.space.degrees[i], []).append(g.space.labels[i])
    a_space = GradedVectorSpace(comps)
    a_to_g = [g.space.index(lab) for lab in a_space.labels]

    def project(vec):
        out = zero_vec(a_space.dim)
        for k, gi in enumerate(a_to_g):
            out[k] = vec[gi]
        return out

    ctx = SymContext(a_space, n_max)
    taylor = {}
    for n in range(1, n_max + 1):
        pb = ctx.pb[n]
        m = zeros(a_space.dim, len(pb))
        for c, t in enumerate(pb.elements):
            cur = d_vec
            for vi in t:
                arg = zero_vec(g.space.dim)
                arg[a_to_g[vi]] = Q1
                cur = g.bracket_vec(cur, arg)
            val = project(cur)
            for r in range(a_space.dim):
                m[r][c] = val[r]
        if not is_zero_mat(m):
            taylor[n] = PowerMap(pb, a_space, 1, m)
    alg = LInfinityAlgebra(a_space, taylor, n_max)
    report = validate_linf(alg)
    return alg, report
