"""Weight-truncated brace structures on graded spaces: coderivation lifts,
the arity-shifting bracket of multilinear maps, the décalage of a dg-Lie
algebra, coalgebra-morphism calculus on the truncated symmetric coalgebra,
relative coderivation complexes, and higher derived brackets."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .cecomplex import ColumnComplex, HomColumn
from .dgla import DgLieAlgebra
from .graded import (
    SYMMETRIC, GradedVectorSpace, PowerBasis, PowerMap, parity_sign,
    shuffle_sign,
)
from .linalg import (
    Q1, identity, is_zero_mat, mat_add, mat_mul, mat_sub, zero_vec, zeros,
)


class InsufficientBounds(Exception):
    """A computation would require larger weight/column bounds than given."""


class SymContext:
    """Cache of symmetric-power bases of one space up to a weight bound."""

    def __init__(self, space, bound):
        self.space = space
        self.bound = bound
        self.pb = [PowerBasis(space, SYMMETRIC, n) for n in range(bound + 1)]


def coder_lift_block(q, ctx, n):
    """Matrix of the coderivation lift of an arity-k map on the weight-n
    component, landing in weight n−k+1 (zero when n < k).

    Column t sums ε · q(t_sel) ⊙ t_rest over the k-subsets sel of t's
    positions, ε the shuffle sign.  A canonical t has canonical t_sel and
    t_rest, so t_sel is looked up in q's basis and the product with t_rest
    goes through ``PowerBasis.product``: nothing is sorted again."""
    k = q.arity
    out_w = n - k + 1
    pb_in = ctx.pb[n]
    if out_w < 0 or out_w > ctx.bound:
        return zeros(0, len(pb_in))
    pb_out = ctx.pb[out_w]
    m = zeros(len(pb_out), len(pb_in))
    product, q_index = pb_out.product, q.pb.index
    # q's nonzero (row, entry) pairs on each basis tuple
    q_cols = [[(a, row[c]) for a, row in enumerate(q.matrix) if row[c]]
              for c in range(len(q.pb))]
    degrees = ctx.space.degrees
    for c, t in enumerate(pb_in.elements):
        degs = [degrees[i] for i in t]
        for sel in combinations(range(n), k):
            head = q_cols[q_index(tuple(t[i] for i in sel))]
            if not head:
                continue
            eps = shuffle_sign(degs, sel)
            tail = tuple(t[i] for i in range(n) if i not in sel)
            for a, coeff in head:
                sign, r = product(a, tail)
                if sign:
                    m[r][c] += eps * sign * coeff
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
    declaration and every identity is asserted modulo that truncation.

    Coderivation lifts are memoized; ``set_q`` is the one way to change a
    q_n after construction, since it drops the stale ones."""

    def __init__(self, space, taylor, bound):
        self.space = space
        self.bound = bound
        self.ctx = SymContext(space, bound)
        self.taylor = {}
        for n, qn in taylor.items():
            if n < 1 or n > bound:
                raise ValueError("taylor coefficient outside arities 1..N "
                                 "of the weight bound")
            if qn.degree != 1:
                raise ValueError("taylor coefficients must have degree +1")
            if not qn.is_zero():
                self.taylor[n] = qn
        self._lifts = {}
        self._ce = {}

    def q(self, n):
        if n in self.taylor:
            return self.taylor[n]
        return PowerMap.zero(self.ctx.pb[n], self.space, 1) \
            if n <= self.bound else None

    def set_q(self, n, m):
        """Replace q_n by the matrix m (a zero m removes it), dropping the
        lifts of q_n and every coderivation complex, which read it."""
        if is_zero_mat(m):
            self.taylor.pop(n, None)
        else:
            self.taylor[n] = PowerMap(self.ctx.pb[n], self.space, 1, m)
        self._lifts = {key: b for key, b in self._lifts.items()
                       if key[0] != n}
        self._ce.clear()

    def lift(self, k, n):
        """``coder_lift_block`` of q_k on weight n: the weight n → n−k+1
        block of the codifferential.  Memoized and shared between calls:
        callers must not mutate it."""
        out = self._lifts.get((k, n))
        if out is None:
            out = self._lifts[(k, n)] = coder_lift_block(self.q(k), self.ctx,
                                                         n)
        return out

    def is_minimal(self):
        return 1 not in self.taylor


def _failures(labels, pb, n, residual):
    """One failure per nonzero column of a residual on the weight-n tuples:
    the weight, the tuple and its first nonzero entries."""
    out = []
    for c, t in enumerate(pb.elements):
        col = [row[c] for row in residual if row[c]]
        if col:
            out.append({"weight": n, "tuple": "⊙".join(labels[i] for i in t),
                        "residual": col[:4]})
    return out


def validate_linf(alg):
    """Check the quadratic relations mod weight truncation.

    q̂² is a coderivation, so it vanishes iff its corestriction to the
    cogenerators does: J_n = Σ_{k+m=n+1} q_m ∘ lift(q_k, n) for each
    weight n ≤ N.  A failure names the weight and basis tuple where J_n is
    nonzero, with its first residual entries; the first failing weight is
    the least weight on which q̂² is nonzero.
    """
    failures = []
    for n in range(1, alg.bound + 1):
        res = zeros(alg.space.dim, len(alg.ctx.pb[n]))
        for m, qm in alg.taylor.items():
            if m <= n and n - m + 1 in alg.taylor:
                res = mat_add(res, mat_mul(qm.matrix, alg.lift(n - m + 1, n)))
        failures += _failures(alg.space.labels, alg.ctx.pb[n], n, res)
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
        sgn = -parity_sign(v.degrees[i])
        for r, e in alg_l.bracket_column(i, j):
            m[r][c] = sgn * e
    taylor[2] = PowerMap(pb2, v, 1, m)
    return LInfinityAlgebra(v, taylor, bound)


def linf_structure(obj, weight):
    """The truncated L∞[1]-algebra the engine reads off ``obj`` at weight
    bound ``weight``: the décalage of a dg-Lie algebra, or an L∞[1]-algebra
    with its q_n for n > weight dropped.  A weight above the bound an
    L∞[1]-algebra was declared with is refused: its q_n there are unknown."""
    if weight < 2:
        raise ValueError(f"weight bound {weight} is below 2")
    if isinstance(obj, DgLieAlgebra):
        return decalage(obj, weight)
    if obj.bound < weight:
        raise InsufficientBounds(
            f"weight bound {weight} exceeds the input's declared weight "
            f"bound {obj.bound}")
    if obj.bound == weight:
        return obj
    return LInfinityAlgebra(
        obj.space, {n: q for n, q in obj.taylor.items() if n <= weight},
        weight)


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
        self._values = {t: v for t, v in self._values.items() if len(t) < j}

    @classmethod
    def from_linear(cls, source, target, matrix):
        return cls(source, target, {1: matrix})

    def component_value(self, tup):
        """f applied to a canonical tuple, as {weight j: {position in
        W^⊙j: entry}} over its nonzero entries only.

        The value is memoized and shared between calls: callers must not
        mutate it."""
        out = self._values.get(tup)
        if out is None:
            out = self._values[tup] = self._evaluate(tup)
        return out

    def _evaluate(self, tup):
        """Σ_B ε · f¹_{|B|}(x_B) ⊙ f(x_rest) over the blocks B ∋ 0: each set
        partition has exactly one block holding the first argument, and
        f(x_rest), on a shorter tuple, comes from the memo."""
        sctx, tctx = self.source.ctx, self.target.ctx
        n = len(tup)
        if n == 0:
            return {0: {0: Q1}}
        out = {}
        degs = [self.source.space.degrees[i] for i in tup]
        for k, comp in self.components.items():
            if k > n:
                continue
            pb = sctx.pb[k]
            for sel in combinations(range(1, n), k - 1):
                block = (0,) + sel
                # a sub-tuple of a canonical tuple is canonical
                c = pb.index(tuple(tup[i] for i in block))
                head = [(a, row[c]) for a, row in enumerate(comp) if row[c]]
                if not head:
                    continue
                rest = tuple(i for i in range(1, n) if i not in sel)
                eps = shuffle_sign(degs, block)
                tail_val = self.component_value(tuple(tup[i] for i in rest))
                for j, part in tail_val.items():
                    # the product has weight j + 1
                    if j >= tctx.bound:
                        continue
                    tails = tctx.pb[j].elements
                    product = tctx.pb[j + 1].product
                    acc = out.setdefault(j + 1, {})
                    for t_pos, v in part.items():
                        x = eps * v
                        for a, y in head:
                            s_out, r = product(a, tails[t_pos])
                            if s_out:
                                acc[r] = acc.get(r, 0) + s_out * x * y
        return {j: nonzero for j, acc in out.items()
                if (nonzero := {r: x for r, x in acc.items() if x})}

    def block(self, k, n):
        """Weight n → k block F_{k←n} of the coalgebra morphism, read from
        the memoized values (k at most the target's weight bound)."""
        pb_in = self.source.ctx.pb[n]
        m = zeros(len(self.target.ctx.pb[k]), len(pb_in))
        for c, t in enumerate(pb_in.elements):
            for r, x in self.component_value(t).get(k, {}).items():
                m[r][c] = x
        return m


def validate_linf_morphism(f):
    """Check f Q̂ = R̂ f on the truncated coalgebra (plus f(1) = 1).

    f Q̂ − R̂ f is a coderivation along f, so it vanishes iff its
    corestriction does: Σ_k f¹_{n−k+1} ∘ lift(q_k, n) = Σ_m r_m ∘ F_{m←n}
    for each weight n ≤ N, F_{m←n} the weight n → m block of f."""
    src, tgt = f.source, f.target
    failures = []
    for n in range(1, src.bound + 1):
        res = zeros(tgt.space.dim, len(src.ctx.pb[n]))
        for k in src.taylor:
            if k <= n:
                res = mat_add(res, mat_mul(f.f1(n - k + 1), src.lift(k, n)))
        for m, rm in tgt.taylor.items():
            if m <= n:
                res = mat_sub(res, mat_mul(rm.matrix, f.block(m, n)))
        failures += _failures(src.space.labels, src.ctx.pb[n], n, res)
    unit_ok = f.component_value(()).get(0) == {0: 1}
    return {"ok": not failures and unit_ok, "unit": unit_ok,
            "failures": failures}


def compose_morphisms(g, f):
    """g ∘ f through its corestriction: (g∘f)¹_j = Σ_k g¹_k ∘ F_{k←j}."""
    sctx = f.source.ctx
    comps = {}
    for j in range(1, sctx.bound + 1):
        m = zeros(g.target.space.dim, len(sctx.pb[j]))
        for k, gk in g.components.items():
            if k <= j:
                m = mat_add(m, mat_mul(gk, f.block(k, j)))
        comps[j] = m
    return LInfinityMorphism(f.source, g.target, comps)


def identity_morphism(alg):
    return LInfinityMorphism.from_linear(alg, alg, identity(alg.space.dim))


def exp_coderivation(alg, alpha):
    """Conjugate the structure by exp of the lift of a degree-0 map of
    arity a ≥ 2.

    Returns (new LInfinityAlgebra R with r = e^{−α̂} q e^{α̂}, morphism
    e^{α̂}: (V,R) → (V,Q)), both through corestrictions:
    r = Σ_i (−1)^i/i! ad_α^i(q) with ad_α = [α, −]_NR, and the component of
    e^{α̂} on weight i(a−1)+1 is (1/i!) α ∘ α̂ ∘ … ∘ α̂ (i factors).
    """
    if alpha.degree != 0 or alpha.arity < 2:
        raise ValueError("gauge generator must be a degree-0 map of arity ≥ 2")
    a, ctx = alpha.arity, alg.ctx
    taylor, term, i = dict(alg.taylor), alg.taylor, 0
    while term:
        # term = (−1)^i/i! ad_α^i(q), by arity
        i += 1
        term = {k + a - 1: nr_bracket(alpha, t, ctx).scale(Fraction(-1, i))
                for k, t in term.items() if k + a - 1 <= alg.bound}
        for j, t in term.items():
            taylor[j] = taylor[j].add(t) if j in taylor else t
    comps, chain = {1: identity(alg.space.dim)}, alpha.matrix
    for i, j in enumerate(range(a, alg.bound + 1, a - 1), 1):
        if i > 1:
            chain = [[x / i for x in row] for row in
                     mat_mul(chain, coder_lift_block(alpha, ctx, j))]
        comps[j] = chain
    new_alg = LInfinityAlgebra(alg.space, dict(sorted(taylor.items())),
                               alg.bound)
    return new_alg, LInfinityMorphism(new_alg, alg, comps)


def _product_column(q, a, tail):
    """q(a ⊙ tail) for a canonical ``tail``, as nonzero (row, entry) pairs."""
    sign, c = q.pb.product(a, tail)
    if not sign:
        return []
    return [(r, sign * row[c]) for r, row in enumerate(q.matrix) if row[c]]


class LinfCeComplex(ColumnComplex):
    """Column-truncated complex of relative coderivations along a morphism
    f: (V, Q) → (W, R), graded by map degree and filtered by the least
    nonvanishing arity: column p is Hom*(V^⊙p, W).  Along the identity of
    (V, Q), ``block(p, j)`` is the matrix of [q_{j−p+1}, −]_NR."""

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
        """dα = Rα̂ − (−1)^{ᾱ} α Q̂ corestricted, as one sparse block
        {(row, col): entry} per column pair p ≤ j covering every basis map
        α of column p at once."""
        tgt = self.f.target
        # r_k(w ⊙ y) for every target basis vector w and weight-(k−1)
        # tuple y, as nonzero (row, entry) pairs
        r_on = {k: [[_product_column(rk, w, y) for w in range(tgt.space.dim)]
                    for y in tgt.ctx.pb[k - 1].elements]
                for k, rk in tgt.taylor.items()}
        blocks = {}
        for p in range(self.l):
            for j in range(p, self.l):
                m = {}
                self._add_r_part(m, p, j, r_on)
                self._add_q_part(m, p, j)
                blocks[(p, j)] = m
        return blocks

    def _add_r_part(self, m, p, j, r_on):
        """Σ_k r_k(α(u_sel) ⊙ f(u_rest)), walking each weight-j tuple u and
        p-subset sel of its positions once: u_sel is the canonical basis
        tuple of the maps α it feeds, and f is evaluated once on u_rest,
        whose weight-w part meets r_{w+1}."""
        f = self.f
        src = f.source
        pb = src.ctx.pb[p]
        col, out = self.columns[p], self.columns[j]
        for u_pos, u in enumerate(src.ctx.pb[j].elements):
            degs = [src.space.degrees[i] for i in u]
            rows = out.flat[u_pos]
            for sel in combinations(range(j), p):
                cols = col.flat[pb.index(tuple(u[i] for i in sel))]
                rest = tuple(i for i in range(j) if i not in sel)
                eps = shuffle_sign(degs, sel)
                fval = f.component_value(tuple(u[i] for i in rest))
                for w, part in fval.items():
                    r_k = r_on.get(w + 1)
                    if r_k is None:
                        continue
                    for y_pos, coeff in part.items():
                        x = eps * coeff
                        for pos, pairs in zip(cols, r_k[y_pos]):
                            for r, v in pairs:
                                key = (rows[r], pos)
                                m[key] = m.get(key, 0) + v * x

    def _add_q_part(self, m, p, j):
        """−(−1)^{ᾱ} α ∘ Q̂ from weight j to weight p, through the
        memoized coderivation lift of q_{j−p+1}."""
        src, tgt = self.f.source, self.f.target
        if j - p + 1 not in src.taylor:
            return
        pb = src.ctx.pb[p]
        col, out = self.columns[p], self.columns[j]
        for t_pos, brow in enumerate(src.lift(j - p + 1, j)):
            tdeg = pb.degree(t_pos)
            for u_pos, x in enumerate(brow):
                if not x:
                    continue
                rows = out.flat[u_pos]
                for w, pos in enumerate(col.flat[t_pos]):
                    key = (rows[w], pos)
                    m[key] = m.get(key, 0) + \
                        (x if (tgt.space.degrees[w] - tdeg) & 1 else -x)


def ce_linf_self(alg, l):
    """C_CE(V, V) on l columns, the coderivation complex of the identity,
    whose block from column p to column j is [q_{j−p+1}, −]_NR.  One
    complex per column bound is kept on ``alg``, beside its lifts, so the
    gauge's failing stage and the obstruction check share it."""
    ce = alg._ce.get(l)
    if ce is None:
        ce = alg._ce[l] = LinfCeComplex(identity_morphism(alg), l)
    return ce


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
    if g.bracket_column(d_i, d_i):
        raise ValueError("the inner derivation does not square to zero")
    n_set = set(n_idx)
    for i in n_idx:
        for j in n_idx:
            if any(r not in n_set for r, _ in g.bracket_column(i, j)):
                raise ValueError("subalgebra is not bracket-closed")
    for i in a_idx:
        for j in a_idx:
            if g.bracket_column(i, j):
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
