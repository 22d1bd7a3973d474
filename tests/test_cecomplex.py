from fractions import Fraction
from itertools import compress
from types import SimpleNamespace

import pytest

from ceformality.cecomplex import (
    CeBicomplex, ColumnComplex, build_ce, ce_delta_bar_on, ce_delta_on,
    form_column, pushforward_matrix,
)
from ceformality.cli import _algebra
from ceformality.dgla import DgLieAlgebra, adjoint_module
from ceformality.graded import GradedMap, GradedVectorSpace
from ceformality.linalg import (
    Q0, Q1, is_zero_mat, mat_mul, mat_vec, zero_vec, zeros,
)
from ceformality.linf import (
    LInfinityMorphism, LinfCeComplex, ce_linf_self, decalage, linf_structure,
)
from ceformality.problems import parse_problem
from ceformality.specseq import Barcode, FilteredTotalComplex
from dgla_oracle import act, identity_map, module_via_morphism
from page_oracle import ce_first_page_check, sparse_columns
from test_cli import end_u, voronov

F = Fraction


def affine2():
    return DgLieAlgebra.from_data(
        {0: ["h", "e"]}, {}, {("h", "e"): [("e", 1)]})


def contractible2():
    return DgLieAlgebra.from_data(
        {0: ["a"], 1: ["b"]}, {"a": [("b", 1)]}, {})


def unit(n, i):
    v = zero_vec(n)
    v[i] = Q1
    return v


def evaluate(col, vec, args):
    """Value of the form ``vec`` of the column ``col`` on an arbitrary index
    tuple, in its target."""
    out = zero_vec(col.target.space.dim)
    sign, canon = col.pb.normalize(args)
    if sign == 0 or canon not in col.pb._index:
        return out
    for w, pos in enumerate(col.flat[col.pb.index(canon)]):
        c = vec[pos]
        if c:
            out[w] += sign * c
    return out


def test_delta_bar_p0_is_module_differential():
    L = contractible2()
    mod = adjoint_module(L)
    col = form_column(L, mod, 0)
    mat = ce_delta_bar_on(col)
    # on the p=0 column the vertical differential is just d_M
    for m_idx in range(2):
        c = col.index(0, m_idx)
        got = [mat[r][c] for r in range(col.space.dim)]
        want = zero_vec(col.space.dim)
        dm = mod.differential.apply(unit(2, m_idx))
        for r, val in enumerate(dm):
            if val:
                want[col.index(0, r)] = val
        assert got == want


def test_delta_bar_zero_when_differentials_vanish():
    L = affine2()
    mod = adjoint_module(L)
    for p in range(3):
        assert is_zero_mat(ce_delta_bar_on(form_column(L, mod, p)))


def test_delta_bar_is_hom_complex_differential():
    # single generator a in degree 0, b in degree 1, d(a)=b, zero bracket:
    # on Hom(L, L) the vertical differential must be φ ↦ d∘φ − (−1)^{φ̄} φ∘d
    L = contractible2()
    mod = adjoint_module(L)
    col = form_column(L, mod, 1)
    mat = ce_delta_bar_on(col)
    n = col.space.dim
    assert n == 4
    for t_pos in range(2):
        for m_idx in range(2):
            c = col.index(t_pos, m_idx)
            phi_deg = col.space.degrees[c]
            got = [mat[r][c] for r in range(n)]
            want = zero_vec(n)
            # d∘φ part: φ(x_t) = e_m, so value d(e_m) on x_t
            dm = mod.differential.apply(unit(2, m_idx))
            for r, val in enumerate(dm):
                if val:
                    want[col.index(t_pos, r)] += val
            # −(−1)^{φ̄} φ∘d part: for each source s with d(e_s) ⊇ e_t
            for s in range(2):
                coeff = L.differential.matrix[t_pos][s]
                if coeff:
                    want[col.index(s, m_idx)] += -((-1) ** phi_deg) * coeff
            assert got == want


def test_delta_on_identity_gives_bracket():
    # (δ Id)(x, y) = (−1)^{x̄ȳ}[y, x] = −[x, y] for even arguments
    L = affine2()
    mod = adjoint_module(L)
    src = form_column(L, mod, 1)
    dst = form_column(L, mod, 2)
    mat = ce_delta_on(src, dst)
    phi = zero_vec(src.space.dim)
    phi[src.index(0, 0)] = Q1  # h => h
    phi[src.index(1, 1)] = Q1  # e => e
    img = mat_vec(mat, phi)
    val = evaluate(dst, img, (0, 1))  # on h ∧ e
    assert val == [-c for c in L.bracket_vec(unit(2, 0), unit(2, 1))] \
        == [F(0), F(-1)]


def test_delta_p0_formula():
    # (δ m)(x) = (−1)^{m̄} [m, x]
    L = affine2()
    mod = adjoint_module(L)
    src = form_column(L, mod, 0)
    dst = form_column(L, mod, 1)
    mat = ce_delta_on(src, dst)
    for m_idx in range(2):
        phi = zero_vec(src.space.dim)
        phi[src.index(0, m_idx)] = Q1
        img = mat_vec(mat, phi)
        for x in range(2):
            got = evaluate(dst, img, (x,))
            want = act(mod, unit(2, m_idx), unit(2, x))
            assert got == want


def test_delta_kernel_is_derivations():
    # kernel of δ: Hom(L,M) → Hom(Λ²L,M) = derivations L→M
    L = affine2()
    mod = adjoint_module(L)
    src = form_column(L, mod, 1)
    dst = form_column(L, mod, 2)
    mat = ce_delta_on(src, dst)
    from ceformality.linalg import nullspace
    ker = nullspace(mat)
    # independent derivation check on [h,e]=e: φ(e) = [φ(h), e] + [h, φ(e)]
    for phi in ker:
        lhs = evaluate(src, phi, (1,))
        rhs_a = L.bracket_vec(evaluate(src, phi, (0,)), unit(2, 1))
        rhs_b = L.bracket_vec(unit(2, 0), evaluate(src, phi, (1,)))
        assert lhs == [a + b for a, b in zip(rhs_a, rhs_b)]
    # dimension: derivations of the affine algebra form a 2-dim space
    assert len(ker) == 2


def test_bicomplex_identities_affine2():
    L = affine2()
    mod = adjoint_module(L)
    bi = CeBicomplex(L, mod, 3)  # constructor asserts the three identities
    assert bi.total.space.dim == 8
    assert bi.total.length == 3


def test_bicomplex_identities_with_differential():
    L = DgLieAlgebra.from_data(
        {0: ["a", "c"], 1: ["b"]},
        {"a": [("b", 1)]},
        {("c", "a"): [("a", 1)], ("c", "b"): [("b", 1)]})
    from ceformality.dgla import dgla_is_valid
    assert dgla_is_valid(L)
    CeBicomplex(L, adjoint_module(L), 3)


def test_build_ce_l1_is_module_complex():
    L = contractible2()
    mod = adjoint_module(L)
    ftc = build_ce(L, mod, 1)
    assert ftc.space.dim == 2
    assert ftc.levels == [0, 0]
    assert ftc.differential.matrix[ftc.space.index("p0|1=>b")][
        ftc.space.index("p0|1=>a")] == 1


def test_total_degree_zero_count():
    L = affine2()
    mod = adjoint_module(L)
    ftc = build_ce(L, mod, 3)
    # columns contribute 2 + 4 + 2 basis elements, all in total degree p
    assert ftc.space.dim_in_degree(0) == 2
    assert ftc.space.dim_in_degree(1) == 4
    assert ftc.space.dim_in_degree(2) == 2


def test_first_page_check_trivial_differential():
    L = affine2()
    rep = ce_first_page_check(L, adjoint_module(L), 3)
    assert rep["ok"]


def test_first_page_check_acyclic():
    L = contractible2()
    rep = ce_first_page_check(L, adjoint_module(L), 3)
    assert rep["ok"]
    for cell in rep["cells"]:
        if cell["p"] >= 1:
            assert cell["e1_dim"] == 0


def test_first_page_check_acyclic_plus_point():
    L = DgLieAlgebra.from_data(
        {0: ["a", "c"], 1: ["b"]}, {"a": [("b", 1)]}, {})
    rep = ce_first_page_check(L, adjoint_module(L), 3)
    assert rep["ok"]
    by_cell = {(c["p"], c["q"]): c for c in rep["cells"]}
    # H is 1-dim in degree 0, so E1^{1,q} = Hom^q(H, H) is 1-dim at q=0
    assert by_cell[(1, 0)]["e1_dim"] == 1


def test_pushforward_is_a_filtered_chain_map():
    L = affine2()
    f = identity_map(L.space)
    mod = module_via_morphism(f, L, L)
    # the projection onto the abelian quotient spanned by h, acting on the
    # coderivation complexes of the décalages
    ab = DgLieAlgebra.from_data({0: ["h"]}, {}, {})
    proj = GradedMap(L.space, ab.space, 0, [[Q1, F(0)]])
    dec_l, dec_ab = decalage(L, 2), decalage(ab, 2)
    cases = [
        (f, CeBicomplex(L, adjoint_module(L), 3), CeBicomplex(L, mod, 3)),
        (proj, ce_linf_self(dec_l, 3), LinfCeComplex(
            LInfinityMorphism.from_linear(dec_l, dec_ab, proj.matrix), 3)),
    ]
    for g, src, dst in cases:
        cols = pushforward_matrix(g, src, dst)
        push = [[col.get(r, Q0) for col in cols]
                for r in range(dst.total.space.dim)]
        assert mat_mul(push, src.total.differential.matrix) == \
            mat_mul(dst.total.differential.matrix, push)


# -- the dense assembly, kept as the reference for the sparse columns ------


def dense_checks(d, levels):
    """The dense filtration, then d² = 0, scans over the support of each
    row of a dense total differential."""
    support = [list(compress(range(len(d)), row)) for row in d]
    for r, cols in enumerate(support):
        if any(levels[r] < levels[c] for c in cols):
            raise ValueError("differential does not respect the filtration")
    for row, cols in zip(d, support):
        acc = {}
        for k in cols:
            x, drow = row[k], d[k]
            for c in support[k]:
                acc[c] = acc.get(c, 0) + x * drow[c]
        if any(acc.values()):
            raise ValueError("total differential does not square to zero")


def dense_assemble(ce, blocks, shift, check):
    """The total complex of ``ce`` from dense blocks ``blocks[(p, p2)]``,
    filled into one dense matrix and checked by ``GradedMap``'s
    homogeneity scan and ``dense_checks``.  Returns (space, d, levels)."""
    order = sorted((q + shift * p, p, i)
                   for p, col in enumerate(ce.columns)
                   for i, q in enumerate(col.space.degrees))
    comps = {}
    glob = [[0] * col.space.dim for col in ce.columns]
    for g, (n, p, i) in enumerate(order):
        comps.setdefault(n, []).append(
            f"p{p}|{ce.columns[p].space.labels[i]}")
        glob[p][i] = g
    space = GradedVectorSpace(comps)
    dmat = zeros(space.dim, space.dim)
    for (p, p2), block in blocks.items():
        rows, cols = glob[p2], glob[p]
        for r, brow in enumerate(block):
            drow = dmat[rows[r]]
            for c, x in enumerate(brow):
                if x:
                    drow[cols[c]] += x
    diff = GradedMap(space, space, 1, dmat, check=check)
    levels = [p for _n, p, _i in order]
    if check:
        dense_checks(dmat, levels)
    return space, diff, levels


def dense_block(block, rows, cols):
    m = zeros(rows, cols)
    for (r, c), x in block.items():
        m[r][c] += x
    return m


def oracle_complex(name, l, kind):
    """(column complex, its dense reference (space, d, levels)) for End(U_1)
    or voronov<n>, as the coderivation complex the CLI reads or as the
    alternating-forms bicomplex of the dg-Lie algebra."""
    problem = parse_problem(end_u(1) if name == "end_u1"
                            else voronov(int(name[len("voronov"):])))
    if kind == "bicomplex":
        alg = problem["algebra"]
        ce = CeBicomplex(alg, adjoint_module(alg), l)
        blocks = {(p, p): db for p, db in enumerate(ce.delta_bar)}
        blocks.update(((p, p + 1), dd) for p, dd in enumerate(ce.delta))
        return ce, dense_assemble(ce, blocks, shift=1, check=False)
    ce = ce_linf_self(linf_structure(_algebra(problem, 5), 5), l)
    dims = [col.space.dim for col in ce.columns]
    blocks = {key: dense_block(b, dims[key[1]], dims[key[0]])
              for key, b in ce._blocks().items()}
    return ce, dense_assemble(ce, blocks, shift=0, check=True)


# the dense reference holds dim² entries, so the complexes above 1600
# dimensions are left out: End(U_1) at l = 5 (4050 dimensions either way)
# and the voronov5/voronov6 bicomplexes at l = 5 (2058 and 3600)
TOO_WIDE = {("end_u1", 5, "linf"), ("end_u1", 5, "bicomplex"),
            ("voronov5", 5, "bicomplex"), ("voronov6", 5, "bicomplex")}
ORACLE_CASES = [
    (name, l, kind)
    for name in ["end_u1"] + [f"voronov{n}" for n in range(3, 7)]
    for l in range(2, 6) for kind in ("linf", "bicomplex")
    if (name, l, kind) not in TOO_WIDE]


@pytest.mark.parametrize("name, l, kind", ORACLE_CASES,
                         ids=[f"{n}-l{l}-{k}" for n, l, k in ORACLE_CASES])
def test_sparse_total_complex_equals_dense_assembly(name, l, kind):
    ce, (space, diff, levels) = oracle_complex(name, l, kind)
    ftc = ce.total
    assert ftc.space.labels == space.labels and ftc.levels == levels
    # every column entry is nonzero, so the columns are the dense d's
    assert all(all(col.values()) for col in ftc.columns)
    assert ftc._differential is None
    assert ftc.differential.matrix == diff.matrix
    assert ftc.differential is ftc.differential
    d = diff.matrix
    for p in range(l):
        for j in range(l):
            assert ce.block(p, j) == [[d[r][c] for c in ce._glob[p]]
                                      for r in ce._glob[j]], (p, j)
    ref = Barcode(FilteredTotalComplex(space, sparse_columns(diff), levels, l,
                                       check=False))
    bc = Barcode(ftc)
    assert (bc.pairs, bc.unpaired) == (ref.pairs, ref.unpaired)


# -- each check of the total complex rejects its own fault -----------------

# (columns as {degree: labels} per filtration level, entries as
# (level, label) → (level, label), the message); each of the first three
# breaks one invariant, and the last breaks two, of which the filtration is
# checked first
BROKEN = {
    "lowers_level": ([{1: ["a"]}, {0: ["b"]}], [((1, "b"), (0, "a"))],
                     "differential does not respect the filtration"),
    "d_squared": ([{0: ["a"], 1: ["b"], 2: ["c"]}],
                  [((0, "a"), (0, "b")), ((0, "b"), (0, "c"))],
                  "total differential does not square to zero"),
    "wrong_degree": ([{0: ["a"], 2: ["c"]}], [((0, "a"), (0, "c"))],
                     r"entry \('p0\|c', 'p0\|a'\) violates degree 1 "
                     "homogeneity"),
    "lowers_level_and_d_squared": (
        [{1: ["b"], 2: ["c"]}, {0: ["a"]}],
        [((1, "a"), (0, "b")), ((0, "b"), (0, "c"))],
        "differential does not respect the filtration"),
}


def hand_complex(columns):
    cc = ColumnComplex()
    cc.columns = [SimpleNamespace(space=GradedVectorSpace(c))
                  for c in columns]
    return cc


def hand_blocks(cc, entries, dense):
    blocks = {}
    for (p, src), (p2, dst) in entries:
        s, t = cc.columns[p].space, cc.columns[p2].space
        if dense:
            block = blocks.setdefault((p, p2), zeros(t.dim, s.dim))
            block[t.index(dst)][s.index(src)] = Q1
        else:
            blocks.setdefault((p, p2), {})[(t.index(dst), s.index(src))] = Q1
    return blocks


def through_sparse_blocks(columns, entries):
    cc = hand_complex(columns)
    return cc._assemble(hand_blocks(cc, entries, dense=False), shift=0,
                        check=True)


def through_dense_reference(columns, entries):
    cc = hand_complex(columns)
    return dense_assemble(cc, hand_blocks(cc, entries, dense=True), shift=0,
                          check=True)


def through_dense_map(columns, entries):
    comps = {}
    for p, col in enumerate(columns):
        for n, labels in col.items():
            comps.setdefault(n, []).extend(f"p{p}|{x}" for x in labels)
    space = GradedVectorSpace(comps)
    images = {}
    for (p, src), (p2, dst) in entries:
        images.setdefault(f"p{p}|{src}", []).append((f"p{p2}|{dst}", 1))
    d = GradedMap.from_images(space, space, 1, images)
    levels = [int(lab[1:lab.index("|")]) for lab in space.labels]
    return FilteredTotalComplex(space, sparse_columns(d), levels,
                                len(columns))


@pytest.mark.parametrize("build", [
    through_sparse_blocks, through_dense_map, through_dense_reference])
@pytest.mark.parametrize("fault", sorted(BROKEN))
def test_total_complex_checks_reject_each_fault(build, fault):
    columns, entries, message = BROKEN[fault]
    with pytest.raises(ValueError, match=message):
        build(columns, entries)
