from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ceformality.linalg import (
    Quotient, Subspace, dense_vec, identity, mat_mul, mat_vec, nullspace,
    rank, rref, solve, solve_matrix, sparse_vec, transpose,
)
from linf_oracle import solve_right
from page_oracle import intersect

F = Fraction


def subspace(n, vecs):
    """The span of dense vectors, handed to ``Subspace`` as sparse ones."""
    return Subspace(n, map(sparse_vec, vecs))


def dense_basis(s):
    return [dense_vec(row, s.ambient) for row in s.basis]


def test_rref_simple():
    a = [[F(1), F(2)], [F(2), F(4)]]
    r, piv = rref(a)
    assert piv == [0]
    assert r[0] == [F(1), F(2)]
    assert r[1] == [F(0), F(0)]


def test_rref_pivot_order_deterministic():
    # pivot picked in leftmost column with a nonzero entry, topmost row
    a = [[F(0), F(1)], [F(1), F(0)], [F(1), F(1)]]
    r, piv = rref(a)
    assert piv == [0, 1]
    assert r[0][0] == 1 and r[0][1] == 0
    assert r[1][1] == 1


def test_solve_consistent_and_inconsistent():
    a = [[F(1), F(1)], [F(0), F(1)]]
    x = solve(a, [F(3), F(1)])
    assert x == [F(2), F(1)]
    a = [[F(1), F(1)], [F(1), F(1)]]
    assert solve(a, [F(0), F(1)]) is None


def test_solve_picks_echelon_least_solution():
    # underdetermined: free variables are set to zero
    a = [[F(1), F(1), F(0)]]
    x = solve(a, [F(5)])
    assert x == [F(5), F(0), F(0)]
    assert mat_vec(a, x) == [F(5)]


def test_solve_matrix_and_right():
    a = [[F(2), F(0)], [F(0), F(3)]]
    y = identity(2)
    x = solve_matrix(a, y)
    assert mat_mul(a, x) == y
    z = solve_right(a, y)
    assert mat_mul(z, a) == y


def test_nullspace_basis():
    a = [[F(1), F(2), F(3)]]
    ns = nullspace(a)
    assert len(ns) == 2
    for v in ns:
        assert mat_vec(a, v) == [F(0)]
    assert rank(ns) == 2


def test_subspace_membership_and_coordinates():
    s = subspace(3, [[F(1), F(0), F(1)], [F(0), F(1), F(1)]])
    assert s.contains({0: F(1), 1: F(1), 2: F(2)})
    assert not s.contains({0: F(1)})
    coords = s.coordinates({0: F(2), 1: F(-1), 2: F(1)})
    assert coords == [F(2), F(-1)]


def test_subspace_sum_intersect():
    a = subspace(3, [[F(1), F(0), F(0)], [F(0), F(1), F(0)]])
    b = subspace(3, [[F(0), F(1), F(0)], [F(0), F(0), F(1)]])
    i = intersect(a, b)
    assert i.dim == 1
    assert i.contains({1: F(1)})


def test_quotient_coordinates():
    z = subspace(3, [[F(1), F(0), F(0)], [F(0), F(1), F(0)]])
    b = subspace(3, [[F(1), F(0), F(0)]])
    q = Quotient(z, b)
    assert q.dim == 1
    assert all(c == 0 for c in q.coordinates({0: F(7)}))
    assert not all(c == 0 for c in q.coordinates({1: F(1)}))
    c = q.coordinates({0: F(3), 1: F(2)})
    assert len(c) == 1 and c[0] == F(2)


small_fracs = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


@given(st.lists(st.lists(small_fracs, min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_rref_is_idempotent(rows):
    r, piv = rref(rows)
    r2, piv2 = rref(r)
    assert r == r2 and piv == piv2


@given(st.lists(st.lists(small_fracs, min_size=2, max_size=2),
                min_size=2, max_size=4),
       st.lists(small_fracs, min_size=2, max_size=2))
def test_solve_round_trip(a, x):
    cols = len(a[0])
    b = mat_vec(a, x[:cols])
    got = solve(a, b)
    assert got is not None
    assert mat_vec(a, got) == b


def test_rank_nullity():
    a = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    assert rank(a) + len(nullspace(a)) == 3


# -- the echelon kernel against an independent Gauss–Jordan elimination ----

sparse_fracs = st.one_of(st.just(F(0)), st.just(F(0)), small_fracs)


def vectors(n, max_size):
    return st.lists(st.lists(sparse_fracs, min_size=n, max_size=n),
                    max_size=max_size)


def gauss_jordan(a):
    """Reduced row echelon form (R, pivots) by whole-matrix Gauss–Jordan
    elimination: leftmost nonzero column, topmost nonzero entry, pivot
    normalized to 1, column cleared above and below.  The oracle of the
    kernel, which builds the same unique form row by row."""
    m = [[F(x) for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def echelon_reference(vecs):
    """The oracle's echelon basis (nonzero rows) and pivots."""
    r, pivots = gauss_jordan(vecs)
    return r[:len(pivots)], pivots


def solve_reference(a, b):
    """Echelon-least solution from the oracle's elimination of [A | b]."""
    cols = len(a[0]) if a else 0
    r, pivots = gauss_jordan([row + [b[i]] for i, row in enumerate(a)])
    if cols in pivots:
        return None
    x = [F(0)] * cols
    for i, c in enumerate(pivots):
        x[c] = r[i][cols]
    return x


def quotient_reps_reference(z, b):
    """Representatives by re-eliminating the span for every candidate."""
    span = dense_basis(b)
    reps = []
    for v in dense_basis(z):
        if len(gauss_jordan(span + [v])[1]) > len(gauss_jordan(span)[1]):
            reps.append(v)
            span.append(v)
    return reps


@given(vectors(4, 4), vectors(4, 5))
def test_extend_equals_rebuild(seed, extra):
    s = subspace(4, seed)
    for v in extra:
        basis, pivots = echelon_reference(dense_basis(s) + [v])
        grew = len(pivots) > s.dim
        assert s.extend(sparse_vec(v)) == grew
        assert dense_basis(s) == basis and s.pivots == pivots


mixed_entries = st.one_of(st.just(0), st.integers(-4, 4), small_fracs)


@st.composite
def matrices(draw):
    """Wide, tall and square matrices of ints and Fractions, with zero and
    repeated rows and zero columns mixed in."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    a = draw(st.lists(st.lists(mixed_entries, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    for _ in range(draw(st.integers(0, 2))):
        if a:
            a.insert(draw(st.integers(0, len(a))),
                     list(draw(st.sampled_from(a))))
    if draw(st.booleans()):
        a.insert(draw(st.integers(0, len(a))), [0] * cols)
    if cols:
        for c in draw(st.lists(st.integers(0, cols - 1), max_size=2)):
            for row in a:
                row[c] = 0
    return cols, a


@given(matrices())
def test_rref_and_subspace_equal_gauss_jordan(shape):
    cols, a = shape
    r, pivots = rref(a)
    assert (r, pivots) == gauss_jordan(a)
    assert not any(type(x) is float for row in r for x in row)
    s = subspace(cols, a)
    assert (dense_basis(s), s.pivots) == echelon_reference(a)


@given(vectors(6, 4), vectors(6, 6))
def test_sparse_rows_stay_reduced_after_every_extend(seed, extra):
    s = subspace(6, seed)
    added = list(seed)
    for v in extra:
        s.extend(sparse_vec(v))
        added.append(v)
        assert all(x for row in s.basis for x in row.values())
        assert all(a < b for a, b in zip(s.pivots, s.pivots[1:]))
        for row, pc in zip(s.basis, s.pivots):
            assert row[pc] == 1
            assert not set(row).intersection(s.pivots) - {pc}
        assert (dense_basis(s), s.pivots) == echelon_reference(added)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), st.data())
def test_solve_matrix_equals_columnwise_solve(rows, cols, k, data):
    a = data.draw(st.lists(st.lists(sparse_fracs, min_size=cols,
                                    max_size=cols),
                           min_size=rows, max_size=rows))
    y = data.draw(st.lists(st.lists(sparse_fracs, min_size=k, max_size=k),
                           min_size=rows, max_size=rows))
    want = [solve_reference(a, col) for col in transpose(y)]
    assert [solve(a, col) for col in transpose(y)] == want
    got = solve_matrix(a, y)
    if any(w is None for w in want):
        assert got is None
    else:
        assert got == transpose(want)


def test_solve_matrix_inconsistent_column_gives_none():
    a = [[F(1), F(1)], [F(1), F(1)]]
    y = [[F(2), F(0)], [F(2), F(1)]]
    assert solve(a, [F(2), F(2)]) == [F(2), F(0)]
    assert solve_matrix(a, y) is None


@given(vectors(5, 4), st.data())
def test_quotient_coordinates_equal_a_fresh_solve(zvecs, data):
    z = subspace(5, zvecs)
    zb = dense_basis(z)
    pick = st.lists(st.lists(sparse_fracs, min_size=z.dim, max_size=z.dim),
                    max_size=3)
    combos = data.draw(pick)
    b = subspace(5, [[sum((c * v[i] for c, v in zip(cs, zb)), F(0))
                      for i in range(5)] for cs in combos])
    q = Quotient(z, b)
    reps = [dense_vec(v, 5) for v in q.reps]
    assert reps == quotient_reps_reference(z, b)
    for cs in data.draw(pick):
        v = [sum((c * zv[i] for c, zv in zip(cs, zb)), F(0))
             for i in range(5)]
        x = solve(transpose(dense_basis(b) + reps), v) if z.dim else []
        assert q.coordinates(sparse_vec(v)) == x[b.dim:]


def test_quotient_rejects_b_outside_z():
    z = subspace(3, [[F(1), F(0), F(0)]])
    b = subspace(3, [[F(0), F(1), F(0)]])
    with pytest.raises(AssertionError):
        Quotient(z, b)


def test_solve_with_an_empty_right_hand_side():
    # an empty Y has lost its row count; X then has no columns (or rows)
    a = [[F(0), F(-1)], [F(0), F(0)]]
    assert solve_matrix(a, []) == [[], []]
    assert solve_right(a, []) == []
