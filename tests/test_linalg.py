"""Exact sparse solvers: checked against their own defining equations and
against a plain dense reduced row echelon form."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrmat.linalg import (
    Echelon,
    SparseMatrix,
    flip_matrix,
    inverse,
    kernel,
    kron_matrix,
    kron_vec,
    rank,
    rref,
    solve,
    solve_many,
    v_add,
    v_eq,
    v_is_zero,
    v_scale,
)
from qrmat.qscalar import FieldElement, ONE, Q, QLaurent, ZERO


def rand_scalar(rng) -> FieldElement:
    n = rng.randint(0, 2)
    return FieldElement(QLaurent({rng.randint(-2, 2): rng.randint(-3, 3) for _ in range(n)}))


def rand_matrix(rng, n, m, density=0.6) -> SparseMatrix:
    rows = {}
    for i in range(n):
        for j in range(m):
            if rng.random() < density:
                rows.setdefault(i, {})[j] = rand_scalar(rng)
    return SparseMatrix(n, m, rows)


@pytest.mark.parametrize("seed", range(12))
def test_rank_nullity_and_kernel(seed):
    rng = random.Random(seed)
    a = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
    ker = kernel(a)
    assert rank(a) + len(ker) == a.ncols
    for v in ker:
        assert v_is_zero(a.apply(v))
        assert v  # basis vectors are nonzero


@pytest.mark.parametrize("seed", range(12))
def test_solve_consistency(seed):
    rng = random.Random(100 + seed)
    a = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
    x = {j: rand_scalar(rng) for j in range(a.ncols)}
    b = a.apply(x)
    got = solve(a, b)
    assert got is not None
    assert v_eq(a.apply(got), b)


@pytest.mark.parametrize("seed", range(8))
def test_inverse(seed):
    rng = random.Random(200 + seed)
    n = rng.randint(1, 5)
    a = rand_matrix(rng, n, n, density=0.8)
    if rank(a) < n:
        with pytest.raises(ValueError):
            inverse(a)
        return
    ainv = inverse(a)
    assert (a @ ainv).is_identity()
    assert (ainv @ a).is_identity()


def test_degenerate_and_inconsistent_systems_are_flagged():
    a = SparseMatrix.from_triplets(2, 2, [(0, 0, ONE), (1, 0, ONE)])
    assert kernel(a) == [{1: ONE}]  # a solution would not be unique
    with pytest.raises(ValueError):
        inverse(a)
    assert solve(a, {0: ONE, 1: -ONE}) is None  # inconsistent


def test_solve_many_mixed():
    a = SparseMatrix.from_triplets(2, 1, [(0, 0, ONE)])
    good, bad = solve_many(a, [{0: ONE}, {1: ONE}])
    assert good == {0: ONE}
    assert bad is None


def test_solve_refuses_a_right_hand_side_row_the_matrix_lacks():
    # row 5 asks for 0 = 1; dropping it would answer a different system
    a = SparseMatrix(1, 1, {0: {0: ONE}})
    with pytest.raises(ValueError, match="row 5"):
        solve(a, {0: ONE, 5: ONE})
    with pytest.raises(ValueError, match="row 1"):
        solve_many(a, [{0: ONE}, {1: ONE}])
    assert solve(a, {0: ONE, 5: ZERO}) == {0: ONE}  # a stored zero asks nothing


def test_coords_in_basis():
    basis = SparseMatrix.from_columns([{0: ONE, 1: ONE}, {1: ONE}], 3)
    c = solve(basis, {0: ONE + ONE, 1: ONE})
    assert c is not None
    two = ONE + ONE
    recon = v_add({0: two, 1: ONE}, v_scale(
        {k: v for k, v in ((0, c.get(0, ZERO)), (1, c.get(0, ZERO) + c.get(1, ZERO))) if not v.is_zero()},
        -ONE))
    assert v_is_zero(recon)
    assert solve(basis, {2: ONE}) is None


def test_matrix_algebra_shapes():
    a = SparseMatrix.identity(3)
    b = rand_matrix(random.Random(5), 3, 2)
    assert (a @ b) == b
    assert b.transpose().transpose() == b
    with pytest.raises(ValueError):
        b @ b
    trips = b.to_triplets()
    assert trips == sorted(trips, key=lambda t: (t[0], t[1]))



def test_diagonal_keeps_its_entries_in_order_and_stores_no_zero():
    d = SparseMatrix.diagonal([Q, ZERO, ONE])
    assert (d.nrows, d.ncols) == (3, 3)
    assert d.rows == {0: {0: Q}, 2: {2: ONE}}
    assert SparseMatrix.identity(2) == SparseMatrix.diagonal([ONE, ONE])


def test_tensor_helpers_share_the_left_major_index():
    # pair (x, y) of a 2- and a 3-dimensional space has index 3 x + y
    rng = random.Random(11)
    a, b = rand_matrix(rng, 2, 2), rand_matrix(rng, 3, 3)
    for x in range(2):
        for y in range(3):
            assert kron_vec({x: ONE}, {y: ONE}, 3) == {3 * x + y: ONE}
            assert v_eq(kron_matrix(a, b).apply(kron_vec({x: ONE}, {y: ONE}, 3)),
                        kron_vec(a.column(x), b.column(y), 3))
            assert flip_matrix(2, 3).apply({3 * x + y: ONE}) == {2 * y + x: ONE}
    assert flip_matrix(3, 2) @ flip_matrix(2, 3) == SparseMatrix.identity(6)


# -- the elimination core against a dense oracle --------------------------------

def dense_rref(a: SparseMatrix, ncols: int):
    """Textbook Gauss-Jordan on a dense copy, first nonzero entry as pivot."""
    m = [[a.entry(i, j) for j in range(a.ncols)] for i in range(a.nrows)]
    pivots, r = [], 0
    for col in range(ncols):
        i = next((i for i in range(r, len(m)) if m[i][col]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        inv = m[r][col].inv()
        m[r] = [x * inv for x in m[r]]
        for k in range(len(m)):
            if k != r and m[k][col]:
                f = m[k][col]
                m[k] = [x - f * y for x, y in zip(m[k], m[r])]
        pivots.append(col)
        r += 1
    return m, pivots


def laurent(pairs):
    return QLaurent([(e, Fraction(c, 2)) for e, c in pairs])


small_laurent = st.lists(st.tuples(st.integers(-2, 2), st.integers(-3, 3)),
                         max_size=2).map(laurent)
scalars = st.one_of(
    st.just(ZERO),
    st.fractions(min_value=-3, max_value=3, max_denominator=3).map(
        FieldElement.from_fraction),
    small_laurent.map(FieldElement),
    st.tuples(small_laurent, small_laurent.filter(bool)).map(
        lambda nd: FieldElement(*nd)),
)


@st.composite
def matrices(draw, square=False):
    n = draw(st.integers(1, 4))
    m = n if square else draw(st.integers(1, 4))
    rows = {i: {j: draw(scalars) for j in range(m)} for i in range(n)}
    return SparseMatrix(n, m, rows)


def _outside(row, cols):
    return {j: x for j, x in row.items() if x and j not in cols}


@st.composite
def carried_columns(draw, a):
    """Columns to carry beside a: arbitrary ones, and right-hand sides a x
    that the rest rows cannot reach."""
    cols = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            col = a.apply({j: draw(scalars) for j in range(a.ncols)})
        else:
            col = {i: draw(scalars) for i in range(a.nrows)}
        cols.append({i: x for i, x in col.items() if x})
    return cols


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_core_matches_dense_rref(a, data):
    # pivots only below a.ncols, the carried columns reduced along; two
    # admissible answers differ by a combination of rest rows, so the pivot
    # rows are compared off the columns the rest rows reach
    n = a.ncols
    cols = data.draw(carried_columns(a))
    aug = SparseMatrix(a.nrows, n + len(cols), {
        i: {**a.rows.get(i, {}),
            **{n + t: col[i] for t, col in enumerate(cols) if i in col}}
        for i in range(a.nrows)})
    dense, dpiv = dense_rref(aug, n)
    want_rest = {j for row in dense[len(dpiv):] for j, x in enumerate(row)
                 if x}
    rows = [aug.rows.get(i, {}) for i in range(a.nrows)]
    for order in (rows, data.draw(st.permutations(rows))):
        pivots, rest = rref(order, n)
        assert list(pivots) == dpiv and all(rest)
        assert {j for row in rest for j in row} == want_rest
        for r, col in enumerate(dpiv):
            assert _outside(pivots[col], want_rest) == \
                _outside(dict(enumerate(dense[r])), want_rest)
    assert rank(a) == len(dpiv)
    ker = kernel(a)
    assert rank(a) + len(ker) == a.ncols
    for k in ker:
        assert v_is_zero(a.apply(k))
    b = {i: data.draw(scalars) for i in range(a.nrows)}
    b = {i: x for i, x in b.items() if x}
    aug = SparseMatrix(a.nrows, a.ncols + 1,
                       {i: {**a.rows.get(i, {}), **({a.ncols: b[i]} if i in b else {})}
                        for i in range(a.nrows)})
    daug, apiv = dense_rref(aug, a.ncols + 1)
    x = solve(a, b)
    assert (x is None) == (a.ncols in apiv)
    if x is not None:
        assert v_eq(a.apply(x), b)
        assert x == {col: daug[r][a.ncols] for r, col in enumerate(apiv)
                     if daug[r][a.ncols]}


@settings(max_examples=40, deadline=None)
@given(matrices(square=True))
def test_inverse_inverts_or_flags_singular(a):
    if rank(a) < a.nrows:
        with pytest.raises(ValueError):
            inverse(a)
        return
    assert (inverse(a) @ a).is_identity()


def test_echelon_keeps_the_first_independent_vectors():
    e = Echelon()
    assert e.add(e.reduce({0: ONE, 1: Q}))
    assert not e.add(e.reduce({0: Q, 1: Q * Q}))
    assert e.add(e.reduce({1: ONE}))
    assert len(e.rows) == 2 and not e.reduce({0: Q, 1: ONE})


@settings(max_examples=40, deadline=None)
@given(matrices(square=True))
def test_schur_selection_matches_the_principal_rank_test(g):
    # the greedy rule of make_irreducible: keep c iff the principal block of
    # the kept candidates and c is nonsingular
    kept = []
    for c in range(g.nrows):
        if rank(g.restrict(kept + [c], kept + [c])) == len(kept) + 1:
            kept.append(c)
    block = Echelon()
    assert [c for c in range(g.nrows)
            if block.add(block.reduce(g.rows.get(c, {})), pivot=c)] == kept
    # the kept rows then hold G_S^-1 times each column of g
    for c in range(g.nrows):
        if c not in kept and kept:
            want = solve(g.restrict(kept, kept),
                         {r: g.entry(s, c) for r, s in enumerate(kept)})
            assert want == {r: block.rows[s][c] for r, s in enumerate(kept)
                            if c in block.rows[s]}


# -- structural equality against subtract-and-test -------------------------------

@st.composite
def matrix_pairs(draw):
    # B is drawn afresh, given another shape, or rebuilt from A through
    # cancelling arithmetic, so equal pairs hold entries made differently
    a = draw(matrices())
    c = SparseMatrix(a.nrows, a.ncols,
                     {i: {j: draw(scalars) for j in range(a.ncols)}
                      for i in range(a.nrows)})
    z = draw(scalars.filter(bool))
    b = draw(st.sampled_from((
        a.add(c).sub(c),
        c.sub(c.sub(a)),
        a.scale(z).scale(z.inv()),
        c,
        SparseMatrix(a.nrows, a.ncols + 1, a.rows),
    )))
    return a, b


@settings(max_examples=50, deadline=None)
@given(matrix_pairs())
def test_structural_matrix_equality_matches_subtraction(ab):
    a, b = ab
    same_shape = (a.nrows, a.ncols) == (b.nrows, b.ncols)
    assert (a == b) == (same_shape and a.sub(b).is_zero())


@settings(max_examples=40, deadline=None)
@given(matrix_pairs(), st.integers(0, 3))
def test_structural_vector_equality_matches_subtraction(ab, col):
    a, b = ab
    u, v = a.column(col), b.column(col)
    v_junk = {**v, 9: ZERO}  # a stored zero compares as absent
    for x, y in ((u, v), (u, v_junk), (v_junk, u)):
        assert v_eq(x, y) == v_is_zero(v_add(x, v_scale(y, -ONE)))


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_negation_matches_scaling_by_minus_one(a):
    assert -a == a.scale(-ONE) and -(-a) == a


def assert_clean(m: SparseMatrix) -> None:
    assert all(m.rows.values())  # no empty row
    assert not any(x.is_zero() for r in m.rows.values() for x in r.values())
    assert m == SparseMatrix(m.nrows, m.ncols, m.rows)  # the checked path


@settings(max_examples=50, deadline=None)
@given(matrices(), matrices(), scalars.filter(bool))
def test_unchecked_results_hold_clean_rows(a, b, z):
    row = a.rows.get(0, {})
    # row 0 of the product is row0 - row0: every product cancels
    stack = SparseMatrix(2, a.ncols, {0: row, 1: (-a).rows.get(0, {})})
    cancel = SparseMatrix(2, 2, {0: {0: ONE, 1: ONE}, 1: {1: z}}) @ stack
    assert 0 not in cancel.rows and (1 in cancel.rows) == bool(row)
    c = SparseMatrix(a.ncols, b.nrows,
                     {i: {i % b.nrows: ONE, 0: z} for i in range(a.ncols)})
    for m in (cancel, a @ c @ b, a @ a.transpose(), a.transpose(), -a,
              a.bar_entries(), a.scale(z)):
        assert_clean(m)
    assert SparseMatrix(2, 2, {0: {0: ZERO}, 1: {}}).rows == {}
