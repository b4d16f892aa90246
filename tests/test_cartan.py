"""Cartan data: symmetrizers, Gram matrices, w0, theta, dominance.

The independent oracle for w0/theta facts is brute-force enumeration of the
Weyl group as matrices acting on weight coordinates.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrmat.cartan import CartanDatum, CartanError, make_cartan

F = Fraction


def left_reflect(cd: CartanDatum, i: int, mat):
    """Matrix of s_i composed with mat: each column reflected by s_i."""
    return tuple(zip(*(cd.reflect(i, col) for col in zip(*mat))))


def apply_matrix(mat, wt):
    return tuple(sum(x * y for x, y in zip(row, wt)) for row in mat)


def identity(cd: CartanDatum):
    return tuple(tuple(F(int(i == j)) for j in range(cd.n)) for i in range(cd.n))


def weyl_group(cd: CartanDatum):
    """All Weyl-group elements as weight-coordinate matrices, by BFS closure."""
    seen = {identity(cd)}
    frontier = list(seen)
    while frontier:
        m = frontier.pop()
        for i in range(cd.n):
            nm = left_reflect(cd, i, m)
            if nm not in seen:
                seen.add(nm)
                frontier.append(nm)
    return seen


def longest_by_roots(cd: CartanDatum):
    """The unique element sending every simple root to a negative root."""
    out = []
    for m in weyl_group(cd):
        if all(all(c <= 0 for c in cd.root_coefficients(apply_matrix(m, cd.alpha(i))))
               for i in range(cd.n)):
            out.append(m)
    assert len(out) == 1
    return out[0]


# -- frozen derived values -----------------------------------------------------

def test_a1_datum():
    cd = make_cartan("A1")
    assert cd.d == (1,)
    assert cd.gram == ((F(1, 2),),)
    assert cd.D == 4
    assert cd.w0_word == (0,)
    assert cd.theta == (0,)


def test_a2_datum():
    cd = make_cartan("A2")
    assert cd.gram == ((F(2, 3), F(1, 3)), (F(1, 3), F(2, 3)))
    assert cd.D == 6
    assert cd.w0_word == (0, 1, 0)
    assert cd.theta == (1, 0)
    assert len(weyl_group(cd)) == 6


def test_b2_datum():
    cd = make_cartan("B2")
    assert cd.A == ((2, -1), (-2, 2))
    assert cd.d == (2, 1)  # node 1 long
    assert cd.gram == ((F(2), F(1)), (F(1), F(1)))
    assert cd.D == 2
    assert len(cd.w0_word) == 4
    assert cd.theta == (0, 1)
    assert len(weyl_group(cd)) == 8


def test_g2_datum():
    cd = make_cartan("G2")
    assert cd.d == (3, 1)
    assert cd.D == 2
    assert len(cd.w0_word) == 6
    assert cd.theta == (0, 1)
    assert len(weyl_group(cd)) == 12


def test_a3_datum():
    cd = make_cartan("A3")
    assert cd.theta == (2, 1, 0)  # diagram reversal
    assert len(cd.w0_word) == 6
    assert len(weyl_group(cd)) == 24


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2"])
def test_w0_matches_enumeration_oracle(label):
    cd = make_cartan(label)
    w0 = longest_by_roots(cd)
    for k in range(cd.n):
        omega = tuple(F(int(j == k)) for j in range(cd.n))
        assert cd.apply_w0(omega) == apply_matrix(w0, omega)
    # the stored reduced word multiplies out to w0 and has full length
    m = identity(cd)
    for i in reversed(cd.w0_word):
        m = left_reflect(cd, i, m)
    assert m == w0
    assert len(cd.w0_word) == len(cd.positive_roots())
    # w0 is an involution
    assert cd.apply_w0(cd.apply_w0(cd.rho)) == cd.rho


def lex_least_w0_word(cd):
    """The first word in lexicographic order, of length |Phi+|, whose
    product is w0, the one Weyl group element sending rho to -rho."""
    n, a = cd.n, cd.A
    for word in itertools.product(range(n), repeat=len(cd.positive_roots())):
        v = (1,) * n
        for i in reversed(word):  # the product applied to rho
            v = tuple(v[k] - v[i] * a[k][i] for k in range(n))
        if v == (-1,) * n:
            return word


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C3", "G2"])
def test_w0_word_is_the_lex_least_reduced_word(label):
    cd = make_cartan(label)
    assert cd.w0_word == lex_least_w0_word(cd)


# -- hand-derived structure constants --------------------------------------------

@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A3"])
def test_rho_and_root_pairings(label):
    cd = make_cartan(label)
    for i in range(cd.n):
        assert cd.pairing(i, cd.rho) == 1
        assert cd.bilinear(cd.alpha(i), cd.rho) == cd.d[i]
        assert cd.bilinear(cd.alpha(i), cd.alpha(i)) == 2 * cd.d[i]
        for j in range(cd.n):
            assert cd.pairing(i, cd.alpha(j)) == cd.A[i][j]


def test_a2_pairing_example():
    cd = make_cartan("A2")
    assert cd.pairing(0, cd.alpha(1)) == -1
    assert cd.pairing(0, (0, 0)) == 0


# -- dominance -------------------------------------------------------------------

def test_dominance_examples():
    a1 = make_cartan("A1")
    assert a1.dominance_leq((0,), (2,))  # 2w - 0 = alpha
    a2 = make_cartan("A2")
    assert not a2.dominance_leq((1, 0), (0, 1))
    assert not a2.dominance_leq((0, 1), (1, 0))
    assert a2.dominance_leq((1, 1), (1, 1))


weights_a2 = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@settings(max_examples=80, deadline=None)
@given(weights_a2, weights_a2, weights_a2)
def test_dominance_is_a_partial_order(a, b, c):
    cd = make_cartan("A2")
    assert cd.dominance_leq(a, a)
    if cd.dominance_leq(a, b) and cd.dominance_leq(b, a):
        assert tuple(map(F, a)) == tuple(map(F, b))
    if cd.dominance_leq(a, b) and cd.dominance_leq(b, c):
        assert cd.dominance_leq(a, c)


@settings(max_examples=60, deadline=None)
@given(weights_a2, weights_a2)
def test_bilinear_symmetry_and_pairing_link(a, b):
    cd = make_cartan("B2")
    assert cd.bilinear(a, b) == cd.bilinear(b, a)
    for i in range(cd.n):
        assert cd.bilinear(a, cd.alpha(i)) == cd.d[i] * cd.pairing(i, a)


def _bilinear_reference(cd: CartanDatum, wt1, wt2) -> Fraction:
    # every coordinate as a Fraction, against the Gram matrix itself
    return sum((F(wt1[i]) * F(wt2[j]) * cd.gram[i][j]
                for i in range(cd.n) for j in range(cd.n)), F(0))


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2"])
def test_bilinear_matches_fraction_reference(label):
    cd = make_cartan(label)
    rng = random.Random(label)
    ints = [tuple(rng.randint(-3, 3) for _ in range(cd.n)) for _ in range(12)]
    ints += [tuple(0 for _ in range(cd.n)), tuple(1 for _ in range(cd.n))]
    args = ints + [cd.rho] + [cd.reflect(i, w) for i in range(cd.n) for w in ints[:3]]
    for a in args:
        for b in args:
            got = cd.bilinear(a, b)
            assert type(got) is F and got == _bilinear_reference(cd, a, b)
    for a in ints:  # a weight and its Fraction copy pair alike
        assert cd.bilinear(a, a) == cd.bilinear(tuple(map(F, a)), a)


# -- validation and errors ---------------------------------------------------------

def test_rejects_bad_matrices():
    with pytest.raises(CartanError):
        make_cartan([[2, -1], [0, 2]])  # asymmetric zero pattern
    with pytest.raises(CartanError):
        make_cartan([[1, 0], [0, 2]])  # diagonal not 2
    with pytest.raises(CartanError):
        make_cartan([[2, -1], [-1, 2], [0, 0]])  # not square
    with pytest.raises(CartanError):
        # inconsistent symmetrizer ratios around a triangle
        make_cartan([[2, -1, -1], [-2, 2, -1], [-1, -1, 2]])
    with pytest.raises(CartanError):
        make_cartan("H3")


def test_affine_matrix_is_not_finite():
    cd = make_cartan([[2, -2], [-2, 2]])
    assert not cd.finite
    with pytest.raises(CartanError):
        _ = cd.w0_word
    with pytest.raises(CartanError):
        cd.bilinear((1, 0), (0, 1))


def test_json_shape():
    obj = make_cartan("A2").to_json_obj()
    assert obj == {
        "type": "A2",
        "cartan": [[2, -1], [-1, 2]],
        "d": [1, 1],
        "D": 6,
        "theta": [2, 1],
        "w0": [1, 2, 1],
    }
