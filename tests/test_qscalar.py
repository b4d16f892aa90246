"""Exact-scalar layer: canonical forms, bar, quantum integers, regularity.

Derived expectations are cross-checked against sympy (independent
cancellation / limit oracle); structural properties run under hypothesis.
"""

import copy
import json
import os
import pickle
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qrmat import qscalar
from qrmat.qscalar import (
    FieldElement,
    ONE,
    Q,
    QLaurent,
    ZERO,
    laurent_cancel,
    q_binom,
    q_int,
)

_q = sympy.Symbol("q", positive=True)


def to_sympy(x: FieldElement):
    def part(p: QLaurent):
        return sum((sympy.Rational(c) * _q ** sympy.Rational(e) for e, c in p.terms),
                   sympy.Integer(0))
    return part(x.num) / part(x.den)


def sympy_equal(x: FieldElement, expr) -> bool:
    return sympy.simplify(to_sympy(x) - expr) == 0


def F(terms):
    return FieldElement(QLaurent(terms))


# -- trivial identities ------------------------------------------------------

def test_difference_of_squares():
    a = F({1: 1, -1: 1})   # q + q^-1
    b = F({1: 1, -1: -1})  # q - q^-1
    assert a * b == F({2: 1, -2: -1})


def test_half_powers_multiply():
    h = FieldElement.q_power(Fraction(1, 2))
    assert h * h == Q


def test_bar_monomial_and_symmetric():
    assert FieldElement.q_power(Fraction(3, 2)).bar() == FieldElement.q_power(Fraction(-3, 2))
    sym = F({1: 1, -1: 1})
    assert sym.bar() == sym


def test_quantum_integer_small():
    assert q_int(2) == F({1: 1, -1: 1})
    assert q_int(0) == ZERO
    assert q_int(1) == ONE
    assert q_int(-3) == -q_int(3)


# -- derived values, frozen after oracle verification ------------------------

def test_cancellation_q2_minus_1_over_q_minus_1():
    # (q^2 - 1)/(q - 1) must canonicalize to the Laurent polynomial q + 1
    x = FieldElement(QLaurent({2: 1, 0: -1}), QLaurent({1: 1, 0: -1}))
    assert x == F({1: 1, 0: 1})
    assert x.is_laurent()
    assert sympy_equal(x, (_q ** 2 - 1) / (_q - 1))


def test_bar_of_one_over_one_plus_q():
    # 1/(1+q) and q^-1/(1+q^-1) are the same element; canonical forms must agree,
    # and bar applied to either representation gives bar of the element
    x = (ONE + Q).inv()
    y = FieldElement.q_power(-1) / (ONE + FieldElement.q_power(-1))
    assert x == y
    assert x.bar() == y.bar()
    assert x.bar().bar() == x
    assert sympy_equal(x.bar(), 1 / (1 + 1 / _q))


def test_quantum_binomial_4_2():
    # [4]![2]!^-1[2]!^-1 expanded by polynomial division
    expect = F({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})
    assert q_binom(4, 2) == expect
    fact = sympy.prod([(1 - _q ** (2 * k)) for k in range(1, 5)])
    denf = sympy.prod([(1 - _q ** (2 * k)) for k in range(1, 3)]) ** 2
    # classical q^2-binomial times the centering monomial q^-4
    assert sympy_equal(expect, sympy.cancel(fact / denf) * _q ** -4)


def test_quantum_binomial_matches_sympy_factorials():
    for a in range(7):
        for b in range(a + 1):
            for d in (1, 2):
                got = q_binom(a, b, d)
                num = sympy.prod([to_sympy(q_int(k, d)) for k in range(1, a + 1)])
                den = sympy.prod([to_sympy(q_int(k, d)) for k in range(1, b + 1)]) * \
                    sympy.prod([to_sympy(q_int(k, d)) for k in range(1, a - b + 1)])
                assert sympy_equal(got, sympy.cancel(num / den))
                assert got.bar() == got  # quantum binomials are bar-invariant


def test_quantum_int_definition_clears():
    for n in range(1, 8):
        for d in (1, 2, 3):
            lhs = q_int(n, d) * (FieldElement.q_power(d) - FieldElement.q_power(-d))
            assert lhs == FieldElement.q_power(d * n) - FieldElement.q_power(-d * n)


# -- regularity at q = infinity ----------------------------------------------

def test_regularity_flags():
    # 1/(1+q) vanishes at infinity; q/(1+q) tends to 1; q^2/(1+q) has a pole
    one_over = (ONE + Q).inv()
    assert one_over.regular_at_infinity() == (True, 0)
    assert (Q / (ONE + Q)).regular_at_infinity() == (True, 1)
    flag, _ = (Q * Q / (ONE + Q)).regular_at_infinity()
    assert not flag
    assert (ONE + FieldElement.q_power(-1) * 3).regular_at_infinity() == (True, 1)


@pytest.mark.parametrize("seed", range(4))
def test_regularity_against_sympy_limit(seed):
    rng = random.Random(20240 + seed)
    for _ in range(6):
        num = QLaurent({rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(4)})
        den = QLaurent({rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(4)})
        if den.is_zero():
            continue
        x = FieldElement(num, den)
        flag, res = x.regular_at_infinity()
        lim = sympy.limit(to_sympy(x), _q, sympy.oo)
        if flag:
            assert lim == sympy.Rational(res)
        else:
            assert lim in (sympy.oo, -sympy.oo) or lim.is_infinite


# -- canonical form and field axioms -----------------------------------------

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)
# denominators 2 and 3 mix, so sums, products and cancellations align scales
exponents = st.builds(Fraction, st.integers(min_value=-6, max_value=6),
                      st.sampled_from((1, 2, 3)))


@st.composite
def laurents(draw, min_terms=0):
    n = draw(st.integers(min_value=min_terms, max_value=4))
    return QLaurent({draw(exponents): draw(rationals) for _ in range(n)})


@st.composite
def field_elements(draw):
    num = draw(laurents())
    den = draw(laurents(min_terms=1).filter(lambda p: not p.is_zero()))
    return FieldElement(num, den)


@settings(max_examples=60, deadline=None, report_multiple_bugs=False)
@given(field_elements(), field_elements(), field_elements())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a
    if not a.is_zero():
        assert a * a.inv() == ONE


@settings(max_examples=60, deadline=None, report_multiple_bugs=False)
@given(field_elements(), field_elements())
def test_bar_is_an_involutive_automorphism(a, b):
    assert a.bar().bar() == a
    assert (a + b).bar() == a.bar() + b.bar()
    assert (a * b).bar() == a.bar() * b.bar()


@settings(max_examples=60, deadline=None, report_multiple_bugs=False)
@given(laurents())
def test_laurent_bar_matches_the_general_path(p):
    # a denominator-1 element skips the top-term rescaling of the quotient
    a = FieldElement(p)
    general = qscalar._top_scaled(a.num.bar(), a.den.bar())
    assert a.bar() == general and a.bar().bar() == a


def _assert_canonical(x: FieldElement):
    if x.is_zero():
        assert x.den is QLaurent.one()
        return
    assert x.den.terms[-1] == (0, 1)
    # canonicalization is idempotent
    assert laurent_cancel(x.num, x.den) == (x.num, x.den)


@settings(max_examples=60, deadline=None, report_multiple_bugs=False)
@given(field_elements())
def test_canonical_form_invariants(a):
    _assert_canonical(a)


@settings(max_examples=40, deadline=None, report_multiple_bugs=False)
@given(field_elements(), laurents(min_terms=1).filter(lambda p: not p.is_zero()))
def test_representative_independence(a, junk):
    # multiplying num and den by shared junk must not change the element
    b = FieldElement(a.num * junk, a.den * junk)
    assert a == b and hash(a) == hash(b)


@settings(max_examples=40, deadline=None, report_multiple_bugs=False)
@given(field_elements())
def test_json_round_trip(a):
    obj = a.to_json_obj()
    exps = [Fraction(r[0], r[1]) for r in obj["num"]]
    assert exps == sorted(exps)
    assert FieldElement.from_json_obj(obj) == a


@settings(max_examples=30, deadline=None, report_multiple_bugs=False)
@given(field_elements())
def test_copy_and_pickle_round_trip(a):
    for x in (a, a.num):
        for y in (copy.copy(x), copy.deepcopy(x),
                  pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x) and y == x and hash(y) == hash(x)


@settings(max_examples=60, deadline=None, report_multiple_bugs=False)
@given(exponents, rationals.filter(bool), field_elements())
def test_the_unit_is_interned(e, c, x):
    # FieldElement tests "den is 1" by identity, so every way of making 1
    # has to return the one object
    one = QLaurent.one()
    mono, fmono = QLaurent.q_power(e, c), FieldElement.q_power(e, c)
    ones = [
        QLaurent.q_power(0), QLaurent.const(Fraction(3, 3)),
        FieldElement.q_power(0).num, -QLaurent.const(-1), -(-one),
        one.bar(), ONE.bar().num,
        QLaurent.q_power(e) * QLaurent.q_power(-e),
        (FieldElement.q_power(e) * FieldElement.q_power(-e)).num,
        fmono.inv().den, (fmono * fmono.inv()).num,
        qscalar._top_scaled(mono, mono).num, qscalar._top_scaled(mono, mono).den,
        mono ** 0, (fmono ** 0).num, (fmono ** 3 * fmono ** -3).num,
        QLaurent({Fraction(0): Fraction(1)}),
        # unit-scale (integer exponents and coefficients) sums and products
        QLaurent({1: 1, 0: 1}) + QLaurent({1: -1}), ((Q + ONE) + (-Q)).num,
        QLaurent({2: 1, 0: 1, -1: 3}) + QLaurent({2: -1, -1: -3}),
        QLaurent({3: 1}) * QLaurent({-3: 1}), (Q * Q.inv()).num,
        QLaurent({-2: -1}) * QLaurent({2: -1}),
        QLaurent([(Fraction(0), Fraction(1, 3)), (Fraction(0), Fraction(2, 3))]),
        QLaurent([(e, c), (0, 1), (e, -c)]) if e else one,
        FieldElement.from_json_obj(ONE.to_json_obj()).num,
        FieldElement.from_json_obj(x.to_json_obj()).den if x.is_laurent() else one,
        copy.copy(one), copy.deepcopy(one), pickle.loads(pickle.dumps(one)),
        copy.deepcopy(ONE).num, pickle.loads(pickle.dumps(x)).den
        if x.is_laurent() else one,
    ]
    if not x.is_zero():
        ones += [(x / x).num, (x / x).den, (x * x.inv()).num, x.inv().inv().den
                 if x.is_laurent() else one, ((x + ONE) - x).num]
    assert all(u is one for u in ones)
    assert x.is_laurent() == (x.den == one)
    assert (x == ONE) == (x.num is one and x.den is one)
    y = FieldElement(x.num * mono, x.den * mono)
    assert y == x and hash(y) == hash(x) and y.is_laurent() == x.is_laurent()
    for z in (x * ONE, ONE * x, x * 1, 1 * x, x + ZERO, ZERO + x):
        assert z == x and hash(z) == hash(x)


integer_laurents = st.dictionaries(st.integers(-5, 5), st.integers(-4, 4).filter(bool),
                                   max_size=4).map(QLaurent)


def _reference_product(a: QLaurent, b: QLaurent) -> QLaurent:
    # the constructor's own collection and reduction, from Fraction terms
    return QLaurent([(e1 + e2, c1 * c2) for e1, c1 in a.terms for e2, c2 in b.terms])


def _reference_sum(a: QLaurent, b: QLaurent) -> QLaurent:
    return QLaurent(a.terms + b.terms)


def _same_object_shape(x: QLaurent, y: QLaurent) -> bool:
    # equal normal form, and the interned unit wherever 1 arises
    return ((x.s, x.k, x.pairs) == (y.s, y.k, y.pairs)
            and (x is QLaurent.one()) == (y is QLaurent.one()))


@settings(max_examples=80, deadline=None, report_multiple_bugs=False)
@given(integer_laurents, integer_laurents, laurents())
def test_unit_scale_paths_match_the_constructor(a, b, c):
    # a and b have s = k = 1 and take the unit-scale path; c mostly not
    assert a.s == a.k == b.s == b.k == 1
    for x, y in ((a, b), (b, a), (a, -a), (a, c), (c, a)):
        assert _same_object_shape(x * y, _reference_product(x, y))
        assert _same_object_shape(x + y, _reference_sum(x, y))
    fa, fb = FieldElement(a), FieldElement(b)
    assert (fa * fb).num == a * b and (fa + fb).num == a + b
    assert (fa * fb).den is QLaurent.one() and (fa + fb).den is QLaurent.one()


def test_scalars_stay_immutable():
    x = FieldElement(QLaurent({1: 1, 0: 2}), QLaurent({0: 1, -1: 3}))
    for obj, names in ((x.num, ("s", "k", "pairs", "other")),
                       (x, ("num", "den", "other")),
                       (QLaurent.one(), ("pairs",)), (ONE, ("num",))):
        for name in names:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
    assert x.num.pairs == ((0, 2), (1, 1)) and ONE.num is QLaurent.one()


_u = sympy.Symbol("u", positive=True)  # q = u^6 makes every exponent integral


def to_sympy_u(p: QLaurent):
    return sum((sympy.Rational(c) * _u ** int(e * 6) for e, c in p.terms), sympy.Integer(0))


def _u_span(poly) -> int:
    """Degree of a polynomial in u after dividing out its power of u."""
    coeffs = sympy.Poly(poly, _u).all_coeffs()[::-1]
    return len(coeffs) - 1 - next(i for i, c in enumerate(coeffs) if c)


@settings(max_examples=30, deadline=None, report_multiple_bugs=False)
@given(laurents(), laurents(min_terms=1).filter(lambda p: not p.is_zero()))
def test_cancel_matches_sympy(num, den):
    x = FieldElement(num, den)
    want = sympy.cancel(to_sympy_u(num) / to_sympy_u(den))
    assert sympy.cancel(to_sympy_u(x.num) / to_sympy_u(x.den) - want) == 0
    # the gcd is cancelled completely: den keeps exactly sympy's non-monomial part
    if not x.is_zero():
        span = int((x.den.degree() - x.den.valuation()) * 6)
        assert span == _u_span(sympy.fraction(sympy.together(want))[1])


def test_rational_constants_hash_as_their_value():
    half = FieldElement.from_fraction(Fraction(1, 2))
    assert ONE == 1 and ONE in {1} and {1: "a"}.get(ONE) == "a"
    assert half == Fraction(1, 2) and half in {Fraction(1, 2)}
    for x, v in ((ZERO, 0), (ONE, 1), (half, Fraction(1, 2)),
                 (FieldElement.from_int(-3), -3), (Q / Q, 1)):
        assert hash(x) == hash(v)


def test_tracing_hooks_see_scalar_calls(monkeypatch):
    # the benchmark's tracer counts scalar work by rebinding these names
    assert FieldElement.__radd__ is FieldElement.__add__
    assert FieldElement.__rmul__ is FieldElement.__mul__
    calls = []
    real = qscalar.laurent_cancel

    def counting(num, den):
        calls.append(1)
        return real(num, den)

    a, b = ONE + Q, ONE - Q  # Laurent sums take no cancellation
    qscalar._quotients.clear()  # a warm memo would serve the sum below
    monkeypatch.setattr(qscalar, "laurent_cancel", counting)
    x = a / b
    assert len(calls) == 1
    x + a.inv()
    assert len(calls) == 2  # the sum over unequal denominators; the inverse
    # of a canonical quotient only rescales it, so it cancels nothing


# -- the memo of products and sums ---------------------------------------------

@settings(max_examples=60, deadline=None, report_multiple_bugs=False)
@given(field_elements(), field_elements())
def test_memo_serves_what_a_fresh_computation_gives(a, b):
    qscalar._quotients.clear()
    fresh = (a * b, a + b)
    served = (a * b, b * a, a + b, b + a)
    # the unmemoized general formulas
    want = (FieldElement(a.num * b.num, a.den * b.den),
            FieldElement(a.num * b.den + b.num * a.den, a.den * b.den))
    assert served == (fresh[0], fresh[0], fresh[1], fresh[1])
    assert fresh == want
    for x in fresh + served:
        _assert_canonical(x)


def test_structurally_equal_operands_share_one_memo_entry():
    def build():
        return FieldElement(QLaurent({2: 1, 0: 3}), QLaurent({1: 1, 0: -1}))

    a1, a2, b = build(), build(), (ONE + Q).inv()
    assert a1 is not a2 and a1.num is not a2.num
    qscalar._quotients.clear()
    x = a1 * b
    assert len(qscalar._quotients) == 1
    assert a2 * b is x and b * a2 is x
    assert len(qscalar._quotients) == 1
    y = a1 + b
    assert len(qscalar._quotients) == 2 and b + a2 is y


def test_memo_stays_within_its_cap():
    cap = qscalar._MEMO_CAP
    x = (ONE + Q).inv()
    qscalar._quotients.clear()
    for k in range(1, cap + 40):
        p = x * F({k: 1, 0: 1})  # (1 + q^k)/(1 + q), a slow-path product
        assert len(qscalar._quotients) <= cap
        assert p.is_laurent() == (k % 2 == 1)
    assert len(qscalar._quotients) == cap


# -- error paths ---------------------------------------------------------------

def test_zero_division_paths():
    with pytest.raises(ZeroDivisionError):
        FieldElement(QLaurent.one(), QLaurent.zero())
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()


# -- byte-stable serialization --------------------------------------------------

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "qscalar_canonical.json")


def golden_scalars():
    """A fixed list of (label, scalar) covering every shape of canonical form."""
    h, t, s = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
    out = [
        ("zero", ZERO),
        ("one", ONE),
        ("const_-7/3", FieldElement.from_fraction(Fraction(-7, 3))),
        ("q", Q),
        ("q^1/2", FieldElement.q_power(h)),
        ("q^-2/3", FieldElement.q_power(-2 * t, 5)),
        ("q^5/6", FieldElement.q_power(5 * s, Fraction(-3, 4))),
        ("mixed_2_3", F({h: 1, -t: Fraction(2, 5), 0: -3})),
        ("mixed_6", F({s: Fraction(1, 6), 7 * s: Fraction(-5, 6), -1: 2})),
        ("frac_coeffs", F({1: Fraction(2, 3), 0: Fraction(-5, 4), -1: Fraction(7, 6)})),
        ("one_over_one_plus_q", (ONE + Q).inv()),
        ("q2m1_over_qm1", FieldElement(QLaurent({2: 1, 0: -1}), QLaurent({1: 1, 0: -1}))),
        ("half_over_third", FieldElement(QLaurent({h: 1, 0: 2}),
                                         QLaurent({t: 3, 0: Fraction(-1, 2)}))),
        ("sixth_den", FieldElement(QLaurent({1: Fraction(2, 3), 0: Fraction(1, 5)}),
                                   QLaurent({s: Fraction(4, 7), 0: -1}))),
        ("shared_factor", FieldElement(QLaurent({2 * h: 1, 0: -1}),
                                       QLaurent({4 * h: 2, 0: -2}))),
        ("q_int_3_2", q_int(3, 2)),
        ("q_int_-4_3", q_int(-4, 3)),
    ]
    rng = random.Random(20071127)
    for i in range(24):
        def poly(n):
            return QLaurent({Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 6))):
                             Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))
                             for _ in range(n)})
        den = poly(rng.randint(1, 3))
        if den.is_zero():
            den = QLaurent.one()
        out.append((f"random_{i}", FieldElement(poly(rng.randint(0, 4)), den)))
    out += [(f"bar({label})", x.bar()) for label, x in list(out)]
    for d in (1, 2, 3):
        for a in range(6):
            for b in range(a + 1):
                out.append((f"q_binom({a},{b},{d})", q_binom(a, b, d)))
    return out


def golden_payload() -> str:
    rows = [json.dumps([label, x.to_json_obj()], sort_keys=True, separators=(",", ":"))
            for label, x in golden_scalars()]
    return "[\n" + ",\n".join(rows) + "\n]\n"


def test_canonical_json_matches_golden_bytes():
    with open(GOLDEN) as f:
        assert golden_payload() == f.read()
