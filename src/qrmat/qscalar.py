"""Exact scalar arithmetic in Q(q^(1/D)).

  QLaurent     -- Laurent polynomial sum (c/k) q^(e/s) held in integers: the
                  exponent scale s, the coefficient denominator k and `pairs`,
                  the (e, c) strictly ascending in e with every c nonzero, in
                  normal form gcd(s, all e) = gcd(k, all c) = 1 (s = k = 1 for
                  constants). Arithmetic never builds a Fraction; `terms`,
                  `degree()` and the like are Fraction views.
  FieldElement -- quotient num/den of two QLaurent in canonical form: they
                  share no polynomial or monomial factor, and the top term of
                  den is exactly 1*q^0 (den is 1 plus negative powers).

Both forms are unique, so equality and hashing are structural, emitted JSON is
byte-stable, and the denominator never vanishes at q = infinity, which makes
regularity at infinity a one-line test on the numerator.

The constant 1 is interned: every QLaurent equal to 1, however it was made
(arithmetic, bar, parsing, copy or pickle), is the one object `_L_ONE`. So
"the denominator is 1" is the identity test `den is _L_ONE`, and a product
with the unit returns the other operand without any arithmetic.

The bar involution q -> q^(-1) is exponent negation followed by
re-canonicalization; it is an exact field automorphism.

Unit scale: most Laurent polynomials met in practice have s = k = 1, and
over s = k = 1 every list of pairs is already in normal form (gcd(1, .) =
1).  A Laurent product or sum of two such operands merges the integer
pairs directly and skips the lcm, the rescaling and the reduction; it
returns the object the general path would, the interned 1 included.
Objects are made past the immutability guard by writing their slots
through the slot descriptors, captured once at import.

The two slow paths of FieldElement, the general product and the sum over
non-unit denominators, build a quotient and cancel its GCD.  Their results
are memoized process-wide in `_quotients`, keyed by the operation and the
(s, k, pairs) of the four parts, never by identity; both operations commute,
so the two operands enter the key in sorted order.  Canonical forms are
unique, so a hit equals a fresh computation.  The memo keeps at most
_MEMO_CAP = 512 entries and evicts the least recently used; the unit and
monomial fast paths bypass it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Tuple, Union

Rat = Union[int, Fraction]
Pairs = Tuple[Tuple[int, int], ...]


def _rat(x: Rat) -> Rat:
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------

class QLaurent:
    """Laurent polynomial sum_e c_e q^e with rational exponents and coefficients.

    Built from (exponent, coefficient) pairs of ints or Fractions, summing
    repeated exponents; held in the integer normal form of the module doc.
    """

    __slots__ = ("s", "k", "pairs")

    def __new__(cls, terms: Union[Mapping[Rat, Rat], Iterable[Tuple[Rat, Rat]], None] = None):
        items = terms.items() if isinstance(terms, Mapping) else (terms or ())
        acc: dict = {}
        for e, c in items:
            e, c = _rat(e), _rat(c)
            if c:
                acc[e] = acc.get(e, 0) + c
        s = lcm(*(e.denominator for e in acc))
        k = lcm(*(c.denominator for c in acc.values()))
        return _make(s, k, tuple(sorted(
            (e.numerator * (s // e.denominator), c.numerator * (k // c.denominator))
            for e, c in acc.items() if c)))

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("QLaurent is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, since the
        # guard refuses the default slot-by-slot restore
        return QLaurent, (self.terms,)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "QLaurent":
        return _L_ZERO

    @staticmethod
    def one() -> "QLaurent":
        return _L_ONE

    @staticmethod
    def const(c: Rat) -> "QLaurent":
        return QLaurent.q_power(0, c)

    @staticmethod
    def q_power(e: Rat, c: Rat = 1) -> "QLaurent":
        e, c = _rat(e), _rat(c)
        if not c:
            return _L_ZERO
        return _raw(e.denominator, c.denominator, ((e.numerator, c.numerator),))

    # -- predicates and views ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.pairs

    def __bool__(self) -> bool:
        return bool(self.pairs)

    @property
    def terms(self) -> Tuple[Tuple[Fraction, Fraction], ...]:
        """(exponent, coefficient) Fraction pairs, ascending in exponent."""
        return tuple((Fraction(e, self.s), Fraction(c, self.k)) for e, c in self.pairs)

    def degree(self) -> Optional[Fraction]:
        """Top exponent, or None for the zero polynomial."""
        return Fraction(self.pairs[-1][0], self.s) if self.pairs else None

    def valuation(self) -> Optional[Fraction]:
        """Bottom exponent, or None for the zero polynomial."""
        return Fraction(self.pairs[0][0], self.s) if self.pairs else None

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "QLaurent") -> "QLaurent":
        if not isinstance(other, QLaurent):
            return NotImplemented
        if not self.pairs:
            return other
        if not other.pairs:
            return self
        if self.s == other.s == self.k == other.k == 1:
            # unit scale: the pairs need no rescaling
            s = k = 1
            acc, b = dict(self.pairs), other.pairs
        else:
            s, k = lcm(self.s, other.s), lcm(self.k, other.k)
            acc, b = dict(_stretch(self, s, k)), _stretch(other, s, k)
        for e, c in b:
            t = acc.get(e, 0) + c
            if t:
                acc[e] = t
            else:
                del acc[e]
        return _make(s, k, tuple(sorted(acc.items())))

    def __neg__(self) -> "QLaurent":
        return _raw(self.s, self.k, tuple([(e, -c) for e, c in self.pairs]))

    def __sub__(self, other: "QLaurent") -> "QLaurent":
        if not isinstance(other, QLaurent):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "QLaurent") -> "QLaurent":
        if not isinstance(other, QLaurent):
            return NotImplemented
        if self is _L_ONE:
            return other
        if other is _L_ONE:
            return self
        a, b = self.pairs, other.pairs
        if not a or not b:
            return _L_ZERO
        s, k = self.s, self.k * other.k
        if not s == other.s == k == 1:  # unit scale needs no rescaling
            s = lcm(s, other.s)
            a, b = _stretch(self, s, self.k), _stretch(other, s, other.k)
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            (e0, c0), = a
            out = tuple([(e + e0, c * c0) for e, c in b])
        else:
            acc: dict = {}
            for e1, c1 in a:
                for e2, c2 in b:
                    e = e1 + e2
                    t = acc.get(e, 0) + c1 * c2
                    if t:
                        acc[e] = t
                    else:
                        del acc[e]
            out = tuple(sorted(acc.items()))
        return _make(s, k, out)

    def __pow__(self, n: int) -> "QLaurent":
        if not isinstance(n, int) or n < 0:
            raise ValueError("QLaurent power wants a nonnegative integer")
        out, base = _L_ONE, self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def bar(self) -> "QLaurent":
        """The involution q -> q^(-1): negate every exponent."""
        return _raw(self.s, self.k, tuple([(-e, c) for e, c in reversed(self.pairs)]))

    def subs_q_one(self) -> Fraction:
        """Evaluate at q = 1 (the classical specialization)."""
        return Fraction(sum(c for _, c in self.pairs), self.k)

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, QLaurent) and self.pairs == other.pairs
                and self.s == other.s and self.k == other.k)

    def __hash__(self) -> int:
        return hash((self.s, self.k, self.pairs))

    def __repr__(self) -> str:
        return f"QLaurent({_fmt_terms(self.terms) or '0'})"


def _raw(s: int, k: int, pairs: Pairs) -> QLaurent:
    # caller guarantees the normal form already holds; every QLaurent is
    # made here, so the constant 1 is always the one object _L_ONE
    if pairs == _ONE_PAIRS and s == 1 and k == 1:
        return _L_ONE
    return _alloc(s, k, pairs)


def _alloc(s: int, k: int, pairs: Pairs) -> QLaurent:
    out = _new(QLaurent)
    _set_s(out, s)
    _set_k(out, k)
    _set_pairs(out, pairs)
    return out


# the slot descriptors write past the immutability guard
_new = object.__new__
_set_s, _set_k, _set_pairs = QLaurent.s.__set__, QLaurent.k.__set__, QLaurent.pairs.__set__


def _make(s: int, k: int, pairs: Pairs) -> QLaurent:
    """QLaurent of ascending pairs with nonzero c, reduced to normal form."""
    if not pairs:
        return _L_ZERO
    if k != 1:
        g = k
        for _, c in pairs:
            g = gcd(g, c)
            if g == 1:
                break
        else:
            k //= g
            pairs = tuple([(e, c // g) for e, c in pairs])
    if s != 1:
        g = s
        for e, _ in pairs:
            g = gcd(g, e)
            if g == 1:
                break
        else:
            s //= g
            pairs = tuple([(e // g, c) for e, c in pairs])
    return _raw(s, k, pairs)


def _stretch(p: QLaurent, s: int, k: int) -> Pairs:
    """p's pairs over the exponent scale s and coefficient denominator k."""
    ms, mk = s // p.s, k // p.k
    if ms == mk == 1:
        return p.pairs
    return tuple([(e * ms, c * mk) for e, c in p.pairs])


_ONE_PAIRS = ((0, 1),)
_L_ZERO = _alloc(1, 1, ())
_L_ONE = _alloc(1, 1, _ONE_PAIRS)


def _fmt_terms(terms) -> str:
    bits = []
    for e, c in reversed(terms):
        if e == 0:
            bits.append(str(c))
        elif c == 1:
            bits.append(f"q^{e}")
        elif c == -1:
            bits.append(f"-q^{e}")
        else:
            bits.append(f"{c}*q^{e}")
    return " + ".join(bits).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# Integer polynomial helpers for GCD cancellation
#
# A Laurent polynomial with integer exponents e in units of 1/s is
# q^(v/s) * P(u)/k with u = q^(1/s), v its valuation and P an ordinary
# polynomial over Z with nonzero constant term. GCDs are computed on the
# dense coefficient lists of such P, ascending degree.
# ---------------------------------------------------------------------------

def _dense_trim(a: list) -> list:
    n = len(a)
    while n and not a[n - 1]:
        n -= 1
    return a[:n]


def _int_prem(a: list, b: list) -> list:
    """Pseudo-remainder of integer lists: lb^k * a mod b stays over Z."""
    db, lb = len(b) - 1, b[-1]
    r = list(a)
    for k in range(len(a) - 1, db - 1, -1):
        c = r[k]
        if c:
            for j in range(len(r)):
                r[j] *= lb
            for j in range(db + 1):
                r[k - db + j] -= c * b[j]
    return _dense_trim(r)


def _int_gcd_primitive(ia: list, ib: list) -> list:
    """GCD of nonzero primitive integer lists via the primitive PRS.

    Each pseudo-remainder is reduced to its primitive part, which keeps
    coefficient growth minimal; the result is primitive with positive lead.
    """
    while ib:
        r = _int_prem(ia, ib)
        if r:
            cont = gcd(*r)
            r = [c // cont for c in r]
        ia, ib = ib, r
    return [-c for c in ia] if ia[-1] < 0 else list(ia)


def _int_div_exact(a: list, b: list) -> list:
    """Exact division of integer lists; raises when the division is inexact."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    quot = [0] * max(len(a) - db, 0)
    for k in range(len(a) - 1, db - 1, -1):
        c = a[k]
        if c:
            f, rem = divmod(c, lb)
            if rem:
                raise ArithmeticError("inexact polynomial division")
            quot[k - db] = f
            for j in range(db + 1):
                a[k - db + j] -= f * b[j]
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return _dense_trim(quot)


def _primitive_dense(pairs: Pairs) -> Tuple[list, int, int]:
    """(primitive dense list from the valuation up, its content, valuation)."""
    v = pairs[0][0]
    out = [0] * (pairs[-1][0] - v + 1)
    for e, c in pairs:
        out[e - v] = c
    cont = gcd(*out)
    return ([c // cont for c in out] if cont != 1 else out), cont, v


def laurent_cancel(num: QLaurent, den: QLaurent) -> Tuple[QLaurent, QLaurent]:
    """Cancel the GCD of num/den and normalize den's top term to 1*q^0.

    Returns the unique pair (n, d) with n/d = num/den, gcd(n, d) a unit, and
    d = 1 + (terms of strictly negative exponent).
    """
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return _L_ZERO, _L_ONE
    s = lcm(num.s, den.s)
    # all polynomial work over Z: num = (ca/num.k) * ia and den = (cb/den.k)
    # * ib with ia, ib primitive; Gauss's lemma keeps the exact divisions by
    # the gcd integral and their quotients primitive
    ia, ca, va = _primitive_dense(_stretch(num, s, num.k))
    ib, cb, vb = _primitive_dense(_stretch(den, s, den.k))
    g = _int_gcd_primitive(ia, ib)
    if len(g) > 1:
        ia, ib = _int_div_exact(ia, g), _int_div_exact(ib, g)
    # divide both by (leading coeff lb of ib) * q^(top exponent of den); the
    # numerator's scalar is f/kn, and ia primitive leaves only gcd(f, kn)
    lb, top = ib[-1], vb + len(ib) - 1
    f, kn = ca * den.k * (1 if lb > 0 else -1), num.k * cb * abs(lb)
    h = gcd(f, kn)
    n = _make(s, kn // h, tuple((va - top + j, f // h * c) for j, c in enumerate(ia) if c))
    return n, _L_ONE if len(ib) == 1 else _make(
        s, abs(lb), tuple((vb - top + j, c if lb > 0 else -c) for j, c in enumerate(ib) if c))


# ---------------------------------------------------------------------------
# The field
# ---------------------------------------------------------------------------

class FieldElement:
    """Element of Q(q^(1/D)) as a canonical quotient of Laurent polynomials."""

    __slots__ = ("num", "den")

    def __init__(self, num: QLaurent, den: QLaurent = _L_ONE):
        if not isinstance(num, QLaurent) or not isinstance(den, QLaurent):
            raise TypeError("FieldElement wants QLaurent parts")
        if den is _L_ONE and num.pairs:
            n, d = num, _L_ONE
        else:
            n, d = laurent_cancel(num, den)
        _set_num(self, n)
        _set_den(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def __reduce__(self):
        return FieldElement, (self.num, self.den)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_fraction(c: Rat) -> "FieldElement":
        return FieldElement(QLaurent.const(c))

    from_int = from_fraction

    @staticmethod
    def q_power(e: Rat, c: Rat = 1) -> "FieldElement":
        return FieldElement(QLaurent.q_power(e, c))

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num.pairs

    def __bool__(self) -> bool:
        return bool(self.num.pairs)

    def is_laurent(self) -> bool:
        """True when the denominator is 1."""
        return self.den is _L_ONE

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other) -> Optional["FieldElement"]:
        if isinstance(other, FieldElement):
            return other
        if isinstance(other, (int, Fraction)):
            return FieldElement.from_fraction(other)
        return None

    def __add__(self, other) -> "FieldElement":
        o = other if other.__class__ is FieldElement else self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num.pairs:
            return self
        if not self.num.pairs:
            return o
        if self.den is _L_ONE and o.den is _L_ONE:
            return _field_raw(self.num + o.num, _L_ONE)
        return _memo_quotient(_SUM, self, o)

    __radd__ = __add__

    def __neg__(self) -> "FieldElement":
        return _field_raw(-self.num, self.den)

    def __sub__(self, other) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "FieldElement":
        o = other if other.__class__ is FieldElement else self._coerce(other)
        if o is None:
            return NotImplemented
        # the unit is returned as the other factor, and a monomial is a
        # unit: the product keeps the other denominator
        if o.den is _L_ONE:
            if o.num is _L_ONE:
                return self
            if self.den is _L_ONE or len(o.num.pairs) == 1:
                return _field_raw(self.num * o.num, self.den)
        if self.den is _L_ONE:
            if self.num is _L_ONE:
                return o
            if len(self.num.pairs) == 1:
                return _field_raw(self.num * o.num, o.den)
        return _memo_quotient(_PRODUCT, self, o)

    __rmul__ = __mul__

    def inv(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverting zero")
        return _top_scaled(self.den, self.num)

    def __truediv__(self, other) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero")
        return FieldElement(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> "FieldElement":
        if not isinstance(n, int):
            raise TypeError("integer power only")
        if n < 0:
            return self.inv() ** (-n)
        return _field_raw(self.num ** n, self.den ** n) if self.den is _L_ONE \
            else FieldElement(self.num ** n, self.den ** n)

    def bar(self) -> "FieldElement":
        """Apply q -> q^(-1) and re-canonicalize."""
        if self.den is _L_ONE:  # a Laurent polynomial stays one
            return _field_raw(self.num.bar(), _L_ONE)
        return _top_scaled(self.num.bar(), self.den.bar())

    # -- regularity at q = infinity -------------------------------------------

    def regular_at_infinity(self) -> Tuple[bool, Fraction]:
        """(flag, residue): flag iff no pole at q = infinity; residue = value there.

        In canonical form the denominator tends to 1 at q = infinity, so the
        quotient is regular iff the numerator has no positive exponent, and the
        value is the numerator's q^0 coefficient.
        """
        p = self.num.pairs
        top = p[-1][0] if p else -1
        return top <= 0, Fraction(p[-1][1], self.num.k) if top == 0 else Fraction(0)

    # -- comparisons and display ----------------------------------------------

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self) -> int:
        # a rational constant equals its Fraction, so it must hash as one
        if self.den is _L_ONE and all(e == 0 for e, _ in self.num.pairs):
            return hash(self.num.subs_q_one())
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        n = _fmt_terms(self.num.terms) or "0"
        if self.den is _L_ONE:
            return n
        return f"({n})/({_fmt_terms(self.den.terms)})"

    # -- serialization ---------------------------------------------------------

    def to_json_obj(self) -> dict:
        """Normative scalar JSON: term lists ascending by exponent."""
        def dump(p: QLaurent):  # each term as reduced Fractions e/s and c/k
            return [[e // ge, p.s // ge, c // gc, p.k // gc] for e, c in p.pairs
                    for ge, gc in ((gcd(e, p.s), gcd(c, p.k)),)]
        return {"num": dump(self.num), "den": dump(self.den)}

    @staticmethod
    def from_json_obj(obj: Mapping) -> "FieldElement":
        def load(rows) -> QLaurent:
            return QLaurent([(Fraction(en, ed), Fraction(cn, cd))
                             for en, ed, cn, cd in rows])
        return FieldElement(load(obj["num"]), load(obj["den"]))


def _field_raw(num: QLaurent, den: QLaurent) -> FieldElement:
    # caller guarantees canonical form already holds
    out = _new(FieldElement)
    _set_num(out, num)
    _set_den(out, den)
    return out


_set_num, _set_den = FieldElement.num.__set__, FieldElement.den.__set__


# the memo of the two slow paths; see the module doc
_MEMO_CAP = 512
_PRODUCT, _SUM = 0, 1
_quotients: dict = {}


def _memo_quotient(op: int, a: FieldElement, b: FieldElement) -> FieldElement:
    an, ad, bn, bd = a.num, a.den, b.num, b.den
    ka = (an.s, an.k, an.pairs, ad.s, ad.k, ad.pairs)
    kb = (bn.s, bn.k, bn.pairs, bd.s, bd.k, bd.pairs)
    key = (op, *ka, *kb) if ka <= kb else (op, *kb, *ka)
    out = _quotients.pop(key, None)
    if out is None:
        if op == _PRODUCT:
            out = FieldElement(an * bn, ad * bd)
        elif ad == bd:
            out = FieldElement(an + bn, ad)
        else:
            out = FieldElement(an * bd + bn * ad, ad * bd)
        if len(_quotients) >= _MEMO_CAP:
            del _quotients[next(iter(_quotients))]
    _quotients[key] = out  # (re)inserted last: the dict is in use order
    return out


def _top_scaled(num: QLaurent, den: QLaurent) -> FieldElement:
    """num/den for coprime parts, both divided by den's top term so that it
    becomes 1*q^0; a monomial is a unit, so no GCD needs cancelling."""
    e, c = den.pairs[-1]
    m = _make(den.s, abs(c), ((-e, den.k if c > 0 else -den.k),))
    return _field_raw(num * m, den * m)


ZERO = FieldElement(_L_ZERO)
ONE = FieldElement(_L_ONE)
Q = FieldElement.q_power(1)


# ---------------------------------------------------------------------------
# Quantum integers, factorials, binomials
# ---------------------------------------------------------------------------

def q_int(n: int, d: int = 1) -> FieldElement:
    """[n]_{q^d} = (q^{dn} - q^{-dn}) / (q^d - q^{-d}), a Laurent polynomial.

    Expands to q^{d(n-1)} + q^{d(n-3)} + ... + q^{-d(n-1)}; [-n] = -[n], [0] = 0.
    """
    if d <= 0:
        raise ValueError("d must be a positive integer")
    if n == 0:
        return ZERO
    if n < 0:
        return -q_int(-n, d)
    return FieldElement(QLaurent([(d * k, 1) for k in range(-(n - 1), n, 2)]))


def q_factorial(n: int, d: int = 1) -> FieldElement:
    """[n]! = [n][n-1]...[1]; [0]! = 1."""
    if n < 0:
        raise ValueError("factorial of a negative quantum integer")
    out = ONE
    for k in range(2, n + 1):
        out = out * q_int(k, d)
    return out


def q_binom(a: int, b: int, d: int = 1) -> FieldElement:
    """Quantum binomial [a choose b] for 0 <= b <= a; always a Laurent polynomial."""
    if b < 0 or b > a:
        return ZERO
    out = q_factorial(a, d) / (q_factorial(b, d) * q_factorial(a - b, d))
    if not out.is_laurent():  # the quotient of factorials divides exactly
        raise ArithmeticError(f"[{a} choose {b}] is not a Laurent polynomial")
    return out
