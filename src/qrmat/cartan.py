"""Cartan data and weight-lattice arithmetic.

A CartanDatum bundles a symmetrizable generalized Cartan matrix with its
minimal symmetrizers, the fundamental-weight Gram matrix, the ambient root
order D, and (in finite type) the longest Weyl element w0 with the diagram
automorphism theta defined by w0(alpha_i) = -alpha_{theta(i)}.

Weights are plain tuples of coordinates over the fundamental-weight basis,
so the i-th coordinate is the pairing <H_i, lambda>. Simple roots live in
the same coordinates via alpha_j = sum_i a_ij omega_i (column j of A).
Node indices are 0-based internally; JSON emission is 1-based.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple, Union

WeightT = Tuple[Fraction, ...]


class CartanError(ValueError):
    """Invalid Cartan matrix, or an operation unavailable for this type."""


def _frac_matrix_inverse(m: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    n = len(m)
    a = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise CartanError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _series_matrix(letter: str, rank: int) -> List[List[int]]:
    if rank < 1:
        raise CartanError("rank must be positive")
    a = [[2 * int(i == j) for j in range(rank)] for i in range(rank)]

    def link(i, j, vij=-1, vji=-1):
        a[i][j], a[j][i] = vij, vji

    if letter == "A":
        for i in range(rank - 1):
            link(i, i + 1)
    elif letter == "B":
        if rank < 2:
            raise CartanError("B needs rank >= 2")
        for i in range(rank - 2):
            link(i, i + 1)
        link(rank - 2, rank - 1, -1, -2)  # last node short
    elif letter == "C":
        if rank < 2:
            raise CartanError("C needs rank >= 2")
        for i in range(rank - 2):
            link(i, i + 1)
        link(rank - 2, rank - 1, -2, -1)  # last node long
    elif letter == "D":
        if rank < 3:
            raise CartanError("D needs rank >= 3")
        for i in range(rank - 3):
            link(i, i + 1)
        link(rank - 3, rank - 2)
        link(rank - 3, rank - 1)  # fork; at rank 3 this is A3 relabeled
    elif letter == "G":
        if rank != 2:
            raise CartanError("G needs rank 2")
        link(0, 1, -1, -3)  # node 1 long
    else:
        raise CartanError(f"unsupported series {letter!r}")
    return a


def _parse_label(label: str) -> Tuple[str, int]:
    m = re.fullmatch(r"([A-Ga-g])_?(\d+)", label.strip())
    if not m:
        raise CartanError(f"cannot parse type label {label!r}")
    return m.group(1).upper(), int(m.group(2))


class CartanDatum:
    """Validated symmetrizable Cartan datum with weight-lattice operations."""

    def __init__(self, cartan_matrix: Sequence[Sequence[int]],
                 type_label: Optional[str] = None):
        a = tuple(tuple(int(x) for x in row) for row in cartan_matrix)
        n = len(a)
        if any(len(row) != n for row in a):
            raise CartanError("Cartan matrix must be square")
        for i in range(n):
            if a[i][i] != 2:
                raise CartanError("diagonal entries must equal 2")
            for j in range(n):
                if i != j:
                    if a[i][j] > 0:
                        raise CartanError("off-diagonal entries must be <= 0")
                    if (a[i][j] == 0) != (a[j][i] == 0):
                        raise CartanError("zero pattern must be symmetric")
        self.A = a
        self.n = n
        self.type_label = type_label
        self.d = self._symmetrizers()
        self.finite = self._is_finite()
        gram_rows = None
        # A^{-1}, for the Gram matrix and root_coefficients (finite type)
        self._ainv: Optional[List[List[Fraction]]] = None
        if self.finite:
            ainv = self._ainv = _frac_matrix_inverse(
                [[Fraction(x) for x in row] for row in a])
            # (omega_i, omega_j) = d_j * (A^{-1})_{ji}
            gram_rows = tuple(tuple(self.d[j] * ainv[j][i] for j in range(n))
                              for i in range(n))
        self.gram = gram_rows
        self.D = self._root_order() if self.finite else None
        # D * gram is integral (D is twice the lcm of its denominators), so
        # a pairing is one Fraction over D
        self._dgram = tuple(tuple(int(self.D * x) for x in row)
                            for row in gram_rows) if self.finite else None
        self.rho = tuple(Fraction(1) for _ in range(n))
        self._w0_word: Optional[Tuple[int, ...]] = None
        self._theta: Optional[Tuple[int, ...]] = None
        # what is built from this datum (its V_lambda, see uqmod.derived),
        # so modules, crystals and global bases live exactly as long as it
        self._derived: dict = {}
        if self.finite:
            self._compute_longest_element()

    # -- construction helpers -------------------------------------------------

    def _symmetrizers(self) -> Tuple[int, ...]:
        # propagate the ratio constraints d_i a_ij = d_j a_ji over the Dynkin graph
        n, a = self.n, self.A
        ratio: List[Optional[Fraction]] = [None] * n
        for seed in range(n):
            if ratio[seed] is not None:
                continue
            ratio[seed] = Fraction(1)
            stack = [seed]
            while stack:
                i = stack.pop()
                for j in range(n):
                    if i != j and a[i][j]:
                        want = ratio[i] * Fraction(a[i][j], a[j][i])
                        if ratio[j] is None:
                            ratio[j] = want
                            stack.append(j)
                        elif ratio[j] != want:
                            raise CartanError("matrix is not symmetrizable")
        scale = lcm(*(r.denominator for r in ratio)) if n else 1
        d = tuple(int(r * scale) for r in ratio)
        gg = 0
        for x in d:
            gg = gcd(gg, x)
        d = tuple(x // gg for x in d)
        for i in range(n):
            for j in range(n):
                if d[i] * a[i][j] != d[j] * a[j][i]:
                    raise CartanError("matrix is not symmetrizable")
        return d

    def _is_finite(self) -> bool:
        # positive definiteness of (d_i a_ij) via leading principal minors
        b = [[Fraction(self.d[i] * self.A[i][j]) for j in range(self.n)]
             for i in range(self.n)]
        m = [row[:] for row in b]
        for k in range(self.n):
            # exact fraction-free-ish elimination; minor sign check per step
            piv = m[k][k]
            if piv <= 0:
                return False
            for r in range(k + 1, self.n):
                f = m[r][k] / piv
                m[r] = [x - f * y for x, y in zip(m[r], m[k])]
        return True

    def _root_order(self) -> int:
        denoms = [x.denominator for row in self.gram for x in row]
        return 2 * lcm(*denoms)

    def _compute_longest_element(self) -> None:
        # Descend rho to -rho, reflecting at the smallest node with a
        # positive coordinate.  After the prefix P = s_(applied[0]) ..
        # s_(applied[-1]) the vector is P^-1 rho, whose i-th coordinate is
        # positive iff P(alpha_i) is a positive root iff l(P s_i) > l(P).
        # So each step lengthens P by one, the descent ends exactly when
        # P = w0, and every step takes the smallest i that a reduced word of
        # w0 can continue P with: as l(y w0) = N - l(y), any y with
        # l(y s_i) > l(y) is a prefix of some reduced word of w0.  applied
        # is therefore the lexicographically least reduced word of w0.
        v = self.rho
        applied: List[int] = []
        while True:
            i = next((k for k in range(self.n) if v[k] > 0), None)
            if i is None:
                break
            v = self.reflect(i, v)
            applied.append(i)
            if len(applied) > 100000:
                raise CartanError("longest-element descent failed to terminate")
        if v != tuple(-x for x in self.rho):
            raise CartanError("datum is not finite type")
        self._w0_word = tuple(applied)
        theta = []
        for j in range(self.n):
            img = self.apply_w0(self.alpha(j))
            match = next((k for k in range(self.n)
                          if img == tuple(-x for x in self.alpha(k))), None)
            if match is None:
                raise CartanError("w0 does not negate the simple roots")
            theta.append(match)
        self._theta = tuple(theta)
        if sorted(theta) != list(range(self.n)) or any(
                theta[theta[i]] != i
                or self.A[theta[i]][theta[j]] != self.A[i][j]
                for i in range(self.n) for j in range(self.n)):
            raise CartanError("-w0 is not an involutive diagram automorphism")

    # -- basic structure -------------------------------------------------------

    def alpha(self, i: int) -> WeightT:
        """Simple root alpha_i in fundamental-weight coordinates (column i of A)."""
        return tuple(Fraction(self.A[k][i]) for k in range(self.n))

    def pairing(self, i: int, wt: Sequence) -> Fraction:
        """<H_i, wt>: the i-th coordinate."""
        return Fraction(wt[i])

    def bilinear(self, wt1: Sequence, wt2: Sequence) -> Fraction:
        """Symmetric form (wt1, wt2) from the fundamental-weight Gram matrix."""
        if not self.finite:
            raise CartanError("bilinear form needs an invertible realization")
        return Fraction(sum(x * y * g for x, row in zip(wt1, self._dgram) if x
                            for y, g in zip(wt2, row) if y), self.D)

    def reflect(self, i: int, wt: Sequence) -> WeightT:
        """Simple reflection s_i(wt) = wt - <H_i, wt> alpha_i."""
        c = Fraction(wt[i])
        if not c:
            return tuple(Fraction(x) for x in wt)
        al = self.alpha(i)
        return tuple(Fraction(wt[k]) - c * al[k] for k in range(self.n))

    def root_coefficients(self, wt: Sequence) -> WeightT:
        """Coefficients c with wt = sum_j c_j alpha_j (solves A c = wt)."""
        self._require_finite()
        return tuple(sum(self._ainv[i][j] * Fraction(wt[j]) for j in range(self.n))
                     for i in range(self.n))

    # -- longest element and theta ----------------------------------------------

    def _require_finite(self):
        if not self.finite:
            raise CartanError("operation requires finite type")

    @property
    def w0_word(self) -> Tuple[int, ...]:
        self._require_finite()
        return self._w0_word

    @property
    def theta(self) -> Tuple[int, ...]:
        self._require_finite()
        return self._theta

    def apply_w0(self, wt: Sequence) -> WeightT:
        """w0(wt), reflected along w0_word: s_{w[-1]} ... s_{w[0]} is the
        inverse of the word's product w0, and w0 is an involution."""
        self._require_finite()
        out = wt
        for i in self._w0_word:
            out = self.reflect(i, out)
        return out

    def positive_roots(self) -> List[WeightT]:
        """All positive roots, by closure under simple reflections."""
        self._require_finite()
        seen = {self.alpha(i) for i in range(self.n)}
        frontier = list(seen)
        while frontier:
            beta = frontier.pop()
            for i in range(self.n):
                img = self.reflect(i, beta)
                if img not in seen and all(c >= 0 for c in self.root_coefficients(img)):
                    seen.add(img)
                    frontier.append(img)
        return sorted(seen)

    # -- dominance ----------------------------------------------------------------

    def dominance_leq(self, mu: Sequence, nu: Sequence) -> bool:
        """True iff nu - mu is a nonnegative rational combination of simple roots."""
        self._require_finite()
        diff = tuple(Fraction(nu[k]) - Fraction(mu[k]) for k in range(self.n))
        return all(c >= 0 for c in self.root_coefficients(diff))

    def is_dominant(self, wt: Sequence) -> bool:
        return all(Fraction(x) >= 0 for x in wt)

    # -- serialization ---------------------------------------------------------------

    def to_json_obj(self) -> dict:
        self._require_finite()
        return {
            "type": self.type_label or "GCM",
            "cartan": [list(row) for row in self.A],
            "d": list(self.d),
            "D": self.D,
            "theta": [i + 1 for i in self._theta],
            "w0": [i + 1 for i in self._w0_word],
        }

    def __repr__(self) -> str:
        return f"CartanDatum({self.type_label or self.A}, d={self.d})"


def make_cartan(spec: Union[str, Sequence[Sequence[int]]]) -> CartanDatum:
    """Build a CartanDatum from a type label like "A2"/"B_2" or a raw GCM."""
    if isinstance(spec, str):
        letter, rank = _parse_label(spec)
        return CartanDatum(_series_matrix(letter, rank), type_label=f"{letter}{rank}")
    return CartanDatum(spec)
