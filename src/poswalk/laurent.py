"""Exact Laurent-polynomial arithmetic and the gamma/Q coefficient family.

Everything here is exact: coefficients are ``fractions.Fraction`` unless a
caller deliberately feeds floats (the containers are agnostic, they only
need ``+`` and ``*``).  The two coefficient families are

* ``gamma(q, j, l)`` -- rationals produced either by a closed-form sum over
  ascending subsets of ``{1..j}`` or by a two-term recursion; the two routes
  must agree exactly and are cross-checked in the tests,
* ``q_jlm(j, l, m)`` -- Laurent polynomials mixing powers ``t^(m+2q)`` with
  ``t^(-2k-1)``; for the assembled expansion their negative powers cancel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb


def double_factorial(k: int) -> int:
    """k!! for odd k >= -1, with (-1)!! = 1."""
    if k < -1:
        raise ValueError(f"double factorial undefined for k={k}")
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


class LaurentPoly:
    """Laurent polynomial: map integer exponent -> coefficient.

    Zero coefficients are never stored.  Immutable by convention (all
    operations return fresh objects).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for e, c in coeffs.items():
                if c != 0:
                    self.coeffs[int(e)] = c

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + other.scale(-1)

    def scale(self, factor) -> "LaurentPoly":
        if factor == 0:
            return LaurentPoly()
        return LaurentPoly({e: c * factor for e, c in self.coeffs.items()})

    def term_shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k (exponent shift)."""
        return LaurentPoly({e + k: c for e, c in self.coeffs.items()})

    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return max(self.coeffs)

    def min_exponent(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponents")
        return min(self.coeffs)

    def negative_part(self) -> "LaurentPoly":
        return LaurentPoly({e: c for e, c in self.coeffs.items() if e < 0})

    def polynomial_part(self) -> "LaurentPoly":
        return LaurentPoly({e: c for e, c in self.coeffs.items() if e >= 0})

    def to_poly(self) -> "Poly":
        """Dense conversion; requires no negative exponents."""
        if any(e < 0 for e in self.coeffs):
            raise ValueError("negative exponents present")
        if not self.coeffs:
            return Poly([])
        out = [0] * (self.degree() + 1)
        for e, c in self.coeffs.items():
            out[e] = c
        return Poly(out)

    def __call__(self, t):
        return sum(c * t**e for e, c in self.coeffs.items())

    def __repr__(self) -> str:
        if not self.coeffs:
            return "LaurentPoly(0)"
        parts = [f"{c}*t^{e}" for e, c in sorted(self.coeffs.items())]
        return "LaurentPoly(" + " + ".join(parts) + ")"


class Poly:
    """Dense polynomial, coefficients ascending by degree, trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = coeffs

    @classmethod
    def zero(cls) -> "Poly":
        return cls([])

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __len__(self) -> int:
        return len(self.coeffs)

    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return len(self.coeffs) - 1

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(i) - other.coeff(i) for i in range(n)])

    def scale(self, factor) -> "Poly":
        return Poly([c * factor for c in self.coeffs])

    def shift_up(self, k: int) -> "Poly":
        """Multiply by t^k."""
        if not self.coeffs:
            return Poly([])
        return Poly([0] * k + self.coeffs)

    def __call__(self, t):
        out = 0
        for c in reversed(self.coeffs):
            out = out * t + c
        return out

    def parity_powers(self):
        """Set of exponent parities carried by nonzero coefficients."""
        return {i % 2 for i, c in enumerate(self.coeffs) if c != 0}

    def as_float(self) -> "Poly":
        return Poly([float(c) for c in self.coeffs])

    def __repr__(self) -> str:
        return f"Poly({self.coeffs})"


def gamma_closed(q: int, j: int, l: int) -> Fraction:
    """Closed-form gamma(q,j,l): prefactor times a sum over ascending subsets.

    Each (j-q)-element ascending subset (a_1 < ... < a_{j-q}) of {1..j}
    contributes prod_i (l + 2*a_i - i - 1/2); the empty product (q = j)
    counts as 1, and q > j gives 0.
    """
    if q < 0 or j < 0 or l < 0:
        raise ValueError("indices must be nonnegative")
    if j > 16:
        raise ValueError("subset enumeration capped at j = 16")
    if q > j:
        return Fraction(0)
    pref = Fraction((-1) ** q * 2**j, 2**q * double_factorial(2 * j - 1))
    total = Fraction(0)
    for subset in itertools.combinations(range(1, j + 1), j - q):
        prod = Fraction(1)
        for i, a in enumerate(subset, start=1):
            prod *= Fraction(2 * (l + 2 * a - i) - 1, 2)
        total += prod
    return pref * total


@lru_cache(maxsize=None)
def gamma_recursive(q: int, j: int, l: int) -> Fraction:
    """gamma via the two-term recursion in (j-1, l+1) and (j-1, l+2)."""
    if q < 0 or j < 0 or l < 0:
        raise ValueError("indices must be nonnegative")
    if q > j:
        return Fraction(0)
    if j == 0:
        return Fraction(1)  # q == 0 here
    half = Fraction(1, 2)
    a = (l + half) / (j - half) * gamma_recursive(q, j - 1, l + 1)
    if q == 0:
        return a
    return a - gamma_recursive(q - 1, j - 1, l + 2) / (2 * (j - half))


def q_jlm(j: int, l: int, m: int) -> LaurentPoly:
    """The Laurent polynomial t^m * sum_q gamma(q,j,l) t^{2q} * S_q(1/t).

    S_q(1/t) = sum_{k=0}^{l+j+q-1} (2k-1)!! C(l+j+q-1, k) / t^{2k+1}.
    Highest exponent is m + 2j - 1 whenever the top gamma is nonzero.
    """
    if j < 0 or l < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    if j + l < 1:
        raise ValueError("need j + l >= 1")
    out = LaurentPoly()
    for q in range(j + 1):
        g = gamma_closed(q, j, l)
        if g == 0:
            continue
        top = l + j + q - 1
        inner = LaurentPoly(
            {
                -(2 * k + 1): Fraction(double_factorial(2 * k - 1) * comb(top, k))
                for k in range(top + 1)
            }
        )
        out = out + inner.scale(g).term_shift(m + 2 * q)
    return out


@dataclass(frozen=True)
class ResidueReport:
    """Whether a single q_jlm cancels its own negative powers."""

    j: int
    l: int
    m: int
    cancels: bool
    min_exponent: int


def negative_residue_survey(j_max: int, l_max: int, m_max: int) -> list[ResidueReport]:
    """Report which individual q_jlm have no surviving negative powers.

    Observational only: the assembled expansion is what must cancel, single
    terms may or may not.  Kept as a helper for the report script.
    """
    out = []
    for j in range(j_max + 1):
        for l in range(l_max + 1):
            if j + l < 1:
                continue
            for m in range(m_max + 1):
                p = q_jlm(j, l, m)
                neg = p.negative_part()
                out.append(
                    ResidueReport(
                        j=j,
                        l=l,
                        m=m,
                        cancels=not bool(neg),
                        min_exponent=p.min_exponent() if p else 0,
                    )
                )
    return out
