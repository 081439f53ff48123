"""Exact Laurent-polynomial arithmetic and the gamma/Q coefficient family.

``Poly`` is the one polynomial type of the package: the exact Laurent blocks,
their weighted sums, the Hermite and free-walk polynomials and the assembled
Q_eta and P_nu are all instances.  It stores exponent -> coefficient and only
needs ``+`` and ``*`` of its coefficients, so ``fractions.Fraction`` keeps it
exact and floats run the numeric pipeline through the same code.  The two
coefficient families are

* ``gamma_closed(q, j, l)`` -- rationals given by a closed-form sum over
  ascending subsets of ``{1..j}``; the tests hold the two-term recursion it
  must agree with exactly,
* ``q_jlm(j, l, m)`` -- Laurent polynomials mixing powers ``t^(m+2q)`` with
  ``t^(-2k-1)``; a single block may keep negative powers, but in the
  assembled expansion they cancel (``expansion.assemble_Q`` checks it).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
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


class Poly:
    """Laurent polynomial in t: a map exponent -> coefficient, zeros never stored.

    Built from a dense list ``Poly([c0, c1, ...])`` (the coefficients of
    t^0, t^1, ...) or from a map ``Poly({e: c})`` whose exponents may be
    negative.  Immutable by convention (all operations return fresh objects).
    """

    __slots__ = ("terms", "_dense")

    def __init__(self, coeffs=()):
        items = coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)
        self.terms = {int(e): c for e, c in items if c != 0}
        self._dense = None

    @property
    def coeffs(self) -> list:
        """Dense coefficients of t^0..t^degree, built once.

        The gaps hold 0.0 in a float polynomial (Horner then adds float to
        float, not the slower float to int) and int 0 otherwise.
        """
        if self._dense is None:
            if self.terms and min(self.terms) < 0:
                raise ValueError("negative exponents have no dense form")
            zero = 0.0 if any(isinstance(c, float) for c in self.terms.values()) else 0
            dense = [zero] * (max(self.terms) + 1 if self.terms else 0)
            for e, c in self.terms.items():
                dense[e] = c
            self._dense = dense
        return self._dense

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1)

    def scale(self, factor) -> "Poly":
        if factor == 0:
            return Poly()
        return Poly({e: c * factor for e, c in self.terms.items()})

    def shift(self, k: int) -> "Poly":
        """Multiply by t^k."""
        return Poly({e + k: c for e, c in self.terms.items()})

    def degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(self.terms)

    def min_exponent(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self.terms)

    def coeff(self, k: int):
        return self.terms.get(k, 0)

    def negative_part(self) -> "Poly":
        return Poly({e: c for e, c in self.terms.items() if e < 0})

    def polynomial_part(self) -> "Poly":
        return Poly({e: c for e, c in self.terms.items() if e >= 0})

    def __call__(self, t):
        # plain loops only: a generator here would make t a closure cell and
        # slow every Horner step (about 5% of ExpansionSet.evaluate)
        dense = self._dense
        if dense is None:
            dense = self.coeffs  # raises ValueError on a negative exponent
        out = 0
        for c in reversed(dense):  # Horner over the cached dense list
            out = out * t + c
        return out

    def __repr__(self) -> str:
        return f"Poly({dict(sorted(self.terms.items()))})"


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


def q_jlm(j: int, l: int, m: int) -> Poly:
    """The Laurent polynomial t^m * sum_q gamma(q,j,l) t^{2q} * S_q(1/t).

    S_q(1/t) = sum_{k=0}^{l+j+q-1} (2k-1)!! C(l+j+q-1, k) / t^{2k+1}.
    Highest exponent is m + 2j - 1 whenever the top gamma is nonzero.
    """
    if j < 0 or l < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    if j + l < 1:
        raise ValueError("need j + l >= 1")
    out = Poly()
    for q in range(j + 1):
        g = gamma_closed(q, j, l)
        if g == 0:
            continue
        top = l + j + q - 1
        inner = Poly(
            {
                -(2 * k + 1): Fraction(double_factorial(2 * k - 1) * comb(top, k))
                for k in range(top + 1)
            }
        )
        out = out + inner.scale(g).shift(m + 2 * q)
    return out
