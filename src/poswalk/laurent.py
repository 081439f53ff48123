"""Exact Laurent-polynomial arithmetic and the gamma/Q coefficient family.

``Poly`` is the one polynomial type of the package: the exact Laurent blocks,
their weighted sums, the Hermite and free-walk polynomials and the assembled
Q_eta and P_nu are all instances.  It stores exponent -> coefficient and only
needs ``+`` and ``*`` of its coefficients, so ``fractions.Fraction`` keeps the
assembly exact and the rounded P_nu evaluate in floats through the same code.
The coefficient families are

* ``gamma_recursive(q, j, l)`` -- rationals from a two-term recursion in
  (j-1, l+1) and (j-1, l+2), memoised by ``functools.lru_cache``; the tests
  hold the closed-form subset sum it must agree with exactly,
* ``tail_block(b)`` -- the tail sum S_b(1/t) = sum_k (2k-1)!! C(b,k) t^(-2k-1)
  with integer coefficients, the one source of these sums: the blocks below
  and ``integral.closed_form`` both read it,
* ``q_jlm(j, l, m)`` -- Laurent polynomials mixing powers ``t^(m+2q)`` with
  ``t^(-2k-1)``; a single block may keep negative powers, but in the
  assembled expansion they cancel (``expansion.assemble_Q`` checks it).
"""

from __future__ import annotations

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


def tail_block(b: int) -> Poly:
    """S_b(1/t) = sum_{k=0}^{b} (2k-1)!! C(b, k) t^{-(2k+1)}, terms in k order."""
    if b < 0:
        raise ValueError("b must be >= 0")
    return Poly({-(2 * k + 1): double_factorial(2 * k - 1) * comb(b, k) for k in range(b + 1)})


def q_jlm(j: int, l: int, m: int) -> Poly:
    """The Laurent polynomial t^m * sum_q gamma(q,j,l) t^{2q} * S_{l+j+q-1}(1/t).

    Highest exponent is m + 2j - 1 whenever the top gamma is nonzero.
    """
    if j < 0 or l < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    if j + l < 1:
        raise ValueError("need j + l >= 1")
    out = Poly()
    for q in range(j + 1):
        g = gamma_recursive(q, j, l)
        if g == 0:
            continue
        out = out + tail_block(l + j + q - 1).scale(g).shift(m + 2 * q)
    return out
