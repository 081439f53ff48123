"""Increment distributions: validation, moments, cumulants.

A walk increment is a finite-support integer random variable with mean zero
and maximal span 1 (gcd of support differences equals 1).  Probabilities are
rationalized on input -- decimal strings parse exactly, floats keep their
exact binary value -- so the structural checks (sum, mean, span) always run
in exact arithmetic.  ``arithmetic_mode`` records the tolerance regime:
exact equality for rational inputs, or for any inputs when the caller asks
for it (``exact=True``), and 1e-12 for float inputs.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InputError

FLOAT_TOL = Fraction(1, 10**12)


def _parse_prob(p) -> tuple[Fraction, bool]:
    """Rationalize one probability; returns (value, was_exact_input)."""
    if isinstance(p, Fraction):
        return p, True
    if isinstance(p, int):
        return Fraction(p), True
    if isinstance(p, str):
        try:
            return Fraction(p), True  # handles "3/10" and "0.3"
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse probability {p!r}") from exc
    if isinstance(p, float):
        if not math.isfinite(p):  # JSON NaN / Infinity
            raise InputError(f"cannot parse probability {p!r}")
        return Fraction(p), False  # exact binary value, not decimal re-parse
    raise InputError(f"unsupported probability type {type(p).__name__}")


@dataclass(frozen=True)
class IncrementDistribution:
    """Validated increment law of the walk."""

    support: tuple[int, ...]
    probs: tuple[Fraction, ...]
    arithmetic_mode: str  # "exact-rational" | "float64"

    def probs_float(self) -> list[float]:
        return [float(p) for p in self.probs]

    @property
    def min_step(self) -> int:
        return self.support[0]

    @property
    def max_step(self) -> int:
        return self.support[-1]

    def sigma2(self) -> Fraction:
        return sum(p * x * x for x, p in zip(self.support, self.probs))

    def sigma(self) -> float:
        return math.sqrt(float(self.sigma2()))

    def raw_moment(self, k: int) -> Fraction:
        return sum(p * Fraction(x) ** k for x, p in zip(self.support, self.probs))


def validate(support: Sequence[int], probs: Sequence, exact: bool = False) -> IncrementDistribution:
    """Validate and build an increment distribution.

    Float inputs select float64 and everything else exact-rational;
    ``exact`` forces exact-rational, so float inputs must then sum to 1 and
    have mean 0 exactly.  Raises InputError on a non-integer support point, a
    sum other than 1, a nonzero mean, a span other than 1 or an empty side.
    """
    if len(support) == 0 or len(support) != len(probs):
        raise InputError("support and probs must be nonempty and of equal length")
    if not all(isinstance(x, numbers.Integral) and not isinstance(x, bool) for x in support):
        raise InputError(f"support points must be integers, got {list(support)!r}")
    pairs = sorted(zip([int(x) for x in support], probs), key=lambda pair: pair[0])
    xs = tuple(x for x, _ in pairs)
    if len(set(xs)) != len(xs):
        raise InputError("support points must be distinct")

    parsed = [_parse_prob(p) for _, p in pairs]
    ps = tuple(v for v, _ in parsed)
    exact = exact or all(flag for _, flag in parsed)

    if any(p <= 0 or p > 1 for p in ps):
        raise InputError("probabilities must lie in (0, 1]")

    tol = Fraction(0) if exact else FLOAT_TOL
    total = sum(ps)
    if abs(total - 1) > tol:
        raise InputError(f"probabilities sum to {total}, not 1")
    if xs[0] >= 0 or xs[-1] <= 0:
        raise InputError("support needs at least one negative and one positive point")
    mean = sum(p * x for x, p in zip(xs, ps))
    if abs(mean) > tol:
        raise InputError(f"mean is {mean}, not 0")

    span = 0
    for x in xs[1:]:
        span = math.gcd(span, x - xs[0])
    if span != 1:
        raise InputError(f"gcd of support differences is {span}, not 1")

    return IncrementDistribution(support=xs, probs=ps,
                                 arithmetic_mode="exact-rational" if exact else "float64")


def load(path, exact: bool = False) -> IncrementDistribution:
    """Read and validate the file schema {"support": [ints], "probs": [entries]}."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InputError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict) or "support" not in obj or "probs" not in obj:
        raise InputError('distribution file needs "support" and "probs" keys')
    if not isinstance(obj["support"], list) or not isinstance(obj["probs"], list):
        raise InputError('"support" and "probs" must be lists')
    return validate(obj["support"], obj["probs"], exact)


def _cumulants_from_raw(raw: list[Fraction]) -> list[Fraction]:
    """Moment->cumulant recursion; raw[1] = 0 keeps raw == central."""
    n = len(raw) - 1
    kap = [Fraction(0)] * (n + 1)
    for k in range(1, n + 1):
        acc = raw[k]
        for j in range(1, k):
            acc -= math.comb(k - 1, j - 1) * kap[j] * raw[k - j]
        kap[k] = acc
    return kap


def cumulants(dist: IncrementDistribution, order: int) -> list[Fraction]:
    """Cumulants gamma_2..gamma_order as a list (index 0 -> gamma_2), exact."""
    if order < 2:
        raise InputError("order must be >= 2")
    return _cumulants_from_raw([dist.raw_moment(k) for k in range(order + 1)])[2:]


def cumulant_ratios(dist: IncrementDistribution, count: int) -> list[float]:
    """lambda_m = gamma_{m+2} / ((m+2)! sigma^{m+2}) for m = 1..count, floats."""
    gam = cumulants(dist, count + 2)
    sigma = dist.sigma()
    return [float(gam[m]) / (math.factorial(m + 2) * sigma ** (m + 2))
            for m in range(1, count + 1)]
