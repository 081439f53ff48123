"""Increment distributions: validation, moments, cumulants.

A walk increment is a finite-support integer random variable with mean zero
and maximal span 1 (gcd of support differences equals 1).  Probabilities are
rationalized on input -- decimal strings parse exactly, floats keep their
exact binary value -- so the structural checks (sum, mean, span) always run
in exact arithmetic.  ``arithmetic_mode`` records how the inputs arrived and
picks the tolerance regime: exact equality for rational inputs, 1e-12 for
float inputs.
"""

from __future__ import annotations

import json
import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import EmptySide, InputError, MeanNotZero, SpanNotOne, SumNotOne

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
        return Fraction(p), False  # exact binary value, not decimal re-parse
    raise InputError(f"unsupported probability type {type(p).__name__}")


@dataclass(frozen=True)
class IncrementDistribution:
    """Validated increment law of the walk."""

    support: tuple[int, ...]
    probs: tuple[Fraction, ...]
    arithmetic_mode: str  # "exact-rational" | "float64"
    name: str = field(default="", compare=False)

    def prob_map(self) -> dict[int, Fraction]:
        return dict(zip(self.support, self.probs))

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

    def restricted_moment(self, h: int, shift: int, cutoff: int) -> Fraction:
        """E[(-X - shift)^h ; X <= cutoff] with 0^0 = 1."""
        out = Fraction(0)
        for x, p in zip(self.support, self.probs):
            if x <= cutoff:
                out += p * Fraction(-x - shift) ** h
        return out

    def to_json_dict(self) -> dict:
        return {
            "support": list(self.support),
            "probs": [str(p) for p in self.probs],
        }

    def digest(self) -> bytes:
        """Stable hash of the rationalized distribution."""
        blob = json.dumps(self.to_json_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).digest()

    def __str__(self) -> str:
        label = self.name or "dist"
        pts = ", ".join(f"{x}:{p}" for x, p in zip(self.support, self.probs))
        return f"{label}({pts})"


def validate(support: Sequence[int], probs: Sequence, mode: str | None = None) -> IncrementDistribution:
    """Validate and build an increment distribution.

    ``mode`` may force "exact-rational" or "float64"; by default float inputs
    select float64 and everything else exact-rational.  Raises SumNotOne,
    MeanNotZero, SpanNotOne or EmptySide.
    """
    if len(support) == 0 or len(support) != len(probs):
        raise InputError("support and probs must be nonempty and of equal length")
    pairs = sorted(zip([int(x) for x in support], probs))
    xs = tuple(x for x, _ in pairs)
    if len(set(xs)) != len(xs):
        raise InputError("support points must be distinct")

    parsed = [_parse_prob(p) for _, p in pairs]
    ps = tuple(v for v, _ in parsed)
    all_exact = all(flag for _, flag in parsed)
    if mode is None:
        mode = "exact-rational" if all_exact else "float64"
    if mode not in ("exact-rational", "float64"):
        raise InputError(f"unknown arithmetic mode {mode!r}")

    if any(p <= 0 or p > 1 for p in ps):
        raise InputError("probabilities must lie in (0, 1]")

    tol = Fraction(0) if mode == "exact-rational" else FLOAT_TOL
    total = sum(ps)
    if abs(total - 1) > tol:
        raise SumNotOne(f"probabilities sum to {total}, not 1")
    if xs[0] >= 0 or xs[-1] <= 0:
        raise EmptySide("support needs at least one negative and one positive point")
    mean = sum(p * x for x, p in zip(xs, ps))
    if abs(mean) > tol:
        raise MeanNotZero(f"mean is {mean}, not 0")

    span = 0
    for x in xs[1:]:
        span = math.gcd(span, x - xs[0])
    if span != 1:
        raise SpanNotOne(f"gcd of support differences is {span}, not 1")

    return IncrementDistribution(support=xs, probs=ps, arithmetic_mode=mode)


def from_json_dict(obj: dict, mode: str | None = None) -> IncrementDistribution:
    """Build from the file schema {"support": [ints], "probs": [entries]}."""
    if not isinstance(obj, dict) or "support" not in obj or "probs" not in obj:
        raise InputError('distribution file needs "support" and "probs" keys')
    return validate(obj["support"], obj["probs"], mode=mode)


def load(path, mode: str | None = None) -> IncrementDistribution:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON in {path}: {exc}") from exc
    return from_json_dict(obj, mode=mode)


@dataclass(frozen=True)
class MomentVector:
    """Raw/central moments and cumulants up to a given order (mean zero)."""

    order: int
    raw_moments: tuple  # index k -> E X^k, k = 0..order
    cumulants: tuple  # index k -> kappa_k, k = 0..order (entries 0,1 unused)
    sigma: float

    @property
    def central_moments(self) -> tuple:
        return self.raw_moments  # mean zero: central == raw

    def m(self, k: int):
        return self.raw_moments[k]


def moments(dist: IncrementDistribution, order: int) -> MomentVector:
    """All raw moments and cumulants up to ``order`` (exact Fractions)."""
    if order < 2:
        raise InputError("order must be >= 2")
    raw = [dist.raw_moment(k) for k in range(order + 1)]
    kap = _cumulants_from_raw(raw)
    return MomentVector(
        order=order,
        raw_moments=tuple(raw),
        cumulants=tuple(kap),
        sigma=math.sqrt(float(raw[2])),
    )


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
    """Cumulants gamma_2..gamma_order as a list (index 0 -> gamma_2)."""
    mv = moments(dist, order)
    return [mv.cumulants[k] for k in range(2, order + 1)]


def cumulant_ratios(dist: IncrementDistribution, count: int) -> list[float]:
    """lambda_m = gamma_{m+2} / ((m+2)! sigma^{m+2}) for m = 1..count, floats."""
    mv = moments(dist, count + 2)
    sigma = mv.sigma
    out = []
    for m in range(1, count + 1):
        out.append(float(mv.cumulants[m + 2]) / (math.factorial(m + 2) * sigma ** (m + 2)))
    return out
