"""Tail extrapolation of sequences a_k = c0 + c1/k + c2/k^2 + ...

Linear least squares over an explicit basis {k^-e}, solved by SVD with
column scaling.  Preferred over Richardson elimination because the target
sequences carry slowly varying (log-contaminated) remainders that break
pure elimination tables.  The limit estimate is c0; its error estimate is
the spread between fits on two staggered windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IllConditioned, InsufficientPoints

COND_GUARD = 1e12


@dataclass(frozen=True)
class ExtrapolationResult:
    limit: float
    coefficients: tuple[float, ...]  # c1..c_m matching exponents[1:]
    coefficient_errors: tuple[float, ...]  # staggered-window shift of each c1..c_m
    window: tuple[float, float]
    error_estimate: float  # staggered-window shift of the limit
    model: tuple[float, ...]  # exponents used, first is 0


def _fit_window(ks: np.ndarray, a: np.ndarray, exponents: Sequence[float],
                lo: float, hi: float) -> np.ndarray:
    mask = (ks >= lo) & (ks <= hi)
    npts = int(mask.sum())
    if npts < len(exponents) + 2:
        raise InsufficientPoints(
            f"window [{lo}, {hi}] holds {npts} points, need >= {len(exponents) + 2}"
        )
    kw = ks[mask]
    aw = a[mask]
    design = np.column_stack([kw ** (-e) for e in exponents])
    norms = np.linalg.norm(design, axis=0)
    scaled = design / norms
    cond = np.linalg.cond(scaled)
    if cond > COND_GUARD:
        raise IllConditioned(f"condition number {cond:.3e} exceeds {COND_GUARD:.0e}")
    coef, *_ = np.linalg.lstsq(scaled, aw, rcond=None)
    return coef / norms


def fit_power_tail(seq: Sequence[tuple[float, float]], exponents: Sequence[float],
                   window: tuple[float, float] | None = None) -> ExtrapolationResult:
    """Fit c_e over the basis {k^-e}; the e = 0 coefficient is the limit.

    ``seq`` is (k, a_k) pairs.  Default window is the last third of the k
    range; the error estimate refits on a window starting 10% earlier and
    reports the shift in the limit (``coefficient_errors``: in each c_e).
    """
    exponents = list(exponents)
    if not exponents or exponents[0] != 0:
        raise ValueError("exponents must start with 0 (the limit term)")
    if any(b <= a for a, b in zip(exponents, exponents[1:])):
        raise ValueError("exponents must be strictly increasing")
    pairs = sorted(seq)
    ks = np.array([k for k, _ in pairs], dtype=float)
    a = np.array([v for _, v in pairs], dtype=float)
    if window is None:
        span = ks[-1] - ks[0]
        window = (ks[-1] - span / 3.0, ks[-1])
    lo, hi = window
    coef = _fit_window(ks, a, exponents, lo, hi)
    span = ks[-1] - ks[0]
    lo2 = max(ks[0], lo - 0.10 * span)
    if lo2 < lo:
        shift = np.abs(coef - _fit_window(ks, a, exponents, lo2, hi))
    else:
        shift = np.zeros_like(coef)
    return ExtrapolationResult(
        limit=float(coef[0]),
        coefficients=tuple(float(c) for c in coef[1:]),
        coefficient_errors=tuple(float(e) for e in shift[1:]),
        window=(float(lo), float(hi)),
        error_estimate=float(shift[0]),
        model=tuple(float(e) for e in exponents),
    )


def limit_with_rate(seq: Sequence[tuple[float, float]], leading_power: float = 1.0,
                    window: tuple[float, float] | None = None) -> ExtrapolationResult:
    """Convenience fit with exponents {0, p, p+1, p+2} for known leading power p."""
    p = float(leading_power)
    return fit_power_tail(seq, [0.0, p, p + 1.0, p + 2.0], window=window)
