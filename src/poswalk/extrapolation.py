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


def fit_power_tail(ks: np.ndarray, a: np.ndarray, exponents: Sequence[float],
                   window: tuple[float, float] | None = None) -> ExtrapolationResult:
    """Fit c_e over the basis {k^-e}; the e = 0 coefficient is the limit.

    ``ks`` (strictly increasing) and ``a`` are equal-length arrays of the
    sequence.  Default window is the last third of the k range; the error
    estimate refits on a window starting 10% earlier and reports the shift
    in the limit (``coefficient_errors``: in each c_e).
    """
    exponents = list(exponents)
    if not exponents or exponents[0] != 0:
        raise ValueError("exponents must start with 0 (the limit term)")
    if any(e1 <= e0 for e0, e1 in zip(exponents, exponents[1:])):
        raise ValueError("exponents must be strictly increasing")
    ks = np.asarray(ks, dtype=float)
    a = np.asarray(a, dtype=float)
    if ks.ndim != 1 or ks.shape != a.shape or not ks.size:
        raise ValueError("ks and a must be nonempty 1-d arrays of equal length")
    if np.any(np.diff(ks) <= 0):
        raise ValueError("ks must be strictly increasing")
    span = ks[-1] - ks[0]
    if window is None:
        window = (ks[-1] - span / 3.0, ks[-1])
    lo, hi = window
    coef = _fit_window(ks, a, exponents, lo, hi)
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


def limit_with_rate(ks: np.ndarray, a: np.ndarray) -> ExtrapolationResult:
    """Fit with exponents {0, 1, 2, 3}: a limit approached at rate 1/k."""
    return fit_power_tail(ks, a, [0.0, 1.0, 2.0, 3.0])
