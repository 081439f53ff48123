"""Tail extrapolation of sequences a_k = c0 + c1/k + c2/k^2 + ...

Linear least squares over the basis {k^0, k^-1, ..., k^-(terms-1)}, solved by
SVD with column scaling.  For a finite-support law the generating function of
tau is algebraic, so these sequences expand in pure powers of 1/k (transfer
theorem, Flajolet & Sedgewick VI): the basis holds no log terms to miss, and
the fits are limited by the float sweep's rounding, which the k^-l coefficient
amplifies roughly as K^l at a window near k = K, not by truncation.

The limit estimate is c0; each coefficient's error estimate is its shift
between fits on two staggered windows.  Sequences over the same ks (the theta
moments, the U1 columns) share each window's design (``fit_power_tails``) but
keep one solve each, so sharing changes no bit.

A sequence may hold only the tail of ``ks`` (aligned to its end) from
``first_read(ks)`` on: no window reads an earlier point, so the oracle
stores nothing before it on the constants' route.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, InsufficientPoints

COND_GUARD = 1e12


@dataclass(frozen=True)
class ExtrapolationResult:
    coefficients: tuple[float, ...]  # c_0 (the limit), c_1, ... of the k^-e terms
    errors: tuple[float, ...]  # staggered-window shift of each c_e, c_0 first
    window: tuple[float, float]

    @property
    def limit(self) -> float:
        return self.coefficients[0]


def _window(ks: np.ndarray, terms: int, lo: float, hi: float):
    """The fit window's (slice of ``ks``, column-scaled design, column norms).

    ``ks`` is strictly increasing, so the points in [lo, hi] are one slice.
    """
    window = slice(np.searchsorted(ks, lo, "left"), np.searchsorted(ks, hi, "right"))
    kw = ks[window]
    npts = len(kw)
    if npts < terms + 2:
        raise InsufficientPoints(f"window [{lo}, {hi}] holds {npts} points, need >= {terms + 2}")
    design = np.empty((npts, terms))
    for e in range(terms):
        design[:, e] = kw ** (-e)
    norms = np.linalg.norm(design, axis=0)
    design /= norms
    return window, design, norms


def _bounds(ks) -> tuple[float, float, float]:
    """The window [lo, hi], the last third of the k range, and the start of
    the error estimate's wide window, 10% of the range earlier."""
    span = ks[-1] - ks[0]
    lo = ks[-1] - span / 3.0
    return lo, ks[-1], lo - 0.10 * span


def first_read(*grids) -> int:
    """The first index, over the strictly increasing ``grids``, of a point that
    ``fit_power_tails`` reads: the start of its wide window.  A grid may be a
    ``range``, which is searched without building the array."""
    return min(bisect.bisect_left(ks, _bounds(ks)[2]) for ks in grids)


def _solve(window, a: np.ndarray, skip: int) -> np.ndarray:
    """The window's fit to ``a``, whose first point is at index ``skip`` of ks."""
    rows, scaled, norms = window
    coef, _, _, sv = np.linalg.lstsq(scaled, a[rows.start - skip : rows.stop - skip], rcond=None)
    cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf  # the 2-norm condition number
    if cond > COND_GUARD:
        raise IllConditioned(f"condition number {cond:.3e} exceeds {COND_GUARD:.0e}")
    return coef / norms


def fit_power_tails(ks: np.ndarray, sequences, terms: int) -> list[ExtrapolationResult]:
    """Fit c_0..c_{terms-1} over the basis {k^-e} to each array in ``sequences``.

    Every array is a sequence over the tail of the same ``ks`` (strictly
    increasing), aligned to its end, that starts at or before
    ``first_read(ks)``; c_0 is its limit.  The window is the last third of the
    k range; the error estimates refit on a window starting 10% of the
    range earlier and report each coefficient's shift.  The window
    designs are built once and shared; each sequence gets a least-squares
    solve of its own, so its result does not depend on the others.
    ``sequences`` is consumed one array at a time.
    """
    if terms < 1:
        raise ValueError("need at least one term (the limit)")
    ks = np.asarray(ks, dtype=float)
    if ks.ndim != 1 or not ks.size:
        raise ValueError("ks must be a nonempty 1-d array")
    if np.any(np.diff(ks) <= 0):
        raise ValueError("ks must be strictly increasing")
    lo, hi, wide_lo = _bounds(ks)
    main = _window(ks, terms, lo, hi)
    wide = _window(ks, terms, wide_lo, hi)
    results = []
    for a in sequences:
        a = np.asarray(a, dtype=float)
        skip = len(ks) - len(a) if a.ndim == 1 else -1  # a[i] is the value at ks[skip + i]
        if not 0 <= skip <= wide[0].start:
            raise ValueError("each a must be a 1-d array over a tail of ks that holds both windows")
        coef = _solve(main, a, skip)
        results.append(ExtrapolationResult(
            coefficients=tuple(float(c) for c in coef),
            errors=tuple(float(e) for e in np.abs(coef - _solve(wide, a, skip))),
            window=(float(lo), float(hi)),
        ))
    return results

