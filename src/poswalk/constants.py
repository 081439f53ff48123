"""Walk-dependent constants of the expansion: theta0, theta1, b and U1.

All constants are limits of exactly computed oracle sequences:

* theta0 = lim k^{3/2} P(tau = k),
* theta1 = lim k^{3/2} E[-S_tau / sigma; tau = k]   (overshoot in sigma units),
* b[l, h] = the 1/k^l correction coefficients of k^{3/2} * Theta_k^(h),
  where Theta_k^(h) is the h-th sigma-normalized overshoot moment; theta0
  and theta1 coincide with b[0,0] and b[0,1],
* U1(u)  = lim (n+1)^{3/2} P(S_n = u, tau > n) for small u.

The renewal identity P(tau = n+1) = sum_u P(S_n = u, tau > n) P(kill from u)
gives a second route: theta0 = sum_u U1(u) P(step from u is killed) and
theta1 = (1/sigma) sum_u U1(u) E[overshoot from u], where finite support
truncates the sums exactly.  Both routes fit the same sweep with a linear
fit, so they agree to rounding (relative 5e-16 to 4e-14 on the test walks):
the check catches errors in the kill and overshoot bookkeeping, not the
extrapolation error.  The Spitzer-Baxter series for theta0, which needs no
killed sweep and no tail fit, is the independent route (ROADMAP item 4).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import HighOrderAccuracyWarning, InputError
from .extrapolation import ExtrapolationResult, fit_power_tail, limit_with_rate
from .increments import IncrementDistribution
from .oracle import Barrier, TauStatistics, tau_statistics

DEFAULT_KMAX = 4096
DEFAULT_U_MAX = 30


def _scaled_theta_seq(stats: TauStatistics, h: int):
    ks = np.arange(1, stats.kmax + 1, dtype=float)
    return list(zip(ks, ks**1.5 * stats.theta[h]))


def b_fit(dist: IncrementDistribution, h: int, l_max: int, kmax: int = DEFAULT_KMAX,
          barrier=Barrier.STRICT,
          stats: TauStatistics | None = None) -> dict[int, ExtrapolationResult]:
    """Correction coefficients b[l, h], l = 0..l_max, of k^{3/2} Theta^(h).

    Fits the basis {k^0, ..., k^-(l_max+1)}; coefficient of k^-l is b[l, h].
    Accuracy beyond l = 1 is unvalidated territory and warns.
    """
    if l_max < 0:
        raise InputError("l_max must be >= 0")
    if l_max >= 2:
        warnings.warn("b coefficients with l >= 2 carry unvalidated accuracy",
                      HighOrderAccuracyWarning, stacklevel=2)
    if stats is None:
        stats = tau_statistics(dist, kmax, barrier, hmax=h)
    if h not in stats.theta:
        raise InputError(f"statistics sweep lacks overshoot order h={h}")
    fit = fit_power_tail(_scaled_theta_seq(stats, h), range(l_max + 2))
    coefs = (fit.limit,) + fit.coefficients
    errors = (fit.error_estimate,) + fit.coefficient_errors
    return {l: ExtrapolationResult(limit=coefs[l], coefficients=(), coefficient_errors=(),
                                   window=fit.window, error_estimate=errors[l],
                                   model=fit.model)
            for l in range(l_max + 1)}


def u1_tabulate(stats: TauStatistics) -> dict[int, ExtrapolationResult]:
    """U1(u) = lim (n+1)^{3/2} P(S_n = u, tau > n), per-column extrapolation."""
    ns = np.arange(1, stats.kmax + 1, dtype=float) + 1.0
    return {u: limit_with_rate(list(zip(ns, ns**1.5 * stats.column(u))))
            for u in range(stats.barrier.floor, stats.u_max + 1)}


def _renewal_sum(dist: IncrementDistribution, u1: dict[int, ExtrapolationResult],
                 barrier: Barrier, h: int) -> float:
    """sum_u U1(u) E[(-X - u)^h ; step from u is killed]; exact truncation.

    h = 0 weights by the kill probability, h = 1 by the one-step overshoot.
    """
    total = 0.0
    for u, res in sorted(u1.items()):
        cutoff = -u if barrier is Barrier.STRICT else -u - 1
        m = float(dist.restricted_moment(h, u, cutoff))
        if m:
            total += res.limit * m
    return total


@dataclass
class ConstantSet:
    """All numeric constants feeding the expansion, with fit provenance."""

    barrier: Barrier
    sigma: float
    kmax: int
    theta0: float
    theta1: float
    b: dict[tuple[int, int], float]  # (l, h) -> value
    u1_table: dict[int, float]
    provenance: dict[str, dict] = field(default_factory=dict, repr=False)

    def b_value(self, l: int, h: int) -> float:
        try:
            return self.b[(l, h)]
        except KeyError:
            raise InputError(f"b[{l},{h}] not computed; raise hmax/lmax") from None

    def theta0_cross_check(self) -> float:
        return self.provenance["theta0_from_u1"]["value"]

    def theta1_cross_check(self) -> float:
        return self.provenance["theta1_from_u1"]["value"]

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "barrier": self.barrier.value,
            "sigma": self.sigma,
            "kmax": self.kmax,
            "theta0": self.theta0,
            "theta1": self.theta1,
            "b": {f"{l},{h}": v for (l, h), v in sorted(self.b.items())},
            "u1": {str(u): v for u, v in sorted(self.u1_table.items())},
            "provenance": self.provenance,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def _prov(res: ExtrapolationResult) -> dict:
    return {
        "value": res.limit,
        "error_estimate": res.error_estimate,
        "window": list(res.window),
        "model": list(res.model),
    }


def compute_constants(dist: IncrementDistribution, barrier=Barrier.STRICT,
                      kmax: int = DEFAULT_KMAX, hmax: int = 3, lmax: int = 1,
                      u_max: int = DEFAULT_U_MAX) -> ConstantSet:
    """One oracle sweep, then all fits.

    ``hmax``/``lmax`` must cover every (l, h) pair the target expansion order
    needs (h <= r - 1 and l <= (r - 1)/2 suffice for order r).
    """
    barrier = Barrier.parse(barrier)
    hmax = max(hmax, 1)  # theta1 is always part of the set
    stats = tau_statistics(dist, kmax, barrier, hmax=hmax, u_max=u_max)

    t0 = limit_with_rate(_scaled_theta_seq(stats, 0))
    t1 = limit_with_rate(_scaled_theta_seq(stats, 1))

    b: dict[tuple[int, int], float] = {}
    prov: dict[str, dict] = {"theta0": _prov(t0), "theta1": _prov(t1)}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HighOrderAccuracyWarning)
        for h in range(hmax + 1):
            fits = b_fit(dist, h, lmax, kmax, barrier, stats=stats)
            for l, res in fits.items():
                b[(l, h)] = res.limit
                prov[f"b_{l}_{h}"] = _prov(res)

    u1 = u1_tabulate(stats)
    u1_values = {u: r.limit for u, r in u1.items()}
    for u, r in u1.items():
        prov[f"u1_{u}"] = _prov(r)

    prov["theta0_from_u1"] = {"value": _renewal_sum(dist, u1, barrier, 0)}
    prov["theta1_from_u1"] = {"value": _renewal_sum(dist, u1, barrier, 1) / dist.sigma()}

    return ConstantSet(
        barrier=barrier,
        sigma=dist.sigma(),
        kmax=kmax,
        theta0=t0.limit,
        theta1=t1.limit,
        b=b,
        u1_table=u1_values,
        provenance=prov,
    )
