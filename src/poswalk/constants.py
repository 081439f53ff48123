"""Walk-dependent constants of the expansion: theta0, theta1, b and U1.

All constants are limits of exactly computed oracle sequences:

* theta0 = lim k^{3/2} P(tau = k),
* theta1 = lim k^{3/2} E[-S_tau / sigma; tau = k]   (overshoot in sigma units),
* b[l, h] = the 1/k^l correction coefficients of k^{3/2} * Theta_k^(h),
  where Theta_k^(h) is the h-th sigma-normalized overshoot moment, from
  one fit per h over {k^0, ..., k^-(lmax+1)},
* U1(u)  = lim (n+1)^{3/2} P(S_n = u, tau > n) for small u.

theta0 and theta1 have the same limits as b[0,0] and b[0,1] but are separate
fits over {k^0, ..., k^-3}, and P_2/P_3 are assembled from b[0,h], not from
theta0/theta1.  With few terms the b fit is much less accurate: on the
trinomial walk at kmax 1024 with lmax 0 (orders r <= 2), b[0,0] is off by
6.0e-7 (strict) and 1.5e-6 (weak) relative to the closed form, theta0 by
1.1e-12 and 2.2e-12.  The b[0,0] error estimate is then 0.18x the true
error (0.29x at lmax 1).

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

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .extrapolation import ExtrapolationResult, fit_power_tail, limit_with_rate
from .increments import IncrementDistribution
from .oracle import Barrier, TauStatistics, tau_statistics

DEFAULT_KMAX = 4096
DEFAULT_U_MAX = 30


def u1_tabulate(stats: TauStatistics) -> dict[int, ExtrapolationResult]:
    """U1(u) = lim (n+1)^{3/2} P(S_n = u, tau > n), per-column extrapolation."""
    ns = np.arange(1, stats.kmax + 1, dtype=float) + 1.0
    return {u: limit_with_rate(ns, ns**1.5 * stats.column(u))
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


def _prov(fit: ExtrapolationResult, l: int = 0) -> dict:
    """Provenance of the k^-l coefficient of ``fit`` (l = 0: the limit)."""
    return {
        "value": ((fit.limit,) + fit.coefficients)[l],
        "error_estimate": ((fit.error_estimate,) + fit.coefficient_errors)[l],
        "window": list(fit.window),
        "model": list(fit.model),
    }


def compute_constants(dist: IncrementDistribution, barrier=Barrier.STRICT,
                      kmax: int = DEFAULT_KMAX, hmax: int = 3, lmax: int = 1,
                      u_max: int = DEFAULT_U_MAX) -> ConstantSet:
    """One oracle sweep, then all fits.

    ``hmax``/``lmax`` must cover every (l, h) pair the target expansion order
    needs (h <= r - 1 and l <= (r - 1)/2 suffice for order r).
    """
    if lmax < 0:
        raise InputError("lmax must be >= 0")
    barrier = Barrier.parse(barrier)
    hmax = max(hmax, 1)  # theta1 is always part of the set
    stats = tau_statistics(dist, kmax, barrier, hmax=hmax, u_max=u_max)
    ks = np.arange(1, kmax + 1, dtype=float)
    scaled = {h: ks**1.5 * stats.theta[h] for h in range(hmax + 1)}

    t0 = limit_with_rate(ks, scaled[0])
    t1 = limit_with_rate(ks, scaled[1])

    b: dict[tuple[int, int], float] = {}
    prov: dict[str, dict] = {"theta0": _prov(t0), "theta1": _prov(t1)}
    for h in range(hmax + 1):
        # the coefficient of k^-l is b[l, h]
        fit = fit_power_tail(ks, scaled[h], range(lmax + 2))
        for l in range(lmax + 1):
            prov[f"b_{l}_{h}"] = _prov(fit, l)
            b[(l, h)] = prov[f"b_{l}_{h}"]["value"]

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
