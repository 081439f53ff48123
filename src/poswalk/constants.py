"""Walk-dependent constants of the expansion: b (with theta0, theta1) and U1.

All constants are limits of exactly computed oracle sequences:

* b[l, h] = the 1/k^l correction coefficients of k^{3/2} * Theta_k^(h),
  where Theta_k^(h) is the h-th sigma-normalized overshoot moment; so
  theta0 = b[0,0] = lim k^{3/2} P(tau = k) and
  theta1 = b[0,1] = lim k^{3/2} E[-S_tau / sigma; tau = k],
* U1(u)  = lim (n+1)^{3/2} P(S_n = u, tau > n) for small u.

Each sequence is fitted once (``_tail_fits``) over {k^0, ..., k^-m} with
m = max(lmax + 1, 3) and lmax = hmax // 2 for a sweep to hmax: one fit per h
gives b[0..lmax, h], so a sweep to ``expansion.b_range(r)`` holds every
b[l, h] that order r reads.  Each error estimate is its coefficient's shift
when the fit window starts 10% earlier.  It is a scale, not a bound, and it
runs low.  Against the exact b[l, h] of the two skip-free laws in ``dists/``
(the hitting-time reference of the tests), the true gap of b[1,0] (read by
P_4 and P_5) is this many times its estimate at kmax 1024 / 4096: trinomial
strict 3.96 / 1.07, trinomial weak 3.61 / 2.62, skewed strict 2.94 / 3.12,
skewed weak 2.42 / 10.8.  For b[0,0] = theta0 the ratio runs from 0.94 to
22.7 (skewed weak, kmax 4096), and over every b[l, h] with h <= 4 it reaches
75 (b[0,4], skewed weak, kmax 4096).

The renewal identity P(tau = n+1) = sum_u P(S_n = u, tau > n) P(kill from u)
gives a second route: theta0 = sum_u U1(u) P(step from u is killed) and
theta1 = (1/sigma) sum_u U1(u) E[overshoot from u], where finite support
truncates the sums exactly.  Both routes fit the same sweep with a linear
fit, so at large kmax they agree to rounding (at most 5.5e-14 relative) and
the check catches errors in the kill and overshoot bookkeeping; at small kmax
the gap is fit error.  ``two_pipeline_agreement`` is that gate, at
``RENEWAL_AGREEMENT_TOL``.  The kernel-method closed forms for theta0, theta1
and U1, which need no killed sweep and no tail fit, are the independent route
(ROADMAP item 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .extrapolation import ExtrapolationResult, first_read, fit_power_tails
from .increments import IncrementDistribution
from .oracle import Barrier, TauStatistics

SCHEMA_VERSION = 1  # of every JSON artifact: constants.json, polys.json, verify_summary.json

# a wider gap is a bookkeeping fault only at large kmax, where the renewal sums and the
# limit fits agree to rounding (at most 5.5e-14 relative).  The U1 fits read a window one
# step after the theta fits, so at small kmax the gap is fit error (trinomial strict:
# 5.4e-9 at kmax 64 and 1.6e-10 at 128 fail; 5.2e-12 at 256, 1.7e-13 at 512)
RENEWAL_AGREEMENT_TOL = 1e-10


def _tail_fits(ks: np.ndarray, sequences, lmax: int = 0) -> list[ExtrapolationResult]:
    """Fit each a_k over {k^0, ..., k^-max(lmax+1, 3)}; c_l for l <= lmax is the k^-l term."""
    return fit_power_tails(ks, sequences, max(lmax + 2, 4))


def first_fitted_step(kmax: int) -> int:
    """The first step k = 1..kmax whose value a fit reads: ``first_read`` over
    theta's ks = 1..kmax and U1's ns = k + 1 = 2..kmax + 1."""
    if kmax < 1:
        raise InputError("kmax must be >= 1")
    return 1 + first_read(range(1, kmax + 1), range(2, kmax + 2))


def u1_tabulate(stats: TauStatistics) -> dict[int, ExtrapolationResult]:
    """U1(u) = lim (n+1)^{3/2} P(S_n = u, tau > n), per-column extrapolation, at every
    height whose column the sweep kept: u = floor, floor + 1, ... (up to ``oracle.U_MAX``)."""
    ns = np.arange(1, stats.kmax + 1, dtype=float) + 1.0
    scale = (ns**1.5)[stats.first - 1 :]  # the stored steps, aligned to the end of ns
    fits = _tail_fits(ns, (scale * column for column in stats.columns))
    return dict(enumerate(fits, start=stats.barrier.floor))


def _renewal_sum(dist: IncrementDistribution, u1: dict[int, ExtrapolationResult],
                 barrier: Barrier, h: int) -> float:
    """sum_u U1(u) E[(-X - u)^h ; step from u is killed]; exact truncation.

    h = 0 weights by the kill probability, h = 1 by the one-step overshoot
    (0^0 = 1).
    """
    total = 0.0
    for u, res in sorted(u1.items()):
        # a step X from u is killed when u + X < floor
        m = float(sum(p * (-x - u) ** h for x, p in zip(dist.support, dist.probs)
                      if u + x < barrier.floor))
        if m:
            total += res.limit * m
    return total


def two_pipeline_agreement(cs: ConstantSet) -> dict:
    """The renewal gate: theta0 and theta1 against their renewal sums, each
    within RENEWAL_AGREEMENT_TOL relative; constants.json's
    ``two_pipeline_agreement`` block."""
    t0x = cs.provenance["theta0_from_u1"]["value"]
    t1x = cs.provenance["theta1_from_u1"]["value"]
    agree = all(abs(a - b) <= RENEWAL_AGREEMENT_TOL * max(abs(a), abs(b))
                for a, b in ((cs.theta0, t0x), (cs.theta1, t1x)))
    return {"theta0_limit": cs.theta0, "theta0_from_u1": t0x, "pass": bool(agree)}


@dataclass
class ConstantSet:
    """All numeric constants feeding the expansion, with fit provenance."""

    barrier: Barrier
    sigma: float
    kmax: int
    b: dict[tuple[int, int], float]  # (l, h) -> value
    u1_table: dict[int, float]
    provenance: dict[str, dict] = field(default_factory=dict, repr=False)

    @property
    def theta0(self) -> float:
        return self.b[(0, 0)]

    @property
    def theta1(self) -> float:
        return self.b[(0, 1)]

    def b_value(self, l: int, h: int) -> float:
        try:
            return self.b[(l, h)]
        except KeyError:
            raise InputError(f"b[{l},{h}] not computed; raise hmax") from None

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
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
        "value": fit.coefficients[l],
        "error_estimate": fit.errors[l],
        "window": list(fit.window),
        "model": [float(e) for e in range(len(fit.coefficients))],
    }


def compute_constants(stats: TauStatistics) -> ConstantSet:
    """All fits from one sweep: b[0..hmax//2, h] for every h the sweep holds, and U1."""
    if 1 not in stats.theta:
        raise InputError("theta1 = b[0,1] needs a sweep with hmax >= 1")
    dist, barrier, kmax = stats.dist, stats.barrier, stats.kmax
    lmax = max(stats.theta) // 2
    ks = np.arange(1, kmax + 1, dtype=float)

    b: dict[tuple[int, int], float] = {}
    prov: dict[str, dict] = {}
    scale = (ks**1.5)[stats.first - 1 :]  # the stored steps, aligned to the end of ks
    fits = _tail_fits(ks, (scale * theta for theta in stats.theta.values()), lmax)
    del ks, scale  # kmax-length: freed before the U1 fits allocate theirs
    for h, fit in zip(stats.theta, fits):
        # the coefficient of k^-l is b[l, h]
        for l in range(lmax + 1):
            prov[f"b_{l}_{h}"] = _prov(fit, l)
            b[(l, h)] = prov[f"b_{l}_{h}"]["value"]
    prov["theta0"], prov["theta1"] = prov["b_0_0"], prov["b_0_1"]

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
        b=b,
        u1_table=u1_values,
        provenance=prov,
    )
