"""Exact dynamic-programming oracle for the killed walk.

The walk starts at 0.  A step is applied, then the killed region is cut off:
positions <= 0 for the strict barrier (first-passage time tau), positions
< 0 for the weak barrier (tau-bar).  Survivor rows are dense arrays over the
reachable lattice window, so one step is |support| shifted adds -- O(n^2 *
|support|) work for a horizon-n table.

There is one sweep, the generator ``_sweep``, and every public function is a
short collector over the ``(k, survivors, killed)`` it yields.  Its single
step serves both arithmetic modes: rows are float64 arrays, or ``object``
arrays of ``Fraction`` (exact reference, capped horizon).

Float results are deterministic and byte-stable.  Each step adds the shifted
rows in the fixed support order.  Each float reduction (row sums, tau
moments) is numpy's pairwise sum over the nonzero cells only, in position
order.  Pairwise summation rounds differently when the element count
changes, so a reduction that summed zero cells too, or in another order,
would change the CLI artifacts' bytes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DegenerateConditioning, HorizonTooLarge, InputError
from .increments import IncrementDistribution

EXACT_HORIZON_CAP = 64


class Barrier(enum.Enum):
    """strict kills on S_n <= 0 (tau); weak kills on S_n < 0 (tau-bar)."""

    STRICT = "strict"
    WEAK = "weak"

    @property
    def floor(self) -> int:
        """Lowest surviving position."""
        return 1 if self is Barrier.STRICT else 0

    @classmethod
    def parse(cls, value) -> "Barrier":
        if isinstance(value, Barrier):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise InputError(f"unknown barrier {value!r}") from None


class _Row:
    """Dense row of masses over [offset, offset + len)."""

    __slots__ = ("offset", "values")

    def __init__(self, offset: int, values: np.ndarray):
        self.offset = offset
        self.values = values

    def nonzero(self) -> dict[int, object]:
        """The nonzero cells as {position: mass}, in position order."""
        return {self.offset + i: v for i, v in enumerate(self.values.tolist()) if v}


def _split_killed(row: _Row, barrier: Barrier) -> tuple[_Row, dict[int, object]]:
    """Cut a freshly stepped row at the barrier floor: (survivors, killed cells).

    Every law has a negative step, so a stepped row starts below the floor
    and the survivors start exactly at it.
    """
    cut = barrier.floor - row.offset  # first surviving index, >= 1
    return _Row(barrier.floor, row.values[cut:]), _Row(row.offset, row.values[:cut]).nonzero()


def _sweep(dist: IncrementDistribution, n: int, barrier: Barrier | None, mode: str):
    """Step the walk from 0 and yield (k, survivors, killed) for k = 1..n.

    ``barrier=None`` is the free walk: nothing is killed.
    """
    if n < 1:
        raise InputError("horizon must be >= 1")
    if mode not in ("exact-rational", "float64"):
        raise InputError(f"unknown arithmetic mode {mode!r}")
    exact = mode == "exact-rational"
    if exact and n > EXACT_HORIZON_CAP:
        raise HorizonTooLarge(
            f"exact mode capped at n={EXACT_HORIZON_CAP} (requested {n}); use float64"
        )
    probs = dist.probs if exact else dist.probs_float()
    shifts = [(x - dist.min_step, p) for x, p in zip(dist.support, probs)]
    spread = dist.max_step - dist.min_step
    row = _Row(0, np.array([Fraction(1)], dtype=object) if exact else np.ones(1))
    for k in range(1, n + 1):
        width = len(row.values)
        out = np.zeros(width + spread, dtype=row.values.dtype)
        for s, p in shifts:
            out[s : s + width] += p * row.values
        row, killed = _Row(row.offset + dist.min_step, out), {}
        if barrier is not None:
            row, killed = _split_killed(row, barrier)
        yield k, row, killed


def _total(values, mode: str):
    """Sum of masses: exact in rational mode, numpy's pairwise sum in float64."""
    vals = list(values)
    if mode == "exact-rational":
        return sum(vals, Fraction(0))
    return float(np.sum(np.array(vals))) if vals else 0.0


def free_pmf(dist: IncrementDistribution, n: int, mode: str = "float64") -> dict[int, object]:
    """Exact n-fold convolution of the increment law: map position -> P(S_n = x)."""
    for _, row, _ in _sweep(dist, n, None, mode):
        pass
    return row.nonzero()


@dataclass
class KilledWalkTable:
    """Survivor masses P(S_k = y, tau > k) for 1 <= k <= n, plus killed mass.

    ``rows[k]`` maps surviving positions to probability; ``killed[k]`` maps
    killed positions (<= 0 strict, < 0 weak) to the mass absorbed at step k.
    """

    dist: IncrementDistribution
    barrier: Barrier
    n: int
    mode: str
    rows: dict[int, dict[int, object]] = field(repr=False)
    killed: dict[int, dict[int, object]] = field(repr=False)

    def prob(self, k: int, y: int):
        return self.rows[k].get(y, 0)

    def survival(self, k: int):
        """P(tau > k)."""
        return _total(self.rows[k].values(), self.mode)

    def tau_mass(self, k: int):
        """P(tau = k)."""
        return _total(self.killed[k].values(), self.mode)


def killed_table(dist: IncrementDistribution, n: int, barrier=Barrier.STRICT,
                 mode: str = "float64") -> KilledWalkTable:
    """Forward DP table of the killed walk up to horizon n (all rows kept)."""
    barrier = Barrier.parse(barrier)
    rows: dict[int, dict[int, object]] = {}
    killed: dict[int, dict[int, object]] = {}
    for k, row, dead in _sweep(dist, n, barrier, mode):
        rows[k] = row.nonzero()
        killed[k] = dead
    return KilledWalkTable(dist=dist, barrier=barrier, n=n, mode=mode, rows=rows, killed=killed)


def killed_rows_at(dist: IncrementDistribution, ns: list[int], barrier=Barrier.STRICT,
                   mode: str = "float64") -> dict[int, dict[int, object]]:
    """Survivor rows at selected horizons only (one sweep, low memory)."""
    if not ns or min(ns) < 1:
        raise InputError("horizons must be >= 1")
    wanted = set(ns)
    return {k: row.nonzero()
            for k, row, _ in _sweep(dist, max(ns), Barrier.parse(barrier), mode)
            if k in wanted}


@dataclass
class TauStatistics:
    """Per-step first-passage statistics up to kmax.

    ``theta[h][k-1]`` is the h-th overshoot moment in units of sigma,
    sum_y (y/sigma)^h P(S_k = -y, tau = k); h = 0 recovers P(tau = k) and
    sigma * theta[1] is the overshoot mean E[-S_tau; tau = k].
    ``columns[i][k-1]`` is the low-lattice survivor mass
    P(S_k = floor + i, tau > k) for floor + i <= u_max.
    """

    dist: IncrementDistribution
    barrier: Barrier
    kmax: int
    p_tau: np.ndarray
    overshoot_mean: np.ndarray
    theta: dict[int, np.ndarray]
    u_max: int
    columns: np.ndarray

    def column(self, u: int) -> np.ndarray:
        """P(S_k = u, tau > k) for k = 1..kmax."""
        return self.columns[u - self.barrier.floor]


def tau_statistics(dist: IncrementDistribution, kmax: int, barrier=Barrier.STRICT,
                   hmax: int = 3, u_max: int = 30) -> TauStatistics:
    """Float sweep accumulating P(tau = k), overshoot moments and survivor columns."""
    if kmax < 1:
        raise InputError("kmax must be >= 1")
    barrier = Barrier.parse(barrier)
    floor = barrier.floor
    if u_max < floor:
        raise InputError("u_max below the barrier floor")
    sigma = dist.sigma()
    p_tau = np.zeros(kmax)
    over = np.zeros(kmax)
    theta = {h: np.zeros(kmax) for h in range(hmax + 1)}
    cols = np.zeros((u_max - floor + 1, kmax))
    for k, row, dead in _sweep(dist, kmax, barrier, "float64"):
        if dead:
            ys = np.array([-pos for pos in dead], dtype=float)  # overshoot values
            ms = np.array(list(dead.values()))
            p_tau[k - 1] = ms.sum()
            over[k - 1] = float((ys * ms).sum())
            for h in range(hmax + 1):
                theta[h][k - 1] = float((((ys / sigma) ** h) * ms).sum())
        low = row.values[: u_max + 1 - floor]  # survivor rows start at the floor
        cols[: len(low), k - 1] = low
    return TauStatistics(dist=dist, barrier=barrier, kmax=kmax, p_tau=p_tau,
                         overshoot_mean=over, theta=theta, u_max=u_max, columns=cols)


def conditioned_interval_prob(dist: IncrementDistribution, n: int, u: float, v: float,
                              barrier=Barrier.STRICT, mode: str = "float64",
                              row: dict[int, object] | None = None):
    """P(S_n / (sigma sqrt n) in [u, v] | tau > n), exact ratio of row sums."""
    if not (0 < u < v):
        raise InputError("need 0 < u < v")
    barrier = Barrier.parse(barrier)
    if row is None:
        row = killed_rows_at(dist, [n], barrier, mode)[n]
    scale = dist.sigma() * math.sqrt(n)
    lo = math.ceil(u * scale)
    hi = math.floor(v * scale)
    total = _total(row.values(), mode)
    if total == 0:
        raise DegenerateConditioning(f"P(tau > {n}) = 0")
    return _total((w for y, w in row.items() if lo <= y <= hi), mode) / total
