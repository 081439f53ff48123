"""Exact dynamic-programming oracle for the killed walk.

The walk starts at 0.  A step is applied, then the killed region is cut off:
positions <= 0 for the strict barrier (first-passage time tau), positions
< 0 for the weak barrier (tau-bar).  Survivor rows are dense arrays over the
reachable lattice window, so one step is |support| shifted adds -- O(n^2 *
|support|) work for a horizon-n table.

There is one sweep, the generator ``_sweep``, and every public function is a
short collector over the ``(k, survivors, killed)`` it yields.  Its single
step serves both arithmetic modes: rows are float64 arrays, or ``object``
arrays of ``Fraction`` (exact reference, capped horizon).  Its ``Row``, an
offset plus a dense array, is the one row type every collector returns.

Float results are deterministic and byte-stable.  Each step adds the shifted
rows in the fixed support order.  ``Row.total`` is numpy's pairwise sum over
the nonzero cells only, in position order.  Pairwise summation rounds
differently when the element count changes, so a total that summed zero
cells too, or in another order, would change the CLI artifacts' bytes.

``tau_statistics`` copies each step's killed cells, right-aligned, into one
``(kmax, floor - min_step)`` block and reduces the overshoot moments once,
row by row, after the sweep.  numpy sums a run of fewer than 8 cells in a
plain loop, so a block row of at most 7 cells (strict ``|min_step| <= 6``,
weak ``|min_step| <= 7``) gives the per-step sum over its nonzero cells bit
for bit; wider rows are summed pairwise and the last bit may differ.
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


class Row:
    """Dense row of masses over positions [offset, offset + len(values))."""

    __slots__ = ("offset", "values")

    def __init__(self, offset: int, values: np.ndarray):
        self.offset = offset
        self.values = values

    def get(self, y: int, default=0):
        """Mass at position y; ``default`` outside the row."""
        i = y - self.offset
        return self.values.item(i) if 0 <= i < len(self.values) else default

    def total(self, lo: int | None = None, hi: int | None = None):
        """Sum of the nonzero cells at positions lo..hi (default: all), in position order."""
        start = 0 if lo is None else max(lo - self.offset, 0)
        stop = len(self.values) if hi is None else max(hi - self.offset + 1, 0)
        cells = self.values[start:stop]
        return cells[cells != 0].sum(keepdims=True).item()  # a Python float or Fraction

    def nonzero(self) -> dict[int, object]:
        """The nonzero cells as {position: mass}, in position order."""
        return {self.offset + i: v for i, v in enumerate(self.values.tolist()) if v}


def _split_killed(row: Row, barrier: Barrier) -> tuple[Row, Row]:
    """Cut a freshly stepped row at the barrier floor: (survivors, killed cells).

    Every law has a negative step, so a stepped row starts below the floor
    and the survivors start exactly at it.
    """
    cut = barrier.floor - row.offset  # first surviving index, >= 1
    return Row(barrier.floor, row.values[cut:]), Row(row.offset, row.values[:cut])


def _sweep(dist: IncrementDistribution, n: int, barrier: Barrier | None, mode: str):
    """Step the walk from 0 and yield (k, survivors, killed) for k = 1..n.

    ``barrier=None`` is the free walk: nothing is killed (``killed`` is None).
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
    row = Row(0, np.array([Fraction(1)], dtype=object) if exact else np.ones(1))
    for k in range(1, n + 1):
        width = len(row.values)
        out = np.zeros(width + spread, dtype=row.values.dtype)
        for s, p in shifts:
            out[s : s + width] += p * row.values
        row, killed = Row(row.offset + dist.min_step, out), None
        if barrier is not None:
            row, killed = _split_killed(row, barrier)
        yield k, row, killed


def free_pmf(dist: IncrementDistribution, n: int, mode: str = "float64") -> Row:
    """Exact n-fold convolution of the increment law: the row of P(S_n = x)."""
    for _, row, _ in _sweep(dist, n, None, mode):
        pass
    return row


@dataclass
class KilledWalkTable:
    """Survivor masses P(S_k = y, tau > k) for 1 <= k <= n, plus killed mass.

    ``rows[k]`` is the survivor row at step k; ``killed[k]`` is the row of
    killed positions (<= 0 strict, < 0 weak) with the mass absorbed at step k.
    """

    dist: IncrementDistribution
    barrier: Barrier
    n: int
    rows: dict[int, Row] = field(repr=False)
    killed: dict[int, Row] = field(repr=False)

    def survival(self, k: int):
        """P(tau > k)."""
        return self.rows[k].total()

    def tau_mass(self, k: int):
        """P(tau = k)."""
        return self.killed[k].total()


def killed_table(dist: IncrementDistribution, n: int, barrier=Barrier.STRICT,
                 mode: str = "float64") -> KilledWalkTable:
    """Forward DP table of the killed walk up to horizon n (all rows kept)."""
    barrier = Barrier.parse(barrier)
    rows, killed = {}, {}
    for k, row, dead in _sweep(dist, n, barrier, mode):
        rows[k], killed[k] = row, dead
    return KilledWalkTable(dist=dist, barrier=barrier, n=n, rows=rows, killed=killed)


def killed_rows_at(dist: IncrementDistribution, ns: list[int], barrier=Barrier.STRICT,
                   mode: str = "float64") -> dict[int, Row]:
    """Survivor rows at selected horizons only (one sweep, low memory)."""
    if not ns or min(ns) < 1:
        raise InputError("horizons must be >= 1")
    wanted = set(ns)
    return {k: row
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
    theta: dict[int, np.ndarray]
    u_max: int
    columns: np.ndarray

    def column(self, u: int) -> np.ndarray:
        """P(S_k = u, tau > k) for k = 1..kmax."""
        return self.columns[u - self.barrier.floor]


def tau_statistics(dist: IncrementDistribution, kmax: int, barrier=Barrier.STRICT,
                   hmax: int = 3, u_max: int = 30) -> TauStatistics:
    """Float sweep collecting the killed cells and survivor columns, then the moments."""
    if kmax < 1:
        raise InputError("kmax must be >= 1")
    barrier = Barrier.parse(barrier)
    floor = barrier.floor
    if u_max < floor:
        raise InputError("u_max below the barrier floor")
    width = floor - dist.min_step  # killed positions min_step .. floor-1
    block = np.zeros((kmax, width))
    cols = np.zeros((u_max - floor + 1, kmax))
    for k, row, dead in _sweep(dist, kmax, barrier, "float64"):
        block[k - 1, width - len(dead.values):] = dead.values  # rows end at floor-1
        low = row.values[: u_max + 1 - floor]  # survivor rows start at the floor
        cols[: len(low), k - 1] = low
    ys = -np.arange(dist.min_step, floor, dtype=float) / dist.sigma()  # overshoots in sigma units
    theta = {h: (ys**h * block).sum(axis=1) for h in range(hmax + 1)}
    return TauStatistics(dist=dist, barrier=barrier, kmax=kmax, theta=theta,
                         u_max=u_max, columns=cols)


def conditioned_interval_prob(dist: IncrementDistribution, n: int, u: float, v: float,
                              barrier=Barrier.STRICT, mode: str = "float64",
                              row: Row | None = None):
    """P(S_n / (sigma sqrt n) in [u, v] | tau > n), exact ratio of row sums."""
    if not (0 < u < v):
        raise InputError("need 0 < u < v")
    if row is None:
        row = killed_rows_at(dist, [n], barrier, mode)[n]
    scale = dist.sigma() * math.sqrt(n)
    lo = math.ceil(u * scale)
    hi = math.floor(v * scale)
    total = row.total()
    if total == 0:
        raise DegenerateConditioning(f"P(tau > {n}) = 0")
    return row.total(lo, hi) / total
