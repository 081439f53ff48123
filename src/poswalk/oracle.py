"""Exact dynamic-programming oracle for the killed walk.

The walk starts at 0.  A step is applied, then the killed region is cut off:
positions <= 0 for the strict barrier (first-passage time tau), positions
< 0 for the weak barrier (tau-bar).  Survivor rows are dense arrays over the
live window: from the floor to the last nonzero cell.  Each step drops the
row's trailing exact zeros, so once the far tail underflows (k of a few
hundred) a float row holds about 40 sigma sqrt(k) cells instead of the
k * max_step reachable ones, and a horizon-n sweep costs O(n^1.5 * |support|)
instead of O(n^2 * |support|).  The cells that remain are bit for bit those
of the untrimmed rows: a dropped cell only ever added +0.0.

A step allocates one array, its output row, because collectors keep views
of its cells.  The products go to one scratch block allocated once per
sweep, one row per distinct weight, filled by one broadcast multiply between
zero margins: a law that repeats a weight (trinomial 3/10, skewed 2/5) reuses
the same product.  The output row sums each shift's slice of the block in
support order (a margin cell adds 0).  One block serves every product
because a fresh temporary per product, once rows pass the allocator's mmap
threshold, is a fresh mapping whose pages fault on first touch.  What the
zero trim cannot drop is the subnormal band at the far tail, cells below
``np.finfo(float).tiny`` (2.2e-308) that have not yet rounded to zero: about
90-165 cells at k = 16384 for the walks in ``dists/`` and the benchmark's
seed walks, but a plateau that keeps widening for some laws (about 2840
cells at k = 16384 for (2, 3, 1, 3, 2)/11).  Subnormal arithmetic is slow.
Flushing those cells from a row a collector keeps would change
``Row.total``'s pairwise-sum bits, so every kept row, and every row before
it, keeps them; the rows of the dependency cone (below) do not.

The dependency cone drops what the trim keeps but no output reads.  A step
moves mass down by at most a = -min_step, so once the last row a collector
keeps is behind it, a survivor cell at step k above ``U_MAX + a (n - k)``
can never reach a position <= ``U_MAX`` (a survivor column or a killed
cell) by step n.  ``_sweep(..., cone_after=after)`` cuts every stepped row
after step ``after`` at that bound, before the zero trim.  The cut is
exact by dependency alone: a dropped cell's products land only above the
next step's bound, so every kept cell gets the same operands in the same
support order, and the killed cells are those of the uncut sweep.  Only
``tau_statistics`` asks for the cut, after its last kept row; it drops
15.4% of the stepped cells on trinomial strict and 21.3% on skewed weak at
kmax 16384, and the dropped cells are those of the widest steps, with their
subnormal band.  In the cone the trim drops the survivors' trailing
subnormal cells too, not only their zeros: the band of the rows the cut
still spans, 2.0% of the cells the cut leaves on trinomial strict at kmax
16384, 2.1% on seed walk 1 and 11.2% on the plateau law, whose sweep runs
in 0.21 s instead of 0.48 s.  Unlike the cut this trim is not exact by
dependency: a dropped cell's products no longer round into the cells they
fed.  That the outputs keep their bits is measured, not proved.  Against
the cut alone, to k = 16384 on trinomial, skewed, seed walk 1 and the
plateau law under both barriers, no cell differs by more than 1.8e-287,
hundreds of orders of magnitude below any output cell; and ``theta`` and
the columns hash the same, with and without the trim, over the 38 laws of
``perfbench/walkgen.py``'s family and its 5 plateau laws, both barriers, at
kmax 1024, 4096 and 16384.  The survivors yielded after the cut are
therefore not survivor rows: they hold only the cells up to the bound,
without a subnormal tail (at step n, only floor..``U_MAX``).  A sweep that
keeps a row at step n, and ``killed_rows_at``, never cut and trim only
zeros.

There is one sweep, the generator ``_sweep``, and it sweeps only the killed
walk.  A step yields ``(k, cells, cut)``: one array, the stepped row after
the cone cut and the zero trim, and one index, the floor's.  ``cells[:cut]``
are the cells killed at step k and ``cells[cut:]`` the survivors, which
start at the floor; the first cell is at position floor - cut.  Its two
collectors read that.  ``tau_statistics`` reduces the killed cells to the
overshoot moments ``theta`` and keeps the low survivor columns.  Both it
and ``killed_rows_at`` build a ``Row``, an offset plus a dense array, of the
survivors only, and only for a step they keep: ``Row`` is the one row type
every collector returns.  No collector returns killed cells: the expansion
reads the killed mass only through its constants, so ``theta`` is that
mass's one output form.  The single step serves both arithmetic modes:
cells are float64 arrays, or ``object`` arrays of ``Fraction`` (exact
reference, capped horizon).

A command sweeps each walk once.  Row k never depends on later steps, so
the constants (steps up to kmax) and the checked rows (horizons up to nmax)
are prefixes of one float sweep to max(kmax, nmax): ``tau_statistics``
collects the cells at positions <= ``U_MAX`` to kmax and keeps the rows
named in ``rows_at`` on the way; the cone cuts only the steps after the
last of them.  Only exact rows need a sweep of their own.

Float results are deterministic and byte-stable.  Each step adds the shifted
rows in the fixed support order.  ``Row.total`` is numpy's pairwise sum over
the nonzero cells only, in position order.  Pairwise summation rounds
differently when the element count changes, so a total that summed zero
cells too, or in another order, would change the CLI artifacts' bytes.

Float cells carry a proved rounding bound (Higham, *Accuracy and Stability
of Numerical Algorithms*, 2nd ed., sections 3-4).  A step computes each
cell as a sum of m nonnegative products weight * cell, m the support size,
added in support order: one rounding for the weight's float value, one for
the product and m - 1 for the sum.  Every term is nonnegative, so by
induction every normal cell after k steps, killed or survivor, lies within
gamma_{k(m+1)} = k(m+1)u / (1 - k(m+1)u), u = 2^-53, of the exact cell,
relative to it.  The bound holds while no product or partial sum on the way
falls below the smallest normal float (2.2e-308): an operation there rounds
to an absolute error of up to 2^-1075 instead, and the cone's subnormal
trim drops such cells outright, so the far tail's subnormal band is outside
the bound.  At k <= 64 the test laws use at most 0.30 of it.

``tau_statistics`` keeps only what outlives the sweep: ``theta`` and the
survivor columns floor..``U_MAX`` at the steps first..kmax (first = 1
unless asked; the constants' route asks for the steps its fits read).
Each such step copies its cells at positions min_step..U_MAX, one
contiguous slice, into one row of a step-major ring of ``FLUSH_STEPS``
rows.  When the ring is full, and at kmax, its killed part, the ``floor -
min_step`` cells below the floor, is reduced row by row into the
overshoot moments, its survivor part is copied into the ``(kmax + 1 -
first, U_MAX + 1 - floor)`` columns, and the ring is zeroed for the next
run of steps.  So no ``kmax x (floor - min_step)`` block of killed cells
outlives the sweep, and the constants' fits, where a constants run peaks,
run without one.  A row's reduction reads that row alone, so the moments
are those of one whole block reduced after the sweep, bit for bit,
wherever the flushes fall.  numpy sums a run of fewer than 8 cells in a
plain loop, so a killed part of at most 7 cells (strict ``|min_step| <=
6``, weak ``|min_step| <= 7``) gives the per-step sum over its nonzero
cells bit for bit; wider parts are summed pairwise, zeros included, and
the last bit may differ from that sum.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InputError
from .increments import IncrementDistribution

EXACT_HORIZON_CAP = 64
U_MAX = 30  # tau_statistics keeps the survivor columns floor..U_MAX, U1's lattice points
FLUSH_STEPS = 256  # tau_statistics reduces the killed cells of this many steps at a time


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


def _trim_zeros(values: np.ndarray, tail: int, bound) -> np.ndarray:
    """``values`` without its trailing cells at or below ``bound``.

    ``bound`` 0 drops exact zeros only; the largest subnormal float also
    drops the subnormal cells.  Only the last ``tail`` cells are scanned,
    unless all of them are dropped.
    """
    end = len(values)
    start = max(end - tail, 0)
    while end > start and values.item(end - 1) <= bound:  # cell by cell: cheaper than a numpy scan
        end -= 1
    if end > start:
        return values[:end]
    live = np.flatnonzero(values[:start] > bound)
    return values[: live[-1] + 1] if len(live) else values[:0]


def _sweep(dist: IncrementDistribution, n: int, barrier: Barrier, mode: str,
           cone_after: int | None = None):
    """Step the walk from 0 and yield (k, cells, cut) for k = 1..n.

    ``cells`` is the stepped row k, its first cell at position floor - cut:
    ``cells[:cut]`` are the cells killed at step k and ``cells[cut:]`` is
    the survivor row, which starts at the floor and ends at its last nonzero
    cell.  ``cut`` is floor - min_step at k = 1 and -min_step after that.
    ``cone_after`` cuts each stepped row after that step at position
    ``U_MAX + a (n - k)``, a = -min_step: a cell above it cannot reach a
    position <= ``U_MAX`` by step n.  Those rows' survivors also lose their
    trailing subnormal cells, not only their zeros (see the module
    docstring); the killed cells stay whole.  The survivors yielded after
    the cut are then only the cone's part of the survivor rows.
    """
    if n < 1:
        raise InputError("horizon must be >= 1")
    if mode not in ("exact-rational", "float64"):
        raise InputError(f"unknown arithmetic mode {mode!r}")
    exact = mode == "exact-rational"
    if exact and n > EXACT_HORIZON_CAP:
        raise InputError(
            f"exact mode capped at n={EXACT_HORIZON_CAP} (requested {n}); "
            "use float rows (--mode float)"
        )
    probs = dist.probs if exact else dist.probs_float()
    weights = list(dict.fromkeys(probs))  # one product row per distinct weight
    step = dist.min_step
    (s0, i0), (s1, i1), *more = [(x - step, weights.index(p)) for x, p in zip(dist.support, probs)]
    spread = dist.max_step - step
    after, top, floor = n if cone_after is None else cone_after, U_MAX, barrier.floor
    dtype = object if exact else np.float64
    column = np.array(weights, dtype=dtype)[:, None]
    v = np.array([Fraction(1)] if exact else [1.0], dtype=dtype)  # the walk at 0
    cut = floor - step  # every law has a negative step: row k starts below the floor
    # rows never exceed 1 + (n - 1) spread cells; shift s reads the products at spread - s
    prods = np.zeros((len(weights), 1 + (n + 1) * spread), dtype=dtype)
    last, subnormal = 0, math.nextafter(np.finfo(float).tiny, 0.0)  # the largest subnormal
    for k in range(1, n + 1):
        # in the cone, keep the stepped row's positions <= top + a (n - k); the
        # kept cells read no input cell at or beyond the same index
        if k > after:
            stop, bound = top - step * (n - k) - (floor - cut) + 1, subnormal
        else:
            stop, bound = None, 0
        v = v[:stop]
        width = len(v)
        np.multiply(column, v, out=prods[:, spread : spread + width])
        if last > width:  # zero what a wider row left behind
            prods[:, spread + width : spread + last] = 0
        last = width
        # cell j sums product cell j - s per shift, in support order; x + 0 is x for x >= 0
        end = 2 * spread + width
        out = np.add(prods[i0, spread - s0 : end - s0], prods[i1, spread - s1 : end - s1])
        for s, i in more:
            out += prods[i, spread - s : end - s]
        # trim the survivors' trailing zeros, in the cone also their subnormal
        # cells; the killed cells stay whole
        cells = out[: cut + len(_trim_zeros(out[cut:stop], 2 * spread, bound))]
        yield k, cells, cut
        v, cut = cells[cut:], -step


def killed_rows_at(dist: IncrementDistribution, ns, barrier=Barrier.STRICT,
                   mode: str = "float64") -> dict[int, Row]:
    """Survivor rows of the killed walk at the steps in ``ns``, from one sweep.

    ``rows[k]`` is the row P(S_k = y, tau > k), so P(tau > k) =
    ``rows[k].total()``.  The killed mass is not collected here: P(tau = k)
    is ``tau_statistics(...).theta[0][k - first]`` in float (``first`` = 1 by default).
    """
    if not ns or min(ns) < 1:
        raise InputError("horizons must be >= 1")
    wanted = set(ns)
    barrier = Barrier.parse(barrier)
    floor = barrier.floor
    rows = {}
    for k, cells, cut in _sweep(dist, max(ns), barrier, mode):
        if k in wanted:
            rows[k] = Row(floor, cells[cut:])
    return rows


@dataclass
class TauStatistics:
    """Per-step first-passage statistics at the steps k = first..kmax.

    ``theta[h][k - first]`` is the h-th overshoot moment in units of sigma,
    sum_y (y/sigma)^h P(S_k = -y, tau = k); h = 0 recovers P(tau = k) and
    sigma * theta[1] is the overshoot mean E[-S_tau; tau = k].
    ``columns[i][k - first]`` is the low-lattice survivor mass
    P(S_k = floor + i, tau > k) for floor + i <= U_MAX: the transposed view
    of a step-major ``(kmax + 1 - first, U_MAX + 1 - floor)`` array, so each row of
    ``columns`` is a strided view of one of its columns.  No killed cell is
    kept: the sweep reduces them into ``theta`` as it goes.  ``rows[n]`` is
    the survivor row at each horizon n the sweep was asked to keep, below or
    beyond kmax, in ascending n.
    """

    dist: IncrementDistribution
    barrier: Barrier
    kmax: int
    first: int
    theta: dict[int, np.ndarray]
    columns: np.ndarray
    rows: dict[int, Row] = field(default_factory=dict, repr=False)


def tau_statistics(dist: IncrementDistribution, kmax: int, barrier=Barrier.STRICT,
                   hmax: int = 3, rows_at=(), first: int = 1) -> TauStatistics:
    """Float sweep reducing the cells at positions <= U_MAX to the moments and columns.

    Each step first..kmax copies its cells at positions min_step..U_MAX, the
    killed cells and the low survivor columns alike, into one row of a
    ring of ``FLUSH_STEPS`` steps, which is reduced into ``theta`` and the
    columns when full and at kmax.  The sweep runs on to the largest horizon in
    ``rows_at`` and keeps the survivor rows there, so one sweep serves the
    constants and the rows.  After the last kept row it sweeps only the
    dependency cone of the positions <= U_MAX (see the module docstring).
    """
    if kmax < 1:
        raise InputError("kmax must be >= 1")
    if not 1 <= first <= kmax:
        raise InputError(f"first step {first} outside 1..kmax={kmax}")
    wanted = set(rows_at)
    if wanted and min(wanted) < 1:
        raise InputError("horizons must be >= 1")
    barrier = Barrier.parse(barrier)
    floor, lo = barrier.floor, dist.min_step
    dead = floor - lo  # the killed cells' positions lo..floor - 1
    ys = -np.arange(lo, floor, dtype=float) / dist.sigma()  # overshoots in sigma units
    powers = [ys**h for h in range(hmax + 1)]
    steps = kmax + 1 - first  # the stored steps first..kmax
    theta = {h: np.empty(steps) for h in range(hmax + 1)}
    columns = np.empty((steps, U_MAX + 1 - floor))  # step-major; the field is its transpose
    span = min(steps, FLUSH_STEPS)
    ring = np.zeros((span, U_MAX + 1 - lo))  # positions lo..U_MAX of steps k - i..k
    rows = {}
    cone_after = max(wanted, default=0)
    for k, cells, cut in _sweep(dist, max(wanted | {kmax}), barrier, "float64", cone_after):
        if first <= k <= kmax:
            j = k - first  # step k's index
            i = j % span
            start = floor - cut - lo  # row k starts at floor - cut
            low = cells[: U_MAX + 1 - lo - start]
            ring[i, start : start + len(low)] = low
            if i == span - 1 or k == kmax:  # reduce steps k - i..k and start again
                for h, power in enumerate(powers):
                    theta[h][j - i : j + 1] = (power * ring[: i + 1, :dead]).sum(axis=1)
                columns[j - i : j + 1] = ring[: i + 1, dead:]
                ring[: i + 1] = 0
        if k in wanted:
            rows[k] = Row(floor, cells[cut:])
    return TauStatistics(dist=dist, barrier=barrier, kmax=kmax, first=first, theta=theta,
                         columns=columns.T, rows=rows)

