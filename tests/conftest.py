"""Shared fixtures: test walks, brute-force oracles, the uncut sweep's outputs,
a log of the sweep's steps, cached constant sets, and the second routes the
library is checked against (free-walk law by convolution, hitting-time
overshoot constants, gamma closed form, free-walk series coefficients and
their sum, exact placeholder assembly, the quoted closed forms of P_2, P_3)."""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest

from poswalk import increments, oracle
from poswalk.constants import compute_constants
from poswalk.edgeworth import ghats
from poswalk.errors import InputError
from poswalk.expansion import DEFAULT_R_CAP, b_range, exact_polys
from poswalk.increments import IncrementDistribution, cumulant_ratios
from poswalk.laurent import Poly, double_factorial
from poswalk.oracle import U_MAX, Barrier, Row, _sweep, tau_statistics

TINY = np.finfo(float).tiny  # the smallest normal float


def trinomial():
    """Symmetric lazy simple walk, sigma^2 = 3/5."""
    return increments.validate([-1, 0, 1], ["3/10", "2/5", "3/10"])


def skewed():
    """Asymmetric walk with m3 = 6/5, sigma^2 = 6/5."""
    return increments.validate([-1, 0, 2], ["2/5", "2/5", "1/5"])


def downskip():
    """Min step -2 walk: nonzero strict-barrier overshoot, sigma^2 = 8/5."""
    return increments.validate([-2, -1, 1], ["1/5", "1/5", "3/5"])


def upskip():
    """Max step +1 walk with m3 != 0: ballot identity applies, sigma = 1."""
    return increments.validate([-2, -1, 0, 1], ["1/10", "1/5", "3/10", "2/5"])


def upskip_narrow():
    """Max step +1 walk with sigma^2 = 4/5 and m3 = -3/5.

    upskip has sigma = 1, so the ballot identity on it cannot tell a sigma^3
    denominator from a sigma^4 one; this walk can.
    """
    return increments.validate([-2, -1, 0, 1], ["1/10", "1/10", "1/2", "3/10"])


def seed_walk_1():
    """The benchmark's seed walk 1, (2,5,3,1,4)/15 on -2..2: min step -2, skewed."""
    return increments.validate([-2, -1, 0, 1, 2], ["2/15", "1/3", "1/5", "1/15", "4/15"])


@pytest.fixture(scope="session")
def tri():
    return trinomial()


@pytest.fixture(scope="session")
def asym():
    return skewed()


@pytest.fixture(scope="session")
def rich():
    return downskip()


@pytest.fixture(scope="session")
def ballot_walk():
    return upskip()


def brute_force_killed(dist, n: int, barrier: Barrier):
    """Path enumeration over all |support|^n trajectories (exact rationals).

    Returns (rows, killed): rows[k][y] = P(S_k = y, tau > k) and
    killed[k][z] = P(S_k = z, tau = k), the shape ``swept`` gives the sweep's cells.
    """
    barrier = Barrier.parse(barrier)
    floor = barrier.floor
    rows = {k: {} for k in range(1, n + 1)}
    killed = {k: {} for k in range(1, n + 1)}
    pm = dict(zip(dist.support, dist.probs))
    for path in itertools.product(dist.support, repeat=n):
        prob = Fraction(1)
        for x in path:
            prob *= pm[x]
        s = 0
        for k, x in enumerate(path, start=1):
            s += x
            if s < floor:
                killed[k][s] = killed[k].get(s, Fraction(0)) + prob
                break
            rows[k][s] = rows[k].get(s, Fraction(0)) + prob
    return rows, killed


def nonzero(row: Row) -> dict:
    """A row's nonzero cells as {position: mass}, in position order."""
    return {row.offset + i: v for i, v in enumerate(row.values.tolist()) if v}


def swept(dist, n: int, barrier):
    """Every step 1..n of the exact sweep as (rows, killed), dicts of ``nonzero`` cells.

    rows[k][y] = P(S_k = y, tau > k) and killed[k][z] = P(S_k = z, tau = k),
    read straight from ``_sweep``'s ``(k, cells, cut)`` in ``Fraction``s
    (n <= 64): the shape of ``brute_force_killed``.  The library's collectors
    return no killed cells; ``uncut_outputs`` is the float sweep's reference.
    """
    barrier = Barrier.parse(barrier)
    rows, killed = {}, {}
    for k, cells, cut in _sweep(dist, n, barrier, "exact-rational"):
        rows[k] = nonzero(Row(barrier.floor, cells[cut:]))
        killed[k] = nonzero(Row(barrier.floor - cut, cells[:cut]))
    return rows, killed


UncutOutputs = namedtuple("UncutOutputs", "theta columns rows subnormal_above_edge last_subnormal")


@functools.lru_cache(maxsize=4)  # a case reads the bare sweep of a case just before it
def uncut_outputs(dist, kmax: int, barrier, rows_at=(), hmax: int = 3) -> UncutOutputs:
    """What ``tau_statistics(dist, kmax, barrier, hmax, rows_at)`` must give,
    streamed from one uncut float ``_sweep`` to max(kmax, rows_at).

    ``theta[h][k-1]`` sums step k's nonzero killed cells in position order, in
    sigma units, and ``columns`` holds the survivor cells floor..U_MAX, laid
    out as ``tau_statistics`` lays them; ``rows[n]`` is the survivor row at
    each n in ``rows_at``.  After the last of them ``tau_statistics`` cuts each
    row k at the cone's edge U_MAX + a (n - k), a = -min_step, and trims its
    subnormal tail; two facts on those steps' survivor cells show what the cut
    and the trim met: whether a cell above the edge is subnormal, and the last
    step with a subnormal cell at or below it (0 if none).  No other row is
    kept.
    """
    barrier = Barrier.parse(barrier)
    floor, a, sigma = barrier.floor, -dist.min_step, dist.sigma()
    n, after = max((kmax, *rows_at)), max(rows_at, default=0)
    theta = np.zeros((hmax + 1, kmax))
    columns = np.zeros((U_MAX + 1 - floor, kmax))
    rows, above, last = {}, False, 0
    for k, cells, cut in _sweep(dist, n, barrier, "float64"):
        dead, row = cells[:cut], cells[cut:]
        if k <= kmax:
            live = dead != 0
            ys = -np.arange(floor - cut, floor)[live] / sigma  # overshoots of the nonzero cells
            for h in range(hmax + 1):
                theta[h, k - 1] = (ys**h * dead[live]).sum()
            low = row[: U_MAX + 1 - floor]
            columns[: len(low), k - 1] = low
        if k in rows_at:
            rows[k] = Row(floor, row)
        if k > after:
            edge = U_MAX + a * (n - k) + 1 - floor  # the row's cells at or below the edge
            small = (row > 0) & (row < TINY)
            above |= bool(small[edge:].any())
            last = k if small[:edge].any() else last
    return UncutOutputs(theta, columns, rows, above, last)


SweepStep = namedtuple("SweepStep", "k exact width last")


@pytest.fixture
def sweep_log(monkeypatch):
    """Every step ``oracle._sweep`` yields during the test, as a ``SweepStep``:
    k, whether the cells are exact, the survivors' width and their last cell
    (None when there are none).  No array is kept.  The references above
    hold their own ``_sweep``, so only the library's sweeps are logged."""
    log = []
    sweep = oracle._sweep

    def logged(*args, **kwargs):
        for k, cells, cut in sweep(*args, **kwargs):
            width = len(cells) - cut
            log.append(SweepStep(k, cells.dtype == object, width, cells[-1] if width else None))
            yield k, cells, cut

    monkeypatch.setattr(oracle, "_sweep", logged)
    return log


def free_pmf(dist, n: int, mode: str = "float64") -> Row:
    """The free walk's law P(S_n = x) as a row over n min_step..n max_step.

    The n-fold ``np.convolve`` of the step law, independent of the oracle's
    killed sweep; ``object`` dtype keeps the ``Fraction``s exact.
    """
    exact = mode == "exact-rational"
    law = np.zeros(dist.max_step - dist.min_step + 1, dtype=object if exact else float)
    for x, p in zip(dist.support, dist.probs):
        law[x - dist.min_step] = p if exact else float(p)
    values = law
    for _ in range(n - 1):
        values = np.convolve(values, law)
    return Row(n * dist.min_step, values)


# constants at full accuracy are reused by many tests; computed once per walk
_CONSTANT_CACHE: dict = {}


def constants_for(dist, barrier, kmax=4096, hmax=b_range(DEFAULT_R_CAP)):
    key = (dist.support, dist.probs, Barrier.parse(barrier).value, kmax, hmax)
    if key not in _CONSTANT_CACHE:
        _CONSTANT_CACHE[key] = compute_constants(tau_statistics(dist, kmax, barrier,
                                                                hmax=hmax))
    return _CONSTANT_CACHE[key]


def hitting_time_b(dist, barrier, lmax: int, hmax: int) -> dict[tuple[int, int], float]:
    """b[l, h] for l <= lmax, h <= hmax on a law with min step -1, from the
    hitting-time theorem (Kemperman 1961; van der Hofstad & Keane 2008).

    At fixed x the free walk's local law expands in whole powers of 1/n,
    sigma sqrt(2 pi) sqrt(n) P(S_n = x) = sum_N c_N(x) n^-N, from the
    ``edgeworth.ghats`` series times the e^{-x^2 / (2 sigma^2 n)} series.
    Weak: P(tau-bar = k) = P(S_k = -1) / k and every overshoot is one unit,
    so b[l, 0] = c_l(-1) / (sigma sqrt(2 pi)) and b[l, h] = sigma^-h b[l, 0].
    Strict: P(tau = k) = sum_y y p_y P(S_{k-1} = -y) / (k - 1) for k >= 2, so
    k^{3/2} P(tau = k) is (1 - 1/k)^{-3/2} sum_y y p_y sum_N c_N(-y) n^-N
    over sigma sqrt(2 pi), with 1/n = 1/(k - 1) = sum_{i >= 1} k^-i; the walk
    stops at 0 after step 1, so b[l, h >= 1] = 0.  Floats throughout.
    """
    if dist.min_step != -1:
        raise InputError("the hitting-time theorem needs min step -1")
    sigma = dist.sigma()
    g = ghats(cumulant_ratios(dist, 2 * lmax), 2 * lmax)

    def local(x):
        """c_0(x)..c_lmax(x)."""
        z = x / sigma
        lclt = [sum(float(g[2 * j - q].coeff(q)) * z**q for q in range(3 * j // 2 + 1))
                for j in range(lmax + 1)]
        gauss = [(-z * z / 2) ** m / math.factorial(m) for m in range(lmax + 1)]
        return np.convolve(gauss, lclt)[: lmax + 1]

    strict = Barrier.parse(barrier) is Barrier.STRICT
    if strict:
        per_n = sum(y * float(p) * local(-y) for y, p in zip(dist.support, dist.probs) if y > 0)
        inv_n = np.array([0.0] + [1.0] * lmax)
        power, series = np.eye(lmax + 1)[0], np.zeros(lmax + 1)
        for c in per_n:  # sum_N c_N n^-N in powers of 1/k
            series += c * power
            power = np.convolve(power, inv_n)[: lmax + 1]
        pref = np.cumprod([1.0] + [(i + 0.5) / i for i in range(1, lmax + 1)])  # (1 - 1/k)^-3/2
        series = np.convolve(series, pref)[: lmax + 1]
    else:
        series = local(-1)
    b0 = series / (sigma * math.sqrt(2 * math.pi))
    return {(l, h): 0.0 if strict and h else b0[l] / sigma**h
            for l in range(lmax + 1) for h in range(hmax + 1)}


@pytest.fixture(scope="session")
def tri_constants_strict(tri):
    return constants_for(tri, Barrier.STRICT)


@pytest.fixture(scope="session")
def tri_constants_weak(tri):
    return constants_for(tri, Barrier.WEAK)


@pytest.fixture(scope="session")
def asym_constants_strict(asym):
    return constants_for(asym, Barrier.STRICT)


@pytest.fixture(scope="session")
def asym_constants_weak(asym):
    return constants_for(asym, Barrier.WEAK)


def gamma_closed(q: int, j: int, l: int) -> Fraction:
    """Closed-form gamma(q,j,l): prefactor times a sum over ascending subsets.

    Each (j-q)-element ascending subset (a_1 < ... < a_{j-q}) of {1..j}
    contributes prod_i (l + 2*a_i - i - 1/2); the empty product (q = j)
    counts as 1, and q > j gives 0.
    """
    if q < 0 or j < 0 or l < 0:
        raise ValueError("indices must be nonnegative")
    if q > j:
        return Fraction(0)
    pref = Fraction((-1) ** q * 2**j, 2**q * double_factorial(2 * j - 1))
    total = Fraction(0)
    for subset in itertools.combinations(range(1, j + 1), j - q):
        prod = Fraction(1)
        for i, a in enumerate(subset, start=1):
            prod *= Fraction(2 * (l + 2 * a - i) - 1, 2)
        total += prod
    return pref * total


def lclt_coefficients(dist: IncrementDistribution, r: int) -> list[Poly]:
    """P0_0..P0_{2r+2} for a concrete walk, floats in z = x/sigma.

    a_{q,j} = [z^q] P0_j = [t^q] ghat_{2j-q} / (sigma sqrt(2 pi)) for
    q = 0..3j/2, with ghat_0 = 1 giving the Gaussian weight a_{0,0}; every
    j >= 1 has 2j - q >= 1.  Order r truncates: a_{q,j} = 0 where 2j - q > r + 1.
    """
    if r < 1:
        raise InputError("r must be >= 1")
    lam = cumulant_ratios(dist, r + 1)
    g = ghats(lam, r + 1)
    scale = dist.sigma() * math.sqrt(2 * math.pi)
    return [Poly([float(g[2 * j - q].coeff(q)) / scale if 2 * j - q <= r + 1 else 0.0
                  for q in range(0, (3 * j) // 2 + 1)])
            for j in range(0, 2 * r + 3)]


def lclt_evaluate(p0_polys: list[Poly], sigma: float, n: int, x: int) -> float:
    """Truncated free-walk series at a lattice point, from ``lclt_coefficients``."""
    if n < 1:
        raise InputError("n must be >= 1")
    z = x / sigma
    gauss = math.exp(-(z * z) / (2.0 * n))
    if gauss == 0.0:
        return 0.0
    total = 0.0
    for j, poly in enumerate(p0_polys):
        total += poly(z) / n ** (j + 0.5)
    return gauss * total


def placeholder_polys(*, sigma: Fraction, m3: Fraction, theta0: Fraction,
                      theta1: Fraction, r: int = 2) -> dict[int, Poly]:
    """Exact-rational assembly of P_2..P_{r+1} with placeholder constants.

    Valid for r <= 2: those orders consume only b[0,0], b[0,1] and the
    third-moment part of the free-walk coefficients, so rational
    placeholders for (sigma, m3, theta0, theta1) keep everything exact
    (``assemble_Q`` raises unless every negative Laurent exponent cancels).
    """
    if r > 2:
        raise InputError("placeholder assembly supports r <= 2 only")
    sigma = Fraction(sigma)
    # orders eta <= 3 only consume free-walk coefficients with 2j - q <= 1,
    # so lambda_1 (the third-moment ratio) is the only ingredient needed
    lam = [Fraction(m3) / (6 * sigma**3)]
    bmap = {(0, 0): Fraction(theta0), (0, 1): Fraction(theta1)}
    return exact_polys(lam, lambda l, h: bmap.get((l, h), Fraction(0)), sigma, r)


def quoted_p2(sigma, theta0, **_):
    """P_2(t) = (2 theta0 / sigma) t."""
    return Poly([0, 2 * theta0 / sigma])


def quoted_p3(sigma, m3, theta0, theta1, sigma_power=3, overshoot_sign=1):
    """The checklist's order-3 closed form; the defaults give it verbatim:
    (theta0 m3 / 3 sigma^3)(t^4 - 5t^2 + 2) + (2 theta1 / sigma)(t^2 - 1).
    ``quoted_p3(..., **CORRECTED)`` is the form the assembly produces."""
    c = theta0 * m3 / (3 * sigma**sigma_power)
    d = overshoot_sign * 2 * theta1 / sigma
    return Poly([2 * c - d, 0, -5 * c + d, 0, c])


# The quoted form needs two corrections before it matches the assembly:
#
# * sigma^3 -> sigma^4 in the third-moment term.  For a strict walk with max
#   step +1 the ballot identity P(S_n = x, tau > n) = (x/n) P(S_n = x) times
#   the free walk's first Edgeworth term forces
#   P_3 = (m3 / (6 sigma^3 sqrt(2 pi)))(t^4 - 3t^2), whose t^4 coefficient is
#   theta0 m3 / (3 sigma^4) since theta0 = sigma / (2 sqrt(2 pi)).  This is not
#   a convention: criterion 3a pins the same theta0 and sigma conventions.
# * (t^2 - 1) -> (1 - t^2) in the overshoot term.  On the lazy simple walk
#   under the weak barrier, reflection P(S_n = x, tau > n) = P(S_n = x)
#   - P(S_n = -x - 2) forces P_3 = 2 (1 - t^2) / (sigma^3 sqrt(2 pi)), with
#   theta1 = 1 / (sigma^2 sqrt(2 pi)) > 0.  Here theta1 is defined with the
#   overshoot -S_tau >= 0.  The checklist the quote comes from is not in this
#   repository, so whether its (t^2 - 1) stems from a theta1 defined with
#   S_tau instead cannot be settled here.
CORRECTED = dict(sigma_power=4, overshoot_sign=-1)
