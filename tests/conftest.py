"""Shared fixtures: test walks, brute-force oracles, cached constant sets."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from poswalk import increments
from poswalk.constants import compute_constants
from poswalk.expansion import DEFAULT_R_CAP, b_range
from poswalk.oracle import Barrier, tau_statistics


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
    killed[k][z] = P(S_k = z, tau = k), matching the DP rows' ``nonzero()``.
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


# constants at full accuracy are reused by many tests; computed once per walk
_CONSTANT_CACHE: dict = {}


def constants_for(dist, barrier, kmax=4096, hmax=b_range(DEFAULT_R_CAP)):
    key = (dist.digest(), Barrier.parse(barrier).value, kmax, hmax)
    if key not in _CONSTANT_CACHE:
        _CONSTANT_CACHE[key] = compute_constants(tau_statistics(dist, kmax, barrier,
                                                                hmax=hmax))
    return _CONSTANT_CACHE[key]


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
