import math
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import brute_force_killed
from poswalk import oracle as oc
from poswalk.constants import compute_constants
from poswalk.errors import DegenerateConditioning, HorizonTooLarge, InputError


def test_free_pmf_n1_is_increment(tri):
    pmf = oc.free_pmf(tri, 1, mode="exact-rational")
    assert pmf.nonzero() == tri.prob_map()


def test_free_pmf_two_steps(tri):
    pmf = oc.free_pmf(tri, 2, mode="exact-rational")
    assert pmf.get(0) == F(17, 50)  # 0.4^2 + 2 * 0.3^2


def test_free_pmf_normalizes(asym):
    pmf = oc.free_pmf(asym, 12, mode="exact-rational")
    assert pmf.total() == 1
    lo, hi = min(pmf.nonzero()), max(pmf.nonzero())
    assert lo >= 12 * asym.min_step and hi <= 12 * asym.max_step


def test_killed_single_step(tri):
    t = oc.killed_table(tri, 1, "strict", mode="exact-rational")
    assert t.rows[1].get(1) == F(3, 10)


def test_killed_two_steps_strict_vs_weak(tri):
    strict = oc.killed_table(tri, 2, "strict", mode="exact-rational")
    weak = oc.killed_table(tri, 2, "weak", mode="exact-rational")
    assert strict.rows[2].get(1) == F(3, 25)  # only 0 -> 1 -> 1
    assert weak.rows[2].get(1) == F(6, 25)  # also 0 -> 0 -> 1


def test_tau_pinned_values(tri):
    t = oc.killed_table(tri, 2, "strict", mode="exact-rational")
    assert t.tau_mass(1) == F(7, 10)
    assert t.tau_mass(2) == F(9, 100)
    stats = oc.tau_statistics(tri, 2, "strict")
    assert stats.theta[0][0] == pytest.approx(0.7)
    assert tri.sigma() * stats.theta[1][0] == pytest.approx(0.3)  # only X = -1 overshoots
    assert stats.theta[0][1] == pytest.approx(0.09)


@pytest.mark.parametrize("barrier", ["strict", "weak"])
def test_tau_statistics_theta_matches_killed_cells(tri, asym, rich, ballot_walk, barrier):
    # the moments reduced from the killed-cell block after the sweep equal the
    # per-step sum over each killed row's nonzero cells in position order, bit
    # for bit: these laws' block rows hold at most 7 cells, which numpy sums
    # in a plain loop
    kmax = 256
    for dist in (tri, asym, rich, ballot_walk):
        stats = oc.tau_statistics(dist, kmax, barrier, hmax=3)
        table = oc.killed_table(dist, kmax, barrier, mode="float64")
        sigma = dist.sigma()
        for k in range(1, kmax + 1):
            cells = table.killed[k].nonzero()
            ys = -np.array(list(cells), dtype=float)  # overshoots
            ms = np.array(list(cells.values()), dtype=float)
            for h in range(4):
                want = float((((ys / sigma) ** h) * ms).sum())
                assert stats.theta[h][k - 1].hex() == want.hex()
            assert stats.theta[0][k - 1] == table.tau_mass(k)


@pytest.mark.parametrize("barrier", ["strict", "weak"])
def test_brute_force_agreement(tri, asym, rich, barrier):
    for dist in (tri, asym, rich):
        n = 7
        table = oc.killed_table(dist, n, barrier, mode="exact-rational")
        rows, killed = brute_force_killed(dist, n, barrier)
        for k in range(1, n + 1):
            assert table.rows[k].nonzero() == rows[k]
            assert table.killed[k].nonzero() == killed[k]


def test_mass_conservation_exact(tri, asym, rich):
    for dist in (tri, asym, rich):
        t = oc.killed_table(dist, 20, "strict", mode="exact-rational")
        for k in range(1, 21):
            assert t.survival(k) + sum(t.tau_mass(j) for j in range(1, k + 1)) == 1


@pytest.mark.parametrize("barrier", ["strict", "weak"])
def test_first_passage_decomposition_exact(tri, asym, rich, barrier):
    # free pmf = survivors + sum over first-passage times of killed mass
    # convolved with the free walk restarted from the killed position
    for dist in (tri, asym, rich):
        n = 20
        t = oc.killed_table(dist, n, barrier, mode="exact-rational")
        free = {k: oc.free_pmf(dist, k, mode="exact-rational") for k in range(1, n + 1)}
        for y, want in free[n].nonzero().items():
            total = t.rows[n].get(y, F(0))
            for j in range(1, n + 1):
                for z, mass in t.killed[j].nonzero().items():
                    if j == n:
                        total += mass if z == y else 0
                    else:
                        total += mass * free[n - j].get(y - z, F(0))
            assert total == want


def test_weak_survives_at_least_strict(tri, asym):
    for dist in (tri, asym):
        ts = oc.killed_table(dist, 30, "strict", mode="exact-rational")
        tw = oc.killed_table(dist, 30, "weak", mode="exact-rational")
        for k in range(1, 31):
            assert tw.survival(k) >= ts.survival(k)


def test_float_matches_rational_to_1e10(tri, asym, rich):
    for dist in (tri, asym, rich):
        exact = oc.killed_table(dist, 64, "strict", mode="exact-rational")
        fl = oc.killed_table(dist, 64, "strict", mode="float64")
        for k in (1, 2, 16, 33, 64):
            for y, v in exact.rows[k].nonzero().items():
                ref = float(v)
                assert abs(fl.rows[k].get(y, 0.0) - ref) <= 1e-10 * ref


def test_ballot_identity_trinomial(tri):
    # max step +1: exactly x of n cyclic shifts of a path to x stay positive
    n = 16
    t = oc.killed_table(tri, n, "strict", mode="exact-rational")
    free = oc.free_pmf(tri, n, mode="exact-rational").nonzero()
    for x in range(1, n + 1):
        assert t.rows[n].get(x) == F(x, n) * free[x]


def test_reflection_identity_weak_trinomial(tri):
    # +-1 steps: reflecting at the first visit to -1 pairs each killed path
    # ending at x with a free path ending at -2-x
    n = 16
    t = oc.killed_table(tri, n, "weak", mode="exact-rational")
    free = oc.free_pmf(tri, n, mode="exact-rational").nonzero()
    for x in range(0, n + 1):
        assert t.rows[n].get(x) == free[x] - free.get(-x - 2, F(0))


def test_horizon_cap_exact_mode(tri):
    with pytest.raises(HorizonTooLarge):
        oc.killed_table(tri, 65, "strict", mode="exact-rational")


def test_conditioned_interval_total_and_empty(tri):
    full = oc.conditioned_interval_prob(tri, 30, 1e-9, 1e9, "strict", mode="exact-rational")
    assert full == 1
    none = oc.conditioned_interval_prob(tri, 4, 5.0, 6.0, "strict", mode="exact-rational")
    assert none == 0


def test_conditioned_interval_near_gaussian(tri):
    p = oc.conditioned_interval_prob(tri, 100, 0.5, 1.5, "strict")
    assert abs(p - (math.exp(-0.125) - math.exp(-1.125))) < 0.2


def test_conditioned_interval_requires_valid_band(tri):
    with pytest.raises(InputError):
        oc.conditioned_interval_prob(tri, 10, 1.5, 0.5)


def test_degenerate_conditioning_guard(tri):
    with pytest.raises(DegenerateConditioning):
        oc.conditioned_interval_prob(tri, 5, 0.5, 1.5, "strict", row=oc.Row(1, np.zeros(6)))


def test_row_get_and_total(asym, rich):
    row = oc.Row(3, np.array([0.0, 0.25, 0.0, 0.5]))
    assert row.get(2, -1.0) == -1.0 and row.get(7) == 0 and row.get(4) == 0.25
    assert row.total(-10, 4) == 0.25 and row.total(5, 99) == 0.5 and row.total() == 0.75
    assert row.total(7, 9) == 0 and row.total(-5, 2) == 0 and row.total(5, 4) == 0
    # float totals are the numpy pairwise sum over the nonzero cells, bit for bit
    for dist in (asym, rich):
        for barrier in ("strict", "weak"):
            row = oc.killed_rows_at(dist, [4096], barrier)[4096]
            cells = row.nonzero()
            assert row.total().hex() == float(np.sum(np.array(list(cells.values())))).hex()
            lo, hi = 60, 180
            band = [v for y, v in cells.items() if lo <= y <= hi]
            assert row.total(lo, hi).hex() == float(np.sum(np.array(band))).hex()


@pytest.mark.parametrize("barrier", ["strict", "weak"])
def test_tau_statistics_survivor_columns(tri, asym, rich, barrier):
    # the U1 columns ride along the tau sweep; they must be the table's cells
    floor = oc.Barrier.parse(barrier).floor
    for dist in (tri, asym, rich):
        stats = oc.tau_statistics(dist, 64, barrier)
        table = oc.killed_table(dist, 64, barrier, mode="float64")
        for u in range(floor, stats.u_max + 1):
            expected = [table.rows[k].get(u, 0.0) for k in range(1, 65)]
            assert stats.column(u).tolist() == expected


def test_compute_constants_is_one_sweep(tri, monkeypatch):
    # theta, b and U1 all come from one sweep: one kill step per horizon
    calls = []
    split = oc._split_killed

    def counting(*args, **kwargs):
        calls.append(1)
        return split(*args, **kwargs)

    monkeypatch.setattr(oc, "_split_killed", counting)
    compute_constants(tri, kmax=256)
    assert len(calls) == 256
