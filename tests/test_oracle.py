import math
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import (TINY, brute_force_killed, downskip, free_pmf, nonzero, seed_walk_1, skewed,
                      swept, trinomial, uncut_outputs, upskip, upskip_narrow)
from poswalk import increments
from poswalk import oracle as oc
from poswalk.constants import compute_constants
from poswalk.errors import InputError
from poswalk.expansion import interval_deviations
from poswalk.laurent import Poly


def test_free_pmf_n1_is_increment(tri):
    pmf = free_pmf(tri, 1, mode="exact-rational")
    assert nonzero(pmf) == dict(zip(tri.support, tri.probs))


def test_free_pmf_two_steps(tri):
    pmf = free_pmf(tri, 2, mode="exact-rational")
    assert pmf.get(0) == F(17, 50)  # 0.4^2 + 2 * 0.3^2


def test_free_pmf_normalizes(asym):
    pmf = free_pmf(asym, 12, mode="exact-rational")
    assert pmf.total() == 1
    lo, hi = min(nonzero(pmf)), max(nonzero(pmf))
    assert lo >= 12 * asym.min_step and hi <= 12 * asym.max_step


def test_killed_single_step(tri):
    rows = oc.killed_rows_at(tri, [1], "strict", mode="exact-rational")
    assert rows[1].get(1) == F(3, 10)


def test_killed_two_steps_strict_vs_weak(tri):
    strict = oc.killed_rows_at(tri, [2], "strict", mode="exact-rational")
    weak = oc.killed_rows_at(tri, [2], "weak", mode="exact-rational")
    assert sorted(strict) == sorted(weak) == [2]  # only the steps asked for
    assert strict[2].total() == F(21, 100)  # 1 - P(tau = 1) - P(tau = 2)
    assert strict[2].get(1) == F(3, 25)  # only 0 -> 1 -> 1
    assert weak[2].get(1) == F(6, 25)  # also 0 -> 0 -> 1


def test_tau_pinned_values(tri):
    _, killed = swept(tri, 2, "strict")
    assert sum(killed[1].values()) == F(7, 10)
    assert sum(killed[2].values()) == F(9, 100)
    stats = oc.tau_statistics(tri, 2, "strict")
    assert stats.theta[0][0] == pytest.approx(0.7)
    assert tri.sigma() * stats.theta[1][0] == pytest.approx(0.3)  # only X = -1 overshoots
    assert stats.theta[0][1] == pytest.approx(0.09)


def _dense_reference(dist, n, barrier, mode):
    """The untrimmed step the sweep replaced: a fresh np.zeros row per step and
    ``out[s:s+w] += p * v`` per support point.  Yields (survivors, killed)."""
    exact = mode == "exact-rational"
    probs = dist.probs if exact else dist.probs_float()
    spread = dist.max_step - dist.min_step
    floor = oc.Barrier.parse(barrier).floor
    values = np.array([F(1)], dtype=object) if exact else np.ones(1)
    offset = 0
    for _ in range(n):
        out = np.zeros(len(values) + spread, dtype=values.dtype)
        for x, p in zip(dist.support, probs):
            s = x - dist.min_step
            out[s : s + len(values)] += p * values
        cut = floor - (offset + dist.min_step)
        values, offset = out[cut:], floor
        yield values, out[:cut]


def _plateau_law():
    """(2,3,1,3,2)/11 on -2..2: at k = 4096 its rows end in about 114 subnormal cells."""
    return increments.validate([-2, -1, 0, 1, 2], ["2/11", "3/11", "1/11", "3/11", "2/11"])


def _cone_laws():
    """Downskip {-2,0,1}, upskip {-1,0,3}, wide {-3,-1,0,2,4} (complex roots), plateau."""
    return {
        "downskip": increments.validate([-2, 0, 1], ["1/4", "1/4", "1/2"]),
        "upskip": increments.validate([-1, 0, 3], ["3/5", "1/5", "1/5"]),
        "wide": increments.validate([-3, -1, 0, 2, 4], ["2/10", "2/10", "3/10", "2/10", "1/10"]),
        "plateau": _plateau_law(),
    }


@pytest.mark.parametrize("barrier", ["strict", "weak"])
@pytest.mark.parametrize("mode,n", [("float64", 4096), ("exact-rational", 64)])
def test_sweep_matches_dense_reference(tri, asym, rich, ballot_walk, barrier, mode, n):
    # the sweep makes one product per distinct weight, copies the first into
    # the fresh row and trims trailing zeros; its cells are the dense step's
    # bit for bit, through the far tail's underflow to zero and its subnormal
    # cells
    laws = [tri, asym, rich, ballot_walk, upskip_narrow()]
    if mode == "float64":
        laws.append(_plateau_law())
    floor = oc.Barrier.parse(barrier).floor
    for dist in laws:
        ref = _dense_reference(dist, n, barrier, mode)
        for (k, cells, cut), (want, want_dead) in zip(
                oc._sweep(dist, n, oc.Barrier.parse(barrier), mode), ref):
            # row k starts at min_step, then at floor + min_step
            assert cut == (floor if k == 1 else 0) - dist.min_step
            row, dead = cells[cut:], cells[:cut]
            w = len(row)
            assert w and row[-1] != 0
            assert not want[w:].any()
            if mode == "float64":
                assert row.tobytes() == want[:w].tobytes()
                assert dead.tobytes() == want_dead.tobytes()
            else:
                assert row.tolist() == want[:w].tolist()
                assert dead.tolist() == want_dead.tolist()
        assert k == n


@pytest.mark.parametrize("barrier", ["strict", "weak"])
def test_brute_force_agreement(tri, asym, rich, barrier):
    for dist in (tri, asym, rich):
        assert swept(dist, 7, barrier) == brute_force_killed(dist, 7, barrier)


def test_mass_conservation_exact(tri, asym, rich):
    for dist in (tri, asym, rich):
        rows, killed = swept(dist, 20, "strict")
        absorbed = 0
        for k in range(1, 21):
            absorbed += sum(killed[k].values())
            assert sum(rows[k].values()) + absorbed == 1


@pytest.mark.parametrize("barrier", ["strict", "weak"])
def test_first_passage_decomposition_exact(tri, asym, rich, barrier):
    # free pmf = survivors + sum over first-passage times of killed mass
    # convolved with the free walk restarted from the killed position; the
    # free law comes from the conftest convolution, not from the sweep
    for dist in (tri, asym, rich):
        n = 20
        rows, killed = swept(dist, n, barrier)
        free = {k: free_pmf(dist, k, mode="exact-rational") for k in range(1, n + 1)}
        for y, want in nonzero(free[n]).items():
            total = rows[n].get(y, F(0))
            for j in range(1, n + 1):
                for z, mass in killed[j].items():
                    if j == n:
                        total += mass if z == y else 0
                    else:
                        total += mass * free[n - j].get(y - z, F(0))
            assert total == want


def test_weak_survives_at_least_strict(tri, asym):
    for dist in (tri, asym):
        ts = oc.killed_rows_at(dist, range(1, 31), "strict", mode="exact-rational")
        tw = oc.killed_rows_at(dist, range(1, 31), "weak", mode="exact-rational")
        for k in range(1, 31):
            assert tw[k].total() >= ts[k].total()


def test_float_matches_rational_to_1e10(tri, asym, rich):
    for dist in (tri, asym, rich):
        exact = oc.killed_rows_at(dist, range(1, 65), "strict", mode="exact-rational")
        fl = oc.killed_rows_at(dist, range(1, 65), "strict", mode="float64")
        for k in (1, 2, 16, 33, 64):
            for y, v in nonzero(exact[k]).items():
                ref = float(v)
                assert abs(fl[k].get(y, 0.0) - ref) <= 1e-10 * ref


def test_ballot_identity_trinomial(tri):
    # max step +1: exactly x of n cyclic shifts of a path to x stay positive
    n = 16
    rows = oc.killed_rows_at(tri, range(1, n + 1), "strict", mode="exact-rational")
    free = nonzero(free_pmf(tri, n, mode="exact-rational"))
    for x in range(1, n + 1):
        assert rows[n].get(x) == F(x, n) * free[x]


def test_reflection_identity_weak_trinomial(tri):
    # +-1 steps: reflecting at the first visit to -1 pairs each killed path
    # ending at x with a free path ending at -2-x
    n = 16
    rows = oc.killed_rows_at(tri, range(1, n + 1), "weak", mode="exact-rational")
    free = nonzero(free_pmf(tri, n, mode="exact-rational"))
    for x in range(0, n + 1):
        assert rows[n].get(x) == free[x] - free.get(-x - 2, F(0))


def test_horizon_cap_exact_mode(tri):
    with pytest.raises(InputError, match="exact mode capped at n=64"):
        oc.killed_rows_at(tri, range(1, 66), "strict", mode="exact-rational")


TARGET = math.exp(-0.125) - math.exp(-1.125)  # the limit mass of [0.5, 1.5] sigma sqrt(n)


def test_conditioned_interval_total_and_empty():
    # sigma = 1, n = 100: the interval holds the lattice points 5..15
    inside = oc.Row(5, np.full(11, 0.25))
    outside = oc.Row(1, np.array([0.5, 0.25, 0.0, 0.5] + [0.0] * 12 + [0.25]))
    raw, _ = interval_deviations(1.0, {100: inside}, [100], Poly([1]))
    assert raw[100] == abs(1.0 - TARGET) * 10
    raw, _ = interval_deviations(1.0, {100: outside}, [100], Poly([1]))
    assert raw[100] == TARGET * 10


def test_conditioned_interval_near_gaussian(tri):
    row = oc.killed_rows_at(tri, [100], "strict")[100]
    raw, _ = interval_deviations(tri.sigma(), {100: row}, [100], Poly())
    assert raw[100] / math.sqrt(100) < 0.2


def test_degenerate_conditioning_guard(tri):
    with pytest.raises(InputError, match=r"P\(tau > 5\) = 0"):
        interval_deviations(tri.sigma(), {5: oc.Row(1, np.zeros(6))}, [5], Poly())


def test_row_get_and_total(asym, rich):
    row = oc.Row(3, np.array([0.0, 0.25, 0.0, 0.5]))
    assert row.get(2, -1.0) == -1.0 and row.get(7) == 0 and row.get(4) == 0.25
    assert row.total(-10, 4) == 0.25 and row.total(5, 99) == 0.5 and row.total() == 0.75
    assert row.total(7, 9) == 0 and row.total(-5, 2) == 0 and row.total(5, 4) == 0
    # float totals are the numpy pairwise sum over the nonzero cells, bit for bit
    for dist in (asym, rich):
        for barrier in ("strict", "weak"):
            row = oc.killed_rows_at(dist, [4096], barrier)[4096]
            cells = nonzero(row)
            assert row.total().hex() == float(np.sum(np.array(list(cells.values())))).hex()
            lo, hi = 60, 180
            band = [v for y, v in cells.items() if lo <= y <= hi]
            assert row.total(lo, hi).hex() == float(np.sum(np.array(band))).hex()


def _uncut_cases():
    """(kind, law, kmax, rows_at) of each sweep checked against the uncut one.

    theta: the fixture laws, whose killed parts hold 1 to 3 cells; rows: rows
    kept below and beyond kmax; cut: laws whose cone cut meets subnormal
    cells; trim: the widest subnormal bands, which the cone's trim meets;
    band: a row kept at kmax; flush: kmax below, at, one past and off a
    multiple of the steps ``tau_statistics`` reduces at a time, with and
    without a row kept beyond kmax.
    """
    cone = _cone_laws()
    deep = {"plateau": cone["plateau"], "seed walk 1": seed_walk_1()}
    fixed = {"trinomial": trinomial(), "skewed": skewed(), "downskip": downskip()}
    cases = [("theta", name, law, 256, ()) for name, law in {**fixed, "ballot": upskip()}.items()]
    cases += [("rows", name, law, 64, rows_at)
              for name, law in fixed.items() for rows_at in [(), (10, 64, 100, 150)]]
    cases += [("cut", name, law, 1024, rows_at)
              for name, law in cone.items() for rows_at in [(), (300, 700)]]
    cases += [("trim", name, law, 4096, rows_at)
              for name, law in deep.items() for rows_at in [(), (700,)]]
    cases.append(("band", "plateau", cone["plateau"], 4096, (4096,)))
    flush = oc.FLUSH_STEPS
    cases += [("flush", name, law, kmax, rows_at)
              for name, law in [("trinomial", fixed["trinomial"]), ("seed walk 1", seed_walk_1())]
              for kmax in (1, flush - 1, flush, flush + 1, 1000)
              for rows_at in [(), (kmax + 50,)]]
    return [pytest.param(kind, law, kmax, rows_at,
                         id=f"{kind}-{name}-{kmax}-rows={','.join(map(str, rows_at)) or 'none'}")
            for kind, name, law, kmax, rows_at in cases]


@pytest.mark.parametrize("barrier", ["strict", "weak"])
@pytest.mark.parametrize("kind,dist,kmax,rows_at", _uncut_cases())
def test_tau_statistics_is_the_uncut_sweep(kind, dist, kmax, rows_at, barrier, sweep_log):
    # theta, the columns and the kept rows are those of the uncut sweep, bit
    # for bit, wherever the rows end, wherever kmax falls among the flushes
    # and through the cone's cut and subnormal trim after the last kept row.
    # theta is reduced from the ring's killed cells, zeros included, yet it is
    # the per-step sum over the nonzero killed cells in position order: these
    # laws' killed parts hold at most 7 cells, which numpy sums in a plain loop
    stats = oc.tau_statistics(dist, kmax, barrier, hmax=3, rows_at=rows_at)
    ref = uncut_outputs(dist, kmax, barrier, rows_at)
    assert stats.columns.tobytes() == ref.columns.tobytes()
    for h in range(4):
        assert stats.theta[h].tobytes() == ref.theta[h].tobytes()
    assert sorted(stats.rows) == list(rows_at)
    for n, row in ref.rows.items():
        kept = stats.rows[n]
        assert (kept.offset, kept.values.tobytes()) == (row.offset, row.values.tobytes())
        assert kept.values[-1] != 0  # the row ends at its last nonzero cell
    # the block stops at kmax, wherever the rows end
    bare = uncut_outputs(dist, kmax, barrier)
    assert (bare.theta.tobytes(), bare.columns.tobytes()) == (ref.theta.tobytes(),
                                                             ref.columns.tobytes())
    # one sweep, and no row of its cone ends in a subnormal cell
    after = max(rows_at, default=0)
    assert [s.k for s in sweep_log] == list(range(1, max(kmax, after) + 1))
    assert all(s.last >= TINY for s in sweep_log if s.k > after and s.width)
    if kind in ("cut", "trim"):
        # the cut ran over subnormal cells: past the last kept row an uncut
        # row holds a subnormal cell above the cone's edge U_MAX + a (kmax - k)
        assert ref.subnormal_above_edge
    if kind == "trim":
        # the trim engaged: past the last kept row an uncut row holds a
        # subnormal cell at or below the edge, a cell the cut alone keeps
        assert ref.last_subnormal > after
    if kind == "band":
        # a kept row loses only its exact zeros: the plateau law's row at
        # 4096 keeps its 114 subnormal cells
        cells = ref.rows[kmax].values
        assert ((cells > 0) & (cells < TINY)).sum() > 100


@pytest.mark.parametrize("barrier", ["strict", "weak"])
def test_wide_killed_part_sums_as_a_step_major_block(barrier):
    # numpy sums a row of 8 or more cells pairwise, so theta is no longer the
    # plain nonzero sum; it is the reduction of the uncut sweep's killed cells
    # laid out step-major over positions min_step..floor - 1, zeros included,
    # row by row with the same (ys**h * block).sum(axis=1), whichever flush
    # holds the step.  This law kills 9 cells a step (strict) or 8 (weak)
    dist = increments.validate([-8, 0, 1], ["1/10", "1/10", "4/5"])
    floor, lo = oc.Barrier.parse(barrier).floor, dist.min_step
    ys = -np.arange(lo, floor, dtype=float) / dist.sigma()
    for kmax in (1, 255, 257, 1000, 4096):
        block = np.zeros((kmax, floor - lo))
        for k, cells, cut in oc._sweep(dist, kmax, oc.Barrier.parse(barrier), "float64"):
            block[k - 1, floor - cut - lo :] = cells[:cut]  # row k starts at floor - cut
        stats = oc.tau_statistics(dist, kmax, barrier)
        for h in range(4):
            assert stats.theta[h].tobytes() == (ys**h * block).sum(axis=1).tobytes()
        assert stats.columns.tobytes() == uncut_outputs(dist, kmax, barrier).columns.tobytes()


@pytest.mark.parametrize("barrier", ["strict", "weak"])
def test_tau_statistics_keeps_no_killed_cells(tri, barrier):
    # what outlives the sweep is theta and the survivor columns: the memory
    # behind the columns holds floor..U_MAX of each step and no killed cell
    floor = oc.Barrier.parse(barrier).floor
    for dist in (tri, seed_walk_1()):
        for kmax in (1, 300):
            stats = oc.tau_statistics(dist, kmax, barrier, rows_at=[kmax + 10])
            assert stats.columns.base.size == kmax * (oc.U_MAX + 1 - floor)
            assert all(t.size == kmax and t.base is None for t in stats.theta.values())


def test_compute_constants_is_one_sweep(tri, sweep_log):
    # theta, b and U1 all come from one sweep: one kill step per horizon
    compute_constants(oc.tau_statistics(tri, 256))
    assert [s.k for s in sweep_log] == list(range(1, 257))


@pytest.mark.parametrize("barrier", ["strict", "weak"])
def test_sweep_keeps_the_space_time_martingales(tri, asym, barrier):
    # 1, S_n and S_n^2 - sigma^2 n are martingales, so the killed cells to
    # step n plus the survivor row at n conserve them.  On the uncut float
    # sweep to 4096 the largest residuals, relative to 1, sigma sqrt(n) and
    # sigma^2 n, are 6.2e-15 (downskip strict), 3.2e-15 and 1.6e-15 (skewed
    # weak); the bound 1e-13 sits 16 times above the measured floor
    n = 4096
    floor = oc.Barrier.parse(barrier).floor
    for dist in (tri, asym, _cone_laws()["downskip"], seed_walk_1()):
        var = float(dist.sigma2())
        absorbed = np.zeros(3)  # sum over k <= n of E[g(S_k, k); tau = k]
        worst = np.zeros(3)
        for k, cells, cut in oc._sweep(dist, n, oc.Barrier.parse(barrier), "float64"):
            ys = np.arange(floor - cut, floor - cut + len(cells), dtype=float)
            moments = np.stack([cells, ys * cells, (ys * ys - var * k) * cells])
            absorbed += moments[:, :cut].sum(axis=1)
            residual = absorbed + moments[:, cut:].sum(axis=1) - [1.0, 0.0, 0.0]
            worst = np.maximum(worst, abs(residual) / [1.0, math.sqrt(var * k), var * k])
        assert (worst <= 1e-13).all(), (dist.support, worst)


@pytest.mark.parametrize("barrier", ["strict", "weak"])
def test_cone_cut_engages_only_after_the_last_kept_row(tri, sweep_log, barrier):
    # the constants' sweep ends on a row cut to the columns' cells; a sweep
    # that keeps a row at kmax, and killed_rows_at, never cut
    floor = oc.Barrier.parse(barrier).floor
    oc.tau_statistics(tri, 1024, barrier)
    assert len(sweep_log) == 1024 and sweep_log[-1].width <= oc.U_MAX - floor + 1
    oc.tau_statistics(tri, 1024, barrier, rows_at=[1024])
    full = sweep_log[-1].width
    assert full > oc.U_MAX
    oc.killed_rows_at(tri, [1024], barrier)
    assert len(sweep_log) == 3 * 1024 and sweep_log[-1].width == full


def test_tau_statistics_rejects_horizons_below_one(tri):
    with pytest.raises(InputError):
        oc.tau_statistics(tri, 16, rows_at=[0, 8])


@pytest.mark.parametrize("barrier", ["strict", "weak"])
def test_compute_constants_from_given_statistics(tri, asym, barrier):
    for dist in (tri, asym):
        stats = oc.tau_statistics(dist, 256, barrier, rows_at=[400])
        bare = oc.tau_statistics(dist, 256, barrier)
        assert compute_constants(stats).to_json_dict() == compute_constants(bare).to_json_dict()


def test_compute_constants_needs_theta1(tri):
    # theta1 = b[0,1] is part of every constant set: a sweep without the
    # first overshoot moment is an input error, not a KeyError
    with pytest.raises(InputError, match="hmax >= 1"):
        compute_constants(oc.tau_statistics(tri, 64, hmax=0))


@pytest.mark.parametrize("cells,tail,kept", [
    ([], 4, 0),                              # an empty row
    ([0.0, 0.0, 0.0], 2, 0),                 # all zeros
    ([1.0, 2.0, 0.0, 0.0, 0.0], 2, 2),       # zero tail: the scan falls back to the head
    ([1.0, 0.0, 3.0, 0.0], 1, 3),            # nonzero cell just before the tail
    ([0.0, 0.0, 5e-324], 2, 3),              # a nonzero last cell, here subnormal
    ([0.5, 0.25], 8, 2),                     # tail longer than the row
])
def test_trim_zeros_edge_cases(cells, tail, kept):
    values = np.array(cells, dtype=float)
    out = oc._trim_zeros(values, tail, 0)
    assert out.tolist() == cells[:kept]
    assert out.base is values  # a view: the trim copies no cells


def test_trim_zeros_fraction_row():
    # a Fraction row loses its exact zeros only, however small its last cell
    values = np.array([F(1, 3), F(0), F(2, 7), F(0), F(0)], dtype=object)
    assert oc._trim_zeros(values, 2, 0).tolist() == [F(1, 3), F(0), F(2, 7)]
    assert oc._trim_zeros(values, 3, 0).tolist() == [F(1, 3), F(0), F(2, 7)]
    assert oc._trim_zeros(np.array([F(0)] * 3, dtype=object), 1, 0).tolist() == []
    dust = np.array([F(1, 3), F(1, 10**400), F(0)], dtype=object)
    assert oc._trim_zeros(dust, 1, 0).tolist() == [F(1, 3), F(1, 10**400)]


SUBNORMAL = np.nextafter(TINY, 0.0)  # the cone's bound: the largest subnormal float


@pytest.mark.parametrize("cells,tail,kept,kept_in_cone", [
    ([1.0, 5e-324], 2, 2, 1),                       # a subnormal last cell
    ([1.0, TINY, 1e-310], 4, 3, 2),                 # the smallest normal float stays
    ([1.0, 2.0, 0.0, 1e-310, 0.0, 5e-324], 2, 6, 2),  # a subnormal tail: the head scan
    ([1e-310, 0.0, 5e-324], 1, 3, 0),               # nothing but subnormal cells
])
def test_trim_zeros_cone_bound(cells, tail, kept, kept_in_cone):
    values = np.array(cells, dtype=float)
    assert oc._trim_zeros(values, tail, 0).tolist() == cells[:kept]
    out = oc._trim_zeros(values, tail, SUBNORMAL)
    assert out.tolist() == cells[:kept_in_cone]
    assert out.base is values
