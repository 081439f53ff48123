import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import constants_for, hitting_time_b, seed_walk_1, skewed, trinomial
from poswalk import constants as cn
from poswalk import extrapolation
from poswalk import increments
from poswalk.cli import _write_json
from poswalk.errors import InputError
from poswalk.extrapolation import fit_power_tails
from poswalk.oracle import Barrier, tau_statistics

ROOT2PI = math.sqrt(2 * math.pi)


def test_theta0_trinomial_strict_closed_form(tri, tri_constants_strict):
    # max step +1 walk: the ballot identity forces theta0 = sigma / (2 sqrt(2 pi))
    sigma = tri.sigma()
    assert tri_constants_strict.theta0 == pytest.approx(sigma / (2 * ROOT2PI), rel=1e-9)


def test_theta0_trinomial_weak_closed_form(tri, tri_constants_weak):
    # +-1 reflection gives P(tau-bar > n) ~ 2 / (sigma sqrt(2 pi n))
    sigma = tri.sigma()
    assert tri_constants_weak.theta0 == pytest.approx(1 / (sigma * ROOT2PI), rel=1e-9)


def test_theta1_trinomial_weak_closed_form(tri, tri_constants_weak):
    # overshoot is always one lattice unit; reflection pins the limit exactly
    sigma = tri.sigma()
    assert tri_constants_weak.theta1 == pytest.approx(1 / (sigma**2 * ROOT2PI), rel=1e-8)


def test_theta1_vanishes_for_min_step_one_strict(tri, asym,
                                                 tri_constants_strict,
                                                 asym_constants_strict):
    # min step -1 walks never overshoot under the strict barrier after k = 1
    assert tri_constants_strict.theta1 == 0.0
    assert asym_constants_strict.theta1 == 0.0


def test_theta1_positive_when_overshoot_possible(rich):
    cs = constants_for(rich, Barrier.STRICT, kmax=2048)
    assert cs.theta1 > 0


def test_theta_error_estimates_small(tri_constants_strict):
    prov = tri_constants_strict.provenance
    assert prov["theta0"]["error_estimate"] < 1e-5 * tri_constants_strict.theta0


def test_theta0_positive_everywhere(tri_constants_strict, tri_constants_weak,
                                    asym_constants_strict, asym_constants_weak):
    for cs in (tri_constants_strict, tri_constants_weak,
               asym_constants_strict, asym_constants_weak):
        assert cs.theta0 > 0


def test_b00_matches_theta0(tri_constants_strict, asym_constants_weak):
    for cs in (tri_constants_strict, asym_constants_weak):
        assert cs.b_value(0, 0) == cs.theta0
        assert cs.b_value(0, 1) == cs.theta1


def test_overshoot_bounded_by_survival(tri_constants_strict):
    # single-unit overshoots: theta1 <= theta0 / sigma in sigma units
    cs = tri_constants_strict
    assert cs.theta1 <= cs.theta0 / cs.sigma + 1e-12


def test_two_pipeline_theta0_agreement(tri, asym, tri_constants_strict,
                                       tri_constants_weak, asym_constants_strict,
                                       asym_constants_weak):
    for cs in (tri_constants_strict, tri_constants_weak,
               asym_constants_strict, asym_constants_weak):
        assert cs.provenance["theta0_from_u1"]["value"] == pytest.approx(cs.theta0, rel=1e-3)


def test_two_pipeline_theta1_agreement(tri_constants_weak):
    cs = tri_constants_weak
    assert cs.provenance["theta1_from_u1"]["value"] == pytest.approx(cs.theta1, rel=1e-3)


def test_renewal_route_matches_limit_route_to_rounding(rich, asym):
    # P(tau = n+1) = sum_u P(S_n = u, tau > n) P(kill from u) holds exactly
    # and both routes fit the same sweep linearly, so they agree to rounding
    # wherever the walk can overshoot: the renewal route checks the kill and
    # overshoot bookkeeping, not the extrapolation error
    for dist, barrier in ((rich, Barrier.STRICT), (rich, Barrier.WEAK),
                          (asym, Barrier.WEAK)):
        cs = constants_for(dist, barrier)
        assert cs.theta1 > 0
        assert cs.provenance["theta1_from_u1"]["value"] == pytest.approx(cs.theta1, rel=1e-10)
        assert cs.provenance["theta0_from_u1"]["value"] == pytest.approx(cs.theta0, rel=1e-10)


def test_theta0_of_the_two_barriers_multiply_to_one_over_4pi(asym, rich):
    # Wiener-Hopf pairs the strict ladder of X with the weak ladder of -X
    # (Feller II, XII.3; Spitzer 17): theta0_strict(X) theta0_weak(-X) = 1/(4 pi).
    # Largest gap at kmax 1024, over both pairings of each law: 3.25e-12 (skewed)
    for dist in (asym, rich, seed_walk_1()):
        mirror = increments.validate([-x for x in dist.support], list(dist.probs))
        for x, minus_x in ((dist, mirror), (mirror, dist)):
            strict = constants_for(x, Barrier.STRICT, kmax=1024, hmax=1).theta0
            weak = constants_for(minus_x, Barrier.WEAK, kmax=1024, hmax=1).theta0
            assert abs(4 * math.pi * strict * weak - 1) <= 1e-10, x.support


def test_barrier_ordering(tri_constants_strict, tri_constants_weak,
                          asym_constants_strict, asym_constants_weak):
    assert tri_constants_weak.theta0 > tri_constants_strict.theta0
    assert asym_constants_weak.theta0 > asym_constants_strict.theta0


def test_u1_positive_and_asymptotically_linear(tri, tri_constants_strict):
    cs = tri_constants_strict
    u1 = cs.u1_table
    assert all(v > 0 for v in u1.values())
    # slope flattens toward 2 theta0 / sigma^2 (for this walk the ballot
    # identity makes U1 exactly linear with that slope)
    u_hi = max(u1)
    assert u1[u_hi] / u_hi == pytest.approx(2 * cs.theta0 / cs.sigma**2, rel=0.05)


def test_u1_trinomial_weak_origin_value(tri, tri_constants_weak):
    # reflection: P(S_n = 0, tau-bar > n) = P(S_n = 0) - P(S_n = -2)
    sigma = tri.sigma()
    assert tri_constants_weak.u1_table[0] == pytest.approx(2 / (sigma**3 * ROOT2PI), rel=1e-6)


def test_u1_trinomial_weak_closed_form_all_columns(tri, tri_constants_weak):
    # the +-1 reflection identity forces U1(u) = (2u + 2) / (sigma^3 sqrt(2 pi))
    # exactly, at every height
    sigma = tri.sigma()
    for u, v in tri_constants_weak.u1_table.items():
        assert v == pytest.approx((2 * u + 2) / (sigma**3 * ROOT2PI), rel=5e-4)


def test_b1_prediction_for_ballot_walk(ballot_walk):
    # for max-step-one strict walks the whole order-3 polynomial collapses
    # onto the free-walk coefficients, which forces b[0,1] = -theta0 m3 / (3 sigma^3)
    cs = constants_for(ballot_walk, Barrier.STRICT, kmax=4096)
    sigma = ballot_walk.sigma()
    m3 = float(ballot_walk.raw_moment(3))
    assert cs.theta0 == pytest.approx(sigma / (2 * ROOT2PI), rel=1e-8)
    assert cs.b_value(0, 1) == pytest.approx(-cs.theta0 * m3 / (3 * sigma**3), rel=1e-6)


def test_b1_closed_forms_trinomial(tri, tri_constants_strict, tri_constants_weak):
    # the subleading coefficient against the hitting-time reference: the
    # fit is 1.0e-9 (strict) and 4.2e-10 (weak) off, relative, at kmax 4096
    for cs in (tri_constants_strict, tri_constants_weak):
        want = hitting_time_b(tri, cs.barrier, 1, 0)[(1, 0)]
        assert cs.b_value(1, 0) == pytest.approx(want, rel=1e-8)


# sigma sqrt(2 pi) b[l, 0] for l = 0..3, exact rationals (a symbolic derivation
# of the hitting-time series); l = 0 is theta0's closed form on the trinomial
HITTING_TIME_TABLE = {
    ("trinomial", "strict"): ["3/10", "3/20", "1/8", "49/384"],
    ("trinomial", "weak"): ["1", "-1", "25/24", "-595/576"],
    ("skewed", "strict"): ["2/5", "31/180", "749/5184", "249347/1119744"],
    ("skewed", "weak"): ["1", "-17/72", "1825/10368", "-431585/2239488"],
}
SKIP_FREE = {"trinomial": trinomial(), "skewed": skewed()}


@pytest.mark.parametrize("law,barrier", list(HITTING_TIME_TABLE))
def test_hitting_time_reference_gives_the_exact_table(law, barrier):
    # the float series is the exact table to 6.4e-15 relative at worst (skewed weak, l = 3)
    dist = SKIP_FREE[law]
    b = hitting_time_b(dist, barrier, 3, 2)
    scale = dist.sigma() * ROOT2PI
    for l, want in enumerate(HITTING_TIME_TABLE[(law, barrier)]):
        assert b[(l, 0)] * scale == pytest.approx(float(F(want)), rel=1e-13)
        assert b[(l, 2)] == (0.0 if barrier == "strict" else b[(l, 0)] / dist.sigma() ** 2)


# the largest |fit - truth| over h <= 4, per l and kmax, stands about 8-11x
# below these bounds: at kmax 1024 3.1e-12, 1.0e-8 and 1.3e-5 (trinomial
# weak); at kmax 4096 2.7e-13, 1.3e-9 and 2.8e-6 (skewed weak)
B_GAP_BOUNDS = {1024: (3e-11, 1e-7, 1e-4), 4096: (3e-12, 1e-8, 3e-5)}


@pytest.mark.parametrize("kmax", sorted(B_GAP_BOUNDS))
@pytest.mark.parametrize("barrier", [Barrier.STRICT, Barrier.WEAK])
@pytest.mark.parametrize("law", sorted(SKIP_FREE))
def test_every_b_matches_the_hitting_time_reference(law, barrier, kmax):
    # every b[l, h] a sweep to hmax 4 fits, l <= 2, against the truth on a
    # skip-free law; the strict walk never overshoots after step 1, so its
    # b[l, h >= 1] are exactly 0
    dist = SKIP_FREE[law]
    cs = constants_for(dist, barrier, kmax=kmax, hmax=4)
    truth = hitting_time_b(dist, barrier, 2, 4)
    assert sorted(cs.b) == sorted(truth)
    for (l, h), want in truth.items():
        if barrier is Barrier.STRICT and h:
            assert cs.b[(l, h)] == 0.0
        assert abs(cs.b[(l, h)] - want) <= B_GAP_BOUNDS[kmax][l], (l, h)


def test_b00_keeps_four_terms_at_lmax_zero(tri):
    # orders r <= 2 sweep to hmax 1, hence lmax 0; the fit still spans
    # {k^0..k^-3}, so b[0,0] = theta0 keeps its closed-form accuracy (4e-14
    # here, where a fit over {k^0, k^-1} is 3.7e-8 strict and 9.4e-8 weak off)
    sigma = tri.sigma()
    closed = {Barrier.STRICT: sigma / (2 * ROOT2PI), Barrier.WEAK: 1 / (sigma * ROOT2PI)}
    for barrier, want in closed.items():
        cs = cn.compute_constants(tau_statistics(tri, 4096, barrier, hmax=1))
        assert cs.theta0 == cs.b[(0, 0)] and cs.theta1 == cs.b[(0, 1)]
        assert cs.b[(0, 0)] == pytest.approx(want, rel=1e-12)


def test_b_fit_stability_under_kmax_doubling(tri, tri_constants_strict):
    b2048 = cn.compute_constants(tau_statistics(tri, 2048, Barrier.STRICT)).b
    b4096 = tri_constants_strict.b
    assert b4096[(1, 0)] == pytest.approx(b2048[(1, 0)], rel=1e-2)
    assert b4096[(0, 0)] == pytest.approx(b2048[(0, 0)], rel=1e-6)


def test_b_fit_error_estimate_is_staggered_window_shift(tri):
    # b[l, 0]'s error estimate is the shift of c_l when the default window
    # (last third of k = 1..kmax) starts 10% of the range earlier
    kmax = 2048
    stats = tau_statistics(tri, kmax, Barrier.STRICT, hmax=2)  # lmax = 2 // 2 = 1
    cs = cn.compute_constants(stats)
    ks = np.arange(1, kmax + 1, dtype=float)
    a = ks**1.5 * stats.theta[0]
    default = fit_power_tails(ks, [a], 4)[0]
    lo, hi = default.window
    earlier = extrapolation._solve(extrapolation._window(ks, 4, lo - 0.10 * (kmax - 1), hi), a)
    for l in (0, 1):
        c_default = default.coefficients[l]
        c_earlier = earlier[l]
        prov = cs.provenance[f"b_{l}_0"]
        assert cs.b[(l, 0)] == prov["value"] == c_default
        assert prov["error_estimate"] == abs(c_default - c_earlier)
        assert prov["error_estimate"] > 0
        assert prov["window"] == [lo, hi]
        assert prov["model"] == [0.0, 1.0, 2.0, 3.0]


def test_constants_reproducible_bit_identical(tri):
    a = cn.compute_constants(tau_statistics(tri, 512, Barrier.STRICT, hmax=1))
    b = cn.compute_constants(tau_statistics(tri, 512, Barrier.STRICT, hmax=1))
    assert a.theta0 == b.theta0 and a.theta1 == b.theta1
    assert a.b == b.b and a.u1_table == b.u1_table


def test_missing_b_index_raises(tri_constants_strict):
    with pytest.raises(InputError):
        tri_constants_strict.b_value(0, 9)


def test_json_export_schema(tri_constants_strict, tmp_path):
    # written through the CLI's JSON writer, as constants.json is
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    _write_json(first, tri_constants_strict.to_json_dict())
    blob = json.loads(first.read_text())
    assert blob["schema_version"] == 1
    assert blob["barrier"] == "strict"
    assert "theta0" in blob and "b" in blob and "u1" in blob
    assert "window" in blob["provenance"]["theta0"]
    # deterministic serialization
    _write_json(again, tri_constants_strict.to_json_dict())
    assert first.read_bytes() == again.read_bytes()
