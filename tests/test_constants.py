import json
import math

import numpy as np
import pytest

from conftest import constants_for
from poswalk import constants as cn
from poswalk.cli import _write_json
from poswalk.errors import InputError
from poswalk.extrapolation import fit_power_tail
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
        assert cs.b_value(0, 0) == pytest.approx(cs.theta0, rel=1e-6)
        assert cs.b_value(0, 1) == pytest.approx(cs.theta1, abs=1e-6)


def test_overshoot_bounded_by_survival(tri_constants_strict):
    # single-unit overshoots: theta1 <= theta0 / sigma in sigma units
    cs = tri_constants_strict
    assert cs.theta1 <= cs.theta0 / cs.sigma + 1e-12


def test_two_pipeline_theta0_agreement(tri, asym, tri_constants_strict,
                                       tri_constants_weak, asym_constants_strict,
                                       asym_constants_weak):
    for cs in (tri_constants_strict, tri_constants_weak,
               asym_constants_strict, asym_constants_weak):
        assert cs.theta0_cross_check() == pytest.approx(cs.theta0, rel=1e-3)


def test_two_pipeline_theta1_agreement(tri_constants_weak):
    cs = tri_constants_weak
    assert cs.theta1_cross_check() == pytest.approx(cs.theta1, rel=1e-3)


def test_renewal_route_matches_limit_route_to_rounding(rich, asym):
    # P(tau = n+1) = sum_u P(S_n = u, tau > n) P(kill from u) holds exactly
    # and both routes fit the same sweep linearly, so they agree to rounding
    # wherever the walk can overshoot: the renewal route checks the kill and
    # overshoot bookkeeping, not the extrapolation error
    for dist, barrier in ((rich, Barrier.STRICT), (rich, Barrier.WEAK),
                          (asym, Barrier.WEAK)):
        cs = constants_for(dist, barrier)
        assert cs.theta1 > 0
        assert cs.theta1_cross_check() == pytest.approx(cs.theta1, rel=1e-10)
        assert cs.theta0_cross_check() == pytest.approx(cs.theta0, rel=1e-10)


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
    # subleading coefficients via the free-walk series through order m^{-5/2}:
    # strict from the ballot identity, weak from reflection
    s = tri.sigma()
    a0 = 1 / (s * ROOT2PI)
    g4 = float(tri.raw_moment(4) - 3 * tri.sigma2() ** 2)
    c2 = g4 / (24 * s**4)
    p1_const = 3 * c2 / (ROOT2PI * s)
    z1, z2 = 1 / s, 2 / s
    pred = {
        Barrier.STRICT: 0.3 * (p1_const - a0 * z1 * z1 / 2 + 1.5 * a0),
        Barrier.WEAK: 0.3 * ((6 * c2 / (ROOT2PI * s)) * z2 * z2
                             + p1_const * z2 * z2 / 2 - a0 * z2**4 / 8
                             + 1.5 * 2 * a0 / s**2),
    }
    for cs in (tri_constants_strict, tri_constants_weak):
        assert cs.b_value(1, 0) == pytest.approx(pred[cs.barrier], rel=1e-5)


def test_b_fit_stability_under_kmax_doubling(tri, tri_constants_strict):
    b2048 = cn.compute_constants(tri, Barrier.STRICT, kmax=2048, lmax=1).b
    b4096 = tri_constants_strict.b
    assert b4096[(1, 0)] == pytest.approx(b2048[(1, 0)], rel=1e-2)
    assert b4096[(0, 0)] == pytest.approx(b2048[(0, 0)], rel=1e-6)


def test_b_fit_error_estimate_is_staggered_window_shift(tri):
    # b[l, 0]'s error estimate is the shift of c_l when the default window
    # (last third of k = 1..kmax) starts 10% of the range earlier
    kmax = 2048
    cs = cn.compute_constants(tri, Barrier.STRICT, kmax=kmax, hmax=1, lmax=1)
    stats = tau_statistics(tri, kmax, Barrier.STRICT, hmax=0)
    ks = np.arange(1, kmax + 1, dtype=float)
    a = ks**1.5 * stats.theta[0]
    default = fit_power_tail(ks, a, [0, 1, 2])
    lo, hi = default.window
    earlier = fit_power_tail(ks, a, [0, 1, 2], window=(lo - 0.10 * (kmax - 1), hi))
    for l in (0, 1):
        c_default = ((default.limit,) + default.coefficients)[l]
        c_earlier = ((earlier.limit,) + earlier.coefficients)[l]
        prov = cs.provenance[f"b_{l}_0"]
        assert cs.b[(l, 0)] == prov["value"] == c_default
        assert prov["error_estimate"] == abs(c_default - c_earlier)
        assert prov["error_estimate"] > 0
        assert prov["window"] == [lo, hi]


def test_constants_reproducible_bit_identical(tri):
    a = cn.compute_constants(tri, Barrier.STRICT, kmax=512, hmax=1, lmax=1, u_max=5)
    b = cn.compute_constants(tri, Barrier.STRICT, kmax=512, hmax=1, lmax=1, u_max=5)
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
