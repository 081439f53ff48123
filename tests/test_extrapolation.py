import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poswalk.errors import IllConditioned, InsufficientPoints
from poswalk.extrapolation import fit_power_tail

KS = np.arange(8, 1500, dtype=float)


def _model(coeffs):
    """a_k = sum_e coeffs[e] / k^e over KS."""
    return sum(c / KS**e for e, c in enumerate(coeffs))


def test_exact_two_term_model():
    res = fit_power_tail(KS, 2 + 3 / KS, [0, 1])
    assert abs(res.limit - 2) < 1e-12
    assert abs(res.coefficients[0] - 3) < 1e-9
    assert res.error_estimate < 1e-12


def test_exact_three_term_model():
    res = fit_power_tail(KS, 1 + 1 / KS + 1 / KS**2, [0, 1, 2])
    assert abs(res.limit - 1) < 1e-10


def test_constant_sequence():
    res = fit_power_tail(KS, np.full(len(KS), 5.0), [0, 1])
    assert abs(res.limit - 5) < 1e-10
    assert abs(res.coefficients[0]) < 1e-8


def test_log_contamination_degraded_tolerance():
    res = fit_power_tail(KS, 1 + np.log(KS) / KS**2, [0, 1, 2, 3])
    assert abs(res.limit - 1) < 1e-4
    assert res.model == (0.0, 1.0, 2.0, 3.0)


def test_exact_model_recovers_all_coefficients():
    # full-range window: small k carries the information on the higher
    # coefficients, a tail window only pins the limit
    coeffs = [1.5, -2.0, 0.25, 7.0]
    res = fit_power_tail(KS, _model(coeffs), [0, 1, 2, 3], window=(KS[0], KS[-1]))
    got = (res.limit,) + res.coefficients
    for want, have in zip(coeffs, got):
        assert abs(want - have) <= 1e-10 * max(1.0, abs(want))


@given(st.floats(min_value=-100, max_value=100).filter(lambda c: abs(c) > 1e-3))
@settings(max_examples=40, deadline=None)
def test_limit_scales_linearly(c):
    base = _model([1, 2, 5])
    r1 = fit_power_tail(KS, base, [0, 1, 2])
    r2 = fit_power_tail(KS, c * base, [0, 1, 2])
    assert r2.limit == pytest.approx(c * r1.limit, rel=1e-9, abs=1e-12)


def test_error_estimate_bounds_exact_models():
    # correctly specified models: both windows agree, estimate bounds truth
    cases = [
        (2.0, [0, 1], _model([2, 3])),
        (1.0, [0, 1, 2], _model([1, -2, 4])),
    ]
    for truth, exps, a in cases:
        res = fit_power_tail(KS, a, exps)
        assert abs(res.limit - truth) <= res.error_estimate + 1e-10


def test_error_estimate_calibrated_under_misspecification():
    # fit {0,1} against data carrying an unmodelled 1/k^2 term: the
    # staggered-window spread tracks the true error within a small factor
    res = fit_power_tail(KS, _model([3, 1, 4]), [0, 1])
    true_err = abs(res.limit - 3)
    assert res.error_estimate <= 10 * true_err
    assert true_err <= 10 * res.error_estimate
    # the unmodelled term moves c1 between the windows too
    assert res.coefficient_errors[0] > 0


def test_coefficient_errors_vanish_for_exact_models():
    # every coefficient of a correctly specified model is the same on both
    # windows up to rounding.  The windows reach down to k = 50 (refit from
    # k = 8): on the default last-third window the highest coefficient is
    # pinned only to ~1e-8 relative (c2 of the three-term model shifts 1.1e-8)
    cases = [
        ([2.0, 3.0], None),
        ([1.0, -2.0, 4.0], (50, KS[-1])),
        ([1.5, -2.0, 0.25, 7.0], (50, KS[-1])),
    ]
    for coeffs, window in cases:
        res = fit_power_tail(KS, _model(coeffs), range(len(coeffs)), window=window)
        assert len(res.coefficient_errors) == len(coeffs) - 1
        shifts = (res.error_estimate,) + res.coefficient_errors
        for c, shift in zip(coeffs, shifts):
            assert shift <= 1e-9 * max(1.0, abs(c))


def test_deterministic_refit():
    a = fit_power_tail(KS, 1 + 1 / KS, [0, 1, 2])
    b = fit_power_tail(KS, 1 + 1 / KS, [0, 1, 2])
    assert a == b


def test_insufficient_points():
    with pytest.raises(InsufficientPoints):
        fit_power_tail(np.arange(1, 5), np.ones(4), [0, 1, 2], window=(1, 4))


def test_ill_conditioned_guard():
    # two nearly identical exponents make the scaled design rank deficient
    ks = np.arange(1000, 1100, dtype=float)
    with pytest.raises(IllConditioned):
        fit_power_tail(ks, 1 + 1 / ks, [0, 1, 1 + 1e-13])


def test_exponent_validation():
    ones = np.ones(len(KS))
    with pytest.raises(ValueError):
        fit_power_tail(KS, ones, [1, 2])
    with pytest.raises(ValueError):
        fit_power_tail(KS, ones, [0, 2, 1])


def test_sample_validation():
    # ks must be strictly increasing and match a; nothing is sorted silently
    a = 2 + 3 / KS
    fit_power_tail(KS, a, [0, 1])
    bad = [
        (KS[::-1], a[::-1]),  # decreasing
        (np.concatenate([KS[:100], KS[99:]]), np.concatenate([a[:100], a[99:]])),  # repeated k
        (KS, a[:-1]),  # length mismatch
        (KS[:0], a[:0]),  # empty
        (np.vstack([KS, KS]), np.vstack([a, a])),  # not 1-d
    ]
    for ks, vals in bad:
        with pytest.raises(ValueError):
            fit_power_tail(ks, vals, [0, 1])
    swapped = KS.copy()
    swapped[[10, 11]] = swapped[[11, 10]]
    with pytest.raises(ValueError):
        fit_power_tail(swapped, a, [0, 1])
