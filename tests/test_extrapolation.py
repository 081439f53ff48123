import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poswalk.errors import IllConditioned, InsufficientPoints
from poswalk.extrapolation import fit_power_tail, limit_with_rate

KS = np.arange(8, 1500)


def test_exact_two_term_model():
    res = fit_power_tail([(k, 2 + 3 / k) for k in KS], [0, 1])
    assert abs(res.limit - 2) < 1e-12
    assert abs(res.coefficients[0] - 3) < 1e-9
    assert res.error_estimate < 1e-12


def test_exact_three_term_model():
    res = fit_power_tail([(k, 1 + 1 / k + 1 / k**2) for k in KS], [0, 1, 2])
    assert abs(res.limit - 1) < 1e-10


def test_constant_sequence():
    res = fit_power_tail([(k, 5.0) for k in KS], [0, 1])
    assert abs(res.limit - 5) < 1e-10
    assert abs(res.coefficients[0]) < 1e-8


def test_log_contamination_degraded_tolerance():
    res = limit_with_rate([(k, 1 + math.log(k) / k**2) for k in KS])
    assert abs(res.limit - 1) < 1e-4


def test_limit_with_rate_leading_power():
    res = limit_with_rate([(k, 4 + 2 / k**0.5) for k in KS], leading_power=0.5)
    assert abs(res.limit - 4) < 1e-9


def test_exact_model_recovers_all_coefficients():
    # full-range window: small k carries the information on the higher
    # coefficients, a tail window only pins the limit
    coeffs = [1.5, -2.0, 0.25, 7.0]
    seq = [(k, sum(c / k**e for e, c in enumerate(coeffs))) for k in KS]
    res = fit_power_tail(seq, [0, 1, 2, 3], window=(KS[0], KS[-1]))
    got = (res.limit,) + res.coefficients
    for want, have in zip(coeffs, got):
        assert abs(want - have) <= 1e-10 * max(1.0, abs(want))


@given(st.floats(min_value=-100, max_value=100).filter(lambda c: abs(c) > 1e-3))
@settings(max_examples=40, deadline=None)
def test_limit_scales_linearly(c):
    base = [(k, 1 + 2 / k + 5 / k**2) for k in KS]
    scaled = [(k, c * v) for k, v in base]
    r1 = fit_power_tail(base, [0, 1, 2])
    r2 = fit_power_tail(scaled, [0, 1, 2])
    assert r2.limit == pytest.approx(c * r1.limit, rel=1e-9, abs=1e-12)


def test_error_estimate_bounds_exact_models():
    # correctly specified models: both windows agree, estimate bounds truth
    cases = [
        (2.0, [0, 1], [(k, 2 + 3 / k) for k in KS]),
        (1.0, [0, 1, 2], [(k, 1 - 2 / k + 4 / k**2) for k in KS]),
    ]
    for truth, exps, seq in cases:
        res = fit_power_tail(seq, exps)
        assert abs(res.limit - truth) <= res.error_estimate + 1e-10


def test_error_estimate_calibrated_under_misspecification():
    # fit {0,1} against data carrying an unmodelled 1/k^2 term: the
    # staggered-window spread tracks the true error within a small factor
    seq = [(k, 3 + 1 / k + 4 / k**2) for k in KS]
    res = fit_power_tail(seq, [0, 1])
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
        seq = [(k, sum(c / k**e for e, c in enumerate(coeffs))) for k in KS]
        res = fit_power_tail(seq, range(len(coeffs)), window=window)
        assert len(res.coefficient_errors) == len(coeffs) - 1
        shifts = (res.error_estimate,) + res.coefficient_errors
        for c, shift in zip(coeffs, shifts):
            assert shift <= 1e-9 * max(1.0, abs(c))


def test_deterministic_refit():
    seq = [(k, 1 + 1 / k) for k in KS]
    a = fit_power_tail(seq, [0, 1, 2])
    b = fit_power_tail(seq, [0, 1, 2])
    assert a == b


def test_insufficient_points():
    with pytest.raises(InsufficientPoints):
        fit_power_tail([(k, 1.0) for k in range(1, 5)], [0, 1, 2], window=(1, 4))


def test_ill_conditioned_guard():
    # two nearly identical exponents make the scaled design rank deficient
    seq = [(k, 1 + 1 / k) for k in np.arange(1000, 1100)]
    with pytest.raises(IllConditioned):
        fit_power_tail(seq, [0, 1, 1 + 1e-13])


def test_exponent_validation():
    with pytest.raises(ValueError):
        fit_power_tail([(k, 1.0) for k in KS], [1, 2])
    with pytest.raises(ValueError):
        fit_power_tail([(k, 1.0) for k in KS], [0, 2, 1])
