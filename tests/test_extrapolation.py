import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poswalk.errors import IllConditioned, InsufficientPoints
from poswalk.extrapolation import fit_power_tails

KS = np.arange(8, 1500, dtype=float)
# k of order one, densely sampled: over the last third [3, 4] every power up
# to k^-3 still varies, so the fit pins the higher coefficients too
SHORT = np.linspace(1.0, 4.0, 3001)


def _model(coeffs, ks=KS):
    """a_k = sum_e coeffs[e] / k^e over ``ks``."""
    return sum(c / ks**e for e, c in enumerate(coeffs))


def test_exact_two_term_model():
    res = fit_power_tails(KS, [2 + 3 / KS], 2)[0]
    assert abs(res.limit - 2) < 1e-12
    assert abs(res.coefficients[1] - 3) < 1e-9
    assert res.errors[0] < 1e-12


def test_exact_three_term_model():
    res = fit_power_tails(KS, [1 + 1 / KS + 1 / KS**2], 3)[0]
    assert abs(res.limit - 1) < 1e-10


def test_constant_sequence():
    res = fit_power_tails(KS, [np.full(len(KS), 5.0)], 2)[0]
    assert abs(res.limit - 5) < 1e-10
    assert abs(res.coefficients[1]) < 1e-8


def test_log_contamination_degraded_tolerance():
    res = fit_power_tails(KS, [1 + np.log(KS) / KS**2], 4)[0]
    assert abs(res.limit - 1) < 1e-4
    assert len(res.coefficients) == len(res.errors) == 4


def test_exact_model_recovers_all_coefficients():
    # small k carries the information on the higher coefficients: a last
    # third far out in k pins only the limit, the one of SHORT pins all four
    coeffs = [1.5, -2.0, 0.25, 7.0]
    res = fit_power_tails(SHORT, [_model(coeffs, SHORT)], 4)[0]
    for want, have in zip(coeffs, res.coefficients, strict=True):
        assert abs(want - have) <= 1e-10 * max(1.0, abs(want))


@given(st.floats(min_value=-100, max_value=100).filter(lambda c: abs(c) > 1e-3))
@settings(max_examples=40, deadline=None)
def test_limit_scales_linearly(c):
    base = _model([1, 2, 5])
    r1 = fit_power_tails(KS, [base], 3)[0]
    r2 = fit_power_tails(KS, [c * base], 3)[0]
    assert r2.limit == pytest.approx(c * r1.limit, rel=1e-9, abs=1e-12)


def test_error_estimate_bounds_exact_models():
    # correctly specified models: both windows agree, estimate bounds truth
    cases = [
        (2.0, 2, _model([2, 3])),
        (1.0, 3, _model([1, -2, 4])),
    ]
    for truth, terms, a in cases:
        res = fit_power_tails(KS, [a], terms)[0]
        assert abs(res.limit - truth) <= res.errors[0] + 1e-10


def test_error_estimate_calibrated_under_misspecification():
    # fit {0,1} against data carrying an unmodelled 1/k^2 term: the
    # staggered-window spread tracks the true error within a small factor
    res = fit_power_tails(KS, [_model([3, 1, 4])], 2)[0]
    true_err = abs(res.limit - 3)
    assert res.errors[0] <= 10 * true_err
    assert true_err <= 10 * res.errors[0]
    # the unmodelled term moves c1 between the windows too
    assert res.errors[1] > 0


def test_coefficient_errors_vanish_for_exact_models():
    # every coefficient of a correctly specified model is the same on both
    # windows up to rounding.  Three and four terms are fitted over SHORT: on
    # the last third of KS the highest coefficient is pinned only to ~1e-8
    # relative (c2 of the three-term model shifts 1.1e-8)
    cases = [
        ([2.0, 3.0], KS),
        ([1.0, -2.0, 4.0], SHORT),
        ([1.5, -2.0, 0.25, 7.0], SHORT),
    ]
    for coeffs, ks in cases:
        res = fit_power_tails(ks, [_model(coeffs, ks)], len(coeffs))[0]
        assert len(res.errors) == len(coeffs)
        for c, shift in zip(coeffs, res.errors):
            assert shift <= 1e-9 * max(1.0, abs(c))


def test_deterministic_refit():
    a = fit_power_tails(KS, [1 + 1 / KS], 3)[0]
    b = fit_power_tails(KS, [1 + 1 / KS], 3)[0]
    assert a == b


def _bits(res):
    return ([c.hex() for c in res.coefficients], [e.hex() for e in res.errors],
            [w.hex() for w in res.window])


def _fresh_fit(ks, a, terms, lo, hi):
    """One window's fit with a design built for this sequence alone."""
    mask = (ks >= lo) & (ks <= hi)
    design = np.column_stack([ks[mask] ** (-e) for e in range(terms)])
    norms = np.linalg.norm(design, axis=0)
    return np.linalg.lstsq(design / norms, a[mask], rcond=None)[0] / norms


def test_shared_design_fit_matches_single_fits():
    # one design per window serves every sequence; each result is bit for bit
    # the sequence's fit on its own, and that one a fresh per-sequence design's solve
    for terms, ks in ((4, KS), (3, KS[:400]), (2, SHORT)):
        seqs = [_model([1.5, -2.0, 0.25, 7.0], ks), 1 + np.log(ks) / ks**2, 2 + 3 / ks,
                np.full(len(ks), 5.0)]
        many = fit_power_tails(ks, iter(seqs), terms)
        assert len(many) == len(seqs)
        for a, res in zip(seqs, many):
            single = fit_power_tails(ks, [a], terms)[0]
            assert _bits(res) == _bits(single)
            lo, hi = res.window
            coef = _fresh_fit(ks, a, terms, lo, hi)
            assert [c.hex() for c in res.coefficients] == [float(c).hex() for c in coef]
            shift = np.abs(coef - _fresh_fit(ks, a, terms, lo - 0.10 * (ks[-1] - ks[0]), hi))
            assert [e.hex() for e in res.errors] == [float(e).hex() for e in shift]


def test_shared_design_fit_raises_as_single_fits():
    ks = np.arange(1000, 1100, dtype=float)
    for ks_, a, terms in ((np.arange(1, 5), np.ones(4), 3), (ks, 1 + 1 / ks, 8)):
        with pytest.raises((InsufficientPoints, IllConditioned)) as single:
            fit_power_tails(ks_, [a], terms)
        with pytest.raises(single.type, match=f"^{re.escape(str(single.value))}$"):
            fit_power_tails(ks_, [a, a], terms)


def test_insufficient_points():
    with pytest.raises(InsufficientPoints):
        fit_power_tails(np.arange(1, 5), [np.ones(4)], 3)


def test_ill_conditioned_guard():
    # eight powers k^0..k^-7 over k = 1000..1099 are nearly collinear: the
    # scaled design's condition number is ~5e16
    ks = np.arange(1000, 1100, dtype=float)
    with pytest.raises(IllConditioned):
        fit_power_tails(ks, [1 + 1 / ks], 8)


def test_exponent_validation():
    ones = np.ones(len(KS))
    for terms in (0, -1):  # the basis always holds the limit term k^0
        with pytest.raises(ValueError):
            fit_power_tails(KS, [ones], terms)


def test_sample_validation():
    # ks must be strictly increasing and match a; nothing is sorted silently
    a = 2 + 3 / KS
    fit_power_tails(KS, [a], 2)
    bad = [
        (KS[::-1], a[::-1]),  # decreasing
        (np.concatenate([KS[:100], KS[99:]]), np.concatenate([a[:100], a[99:]])),  # repeated k
        (KS, a[:-1]),  # length mismatch
        (KS[:0], a[:0]),  # empty
        (np.vstack([KS, KS]), np.vstack([a, a])),  # not 1-d
    ]
    for ks, vals in bad:
        with pytest.raises(ValueError):
            fit_power_tails(ks, [vals], 2)
    swapped = KS.copy()
    swapped[[10, 11]] = swapped[[11, 10]]
    with pytest.raises(ValueError):
        fit_power_tails(swapped, [a], 2)
