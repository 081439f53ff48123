import math
import time

import pytest

from poswalk.errors import NumericFailure
from poswalk.integral import closed_form, integral_check, quadrature

ROOT2PI = math.sqrt(2 * math.pi)


def test_closed_form_b0():
    assert closed_form(0, 1.0) == pytest.approx(ROOT2PI * math.exp(-0.5))


def test_closed_form_b1_z2():
    # k = 0 and k = 1 terms: 1/2 + 1/8
    assert closed_form(1, 2.0) == pytest.approx(ROOT2PI * math.exp(-2.0) * 0.625)


def test_closed_form_even_in_z():
    # sgn(z) against the odd reciprocal powers keeps the value positive,
    # matching the manifestly positive integral
    assert closed_form(2, -1.5) == pytest.approx(closed_form(2, 1.5))
    assert closed_form(2, -1.5) > 0


def test_quadrature_matches_closed_form_grid():
    rows = integral_check()
    assert len(rows) == 16
    assert max(r.rel_error for r in rows) < 1e-8
    assert max(r.rel_error for r in rows) <= 1e-14


def test_large_z_ratio_stays_tight():
    for z in (6.0, 8.0):
        c = closed_form(1, z)
        q = quadrature(1, z)
        assert c == pytest.approx(q, rel=1e-6)
        assert c < 1e-7  # both sides nearly zero


def test_fixed_rule_reach():
    # the fixed rule's reach: rounding-level agreement well off the grid
    for b in (0, 4, 8, 12):
        for z in (0.05, 0.5, 2.0, 8.0):
            assert quadrature(b, z) == pytest.approx(closed_form(b, z), rel=1e-14, abs=0)


def test_out_of_reach_raises():
    # z -> 0: the 32-node value is off by 7e-2 and the estimate says so
    with pytest.raises(NumericFailure, match="error estimate .* above target"):
        quadrature(3, 1e-5)
    # large b: an error estimate, not a NaN from an overflowing power
    with pytest.raises(NumericFailure, match="error estimate .* above target"):
        quadrature(40, 0.5)


def test_grid_runs_fast():
    start = time.time()
    integral_check()
    assert time.time() - start < 5.0


def test_input_validation():
    with pytest.raises(ValueError):
        closed_form(-1, 1.0)
    with pytest.raises(ValueError):
        closed_form(0, 0.0)
    with pytest.raises(ValueError):
        quadrature(-1, 1.0)
    with pytest.raises(ValueError):
        quadrature(0, 0.0)  # the integral diverges
