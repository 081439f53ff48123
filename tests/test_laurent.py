from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poswalk.laurent import (LaurentPoly, Poly, double_factorial, gamma_closed,
                             gamma_recursive, negative_residue_survey, q_jlm)


def test_double_factorial():
    assert double_factorial(-1) == 1
    assert double_factorial(1) == 1
    assert double_factorial(5) == 15
    assert double_factorial(7) == 105
    with pytest.raises(ValueError):
        double_factorial(-3)


def test_gamma_pinned_values():
    assert gamma_closed(0, 1, 0) == 1
    assert gamma_closed(1, 1, 0) == -1
    assert gamma_closed(0, 1, 1) == 3
    assert gamma_closed(1, 1, 1) == -1
    assert gamma_closed(0, 1, 2) == 5
    assert gamma_closed(1, 1, 2) == -1


def test_gamma_recursive_single_step():
    # one recursion step: q = j = 1 eliminates the first term entirely
    for l in range(6):
        assert gamma_recursive(1, 1, l) == -1


def test_gamma_base_cases():
    assert gamma_closed(0, 0, 3) == 1
    assert gamma_closed(2, 1, 0) == 0
    assert gamma_recursive(3, 1, 4) == 0


def test_gamma_closed_equals_recursive_full_grid():
    for j in range(7):
        for q in range(j + 1):
            for l in range(7):
                assert gamma_closed(q, j, l) == gamma_recursive(q, j, l)


def test_q_jlm_pinned():
    assert q_jlm(1, 0, 0) == LaurentPoly({1: F(-1)})
    assert q_jlm(1, 1, 1) == LaurentPoly({0: F(1), 2: F(-1)})
    assert q_jlm(1, 2, 3) == LaurentPoly({0: F(1), 2: F(2), 4: F(-1)})


def test_q_jlm_pinned_cases_cancel_negative_powers():
    for j, l, m in [(1, 0, 0), (1, 1, 1), (1, 2, 3)]:
        assert not q_jlm(j, l, m).negative_part()


def test_q_jlm_degree_law():
    # top exponent m + 2j - 1, realized whenever the top gamma is nonzero
    for j in range(1, 4):
        for l in range(0, 4):
            for m in range(0, 5):
                p = q_jlm(j, l, m)
                if gamma_closed(j, j, l) != 0:
                    assert p.degree() == m + 2 * j - 1


def test_q_jlm_preconditions():
    with pytest.raises(ValueError):
        q_jlm(0, 0, 2)


def test_negative_residue_survey_is_observational():
    rep = negative_residue_survey(2, 2, 3)
    assert any(r.cancels for r in rep)
    assert any(not r.cancels for r in rep)  # individual terms need not cancel


coeff = st.fractions(min_value=-5, max_value=5, max_denominator=7)
laurents = st.dictionaries(st.integers(-4, 4), coeff, max_size=5).map(LaurentPoly)


@given(laurents, laurents, laurents)
@settings(max_examples=80, deadline=None)
def test_laurent_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a + b) - b == a
    assert (a + b).scale(F(3, 2)) == a.scale(F(3, 2)) + b.scale(F(3, 2))


@given(laurents)
@settings(max_examples=40, deadline=None)
def test_laurent_split_reassembles(a):
    assert a.negative_part() + a.polynomial_part() == a
    assert all(e < 0 for e in a.negative_part().coeffs)


def test_laurent_no_zero_coeffs_stored():
    p = LaurentPoly({0: F(1), 2: F(0), -1: F(3)})
    assert 2 not in p.coeffs
    q = p + LaurentPoly({-1: F(-3)})
    assert -1 not in q.coeffs


def test_laurent_evaluation():
    p = LaurentPoly({-1: F(2), 1: F(1)})
    assert p(F(2)) == F(3)


def test_to_poly_requires_nonnegative_exponents():
    with pytest.raises(ValueError):
        LaurentPoly({-1: F(1)}).to_poly()
    assert LaurentPoly({0: F(2), 3: F(1)}).to_poly() == Poly([2, 0, 0, 1])


def test_poly_basic_algebra():
    p = Poly([1, 2]).shift_up(1) + Poly([5])
    assert p == Poly([5, 1, 2])
    assert p(F(1)) == 8
    assert Poly([1, 0, 0]).coeffs == [1]  # trailing zeros trimmed
    assert Poly([0, 1]).shift_up(2) == Poly([0, 0, 0, 1])
