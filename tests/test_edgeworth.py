import math
from fractions import Fraction as F

import pytest

from conftest import free_pmf, lclt_coefficients, lclt_evaluate
from poswalk.edgeworth import ghats, hermite
from poswalk.errors import InputError
from poswalk.increments import cumulant_ratios
from poswalk.laurent import Poly

ROOT2PI = math.sqrt(2 * math.pi)


def test_hermite_low_orders():
    assert hermite(0) == Poly([1])
    assert hermite(1) == Poly([0, 1])
    assert hermite(3) == Poly([0, -3, 0, 1])
    assert hermite(4) == Poly([3, 0, -6, 0, 1])
    assert hermite(6) == Poly([-15, 0, 45, 0, -15, 0, 1])


def test_hermite_parity_and_degree():
    for m in range(10):
        h = hermite(m)
        assert h.degree() == m
        assert {e % 2 for e in h.terms} <= {m % 2}


def test_h_even_at_zero():
    # H_{2 mu}(0) = (-1)^mu (2 mu)! / (2^mu mu!)
    assert [hermite(2 * mu).coeff(0) for mu in range(4)] == [1, -1, 3, -15]
    for mu in range(5):
        assert hermite(2 * mu).coeff(0) == F((-1) ** mu * math.factorial(2 * mu),
                                             2**mu * math.factorial(mu))


def test_ghat1_closed_form():
    lam1 = F(7, 100)
    g = ghats([lam1], 1)
    assert g == [Poly([1]), Poly([0, -3 * lam1, 0, lam1])]


def test_ghats_pinned_to_the_exponential_form():
    # the u^2 and u^3 coefficients of exp(sum_m lam_m u^m H_{m+2}), term by term
    l1, l2, l3 = F(7, 100), F(-3, 50), F(11, 200)
    g = ghats([l1, l2, l3], 3)
    assert g[2] == hermite(4).scale(l2) + hermite(6).scale(l1**2 / 2)
    assert g[3] == (hermite(5).scale(l3) + hermite(7).scale(l1 * l2)
                    + hermite(9).scale(l1**3 / 6))


def test_ghats_odd_orders_vanish_without_odd_cumulants():
    # lam_m = 0 for every odd m: only even u-powers survive the exponential
    g = ghats([0, F(1, 7), 0, F(-2, 9), 0, F(3, 11)], 6)
    assert len(g) == 7
    assert all(g[nu] == Poly() for nu in (1, 3, 5))
    assert all(g[nu] for nu in (0, 2, 4, 6))


def test_ghats_base_and_short_input():
    assert ghats([F(1, 3)], 0) == [Poly([1])]
    assert ghats([], 0) == [Poly([1])]
    with pytest.raises(InputError, match="lambda_1..lambda_3"):
        ghats([F(1, 3), F(1, 5)], 3)


def ghat_of(dist, nu):
    """sqrt(2 pi) times the free-walk correction polynomial qhat_nu of ``dist``."""
    return ghats(cumulant_ratios(dist, nu), nu)[nu]


def test_ghat_first_correction(asym):
    # sqrt(2 pi) q_1 = m3 / (6 sigma^3) * (t^3 - 3 t)
    sigma = asym.sigma()
    m3 = float(asym.raw_moment(3))
    lead = m3 / (6 * sigma**3)
    g1 = ghat_of(asym, 1)
    assert g1.coeff(3) == pytest.approx(lead)
    assert g1.coeff(1) == pytest.approx(-3 * lead)


def test_ghat_symmetric_walk_vanishes(tri):
    assert not ghat_of(tri, 1)


def test_ghat_degree_and_parity(asym):
    for nu in range(1, 5):
        g = ghat_of(asym, nu)
        assert g.degree() == 3 * nu
        assert {e % 2 for e in g.terms} <= {nu % 2}


def test_lclt_pinned_coefficients(asym):
    # a_{0,0} is the Gaussian weight; the two third-moment entries follow
    # from the free-walk expansion (validated against the oracle below)
    p0_polys = lclt_coefficients(asym, 2)
    sigma = asym.sigma()
    m3 = float(asym.raw_moment(3))
    assert p0_polys[0].coeff(0) == pytest.approx(1 / (sigma * ROOT2PI))
    assert p0_polys[1].coeff(1) == pytest.approx(-m3 / (2 * ROOT2PI * sigma**4))
    assert p0_polys[2].coeff(3) == pytest.approx(m3 / (6 * ROOT2PI * sigma**4))


def test_lclt_degree_bound(asym):
    for r in range(1, 8):
        p0_polys = lclt_coefficients(asym, r)
        assert len(p0_polys) == 2 * r + 3
        for j, p in enumerate(p0_polys):
            if p:
                assert p.degree() <= (3 * j) // 2
        assert p0_polys[0] == Poly([1.0 / (asym.sigma() * ROOT2PI)])


@pytest.mark.parametrize("r", range(1, 7))
@pytest.mark.parametrize("dist_name", ["asym", "rich"])
def test_lclt_truncation_rule(dist_name, r, request):
    # a_{q,j} = [t^q] ghat_{2j-q} / (sigma sqrt(2 pi)): order r keeps exactly
    # the entries with 2j - q <= r + 1, and they do not depend on r
    dist = request.getfixturevalue(dist_name)
    low, high = lclt_coefficients(dist, r), lclt_coefficients(dist, r + 1)
    boundary = 0
    for j, p in enumerate(low):
        for q in range((3 * j) // 2 + 1):
            if 2 * j - q <= r + 1:
                assert p.coeff(q) == high[j].coeff(q)
            else:
                assert p.coeff(q) == 0
                boundary += 2 * j - q == r + 2 and high[j].coeff(q) != 0
    assert boundary > 0  # order r + 1 does fill the entries order r drops


def test_first_correction_measured_from_oracle(asym):
    # independent check of the n^{-3/2} coefficient polynomial: peel the
    # leading Gaussian term off the exact pmf and extrapolate in n
    p0_polys = lclt_coefficients(asym, 2)
    sigma = asym.sigma()
    p0 = p0_polys[0](0.0)

    def peeled(n, x):
        z = x / sigma
        val = free_pmf(asym, n).get(x)
        return (val * math.exp(z * z / (2 * n)) - p0 / math.sqrt(n)) * n**1.5

    for x in (0, 3, 6):
        d1, d2 = peeled(1024, x), peeled(4096, x)
        measured = (4 * d2 - d1) / 3  # eliminate the 1/n correction
        assert measured == pytest.approx(p0_polys[1](x / sigma), abs=2e-4)


def test_symmetric_walk_first_correction_is_even(tri):
    # odd cumulants vanish, so the j = 1 polynomial keeps only its constant
    p0_polys = lclt_coefficients(tri, 2)
    p1 = p0_polys[1]
    assert {e % 2 for e in p1.terms} <= {0}


@pytest.mark.parametrize("dist_name", ["tri", "asym"])
def test_weighted_envelope_does_not_grow(dist_name, request):
    dist = request.getfixturevalue(dist_name)
    p0_polys = lclt_coefficients(dist, 1)

    def envelope(n):
        pmf = free_pmf(dist, n)
        lo, hi = n * dist.min_step, n * dist.max_step
        return max(abs(pmf.get(x, 0.0) - lclt_evaluate(p0_polys, dist.sigma(), n, x)) * (1 + abs(x)) ** 3
                   for x in range(lo, hi + 1))

    assert envelope(400) <= 2.0 * envelope(100)


def test_evaluate_far_outside_support(tri):
    p0_polys = lclt_coefficients(tri, 1)
    val = lclt_evaluate(p0_polys, tri.sigma(), 50, 2000)
    assert math.isfinite(val)
    assert abs(val) < 1e-30
