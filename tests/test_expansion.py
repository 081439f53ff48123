import dataclasses
import math
import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import (CORRECTED, constants_for, downskip, placeholder_polys, quoted_p2,
                      quoted_p3, seed_walk_1, skewed, trinomial, upskip, upskip_narrow)
from poswalk import increments
from poswalk import oracle as oc
from poswalk.constants import compute_constants
from poswalk.edgeworth import ghats
from poswalk.errors import CancellationFailure, InputError, InsufficientPoints
from poswalk.expansion import (DEFAULT_R_CAP, ExpansionSet, IndexTuple, assemble_Q, b_range,
                               constants_for_order, enumerate_tuples, error_ladder, exact_polys,
                               expansion_polys, horizons, tuple_weight, window)
from poswalk.increments import cumulant_ratios
from poswalk.laurent import Poly
from poswalk.oracle import Barrier

ROOT2PI = math.sqrt(2 * math.pi)


def test_enumerate_tuples_order_two():
    assert enumerate_tuples(2) == [IndexTuple(j=0, q=0, s=0, nu=0, mu=0, l=0)]


def test_enumerate_tuples_order_three():
    tuples = enumerate_tuples(3)
    assert {(t.nu, t.j, t.q) for t in tuples} == {(0, 2, 3), (0, 1, 1), (1, 0, 0)}
    assert all(t.s == t.mu == t.l == 0 for t in tuples)


def test_enumerated_tuples_satisfy_constraint():
    for eta in range(2, 7):
        tuples = enumerate_tuples(eta)
        assert len(set(tuples)) == len(tuples)
        for t in tuples:
            assert 2 * (t.j + t.mu + t.l) + t.nu + t.s - t.q == eta - 2
            assert t.s <= t.q <= (3 * t.j) // 2


def read_tuples(r):
    """Every index tuple of Q_2..Q_{r+1}, the sum behind order r."""
    return [t for eta in range(2, r + 2) for t in enumerate_tuples(eta)]


def required_b_indices(r: int) -> set[tuple[int, int]]:
    """(l, h) pairs consumed by Q_2..Q_{r+1}."""
    return {(t.l, t.h) for t in read_tuples(r)}


def test_required_b_indices_r4():
    assert required_b_indices(4) == {(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1)}
    # the sweep behind an order: hmax >= 1 even where Q_2 alone reads b[0,0] only
    assert b_range(4) == 3
    assert b_range(1) == 1


@pytest.mark.parametrize("r", range(1, 8))
def test_sweep_to_b_range_holds_every_b_its_order_reads(tri, r):
    # compute_constants fits l = 0..hmax//2, which b_range's hmax must cover;
    # the index constraint gives h + 2l <= r - 1 and 2j - q <= r - 1, and
    # both bounds are attained (r = 7 is the CLI's largest order)
    b = compute_constants(oc.tau_statistics(tri, 256, hmax=b_range(r))).b
    assert required_b_indices(r) <= set(b)
    assert b_range(r) == max(1, r - 1) == max(1, *(h for _, h in required_b_indices(r)))
    assert max(2 * t.j - t.q for t in read_tuples(r)) == r - 1


@pytest.mark.parametrize("dist_name", ["asym", "tri"])
def test_exact_polys_reads_ghats_as_they_stand(dist_name, request):
    # the Q_eta sum reads sigma sqrt(2 pi) a_{q,j} = [t^q] ghat_{2j-q} from the
    # ghats list as it stands; on these laws that list is nontrivial (a
    # coefficient other than 0 and 1), so the exact assemblies checked below
    # read real free-walk weights
    dist = request.getfixturevalue(dist_name)
    lam = [F(x) for x in cumulant_ratios(dist, 3)]
    assert any(c not in (0, 1) for g in ghats(lam, 3) for c in g.coeffs)


def test_expansion_takes_the_barrier_of_its_constants(tri, tri_constants_weak):
    blob = expansion_polys(tri, 1, tri_constants_weak).to_json_dict()
    assert blob["barrier"] == blob["constants"]["barrier"] == "weak"


def test_expansion_rejects_constants_short_of_its_order(asym):
    # b_range(3) == 2: a set swept to h <= 1 (so l = 0) lacks b[0,2] and b[1,0]
    cs = compute_constants(oc.tau_statistics(asym, 256, hmax=1))
    with pytest.raises(InputError, match="not computed"):
        expansion_polys(asym, 3, cs)


def test_placeholder_assembly_matches_closed_forms():
    sigma, m3, t0, t1 = F(2), F(1, 3), F(3, 7), F(2, 5)
    ps = placeholder_polys(sigma=sigma, m3=m3, theta0=t0, theta1=t1)
    assert ps[2] == quoted_p2(sigma=sigma, theta0=t0)
    assert ps[3] == quoted_p3(sigma=sigma, m3=m3, theta0=t0, theta1=t1, **CORRECTED)


def test_placeholder_assembly_symmetric_case():
    ps = placeholder_polys(sigma=F(2), m3=F(0), theta0=F(3, 7), theta1=F(2, 5))
    assert ps[2] == Poly([0, F(3, 7)])
    assert ps[3] == Poly([F(2, 5), 0, F(-2, 5)])  # (2 theta1 / sigma)(1 - t^2)


def test_numeric_p2_p3_match_closed_forms(asym, asym_constants_strict):
    # closed forms built from the same fitted b values the assembly consumes
    es = expansion_polys(asym, 2, asym_constants_strict)
    cs = asym_constants_strict
    p2 = quoted_p2(sigma=cs.sigma, theta0=cs.b_value(0, 0))
    p3 = quoted_p3(sigma=cs.sigma, m3=float(asym.raw_moment(3)),
                   theta0=cs.b_value(0, 0), theta1=cs.b_value(0, 1), **CORRECTED)
    for want, have in ((p2, es.P[2]), (p3, es.P[3])):
        assert len(want.coeffs) == len(have.coeffs)
        for a, b in zip(want.coeffs, have.coeffs):
            assert b == pytest.approx(a, rel=1e-12, abs=1e-14)


def test_degree_law_asymmetric_walk(asym, asym_constants_strict):
    cs = constants_for(asym, Barrier.STRICT, hmax=4)
    es = expansion_polys(asym, 4, cs)
    for nu in range(2, 6):
        coeffs = es.P[nu].coeffs
        top = max(abs(c) for c in coeffs)
        degree = max(i for i, c in enumerate(coeffs) if abs(c) > 1e-12 * top)
        assert degree == 3 * nu - 5


def test_parity_of_p2_p3(asym, asym_constants_strict):
    es = expansion_polys(asym, 2, asym_constants_strict)
    assert {e % 2 for e in es.P[2].terms} <= {1}
    assert {e % 2 for e in es.P[3].terms} <= {0}


def test_negative_power_cancellation(asym):
    # the assembly raises on any nonzero negative coefficient, so reaching
    # the top order of the CLI (cli.R_MAX = 7) is an exact cancellation
    cs = constants_for(asym, Barrier.STRICT, hmax=b_range(7))
    es = expansion_polys(asym, 7, cs)
    assert sorted(es.P) == list(range(2, 9))


def test_odd_orders_vanish_exactly_on_the_symmetric_walk(tri):
    # the trinomial has max step +1 and odd cumulants 0: under the strict
    # barrier the ballot identity gives P_nu = t ghat_{nu-2} / sqrt(2 pi), and
    # every odd ghat is exactly zero, so the exact assembly leaves P_3, P_5 and
    # P_7 empty through the top order (cli.R_MAX = 7); the even orders keep
    # the nu - 1 terms of t ghat_{nu-2}.  The weak barrier's overshoot fills
    # every order
    strict = expansion_polys(tri, 7, constants_for(tri, Barrier.STRICT, hmax=b_range(7))).P
    assert [strict[nu] for nu in (3, 5, 7)] == [Poly()] * 3
    assert [len(strict[nu].terms) for nu in (2, 4, 6, 8)] == [1, 3, 5, 7]
    weak = expansion_polys(tri, 7, constants_for(tri, Barrier.WEAK, hmax=b_range(7))).P
    assert all(weak[nu] for nu in range(2, 9))


def test_polys_are_the_rounded_exact_assembly():
    # each P_nu coefficient is float(c) of the exact coefficient c that
    # exact_polys assembles from the exact values of the float lambda_m, sigma
    # and b[l, h], rounded once; a float sum of the same terms misses it by up to 3.6e-15 of the
    # largest coefficient at r = 7 on skewed
    for dist, barrier, r in ((skewed(), Barrier.STRICT, 7), (downskip(), Barrier.WEAK, 4)):
        cs = constants_for(dist, barrier, hmax=b_range(r))
        es = expansion_polys(dist, r, cs)
        lam = [F(x) for x in cumulant_ratios(dist, r - 1)]
        exact = exact_polys(lam, lambda l, h: F(cs.b_value(l, h)), F(dist.sigma()), r)
        for eta, p in exact.items():
            want = {e: float(c) for e, c in p.terms.items()}
            assert es.P[eta].terms == want, (dist.support, barrier, eta)


def _times(a: Poly, b: Poly) -> Poly:
    out = Poly()
    for e, c in b.terms.items():
        out = out + a.scale(c).shift(e)
    return out


def _series_times(a: dict, b: dict, top: int) -> dict:
    """Product of two series in h, {order: Poly in t}, through h^top."""
    out = {}
    for i, p in a.items():
        for j, q in b.items():
            if i + j <= top:
                out[i + j] = out.get(i + j, Poly()) + _times(p, q)
    return out


def forward_residual(P: dict, lam, top: int) -> dict:
    """Left minus right side of the forward equation f(n+1, x) = sum_y p_y f(n, x - y)
    for f(n, x) = e^{-t^2/2} sum_nu P_nu(t) h^nu, x = sigma t sqrt(n), h = n^{-1/2}.

    Returns {N: residual at h^N} for N <= top, the Gaussian factor divided out:

        left   exp((t^2/2) h^2/(1+h^2)) sum_nu h^nu (1+h^2)^{-nu/2} P_nu(t (1+h^2)^{-1/2}),
        right  sum_nu sum_k E_k (-1)^k h^{nu+k} D^k P_nu,

    with D P = P' - t P and E_k = mu_k / k! = [s^k] exp(s^2/2 + sum_m lam_m s^{m+2}),
    the standardized step's moments.  sigma drops out: it scales every P_nu.
    """
    left = {}
    for nu, p in P.items():
        for e, a in p.terms.items():
            c, alpha = F(1), F(nu + e, 2)  # c = C(-alpha, j), the weight of h^{2j}
            for j in range((top - nu) // 2 + 1):
                left[nu + 2 * j] = left.get(nu + 2 * j, Poly()) + Poly({e: a * c})
                c *= (-alpha - j) / (j + 1)
    # exp(w) with w = (t^2/2)(h^2 - h^4 + h^6 - ...)
    w = {2 * j: Poly({2: F((-1) ** (j + 1), 2)}) for j in range(1, top // 2 + 1)}
    term, gauss = {0: Poly([1])}, {0: Poly([1])}
    for m in range(1, top // 2 + 1):
        term = {k: p.scale(F(1, m)) for k, p in _series_times(term, w, top).items()}
        gauss = {k: gauss.get(k, Poly()) + term.get(k, Poly()) for k in set(gauss) | set(term)}
    left = _series_times(left, gauss, top)
    g = {2: F(1, 2), **{m + 2: lam[m - 1] for m in range(1, top - 3)}}
    E = [F(1)]
    for k in range(1, top - 1):  # k E_k = sum_j j g_j E_{k-j}
        E.append(sum((j * g[j] * E[k - j] for j in range(2, k + 1)), F(0)) / k)
    right = {}
    for nu, p in P.items():
        d = p
        for k in range(top - nu + 1):
            right[nu + k] = right.get(nu + k, Poly()) + d.scale((-1) ** k * E[k])
            d = Poly({e - 1: e * c for e, c in d.terms.items()}) - d.shift(1)
    return {N: left.get(N, Poly()) - right.get(N, Poly()) for N in range(top + 1)}


def _random_inputs(rng: random.Random, r: int):
    """Random rational lambda_1..lambda_{r-1} and b[l, h], l, h < r."""
    def draw():
        return F(rng.randint(-9, 9), rng.randint(1, 9))

    lam = [draw() for _ in range(r - 1)]
    table = {(l, h): draw() for l in range(r) for h in range(r)}
    return lam, lambda l, h: table[(l, h)]


@pytest.mark.parametrize("r", range(1, 8))
def test_assembly_solves_the_forward_equation(r):
    # the killed walk solves f(n+1, x) = sum_y p_y f(n, x - y) above the
    # barrier for any sequence of killed masses, so P_2..P_{r+1} must solve
    # it formally for any lambda and b.  Each P_N enters order h^N only
    # through its own leading term, which cancels, so orders through
    # h^{r+3} are exact without P_{r+2}, P_{r+3}
    rng = random.Random(r)
    for _ in range(3):
        lam, b = _random_inputs(rng, r)
        res = forward_residual(exact_polys(lam, b, 1, r), lam, r + 3)
        assert all(p == Poly() for p in res.values()), sorted(N for N, p in res.items() if p)


DISTS = Path(__file__).resolve().parent.parent / "dists"


@pytest.mark.parametrize("barrier", ["strict", "weak"])
@pytest.mark.parametrize("law", [*sorted(DISTS.glob("*.json")), trinomial, skewed, downskip,
                                 upskip, upskip_narrow, seed_walk_1],
                         ids=lambda law: law.name if isinstance(law, Path) else law.__name__)
def test_constants_for_order_is_the_full_storage_fit(law, barrier, sweep_log):
    # the route stores only the steps its fits read, yet its constant set is
    # that of a sweep that stores every step, and it still sweeps once, to
    # max(kmax, rows_at); where the fit window is too short both raise alike
    dist = increments.load(law) if isinstance(law, Path) else law()
    r = DEFAULT_R_CAP
    for kmax in (12, 64, 257, 1024, 4096):
        rows_at = (kmax // 2, kmax + 50)
        full = oc.tau_statistics(dist, kmax, barrier, hmax=b_range(r), rows_at=rows_at)
        for at in ((), rows_at):
            sweep_log.clear()
            if kmax == 12:
                with pytest.raises(InsufficientPoints) as want:
                    compute_constants(full)
                with pytest.raises(InsufficientPoints, match=f"^{re.escape(str(want.value))}$"):
                    constants_for_order(dist, r, kmax, barrier, rows_at=at)
            else:
                cs, rows = constants_for_order(dist, r, kmax, barrier, rows_at=at)
                assert cs.to_json_dict() == compute_constants(full).to_json_dict()
                assert {n: row.values.tobytes() for n, row in rows.items()} == {
                    n: full.rows[n].values.tobytes() for n in at}
            assert [s.k for s in sweep_log] == list(range(1, max((kmax, *at)) + 1))


@pytest.mark.parametrize("barrier", ["strict", "weak"])
@pytest.mark.parametrize("name", ["skewed", "trinomial"])
def test_dists_assembly_solves_the_forward_equation(name, barrier):
    # the same identity on the exact values of the float lambda_m and fitted
    # b[l, h] that ``expansion_polys`` assembles from, at R_MAX = 7
    r = 7
    dist = increments.load(DISTS / f"{name}.json")
    cs = constants_for(dist, barrier, hmax=b_range(r))
    lam = [F(x) for x in cumulant_ratios(dist, r - 1)]
    P = exact_polys(lam, lambda l, h: F(cs.b_value(l, h)), F(dist.sigma()), r)
    res = forward_residual(P, lam, r + 3)
    assert all(p == Poly() for p in res.values()), sorted(N for N, p in res.items() if p)


def test_forward_residual_sees_a_wrong_order():
    # the check is not vacuous: at r = 7, 1e-9 on P_4 shows from h^6 on,
    # P_2 doubled and lambda read one index off from h^5 on
    r = 7
    lam, b = _random_inputs(random.Random(r), r)
    P = exact_polys(lam, b, 1, r)

    def wrong(P, lam=lam):
        return [N for N, p in forward_residual(P, lam, r + 3).items() if p]

    assert wrong({**P, 4: P[4] + Poly([F(1e-9)])}) == list(range(6, r + 4))
    assert wrong({**P, 2: P[2].scale(2)}) == list(range(5, r + 4))
    assert wrong(P, lam[1:] + [F(0)]) == list(range(5, r + 4))


def test_cancellation_failure_diagnoses_corrupted_coefficients(asym, asym_constants_strict):
    # the eta = 4 balance ties the free-walk coefficients together across
    # four Laurent blocks; poisoning one of them must be caught and reported
    # (order 3 is the lowest whose weights cover Q_4); only (q, j) = (0, 1)
    # reads the poisoned [t^0] ghat_2
    g = ghats([F(x) for x in cumulant_ratios(asym, 2)], 2)
    g[2] = Poly({**g[2].terms, 0: 2.0 * g[2].coeff(0)})
    with pytest.raises(CancellationFailure) as err:
        assemble_Q(4, g, asym_constants_strict.b_value, asym.sigma())
    assert "eta=4" in str(err.value)
    assert "min exponent" in str(err.value)


def test_tuple_weight_zero_short_circuits():
    t = IndexTuple(j=0, q=0, s=0, nu=0, mu=0, l=0)
    assert tuple_weight(t, [Poly()], lambda l, h: 1.0, 1.0) == 0


def test_ballot_walk_expansion_matches_free_coefficients():
    # max step +1, strict barrier: survivors satisfy an exact ballot
    # identity, so P_nu(t) = sigma * sum_{2j+2-q=nu} a_{q,j} t^{q+1}
    # = t ghat_{nu-2}(t) / sqrt(2 pi); this pins every piece of the assembly
    # (signs, sigma powers, b wiring) through order 5.  Measured gaps, relative
    # to the largest coefficient at kmax 4096: <= 4.6e-13 for P_2, P_3 and
    # <= 6.1e-9 for P_4, P_5 (fit error in b[1, .]) on upskip, <= 1.4e-14 and
    # <= 5.0e-10 on upskip_narrow (sigma != 1); the bounds keep a 16x margin
    for walk in (upskip(), upskip_narrow()):
        cs = constants_for(walk, Barrier.STRICT, hmax=4)
        es = expansion_polys(walk, 4, cs)
        g = ghats([F(x) for x in cumulant_ratios(walk, 3)], 3)
        for nu in range(2, 6):
            want = g[nu - 2].shift(1).scale(1 / ROOT2PI)
            have = es.P[nu]
            scale = max(abs(c) for c in want.terms.values())
            bound = (1e-11 if nu <= 3 else 1e-7) * scale
            for i in set(want.terms) | set(have.terms):
                gap = abs(float(have.coeff(i)) - float(want.coeff(i)))
                assert gap <= bound, (walk.probs, nu, i)


def test_full_order_decay_at_cap(ballot_walk):
    # r = 4, the default cap: quadrupling n must shrink the window error by
    # about 4^3, exercising every constant the assembly can consume
    cs = constants_for(ballot_walk, Barrier.STRICT, hmax=4)
    es = expansion_polys(ballot_walk, 4, cs)
    rows = oc.killed_rows_at(ballot_walk, [100, 400], Barrier.STRICT)
    exponent = error_ladder(es, rows, window).decay["100->400"]
    assert 2.5 <= exponent <= 3.5


def test_polys_do_not_depend_on_order(tri, asym):
    # Q_eta reads only a_{q,j} with 2j - q <= eta - 2, so assembling to order
    # 4 leaves every lower P_nu as it is, and `report` evaluates the orders
    # 1..r by truncating one assembly
    for dist in (tri, asym):
        for barrier in Barrier:
            cs = constants_for(dist, barrier)
            es4 = expansion_polys(dist, 4, cs)
            for r in range(1, 5):
                es = expansion_polys(dist, r, cs)
                cut = dataclasses.replace(es4, r=r)
                assert es.P == {nu: es4.P[nu] for nu in range(2, max(r, 2) + 2)}
                for n in (100, 400, 1600, 6400):
                    for x in range(1, int(3.5 * cs.sigma * math.sqrt(n)) + 1):
                        assert cut.evaluate(n, x) == es.evaluate(n, x)


def test_evaluate_decay_weak_trinomial(tri, tri_constants_weak):
    es1 = expansion_polys(tri, 1, tri_constants_weak)
    es2 = expansion_polys(tri, 2, tri_constants_weak)
    rows = oc.killed_rows_at(tri, [100, 400], Barrier.WEAK)

    e1 = error_ladder(es1, rows, window).max_err
    e2 = error_ladder(es2, rows, window).max_err
    # r = 1 error falls ~ n^{-3/2}; adding the next polynomial pushes it to ~ n^{-2}
    assert e1[400] < e1[100] / 5.5
    assert e2[100] < e1[100] / 4.0


def test_error_decay_band_both_walks(tri, asym, tri_constants_strict,
                                     tri_constants_weak, asym_constants_strict):
    # the quadrupling ratio E(n)/E(4n) stays within a factor 3 of 4^p, with p
    # the order-r error power
    cases = [
        (tri, Barrier.STRICT, tri_constants_strict),
        (tri, Barrier.WEAK, tri_constants_weak),
        (asym, Barrier.STRICT, asym_constants_strict),
    ]
    ns = horizons(400)
    for dist, barrier, cs in cases:
        rows = oc.killed_rows_at(dist, ns, barrier)
        for r in (1, 2):
            es = expansion_polys(dist, r, cs)
            # E(100)/E(400) within a factor 3 of 4^p is S_100/S_400 within 3 of 1
            ladder = error_ladder(es, rows, window)
            assert ladder.flatness <= 3.0


def test_error_power_is_the_order_r_error_power(tri, asym, tri_constants_strict,
                                                tri_constants_weak, asym_constants_strict):
    # the error beyond P_{r+1} is of order n^-(r+2)/2, except at r = 1 where
    # P_3 vanishes (trinomial strict: m3 = 0 and theta1 = 0) and the first
    # omitted polynomial is P_4: n^-2
    cases = [(tri, tri_constants_strict, 2.0), (asym, asym_constants_strict, 1.5),
             (tri, tri_constants_weak, 1.5)]
    for dist, cs, r1_power in cases:
        es1 = expansion_polys(dist, 1, cs)
        assert (not es1.P[3]) == (r1_power == 2.0) and es1.error_power == r1_power
        for r in (2, 3, 4):
            es = expansion_polys(dist, r, cs)
            assert es.error_power == (r + 2) / 2
            # the order-1 set holds the P_3 of every higher order, and a cut keeps its power
            assert es.P[3] == es1.P[3]
            assert dataclasses.replace(es, r=1).error_power == r1_power


def test_evaluate_relative_error_at_sigma_sqrt_n(tri, tri_constants_strict):
    es = expansion_polys(tri, 2, tri_constants_strict)
    n = 400
    row = oc.killed_rows_at(tri, [n], Barrier.STRICT)[n]
    x = round(tri.sigma() * math.sqrt(n))
    exact = row.get(x)
    assert abs(es.evaluate(n, x) - exact) / exact < 0.03


def test_evaluate_at_origin_uses_p3_constant(tri, tri_constants_weak):
    es = expansion_polys(tri, 2, tri_constants_weak)
    # P_2 is odd so the x = 0 value is the P_3 constant term over n^{3/2}
    n = 256
    want = es.P[3].coeff(0) / n**1.5
    assert es.evaluate(n, 0) == pytest.approx(want)


def test_evaluate_far_tail_is_finite(asym, asym_constants_strict):
    es = expansion_polys(asym, 2, asym_constants_strict)
    v = es.evaluate(100, 10**5)
    assert math.isfinite(v)
    assert abs(v) < 1e-300


def uj_polynomial_part(expansion: ExpansionSet, j: int) -> Poly:
    """Polynomial part of the lower-deviation coefficient function W_j.

    W_j(x) is the n^{-j-1/2} coefficient of the fixed-x expansion of the
    survival probability.  Matching the two expansions at fixed x gives

        [x^k] W_j-poly = sigma^{-k} * sum_{2 mu + q = k}
                         (-1)^mu / (2^mu mu!) * [t^q] P_{2j+1-k},

    for k = 0..2j-1 (checked against oracle-extrapolated U1 columns: the
    slope of U1 is 2 theta0 / sigma^2).  Needs P up to order 2j+1.
    """
    coeffs = []
    for k in range(2 * j):
        acc = 0.0
        for mu in range(k // 2 + 1):
            q = k - 2 * mu
            p = expansion.P[2 * j + 1 - k]
            acc += (-1) ** mu / (2**mu * math.factorial(mu)) * float(p.coeff(q))
        coeffs.append(acc / expansion.constants.sigma**k)
    return Poly(coeffs)


def test_uj_polynomial_part_slope(asym, asym_constants_strict):
    es = expansion_polys(asym, 2, asym_constants_strict)
    w1 = uj_polynomial_part(es, 1)
    assert w1.degree() == 1
    assert w1.coeff(1) == pytest.approx(2 * es.constants.theta0 / es.constants.sigma**2, rel=1e-9)
    # constant term: P_3 constant evaluated through the mu = 0 branch
    assert w1.coeff(0) == pytest.approx(es.P[3].coeff(0), rel=1e-12)


def test_uj_polynomial_part_matches_u1_growth(asym, asym_constants_strict):
    es = expansion_polys(asym, 2, asym_constants_strict)
    w1 = uj_polynomial_part(es, 1)
    u1 = es.constants.u1_table
    u_hi = max(u1)
    assert u1[u_hi] / u_hi == pytest.approx(w1.coeff(1), rel=0.1)


def test_uj_polynomial_closed_form_weak_trinomial(tri, tri_constants_weak):
    # reflection gives W_1(u) = (2u + 2) / (sigma^3 sqrt(2 pi)) exactly;
    # both assembled coefficients must land on it
    es = expansion_polys(tri, 2, tri_constants_weak)
    w1 = uj_polynomial_part(es, 1)
    want = 2.0 / (es.constants.sigma**3 * ROOT2PI)
    assert w1.coeff(0) == pytest.approx(want, rel=1e-8)
    assert w1.coeff(1) == pytest.approx(want, rel=1e-8)


def test_expansion_json_export(asym, asym_constants_strict):
    es = expansion_polys(asym, 2, asym_constants_strict)
    blob = es.to_json_dict()
    assert blob["schema_version"] == 1
    assert set(blob["P"]) == {"2", "3"}
    assert blob["constants"]["barrier"] == "strict"
    # an order-1 set holds P_3 for its error power but exports P_2 alone
    blob = expansion_polys(asym, 1, asym_constants_strict).to_json_dict()
    assert set(blob["P"]) == set(blob["Q"]) == {"2"}
