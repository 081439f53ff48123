"""Assembly of the survival-probability expansion polynomials.

The killed-walk local probability expands, for x of order sqrt(n), as

    P(S_n = x, tau > n) ~ e^{-x^2 / (2 sigma^2 n)}
                          * sum_{nu=2}^{r+1} P_nu(x / (sigma sqrt n)) / n^{nu/2},

with deg P_nu = 3 nu - 5.  Each P_nu = -2 Q_nu, where Q_eta is a finite sum
over index tuples (j, q, s, nu, mu, l) subject to

    s <= q <= floor(3j/2),        eta - 2 = 2 (j + mu + l) + nu + s - q,

of  a_{q,j} C(q,s) (-1)^{nu+mu} / (2^mu nu! mu!) b[l, s+nu+2mu]
    * q_jlm(l+1, j+nu+mu, q-s+nu),

times sqrt(2 pi).  The a_{q,j} are free-walk expansion coefficients
(edgeworth), the b[l,h] are overshoot-moment constants (constants), and
q_jlm are exact Laurent polynomials whose negative powers must cancel in
the sum.  The assembled closed forms at the lowest orders are

    P_2(t) = (2 theta0 / sigma) t,
    P_3(t) = (theta0 m3 / (3 sigma^4)) (t^4 - 5 t^2 + 2)
             + (2 theta1 / sigma) (1 - t^2),

with theta0 = b[0,0] and theta1 = b[0,1]; both were validated against the
oracle through walks with closed-form survival probabilities (ballot-type
and reflection identities).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .constants import ConstantSet, compute_constants
from .edgeworth import LcltExpansion, lclt_coefficients, scaled_a, scaled_a_table
from .errors import CancellationFailure, InputError, MissingOrder
from .increments import IncrementDistribution
from .laurent import LaurentPoly, Poly, q_jlm
from .oracle import Barrier

DEFAULT_R_CAP = 4
CANCELLATION_TOL = 1e-9


@dataclass(frozen=True)
class IndexTuple:
    """One admissible index combination of the Q_eta sum."""

    j: int
    q: int
    s: int
    nu: int
    mu: int
    l: int

    @property
    def h(self) -> int:
        """Overshoot-moment order this tuple consumes."""
        return self.s + self.nu + 2 * self.mu

    def constraint_value(self) -> int:
        """2 (j + mu + l) + nu + s - q; equals eta - 2 for members of Q_eta."""
        return 2 * (self.j + self.mu + self.l) + self.nu + self.s - self.q


def enumerate_tuples(eta: int) -> list[IndexTuple]:
    """All tuples contributing to Q_eta, duplicate-free, deterministic order.

    Membership follows from the order bookkeeping of the Laurent blocks:
    q_jlm(a, b, c) sits at order eta exactly when 2(a + b) - c = eta, which
    with (a, b, c) = (l+1, j+nu+mu, q-s+nu) reads

        eta - 2 = 2 (j + mu + l) + nu + s - q.

    (The binomial split of the free-walk polynomial contributes one power
    of the overshoot per s, not two; walks with a nonzero first overshoot
    moment pin this against closed-form survival probabilities.)  Bounds:
    q <= floor(3j/2) forces 2j - q >= j/2 >= 0, hence j <= 2 (eta - 2),
    s, nu <= eta - 2 and mu, l <= (eta - 2)/2.
    """
    if eta < 2:
        raise InputError("eta must be >= 2")
    e = eta - 2
    out: list[IndexTuple] = []
    for j in range(2 * e + 1):
        qcap = (3 * j) // 2
        for s in range(e + 1):
            for mu in range(e // 2 + 1):
                for l in range(e // 2 + 1):
                    for nu in range(e + 1):
                        q = 2 * (j + mu + l) + nu + s - e
                        if q < s or q > qcap:
                            continue
                        out.append(IndexTuple(j=j, q=q, s=s, nu=nu, mu=mu, l=l))
    return out


def required_b_indices(r: int) -> set[tuple[int, int]]:
    """(l, h) pairs consumed by Q_2..Q_{r+1}."""
    need: set[tuple[int, int]] = set()
    for eta in range(2, r + 2):
        for t in enumerate_tuples(eta):
            need.add((t.l, t.h))
    return need


def tuple_weight(t: IndexTuple, ahat, b, sigma):
    """Scalar multiplying q_jlm for one tuple.

    ``ahat(q, j)`` must return sigma * sqrt(2 pi) * a_{q,j}; the sqrt(2 pi)
    prefactor of the Q_eta sum then cancels and the weight is exactly
    rational whenever the inputs are.
    """
    a = ahat(t.q, t.j)
    if a == 0:
        return 0
    bval = b(t.l, t.h)
    if bval == 0:
        return 0
    sign = (-1) ** (t.nu + t.mu)
    denom = 2**t.mu * math.factorial(t.nu) * math.factorial(t.mu)
    return a * math.comb(t.q, t.s) * sign * bval / (sigma * denom)


def _laurent_sum(eta: int, ahat, b, sigma) -> tuple[LaurentPoly, list]:
    """Weighted q_jlm sum of Q_eta, with its nonzero (tuple, weight, q_jlm) terms."""
    contributions: list[tuple[IndexTuple, object, LaurentPoly]] = []
    total = LaurentPoly()
    for t in enumerate_tuples(eta):
        w = tuple_weight(t, ahat, b, sigma)
        if w == 0:
            continue
        base = q_jlm(t.l + 1, t.j + t.nu + t.mu, t.q - t.s + t.nu)
        contributions.append((t, w, base))
        total = total + base.scale(w)
    return total, contributions


def assemble_Q(eta: int, ahat, b, sigma, tol: float = CANCELLATION_TOL) -> Poly:
    """Assemble Q_eta; negative Laurent exponents must cancel.

    Raises CancellationFailure (with per-tuple diagnostics) if any negative
    exponent keeps a coefficient above ``tol`` relative to the largest
    polynomial coefficient.
    """
    total, contributions = _laurent_sum(eta, ahat, b, sigma)
    neg = total.negative_part()
    poly = total.polynomial_part()
    if neg:
        scale = max((abs(float(c)) for c in poly.coeffs.values()), default=0.0)
        worst = max(abs(float(c)) for c in neg.coeffs.values())
        if worst > tol * max(scale, 1e-300):
            lines = [
                f"eta={eta}: negative exponents survive assembly "
                f"(max |coeff| {worst:.3e} vs polynomial scale {scale:.3e})"
            ]
            for t, w, base in contributions:
                if base.negative_part():
                    lines.append(f"  tuple {t} weight {float(w):.6e} "
                                 f"min exponent {base.min_exponent()}")
            raise CancellationFailure("\n".join(lines))
    return poly.to_poly()


def negative_residue(eta: int, ahat, b, sigma) -> float:
    """Largest surviving negative-exponent coefficient, relative (diagnostic)."""
    total, _ = _laurent_sum(eta, ahat, b, sigma)
    neg = total.negative_part()
    if not neg:
        return 0.0
    poly = total.polynomial_part()
    scale = max((abs(float(c)) for c in poly.coeffs.values()), default=1e-300)
    return max(abs(float(c)) for c in neg.coeffs.values()) / scale


@dataclass
class ExpansionSet:
    """Expansion polynomials P_2..P_{r+1} plus everything they were built from."""

    r: int
    barrier: Barrier
    sigma: float
    P: dict[int, Poly]
    Q: dict[int, Poly]
    constants: ConstantSet
    lclt: LcltExpansion

    def evaluate(self, n: int, x: int) -> float:
        """Truncated series value for P(S_n = x, tau > n); may go <= 0 in tails."""
        if n < 1:
            raise InputError("n must be >= 1")
        t = x / (self.sigma * math.sqrt(n))
        gauss = math.exp(-(t * t) / 2.0)
        if gauss == 0.0:
            return 0.0
        total = 0.0
        for nu in range(2, self.r + 2):
            total += self.P[nu](t) / n ** (nu / 2.0)
        return gauss * total

    def to_json_dict(self) -> dict:
        def coeffs(p: Poly) -> list:
            return [str(c) if isinstance(c, Fraction) else float(c) for c in p.coeffs]

        return {
            "schema_version": 1,
            "r": self.r,
            "barrier": self.barrier.value,
            "sigma": self.sigma,
            "P": {str(nu): coeffs(p) for nu, p in sorted(self.P.items())},
            "Q": {str(nu): coeffs(p) for nu, p in sorted(self.Q.items())},
            "constants": self.constants.to_json_dict(),
        }


def expansion_polys(dist: IncrementDistribution, r: int, barrier=Barrier.STRICT,
                    constants: ConstantSet | None = None,
                    kmax: int | None = None,
                    tol: float = CANCELLATION_TOL) -> ExpansionSet:
    """Compute P_nu = -2 Q_nu for nu = 2..r+1 with numeric constants."""
    if r < 1:
        raise InputError("r must be >= 1")
    if r > DEFAULT_R_CAP:
        warnings.warn(f"r={r} above the validated range (r <= {DEFAULT_R_CAP})",
                      stacklevel=2)
    barrier = Barrier.parse(barrier)
    need = required_b_indices(r)
    hmax = max((h for _, h in need), default=0)
    lmax = max((l for l, _ in need), default=0)
    if constants is None:
        kwargs = {"kmax": kmax} if kmax else {}
        constants = compute_constants(dist, barrier, hmax=hmax, lmax=lmax, **kwargs)
    missing = [(l, h) for (l, h) in sorted(need) if (l, h) not in constants.b]
    if missing:
        raise InputError(f"constant set lacks b indices {missing}; recompute with "
                         f"hmax >= {hmax}, lmax >= {lmax}")
    lclt = lclt_coefficients(dist, r)
    sigma = dist.sigma()
    root = math.sqrt(2 * math.pi)

    def ahat(q: int, j: int) -> float:
        return lclt.a_coef(q, j) * sigma * root

    def b(l: int, h: int) -> float:
        return constants.b_value(l, h)

    P: dict[int, Poly] = {}
    Q: dict[int, Poly] = {}
    for eta in range(2, r + 2):
        qpoly = assemble_Q(eta, ahat, b, sigma, tol=tol)
        Q[eta] = qpoly
        P[eta] = qpoly.scale(-2.0)
    return ExpansionSet(r=r, barrier=barrier, sigma=sigma, P=P, Q=Q,
                        constants=constants, lclt=lclt)


def placeholder_polys(*, sigma: Fraction, m3: Fraction, theta0: Fraction,
                      theta1: Fraction, r: int = 2) -> dict[int, Poly]:
    """Exact-rational assembly of P_2..P_{r+1} with placeholder constants.

    Valid for r <= 2: those orders consume only b[0,0], b[0,1] and the
    third-moment part of the free-walk coefficients, so rational
    placeholders for (sigma, m3, theta0, theta1) keep everything exact.
    """
    if r > 2:
        raise InputError("placeholder assembly supports r <= 2 only")
    sigma = Fraction(sigma)
    lam1 = Fraction(m3) / (6 * sigma**3)
    # orders eta <= 3 only consume free-walk coefficients with 2j - q <= 1,
    # so lambda_1 (the third-moment ratio) is the only ingredient needed
    table = scaled_a_table([lam1], 1)
    bmap = {(0, 0): Fraction(theta0), (0, 1): Fraction(theta1)}

    def ahat(q: int, j: int):
        return scaled_a(table, q, j, r)

    def b(l: int, h: int):
        return bmap.get((l, h), Fraction(0))

    out: dict[int, Poly] = {}
    for eta in range(2, r + 2):
        out[eta] = assemble_Q(eta, ahat, b, sigma, tol=0.0).scale(Fraction(-2))
    return out


def closed_form_p2(*, sigma, theta0) -> Poly:
    """P_2(t) = (2 theta0 / sigma) t."""
    return Poly([0, 2 * theta0 / sigma])


def closed_form_p3(*, sigma, m3, theta0, theta1) -> Poly:
    """P_3(t) = (theta0 m3 / 3 sigma^4)(t^4 - 5 t^2 + 2) + (2 theta1 / sigma)(1 - t^2)."""
    c = theta0 * m3 / (3 * sigma**4)
    d = 2 * theta1 / sigma
    return Poly([2 * c + d, 0, -5 * c - d, 0, c])


def uj_polynomial_part(expansion: ExpansionSet, j: int) -> Poly:
    """Polynomial part of the lower-deviation coefficient function W_j.

    W_j(x) is the n^{-j-1/2} coefficient of the fixed-x expansion of the
    survival probability.  Matching the two expansions at fixed x gives

        [x^k] W_j-poly = sigma^{-k} * sum_{2 mu + q = k}
                         (-1)^mu / (2^mu mu!) * [t^q] P_{2j+1-k},

    for k = 0..2j-1 (checked against oracle-extrapolated U1 columns: the
    slope of U1 is 2 theta0 / sigma^2).  Needs P up to order 2j+1, so
    r >= 2j.
    """
    if j < 1:
        raise InputError("j must be >= 1")
    if expansion.r < 2 * j:
        raise MissingOrder(f"W_{j} polynomial part needs r >= {2 * j}")
    coeffs = []
    for k in range(2 * j):
        acc = 0.0
        for mu in range(k // 2 + 1):
            q = k - 2 * mu
            p = expansion.P[2 * j + 1 - k]
            acc += (-1) ** mu / (2**mu * math.factorial(mu)) * float(p.coeff(q))
        coeffs.append(acc / expansion.sigma**k)
    return Poly(coeffs)
