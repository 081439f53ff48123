"""Assembly of the survival-probability expansion polynomials.

The killed-walk local probability expands, for x of order sqrt(n), as

    P(S_n = x, tau > n) ~ e^{-x^2 / (2 sigma^2 n)}
                          * sum_{nu=2}^{r+1} P_nu(x / (sigma sqrt n)) / n^{nu/2},

with deg P_nu = 3 nu - 5.  Each P_nu = -2 Q_nu, where Q_eta is a finite sum
over index tuples (j, q, s, nu, mu, l) subject to

    s <= q <= floor(3j/2),        eta - 2 = 2 (j + mu + l) + nu + s - q,

of  a_{q,j} C(q,s) (-1)^{nu+mu} / (2^mu nu! mu!) b[l, s+nu+2mu]
    * q_jlm(l+1, j+nu+mu, q-s+nu),

times sqrt(2 pi).  The a_{q,j} are the free walk's local-CLT weights, read
as sigma sqrt(2 pi) a_{q,j} = [t^q] ghat_{2j-q} (``edgeworth.ghats``; ghat_0 = 1), the
b[l,h] are overshoot-moment constants (constants), and
q_jlm are exact Laurent polynomials whose negative powers must cancel in
the sum.  The assembled closed forms at the lowest orders are

    P_2(t) = (2 theta0 / sigma) t,
    P_3(t) = (theta0 m3 / (3 sigma^4)) (t^4 - 5 t^2 + 2)
             + (2 theta1 / sigma) (1 - t^2),

where theta0 and theta1 are b[0,0] and b[0,1] themselves (one fit each);
both were validated against the oracle through walks with closed-form
survival probabilities (ballot-type and reflection identities).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .constants import SCHEMA_VERSION, ConstantSet
from .edgeworth import ghats
from .errors import CancellationFailure, InputError
from .increments import IncrementDistribution, cumulant_ratios
from .laurent import Poly, q_jlm
from .oracle import Barrier

DEFAULT_R_CAP = 4  # the validated orders; the CLI warns above it
GRID_RATIOS = (0.2, 0.5, 1.0, 1.5, 2.0, 3.0)  # verify's points, in units of sigma sqrt(n)
INTERVAL = (0.5, 1.5)  # verify's interval check, in units of sigma sqrt(n)


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


def b_range(r: int) -> int:
    """The sweep's hmax behind order r: the largest h of a b[l, h] that
    Q_2..Q_{r+1} read, and at least 1, since theta1 = b[0,1] is part of every
    constant set.

    The index constraint eta - 2 = 2 (j + mu + l) + nu + s - q splits as
    (2j - q) + h + 2 l with h = s + nu + 2 mu, and q <= floor(3j/2) makes
    2j - q >= 0, so h + 2 l <= eta - 2 <= r - 1.  ``compute_constants`` fits
    l = 0..hmax//2 for each h, which covers every l that order reads.  The
    same bound gives 2j - q <= r - 1: order r reads ghat_0..ghat_{r-1}.
    """
    return max(1, r - 1)


def tuple_weight(t: IndexTuple, g, b, sigma):
    """Scalar multiplying q_jlm for one tuple.

    It reads sigma * sqrt(2 pi) * a_{q,j} = [t^q] g[2j-q] from the list
    ``g = ghats(lam, ...)``; the sqrt(2 pi) prefactor of the Q_eta sum then
    cancels, and with ``Fraction`` inputs, as ``exact_polys`` receives them,
    the weight is an exact ``Fraction``.
    """
    a = g[2 * t.j - t.q].coeff(t.q)
    if a == 0:
        return 0
    bval = b(t.l, t.h)
    if bval == 0:
        return 0
    sign = (-1) ** (t.nu + t.mu)
    denom = 2**t.mu * math.factorial(t.nu) * math.factorial(t.mu)
    return a * math.comb(t.q, t.s) * sign * bval / (sigma * denom)


def assemble_Q(eta: int, g, b, sigma) -> Poly:
    """Assemble Q_eta from the list ``g`` of ghat_0..ghat_{eta-2} and ``b(l, h)``;
    its negative Laurent exponents must cancel.

    With exact inputs the cancellation is an identity, so any negative
    exponent that keeps a nonzero coefficient raises CancellationFailure,
    with per-tuple diagnostics.
    """
    contributions: list[tuple[IndexTuple, object, Poly]] = []
    total = Poly()
    for t in enumerate_tuples(eta):
        w = tuple_weight(t, g, b, sigma)
        if w == 0:
            continue
        base = q_jlm(t.l + 1, t.j + t.nu + t.mu, t.q - t.s + t.nu)
        contributions.append((t, w, base))
        total = total + base.scale(w)
    neg = total.negative_part()
    if neg:
        worst = max(abs(float(c)) for c in neg.terms.values())
        lines = [f"eta={eta}: negative exponents survive assembly (largest {worst:.3e})"]
        for t, w, base in contributions:
            if base.negative_part():
                lines.append(f"  tuple {t} weight {float(w):.6e} "
                             f"min exponent {base.min_exponent()}")
        raise CancellationFailure("\n".join(lines))
    return total.polynomial_part()


def exact_polys(lam, b, sigma, r: int) -> dict[int, Poly]:
    """P_nu = -2 Q_nu for nu = 2..r+1, exact in exact inputs: the cumulant ratios
    ``lam`` (lambda_1..lambda_{r-1}), ``b(l, h)`` and ``sigma``.

    Q_eta reads sigma sqrt(2 pi) a_{q,j} = [t^q] ghat_{2j-q} from the list
    ``ghats(lam, r - 1)`` as it stands: order r reads ghat_0..ghat_{r-1}
    (``b_range``).
    """
    g = ghats(lam, r - 1)
    return {eta: assemble_Q(eta, g, b, sigma).scale(Fraction(-2)) for eta in range(2, r + 2)}


@dataclass
class ExpansionSet:
    """Expansion polynomials P_2..P_{max(r, 2)+1} with the sigma and constant set they were
    built from; the series and the JSON export read P_2..P_{r+1}, and an order-1 set
    also holds P_3 for its error power.

    P_nu does not depend on the order: Q_nu reads only ghat_{2j-q} and b[l,h] with
    2j - q, h <= nu - 2, the same inputs at every order that assembles it.  So
    ``dataclasses.replace(es, r=...)`` with a lower r is that order's set.
    """

    r: int
    barrier: Barrier
    sigma: float
    P: dict[int, Poly]  # P_nu = -2 Q_nu
    constants: ConstantSet

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

    @property
    def error_power(self) -> float:
        """The power of n that makes the order-r error flat.

        The error beyond P_{r+1} is of order n^{-(r+2)/2}, or n^{-2} at r = 1
        where P_3 vanishes.
        """
        return 2.0 if self.r == 1 and not self.P[3] else (self.r + 2) / 2

    def to_json_dict(self) -> dict:
        def coeffs(p: Poly) -> list:
            return [float(c) for c in p.coeffs]

        return {
            "schema_version": SCHEMA_VERSION,
            "r": self.r,
            "barrier": self.barrier.value,
            "sigma": self.sigma,
            "P": {str(nu): coeffs(self.P[nu]) for nu in range(2, self.r + 2)},
            "Q": {str(nu): coeffs(self.P[nu].scale(-0.5)) for nu in range(2, self.r + 2)},
            "constants": self.constants.to_json_dict(),
        }


def expansion_polys(dist: IncrementDistribution, r: int,
                    constants: ConstantSet) -> ExpansionSet:
    """Compute P_nu = -2 Q_nu for nu = 2..max(r, 2)+1 from the walk's constant set.

    The float inputs (the lambda_m, sigma and each b[l, h]) enter as their
    exact ``Fraction`` values, so every negative Laurent power cancels exactly
    and each P_nu coefficient is the correctly rounded float of the exact sum.
    ``constants`` must come from a sweep with hmax >= ``b_range(r)``; reading
    a missing b[l, h] raises InputError (``ConstantSet.b_value``).  At r = 1
    they cover P_3 too, since ``b_range(1) == b_range(2)``.
    """
    if r < 1:
        raise InputError("r must be >= 1")
    top = max(r, 2)
    lam = [Fraction(x) for x in cumulant_ratios(dist, top - 1)]
    exact = exact_polys(lam, lambda l, h: Fraction(constants.b_value(l, h)),
                        Fraction(dist.sigma()), top)
    return ExpansionSet(r=r, barrier=constants.barrier, sigma=dist.sigma(), constants=constants,
                        P={nu: Poly({e: float(c) for e, c in p.terms.items()})
                           for nu, p in exact.items()})


def snapped_grid(sigma: float, n: int) -> list[int]:
    """verify's points: GRID_RATIOS of sigma sqrt(n) snapped to lattice x >= 1, deduplicated.

    A horizon is refused exactly where report's ``window`` is empty
    (3 sigma sqrt(n) < 1); from there on the top point rounds to x >= 1.
    """
    window(sigma, n)  # InputError at a horizon without lattice points
    return [x for x in dict.fromkeys(round(t * sigma * math.sqrt(n)) for t in GRID_RATIOS) if x >= 1]


def window(sigma: float, n: int) -> range:
    """report's points: lattice x from max(1, int(0.2 sigma sqrt n)) to int(3 sigma sqrt n)."""
    xs = range(max(1, int(0.2 * sigma * math.sqrt(n))), int(3.0 * sigma * math.sqrt(n)) + 1)
    if not xs:
        raise InputError(f"no lattice point in the window at n={n}; use a larger --nmax")
    return xs


def horizons(nmax: int) -> list[int]:
    """The error ladder's horizons: 100, 400, 1600, 6400 up to nmax; nmax alone below 100."""
    return [n for n in (100, 400, 1600, 6400) if n <= nmax] or [nmax]


@dataclass
class ErrorLadder:
    """The order-r error |exact - series| over horizons, scaled by n^power."""

    table: list[list]  # [n, x, exact, approx, abs_err, scaled_err] per point
    max_err: dict[int, float]
    max_scaled: dict[int, float]  # S_n = max abs_err * n^power
    decay: dict[str, float]  # "a->b": log((S_a / a^p) / (S_b / b^p)) / log(b / a)
    flatness: float  # max S_n / min S_n


def error_ladder(es: ExpansionSet, rows, ns, points) -> ErrorLadder:
    """``es`` against the survivor rows ``rows[n]`` at ``points(sigma, n)``
    (``snapped_grid`` or ``window``) per horizon n, scaled by n^p with p = ``es.error_power``.
    With an error of order n^-p the scaled maxima are flat and the exponents read p;
    up to rounding the exponents do not depend on p.  max(abs_err n^p) = max(abs_err) n^p
    bit for bit."""
    power = es.error_power
    table, max_err, max_scaled = [], {}, {}
    for n in ns:
        pairs = [(x, float(rows[n].get(x, 0.0)), es.evaluate(n, x)) for x in points(es.sigma, n)]
        here = [[n, x, ex, ap, abs(ex - ap), abs(ex - ap) * n ** power] for x, ex, ap in pairs]
        table += here
        max_err[n] = max(entry[4] for entry in here)
        max_scaled[n] = max(entry[5] for entry in here)
    e = {n: max_scaled[n] / n ** power for n in ns}  # S_n / n^p, not max_err: verify's bits
    decay = {f"{a}->{b}": math.log(e[a] / e[b]) / math.log(b / a) if e[b] > 0 else float("inf")
             for a, b in zip(ns, ns[1:])}
    lo, hi = min(max_scaled.values()), max(max_scaled.values())
    return ErrorLadder(table, max_err, max_scaled, decay, hi / lo if lo > 0 else float("inf"))


def interval_deviations(sigma: float, rows, ns, p3: Poly
                        ) -> tuple[dict[int, float], dict[int, float]]:
    """verify's interval check: the conditioned mass p_n = P(S_n in INTERVAL sigma sqrt(n)
    | tau > n), the float of the exact ratio of sums of the survivor row ``rows[n]``, per
    horizon n.  Returns sqrt(n) |p_n - target|, target = e^{-u^2/2} - e^{-v^2/2}, and
    order |p_n - R_n|, where R_n is the Rayleigh density x / (sigma^2 n) e^{-x^2 / (2 sigma^2 n)}
    summed over the same lattice points: the limit law placed on the lattice.  The first
    swings with the lattice term R_n - target, which comes from the limit law alone; the
    rest, p_n - R_n, is of order n^{-1/2} through P_3, or n^{-1} where ``p3`` vanishes,
    and ``order`` is sqrt(n) or n to match."""
    u, v = INTERVAL
    target = math.exp(-u * u / 2) - math.exp(-v * v / 2)
    raw, lattice = {}, {}
    for n in ns:
        scale = sigma * math.sqrt(n)
        lo, hi = math.ceil(u * scale), math.floor(v * scale)
        total = rows[n].total()
        if total == 0:
            raise InputError(f"P(tau > {n}) = 0")
        p = float(rows[n].total(lo, hi) / total)
        rayleigh = sum(x / (sigma**2 * n) * math.exp(-x * x / (2 * sigma**2 * n))
                       for x in range(lo, hi + 1))
        raw[n] = abs(p - target) * math.sqrt(n)
        lattice[n] = abs(p - rayleigh) * (math.sqrt(n) if p3 else n)
    return raw, lattice
