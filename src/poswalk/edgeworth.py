"""Local-CLT expansion machinery for the free (unkilled) walk.

The free local probability expands as

    P(S_n = x) ~ e^{-z^2/2n} * sum_j  P0_j(z) / n^{j+1/2},     z = x/sigma,

where P0_0 = 1/(sigma sqrt(2 pi)) and the higher P0_j regroup the classical
Hermite/cumulant correction polynomials.  The building block is a series of
polynomials indexed by partitions of nu,

    ghat_nu(t) = sum_{k_1 + 2 k_2 + ... = nu}  H_{nu+2s}(t) * prod_m lam_m^{k_m} / k_m!,

with lam_m = gamma_{m+2} / ((m+2)! sigma^{m+2}) and s = sum k_m.  ghat_nu is
sqrt(2 pi) times the usual correction polynomial; keeping the sqrt(2 pi) out
makes every coefficient exactly rational whenever the lam_m are rational, so
the same code drives both the float pipeline and the exact placeholder tests.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import InputError
from .increments import IncrementDistribution, cumulant_ratios
from .laurent import Poly

PARTITION_NU_CAP = 8


@lru_cache(maxsize=None)
def hermite(m: int) -> Poly:
    """Probabilists' Hermite polynomial H_m, exact integer coefficients."""
    if m < 0:
        raise InputError("m must be >= 0")
    if m == 0:
        return Poly([1])
    if m == 1:
        return Poly([0, 1])
    prev, cur = hermite(m - 2), hermite(m - 1)
    return cur.shift(1) - prev.scale(m - 1)


def partitions(nu: int) -> list[tuple[int, ...]]:
    """All nonnegative (k_1..k_nu) with sum m*k_m = nu, by recursive descent."""
    if nu < 1:
        raise InputError("nu must be >= 1")
    if nu > PARTITION_NU_CAP:
        raise InputError(f"nu capped at {PARTITION_NU_CAP}")
    out: list[tuple[int, ...]] = []

    def descend(m: int, remaining: int, acc: list[int]) -> None:
        if m == nu:
            if remaining % nu == 0:
                out.append(tuple(acc + [remaining // nu]))
            return
        for k in range(remaining // m, -1, -1):
            descend(m + 1, remaining - m * k, acc + [k])

    descend(1, nu, [])
    return out


def ghat(lambdas, nu: int) -> Poly:
    """sqrt(2 pi) * qhat_nu as a polynomial; exact iff the lambdas are exact.

    ``lambdas[m-1]`` holds lam_m for m = 1..nu.  Degree is 3 nu (attained when
    lam_1 != 0) and only powers with the parity of nu occur.
    """
    if len(lambdas) < nu:
        raise InputError(f"need lambda_1..lambda_{nu}")
    out = Poly()
    for ks in partitions(nu):
        s = sum(ks)
        weight = 1
        for m, k in enumerate(ks, start=1):
            if k:
                weight = weight * lambdas[m - 1] ** k / math.factorial(k)
        if weight == 0:
            continue
        out = out + hermite(nu + 2 * s).scale(weight)
    return out


def scaled_a_table(lambdas, nu_max: int) -> dict[tuple[int, int], object]:
    """A[(nu, i)] = [t^{3 nu - 2 i}] ghat_nu, for nu = 1..nu_max."""
    table: dict[tuple[int, int], object] = {}
    for nu in range(1, nu_max + 1):
        g = ghat(lambdas, nu)
        for i in range(0, (3 * nu) // 2 + 1):
            c = g.coeff(3 * nu - 2 * i)
            if c != 0:
                table[(nu, i)] = c
    return table


def scaled_a(table: dict, q: int, j: int, r: int):
    """sigma * sqrt(2 pi) * a_{q,j} with the order-r truncation rule.

    a_{q,j} is the z^q coefficient of P0_j; the (0,0) entry is the Gaussian
    weight itself.  Entries vanish outside 1 <= 2j - q <= r + 1.
    """
    if q == 0 and j == 0:
        return 1
    nu = 2 * j - q
    i = 3 * j - 2 * q
    if nu < 1 or nu > r + 1 or i < 0:
        return 0
    return table.get((nu, i), 0)


def lclt_coefficients(dist: IncrementDistribution, r: int) -> list[Poly]:
    """P0_0..P0_{2r+2} for a concrete walk, floats in z = x/sigma; a_{q,j} = [z^q] P0_j."""
    if r < 1:
        raise InputError("r must be >= 1")
    sigma = dist.sigma()
    lam = cumulant_ratios(dist, r + 1)
    table = scaled_a_table(lam, r + 1)
    root = math.sqrt(2 * math.pi)
    return [Poly([float(scaled_a(table, q, j, r)) / (sigma * root)
                  for q in range(0, (3 * j) // 2 + 1)])
            for j in range(0, 2 * r + 3)]

