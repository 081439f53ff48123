"""Local-CLT expansion machinery for the free (unkilled) walk.

The free local probability expands as

    P(S_n = x) ~ e^{-z^2/2n} / (sigma sqrt(2 pi)) * sum_{q,j} ahat_{q,j} z^q / n^{j+1/2},

with z = x/sigma, where the weights regroup the classical Hermite/cumulant
correction polynomials.  The building block is a series of polynomials
indexed by partitions of nu,

    ghat_nu(t) = sum_{k_1 + 2 k_2 + ... = nu}  H_{nu+2s}(t) * prod_m lam_m^{k_m} / k_m!,

with lam_m = gamma_{m+2} / ((m+2)! sigma^{m+2}) and s = sum k_m, and the
weight of z^q / n^{j+1/2} is ahat_{q,j} = [t^q] ghat_{2j-q} (ghat_0 = 1).
ghat_nu is sqrt(2 pi) times the usual correction polynomial; keeping the
sqrt(2 pi) out makes every coefficient exactly rational whenever the lam_m
are rational: the assembly runs it on the exact values of the float lam_m,
the placeholder tests on rational stand-ins.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import InputError
from .laurent import Poly


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
