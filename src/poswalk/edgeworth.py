"""Local-CLT expansion machinery for the free (unkilled) walk.

The free local probability expands as

    P(S_n = x) ~ e^{-z^2/2n} / (sigma sqrt(2 pi)) * sum_{q,j} ahat_{q,j} z^q / n^{j+1/2},

with z = x/sigma, where the weights regroup the classical Hermite/cumulant
correction polynomials.  The building blocks ghat_nu are the u^nu
coefficients of

    exp(sum_{m >= 1} lam_m u^m x^{m+2}) = sum_nu g_nu(x) u^nu,

with lam_m = gamma_{m+2} / ((m+2)! sigma^{m+2}), each x^k read as H_k(t).
Differentiating in u gives the recurrence

    g_0 = 1,    nu g_nu = sum_{m=1}^{nu} m lam_m x^{m+2} g_{nu-m},

which ``ghats`` runs; it needs only int * lam, Poly sums and * 1/nu.  The
weight of z^q / n^{j+1/2} is ahat_{q,j} = [t^q] ghat_{2j-q} (ghat_0 = 1).
ghat_nu is sqrt(2 pi) times the usual correction polynomial; keeping the
sqrt(2 pi) out makes every coefficient exactly rational whenever the lam_m
are rational: the assembly runs it on the exact values of the float lam_m,
the placeholder tests on rational stand-ins.
"""

from __future__ import annotations

from fractions import Fraction
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


def ghats(lambdas, count: int) -> list[Poly]:
    """[ghat_0, ..., ghat_count]; exact iff the lambdas are exact.

    ``lambdas[m-1]`` holds lam_m for m = 1..count.  The recurrence builds g_nu
    in a formal x, whose x^k is then read as H_k; g_nu holds only the powers
    x^nu, x^{nu+2}, ..., x^{3 nu}, so ghat_nu has degree 3 nu (attained when
    lam_1 != 0) and the parity of nu.
    """
    if len(lambdas) < count:
        raise InputError(f"need lambda_1..lambda_{count}")
    g = [Poly([1])]
    for nu in range(1, count + 1):
        acc = Poly()
        for m in range(1, nu + 1):
            acc = acc + g[nu - m].shift(m + 2).scale(m * lambdas[m - 1])
        g.append(acc.scale(Fraction(1, nu)))
    return [sum((hermite(k).scale(c) for k, c in p.terms.items()), Poly()) for p in g]
