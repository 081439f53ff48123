"""Closed form vs quadrature for the half-line Gaussian-tail integral.

For integer b >= 0 and z != 0,

    I(b, z) = int_0^1 (1-u)^{-1/2} u^{-b-3/2} exp(-z^2/(2u)) du
            = sgn(z) sqrt(2 pi) e^{-z^2/2} sum_{k=0}^{b} (2k-1)!! C(b,k) / z^{2k+1},

with the convention (-1)!! = 1.  The quadrature side substitutes u = s^2
near 0 and 1 - u = s^2 near 1 to remove the endpoint singularities, then
integrates each smooth piece adaptively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

from scipy.integrate import quad

from .errors import QuadratureNonconvergence
from .laurent import double_factorial

BS = (0, 1, 2, 3)
ZS = (0.5, 1.0, 2.0, 4.0)
TARGET_ABS = 1e-10  # absolute error target of the quadrature


def closed_form(b: int, z: float) -> float:
    """sgn(z) sqrt(2 pi) e^{-z^2/2} * sum_k (2k-1)!! C(b,k) / z^{2k+1}."""
    if b < 0:
        raise ValueError("b must be >= 0")
    if z == 0:
        raise ValueError("z must be nonzero")
    s = sum(double_factorial(2 * k - 1) * comb(b, k) / z ** (2 * k + 1) for k in range(b + 1))
    return math.copysign(1.0, z) * math.sqrt(2 * math.pi) * math.exp(-z * z / 2.0) * s


def quadrature(b: int, z: float) -> float:
    """Adaptive quadrature of the integral with endpoint substitutions."""
    if b < 0:
        raise ValueError("b must be >= 0")
    z2 = z * z

    def lower_piece(s: float) -> float:
        # u = s^2 on (0, 1/2]: du = 2 s ds kills one power of the singularity,
        # the Gaussian factor kills the rest as s -> 0
        u = s * s
        if u == 0.0:
            return 0.0
        val = math.exp(-z2 / (2.0 * u))
        if val == 0.0:
            return 0.0
        return 2.0 * val * s ** (-2 * b - 2) / math.sqrt(1.0 - u)

    def upper_piece(s: float) -> float:
        # 1 - u = s^2 on [1/2, 1): integrand becomes smooth in s
        u = 1.0 - s * s
        return 2.0 * u ** (-b - 1.5) * math.exp(-z2 / (2.0 * u))

    half = math.sqrt(0.5)
    v1, e1 = quad(lower_piece, 0.0, half, epsabs=TARGET_ABS / 4, epsrel=1e-12, limit=200)
    v2, e2 = quad(upper_piece, 0.0, half, epsabs=TARGET_ABS / 4, epsrel=1e-12, limit=200)
    value = v1 + v2
    err = e1 + e2
    if err > max(TARGET_ABS, 1e-10 * abs(value)):
        raise QuadratureNonconvergence(
            f"b={b}, z={z}: error estimate {err:.3e} above target")
    return value


@dataclass(frozen=True)
class IntegralCheckRow:
    b: int
    z: float
    closed: float
    quadrature: float
    rel_error: float


def integral_check() -> list[IntegralCheckRow]:
    """Compare closed form against quadrature over the (BS, ZS) grid."""
    rows = []
    for b in BS:
        for z in ZS:
            c = closed_form(b, z)
            q = quadrature(b, z)
            rel = abs(c - q) / max(abs(c), abs(q), 1e-300)
            rows.append(IntegralCheckRow(b=b, z=float(z), closed=c, quadrature=q, rel_error=rel))
    return rows
