"""Closed form vs quadrature for the half-line Gaussian-tail integral.

For integer b >= 0 and z != 0,

    I(b, z) = int_0^1 (1-u)^{-1/2} u^{-b-3/2} exp(-z^2/(2u)) du
            = sgn(z) sqrt(2 pi) e^{-z^2/2} sum_{k=0}^{b} (2k-1)!! C(b,k) / z^{2k+1},

with the convention (-1)!! = 1.  The closed form reads the sum from
``laurent.tail_block(b)``, the same S_b block that ``laurent.q_jlm`` builds the
expansion from, so ``integral-check`` checks the block the assembly multiplies.
The quadrature side substitutes u = s^2 on (0, 1/2] and 1 - u = s^2 on
[1/2, 1), removing the endpoint singularities, and integrates the sum of the
two smooth pieces over s in (0, sqrt(1/2)) by one fixed composite
Gauss-Legendre rule: 32 nodes per panel, panel edges 0, sqrt(1/2) 2^-12,
sqrt(1/2) 2^-11, ..., sqrt(1/2) (dense near s = 0, where the Gaussian factor
turns on); 16 nodes on the same panels give the error estimate.  Against the
closed form: 2.0e-16 relative on the (BS, ZS) grid, within 1.3e-14 for
b <= 22, z in [0.02, 16]; beyond that (z -> 0, or b >~ 25 at small z) the
estimate misses its target and `quadrature` raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure
from .laurent import tail_block

BS = (0, 1, 2, 3)
ZS = (0.5, 1.0, 2.0, 4.0)
TARGET_ABS = 1e-10  # absolute error target of the quadrature
PANEL_EDGES = np.array([0.0] + [math.sqrt(0.5) * 2.0 ** -k for k in range(12, -1, -1)])


def _composite_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:  # s, weights, 1 - s^2
    x, w = np.polynomial.legendre.leggauss(n)
    lo, hi = PANEL_EDGES[:-1, None], PANEL_EDGES[1:, None]
    s = ((hi - lo) / 2 * x + (hi + lo) / 2).ravel()
    return s, ((hi - lo) / 2 * w).ravel(), 1.0 - s * s


RULES = (_composite_rule(32), _composite_rule(16))  # value, then error estimate


def closed_form(b: int, z: float) -> float:
    """sgn(z) sqrt(2 pi) e^{-z^2/2} * S_b(1/z), S_b the ``tail_block(b)`` sum."""
    if z == 0:
        raise ValueError("z must be nonzero")
    s = sum(c / z ** -e for e, c in tail_block(b).terms.items())  # k order
    return math.copysign(1.0, z) * math.sqrt(2 * math.pi) * math.exp(-z * z / 2.0) * s


def quadrature(b: int, z: float) -> float:
    """The integral by the fixed composite Gauss-Legendre rule."""
    if b < 0 or z == 0:
        raise ValueError("b must be >= 0 and z nonzero")
    h = z * z / 2.0
    # both substitutions give du = 2 s ds; the lower piece keeps s^{-2b-2} in the
    # exponent, since alone it overflows at the smallest node for b >= 23
    value, coarse = (2.0 * float(w @ (np.exp(-h / (s * s) - (2 * b + 2) * np.log(s)) / np.sqrt(u)
                                      + u ** (-b - 1.5) * np.exp(-h / u)))
                     for s, w, u in RULES)
    err = abs(value - coarse)
    if not err <= max(TARGET_ABS, 1e-10 * abs(value)):  # a NaN raises too
        raise NumericFailure(
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
