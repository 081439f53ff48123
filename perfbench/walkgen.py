"""Seeded increment laws for the ``seed-walk`` input of the benchmark.

The seed picks one law from a fixed family: support exactly
{-2, -1, 0, 1, 2}, integer weights 1..6 on every point (so all five
probabilities are positive and no weight exceeds six times another), mean
zero, variance exactly 2, written as exact rationals, less the five laws
in ``PLATEAU_LAWS``.  The family has 38 members; they differ in skewness,
kurtosis and killed mass.

Why the cost of a sweep must not depend on the seed, and what it depends
on: the support fixes the dense row width and the per-step numpy work,
and the float rows also carry a band of subnormal values in their far
tail, whose arithmetic is much slower than normal floats.  For most laws
that band stays narrow (at k = 16384: 154-165 cells over this family).
For some laws rounding in the subnormal range leaves a plateau of
equal tiny values (about 2e-323) that never underflows to zero and keeps
widening as k grows: at k = 16384 the rows of (2, 3, 1, 3, 2)/11
hold about 2840 subnormal cells and a sweep takes far longer.  Those laws
are excluded so that the seed does not decide the cost; the effect is a
property of the float oracle, documented in perfbench/README.md.  An
earlier draft with weights up to 15 hit a worse case,
(6, 5, 2, 15, 1)/29, about 10.7k subnormal cells and 3x the
``constants --kmax 16384`` time.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from functools import reduce
from pathlib import Path

SUPPORT = (-2, -1, 0, 1, 2)
MAX_WEIGHT = 6
VARIANCE = Fraction(2)
# weight vectors whose rows grow a subnormal plateau; subnormal cells at
# k = 4096 / 8192 / 12288 / 16384 measured with the strict barrier
PLATEAU_LAWS = {
    (2, 3, 1, 3, 2),  # 114 / 739 / 1702 / 2837
    (3, 5, 1, 5, 3),  # 113 / 737 / 1699 / 2835
    (4, 1, 5, 3, 3),  # 114 / 742 / 1707 / 2843
    (5, 2, 6, 4, 4),  # 114 / 742 / 1706 / 2842
    (4, 1, 3, 5, 2),  # 74 / 109 / 135 / 247, growing past the rest
}


def family() -> list[tuple[int, ...]]:
    """All weight vectors of the family, in a fixed order."""
    out = []
    for w in itertools.product(range(1, MAX_WEIGHT + 1), repeat=len(SUPPORT)):
        if reduce(math.gcd, w) != 1:
            continue  # a multiple of a smaller vector is the same law
        if sum(x * wi for x, wi in zip(SUPPORT, w)) != 0:
            continue
        if (Fraction(sum(x * x * wi for x, wi in zip(SUPPORT, w)), sum(w)) == VARIANCE
                and w not in PLATEAU_LAWS):
            out.append(w)
    return out


def seed_walk(seed: int) -> dict:
    """The dist-file dict {"support": [...], "probs": ["a/b", ...]} for ``seed``."""
    weights = random.Random(seed).choice(family())
    total = sum(weights)
    probs = [Fraction(w, total) for w in weights]
    return {"support": list(SUPPORT), "probs": [f"{p.numerator}/{p.denominator}" for p in probs]}


def write_seed_walk(seed: int, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(seed_walk(seed)) + "\n", encoding="utf-8")
    return path
