#!/usr/bin/env python3
"""Sweep expansion orders against the exact oracle and print a decay table.

For each walk/barrier pair, computes E_r(n) = max |exact - series| over the
normal-deviation window x in [0.2, 3] sigma sqrt(n) and reports the
empirical decay exponent between consecutive horizons.  The exponent should
track the order-r error power, whose one home is ``ExpansionSet.error_power``:
(r + 2)/2, or 2 at r = 1 where P_3 vanishes.

Usage: python scripts/accuracy_study.py [--kmax 4096] [--nmax 1600]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from poswalk import increments  # noqa: E402
from poswalk.expansion import (constants_for_order, error_ladder, expansion_polys,  # noqa: E402
                               horizons, window)

WALKS = {
    "lazy-simple": ([-1, 0, 1], ["3/10", "2/5", "3/10"]),
    "skewed": ([-1, 0, 2], ["2/5", "2/5", "1/5"]),
    "deep-down": ([-2, -1, 1], ["1/5", "1/5", "3/5"]),
}


def study(name, dist, barrier, rs, ns, kmax):
    # one sweep to max(kmax, ns) feeds both the constant fits and the rows
    cs, rows = constants_for_order(dist, max(rs), kmax, barrier, rows_at=ns)
    for r in rs:
        ladder = error_ladder(expansion_polys(dist, r, cs), rows, window)
        err_str = "  ".join(f"{e:.2e}" for e in ladder.max_err.values())
        exp_str = "  ".join(f"{e:.3f}" for e in ladder.decay.values())
        print(f"{name:12s} {barrier:6s} r={r}:  E(n) = {err_str}   exponents {exp_str}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kmax", type=int, default=4096)
    ap.add_argument("--nmax", type=int, default=1600)
    args = ap.parse_args()
    ns = horizons(args.nmax)
    if len(ns) < 2:  # an exponent compares two horizons
        ap.error("--nmax must be at least 400")
    print(f"# horizons {ns}, constants fitted to kmax={args.kmax}")
    for name, (sup, probs) in WALKS.items():
        dist = increments.validate(sup, probs)
        for barrier in ("strict", "weak"):
            study(name, dist, barrier, (1, 2, 3), ns, args.kmax)


if __name__ == "__main__":
    main()
