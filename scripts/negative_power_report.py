#!/usr/bin/env python3
"""Survey which Laurent blocks q_jlm cancel their own negative powers.

The assembled order polynomials must cancel all negative exponents, but an
individual block may or may not.  This script reports the split, plus the
worst assembled residue for a walk with every constant type active --
useful when changing anything in the gamma/weight machinery.

Usage: python scripts/negative_power_report.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from poswalk import increments  # noqa: E402
from poswalk import oracle as oc  # noqa: E402
from poswalk.constants import compute_constants  # noqa: E402
from poswalk.expansion import b_range, expansion_polys, negative_residue  # noqa: E402
from poswalk.laurent import negative_residue_survey  # noqa: E402


def main():
    rep = negative_residue_survey(j_max=5, l_max=5, m_max=8)
    cancelling = [r for r in rep if r.cancels]
    print(f"individual blocks: {len(cancelling)} of {len(rep)} cancel on their own")
    print("non-cancelling examples (j, l, m, min exponent):")
    shown = 0
    for r in rep:
        if not r.cancels and shown < 10:
            print(f"  ({r.j}, {r.l}, {r.m})  min exponent {r.min_exponent}")
            shown += 1

    # a walk with overshoots and skewness exercises every constant type
    dist = increments.validate([-2, -1, 0, 1], ["1/10", "1/5", "3/10", "2/5"])
    cs = compute_constants(oc.tau_statistics(dist, 4096, "strict", hmax=b_range(4)))
    es = expansion_polys(dist, 4, cs)
    print("\nassembled residues (relative to the polynomial scale):")
    for eta in range(2, 6):
        res = negative_residue(eta, es.ahat, cs.b_value, es.sigma)
        print(f"  order {eta}: {res:.3e}")


if __name__ == "__main__":
    main()
