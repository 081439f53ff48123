"""A fixed load that measures how fast the machine is right now.

    python3 perfbench/reference.py

The benchmark times this script in a fresh interpreter, interleaved with
the workload's commands, and scales the workload's timings by how much
slower than ``run.REFERENCE_S`` it ran (see ``run.speed_factor``).  It
does the kinds of work a ``poswalk`` command does: interpreter start, importing the same third-party packages
(the bulk of ``import poswalk.cli``), a numpy sweep over growing rows like
the float DP oracle's, and pure-Python rational arithmetic.  It imports
nothing from ``src/``, so a change to the program cannot change it; its
cost depends only on the interpreter, the installed packages and the
machine.
"""

from fractions import Fraction

import click  # noqa: F401
import numpy as np
import scipy.integrate  # noqa: F401

# a killed walk with steps -1, 0, +1: the oracle's row update, one shifted
# add per support point, the killed cell zeroed
law = (0.25, 0.5, 0.25)
row = np.array([1.0])
for k in range(6000):
    new = np.zeros(row.size + 2)
    for j, p in enumerate(law):
        new[j:j + row.size] += p * row
    new[0] = 0.0
    row = new
assert 0.0 < row.sum() < 1.0

x = Fraction(0)
for i in range(1, 6000):
    x += Fraction(1, i * (i + 1))
assert x == Fraction(5999, 6000)
