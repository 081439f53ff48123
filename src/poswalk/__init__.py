"""Expansion polynomials for local probabilities of integer walks staying positive."""

from .constants import ConstantSet, compute_constants
from .edgeworth import LcltExpansion, lclt_coefficients, lclt_evaluate
from .expansion import ExpansionSet, expansion_polys
from .extrapolation import ExtrapolationResult, fit_power_tail
from .increments import IncrementDistribution, cumulants, validate
from .laurent import Poly, gamma_closed, gamma_recursive, q_jlm
from .oracle import (Barrier, KilledWalkTable, Row, TauStatistics, conditioned_interval_prob,
                     free_pmf, killed_table, tau_statistics)

__version__ = "0.1.0"

__all__ = [
    "Barrier",
    "ConstantSet",
    "ExpansionSet",
    "ExtrapolationResult",
    "IncrementDistribution",
    "KilledWalkTable",
    "LcltExpansion",
    "Poly",
    "Row",
    "TauStatistics",
    "compute_constants",
    "conditioned_interval_prob",
    "cumulants",
    "expansion_polys",
    "fit_power_tail",
    "free_pmf",
    "gamma_closed",
    "gamma_recursive",
    "killed_table",
    "lclt_coefficients",
    "lclt_evaluate",
    "q_jlm",
    "tau_statistics",
    "validate",
]
