"""Expansion polynomials for local probabilities of integer walks staying positive."""

__version__ = "0.1.0"
