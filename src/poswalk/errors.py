"""Exception hierarchy shared across the package."""


class PoswalkError(Exception):
    """Base class for all package errors."""


class InputError(PoswalkError):
    """Invalid user input (distribution files, CLI arguments)."""


class SumNotOne(InputError):
    """Probabilities do not sum to one."""


class MeanNotZero(InputError):
    """Increment distribution is not centered."""


class SpanNotOne(InputError):
    """gcd of support differences is not 1."""


class EmptySide(InputError):
    """Support has no negative or no positive point."""


class HorizonTooLarge(PoswalkError):
    """Requested horizon exceeds the cap for exact-rational tables."""


class DegenerateConditioning(PoswalkError):
    """Conditioning event has probability zero."""


class IllConditioned(PoswalkError):
    """Least-squares design matrix exceeds the condition-number guard."""


class InsufficientPoints(PoswalkError):
    """Fit window holds fewer points than the model needs."""


class CancellationFailure(PoswalkError):
    """Negative Laurent exponents survived polynomial assembly."""


class MissingOrder(PoswalkError):
    """Expansion order too small for the requested derived quantity."""


class QuadratureNonconvergence(PoswalkError):
    """Adaptive quadrature failed to reach its target accuracy."""
