"""Exception hierarchy shared across the package.

The two families map to the CLI's exit codes: ``InputError`` to 2 (the
request cannot be run as given) and ``NumericFailure`` to 3 (a numeric
guard tripped on a valid request).
"""


class PoswalkError(Exception):
    """Base class for all package errors."""


class InputError(PoswalkError):
    """Invalid user input: distribution files, CLI arguments, horizons, orders."""


class NumericFailure(PoswalkError):
    """A numeric guard tripped: fit windows, cancellation, quadrature."""


class IllConditioned(NumericFailure):
    """Least-squares design matrix exceeds the condition-number guard."""


class InsufficientPoints(NumericFailure):
    """Fit window holds fewer points than the model needs."""


class CancellationFailure(NumericFailure):
    """Negative Laurent exponents survived polynomial assembly."""
