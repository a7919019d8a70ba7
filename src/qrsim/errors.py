"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Raised when caller-supplied input violates a documented precondition."""


class OverlappingSystemsError(ValidationError):
    """Raised when an operation requiring pairwise-disjoint systems gets overlap.

    Overlapping queries are still expressible through ``formal_joint``, which
    evaluates the projector product without a probability interpretation.
    """


class NumericalInvariantError(RuntimeError):
    """Raised when an internally computed quantity breaks a numerical invariant.

    These indicate a bug or numerically hostile input, never ordinary misuse;
    the command-line layer maps them to a dedicated exit code.
    """
