"""Exception hierarchy shared by all quadareas modules."""


class QuadAreasError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(QuadAreasError, ValueError):
    """Malformed or out-of-contract input (bad literal, wrong length, non-positive ratio)."""


class InconsistentQuadError(QuadAreasError):
    """A quadrilateral whose side lines meet inside a divided side; cannot occur for valid input."""


class NoValidContinuationError(QuadAreasError):
    """No positive next ratio keeps the discriminant chain at zero."""


class DegenerateDenominatorError(QuadAreasError):
    """The first two ratio columns are proportional, so the extension formula divides by zero."""


class InvalidPivotError(QuadAreasError):
    """The requested fold pivot has a zero discriminant or is out of range."""


class DegenerateCollapseError(QuadAreasError):
    """The folded three-coordinate instance is planar, so the fold is not injective."""


class NotAttainableError(QuadAreasError):
    """Witness construction refused because the area tuple is not attainable."""

    def __init__(self, reason: str):
        super().__init__(f"not attainable: {reason}")
        self.reason = reason


class InternalError(QuadAreasError):
    """An internal invariant failed: a defect in this package, never a property of the input."""


def invariant(condition: bool, message: str) -> None:
    """Raise InternalError unless condition holds; unlike assert, kept under python -O."""
    if not condition:
        raise InternalError(message)
