"""Exception hierarchy for pwlcycles."""


class PwlError(Exception):
    """Base class for all pwlcycles errors."""


class DegenerateLinearPart(PwlError):
    """A zone matrix is singular where an inverse is required."""


class NotTraceFree(PwlError):
    """A zone matrix cannot be a linear center (nonzero trace)."""


class SwitchingLineNotPreserved(PwlError):
    """The reduction to normal coordinates needs m12 of the left zone nonzero."""


class NonCenterMinus(PwlError):
    """The left zone has no center (nonnegative discriminant)."""


class HypothesisViolation(PwlError):
    """Structural hypothesis needed by the reduction does not hold."""


class BoundaryCase(PwlError):
    """A strict sign condition is inside the numerical margin; refusing to guess."""


class NotSlidingRegion(PwlError):
    """Sliding vector field requested outside the sliding/escaping set."""


class LineOfTangency(PwlError):
    """A zone field is tangent to the switching line identically."""


class NonPositiveAmplitude(PwlError):
    """A first return was requested from a nonpositive starting amplitude."""


class EventStall(PwlError):
    """Event-driven integration cannot make progress."""


class MaxSegmentsExceeded(PwlError):
    """Simulation exceeded the configured segment budget."""


class NoReturn(PwlError):
    """The orbit never returns to the section within the budget."""


class ConstraintViolated(PwlError):
    """Parameter constraint required by the requested operation fails."""


class BoundViolated(PwlError):
    """A proved root-count bound was numerically exceeded (build-failing)."""
