"""Exception types shared across the package."""


class LongmapError(Exception):
    """Base class for all package-specific errors."""


class BadParameter(LongmapError):
    """A numeric parameter is outside its legal range."""


class MixedQuandleError(LongmapError):
    """An operand is not an element of the quandle it is given to."""


class ParseError(LongmapError):
    """Tangle text could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(LongmapError):
    """A structural invariant of a tangle diagram is violated."""


class OutOfInterval(LongmapError):
    """The requested angle lies outside the colorable interval."""


class NoSchedule(LongmapError):
    """The diagram has no bridges, so nothing can be propagated."""


class ResidualTooLarge(LongmapError):
    """A constructed coloring fails its own crossing equations."""


class ArityMismatch(LongmapError):
    """Coloring length does not match the diagram's arc count."""


class NotInLambda(LongmapError):
    """A longitude value is not in the circle group about the basepoint:
    it does not commute with the basepoint, or lies off exp(phi, i)."""


class NotMinusOne(LongmapError):
    """The braid product power q^n is not -1; the coloring is broken."""
