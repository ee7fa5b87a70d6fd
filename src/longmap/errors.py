"""Exception types shared across the package."""


class LongmapError(Exception):
    """Base class for all package-specific errors."""


class BadParameter(LongmapError):
    """A numeric parameter is outside its legal range."""


class MixedQuandleError(LongmapError):
    """Operands belong to different quandle instances."""


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
    """The diagram carries no propagation schedule."""


class ResidualTooLarge(LongmapError):
    """A constructed coloring fails its own crossing equations."""


class ArityMismatch(LongmapError):
    """Coloring length does not match the diagram's arc count."""


class NotInLambda(LongmapError):
    """A longitude value does not commute with the basepoint."""


class NotMinusOne(LongmapError):
    """The braid product power q^n is not -1; the coloring is broken."""
