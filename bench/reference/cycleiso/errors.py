"""Exception types shared across the package."""


class CycleIsoError(Exception):
    """Base class for every error raised by this package."""


class AmbientMismatchError(CycleIsoError):
    """Operands live on cycles of different sizes."""


class DomainError(CycleIsoError):
    """A point, index, size, or kind token is outside its allowed range."""


class NotInjectiveError(CycleIsoError):
    """A mapping repeats an image point."""


class ParseError(CycleIsoError):
    """Malformed text, JSON, or word input."""


class UndefinedSequenceError(CycleIsoError):
    """A distance sequence was requested for fewer than two points."""


class MembershipError(CycleIsoError):
    """The element does not belong to the monoid the operation needs."""


class NotInverseClosedError(CycleIsoError):
    """Green relation analysis needs an inversion-closed element set."""


class NotGeneratingError(CycleIsoError):
    """The claimed generating set does not generate the monoid."""
