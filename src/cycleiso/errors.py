"""Exception types shared across the package, the size checks every public
entry makes first, and the rendering of offending values in their messages."""

__all__ = [
    "CycleIsoError",
    "AmbientMismatchError",
    "DomainError",
    "NotInjectiveError",
    "ParseError",
    "UndefinedSequenceError",
    "MembershipError",
    "NotInverseClosedError",
    "NotGeneratingError",
]

# int() prints and reads at most 4300 digits, so sizes from here on could
# be neither printed nor parsed back
_SIZE_LIMIT = 10**4300


def _shown(value: object) -> str:
    """``repr(value)`` for an error message, which must not fail itself.

    An int too long for int() to print is named by its bit length and never
    converted to text; any other value whose repr fails that way, such as a
    list holding such an int, is named by its type.
    """
    if isinstance(value, int) and not -_SIZE_LIMIT < value < _SIZE_LIMIT:
        sign = "negative " if value < 0 else ""
        return f"<{sign}int of {value.bit_length()} bits>"
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} holding an int too long to print>"


def _check_size(n: int) -> None:
    """Refuse an ambient size that is not an int in 1..10**4300 - 1."""
    if type(n) is not int or n < 1:
        raise DomainError(f"ambient size must be a positive int, got {_shown(n)}")
    if n >= _SIZE_LIMIT:
        raise DomainError(f"ambient size {_shown(n)} has more than 4300 digits")


def _check_cycle(n: int) -> None:
    """Refuse a cycle size that is not an int in 3..10**4300 - 1."""
    if type(n) is not int or n < 3:
        raise DomainError(f"the cycle graph needs n >= 3, got {_shown(n)}")
    _check_size(n)


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
