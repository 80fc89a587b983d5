"""Named generating sets and words over them.

Generator names are single letters with optional inline indices:

  g, h      the full rotation and reflection
  x, y      the rotation and its inverse cut to rank n - 1
            (x moves i to i + 1 on 1..n-1, y moves it back)
  e2, e3    partial identities missing one point
  x1, y1    the rank-2 straddling maps x_i = (1 -> 1, 1+i -> n-i+1)
            and their inverses, for 1 <= i <= (n - 1) // 2

A word is a tuple of names, evaluated left to right starting from the
identity; the empty word prints as "ε".
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .errors import DomainError, ParseError, _check_cycle, _shown
from .partial_perm import PartialPerm, _kernel, identity, identity_off
from .dihedral import DihedralElement, check_kind, to_partial_perm

__all__ = [
    "EMPTY_WORD_TEXT",
    "GeneratorSet",
    "generator",
    "standard_generators",
    "parse_word",
    "word_text",
]

EMPTY_WORD_TEXT = "ε"

_NAME = re.compile(r"[ghxy]|[exy][1-9]\d*", re.ASCII)


def generator(n: int, name: str) -> PartialPerm:
    """The element a generator name denotes on the n-cycle, n an int in 3..10**4300 - 1."""
    if not isinstance(name, str) or not _NAME.fullmatch(name):
        raise ParseError(f"bad generator name {_shown(name)}")
    _check_cycle(n)
    if name == "g":
        return to_partial_perm(DihedralElement.rotation(n, 1), range(1, n + 1))
    if name == "h":
        return to_partial_perm(DihedralElement.reflection(n, 0), range(1, n + 1))
    if name == "x":
        return to_partial_perm(DihedralElement.rotation(n, 1), range(1, n))
    if name == "y":
        return generator(n, "x").inverse()
    try:
        index = int(name[1:])
    except ValueError:  # the pattern admits only digits, so too many of them
        raise ParseError("the generator index has too many digits to read") from None
    if name[0] == "e":
        return identity_off(n, index)
    if not 1 <= index <= (n - 1) // 2:
        raise DomainError(f"straddle index {index} is outside 1..{(n - 1) // 2} for n={n}")
    straddle = PartialPerm(n, ((1, 1), (1 + index, n - index + 1)))
    return straddle if name[0] == "x" else straddle.inverse()


@dataclass(frozen=True)
class GeneratorSet:
    """Generator names on one cycle; letter i is ``generator(n, names[i])``, built with the set."""

    kind: str
    n: int
    names: tuple[str, ...]
    elements: tuple[PartialPerm, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        check_kind(self.kind, allow_di=True)
        _check_cycle(self.n)
        if type(self.names) is not tuple:
            raise DomainError(f"names must be a tuple, got {_shown(self.names)}")
        object.__setattr__(self, "elements", tuple(generator(self.n, a) for a in self.names))
        if len(set(self.names)) < len(self.names):  # every name is text by now
            raise ParseError(f"repeated generator name in {_shown(self.names)}")

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(zip(self.names, self.elements))

    def element(self, name: str) -> PartialPerm:
        try:
            return self.elements[self.names.index(name)]
        except ValueError:
            raise self._not_in_set(name) from None

    def _not_in_set(self, name) -> ParseError:
        return ParseError(f"name {_shown(name)} is not in the {self.kind} generating set")

    @cached_property
    def _images(self) -> dict:
        table = _kernel(self.n)[2]
        return {name: table(p._code) for name, p in self}

    @cached_property
    def _identity_code(self):  # every word starts here; codes are immutable, so one serves all
        return identity(self.n)._code

    def evaluate(self, word) -> PartialPerm:
        """Compose the named generators left to right.

        ``word`` is a sequence of names; text goes through ``parse_word``
        first, since a string would read as one name per letter.
        """
        if isinstance(word, str) or not isinstance(word, Iterable):
            raise ParseError(
                f"a word is a sequence of generator names, got {_shown(word)}; "
                "read text with parse_word"
            )
        mul, strip, _, _ = _kernel(self.n)
        code = self._identity_code
        images = self._images
        for name in word:
            try:
                step = images[name]
            except (KeyError, TypeError):  # an unknown or unhashable name
                raise self._not_in_set(name) from None
            code = mul(code, step)
        return PartialPerm._wrap(self.n, strip(code))


def standard_generators(kind: str, n: int) -> GeneratorSet:
    """The reference generating set of each monoid.

    The order-preserving monoid takes x, y, the interior partial
    identities, and all straddling pairs; the monotone one swaps y and
    half the partial identities for the reflection; the orientation-
    preserving one needs only the rotation, one partial identity, and the
    straddles.  For n = 3 the same construction applies but is larger
    than the true rank.  The set is these names; each letter is
    ``generator(n, name)``.  Each (kind, n) set is built once and shared,
    which is safe because sets and their elements are immutable.
    """
    check_kind(kind, allow_di=True)
    _check_cycle(n)
    return _standard_set(kind, n)


@lru_cache(maxsize=64)  # after validation, so bad arguments never get hashed
def _standard_set(kind: str, n: int) -> GeneratorSet:
    if kind == "di":
        return GeneratorSet(kind, n, ("g", "h", f"e{n}"))
    m = (n - 1) // 2
    straddles = [f"{c}{i}" for c in ("x" if kind == "opdi" else "xy") for i in range(1, m + 1)]
    if kind == "odi":
        names = ["x", "y", *(f"e{i}" for i in range(2, n)), *straddles]
    elif kind == "mdi":
        names = ["h", "x", *(f"e{i}" for i in range(2, (n + 1) // 2 + 1)), *straddles]
    else:
        names = ["g", f"e{n}", *straddles]
    return GeneratorSet(kind, n, tuple(names))


def parse_word(text: str) -> tuple[str, ...]:
    """Inverse of ``word_text``.

    >>> parse_word("y x1 x x")
    ('y', 'x1', 'x', 'x')
    >>> parse_word("ε")
    ()
    """
    if not isinstance(text, str):
        raise ParseError(f"a word is text, got {_shown(text)}")
    stripped = text.strip()
    if stripped in ("", EMPTY_WORD_TEXT):
        return ()
    names = tuple(stripped.split())
    for name in names:
        if not _NAME.fullmatch(name):
            raise ParseError(f"bad generator name {name!r} in word {text!r}")
    return names


def word_text(word) -> str:
    """Space-separated names; the empty word prints as the empty-word sign."""
    return " ".join(word) if word else EMPTY_WORD_TEXT
