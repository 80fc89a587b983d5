"""Partial permutations of {1, ..., n} with right-action composition.

A partial permutation is an injective map from a subset of {1, ..., n}
into {1, ..., n}.  An element holds its ambient size ``n`` and a code of
the map, which equality, hashing, order, composition and every view read:
the code is all the map holds.  Up to n = 254 it is bytes: byte x - 1 is
the image of point x, 0xFF marks no image, and trailing 0xFF are stripped;
``pairs``, ``domain`` and the text are decoded from it on each read.
Above, it is the (point, image) pairs themselves, so a map on any cycle
costs what its pairs cost.  ``classify_order`` and, for a nonempty map,
``dihedral.extensions`` keep their answers on the element too, and
``parse`` keeps the canonical text it read, which ``str`` hands back; every
other map prints from its code.  Equality, hashing, order, repr and
pickling never read those three slots.

Codes sort as their pairs do, so ``(n, code)`` is the canonical order.
For bytes: at the first point x where maps a and b differ, say a is
defined, with the smaller image if b is too.  If b has a pair from x on, a
sorts first both ways: its pair at x precedes b's next one and its byte is
below b's.  If not, b's pairs and stripped bytes are prefixes of a's.

Maps act on the right and compose left to right: ``x`` under ``a * b`` is
``(x a) b``, defined when ``x a`` lands in the domain of ``b``.  Text form
lists pairs in ascending point order; the empty map on five points is
``"n=5;"``.

>>> a = PartialPerm.parse("n=5;2>1,4>3,5>4")
>>> a.domain, a.image
((2, 4, 5), (1, 3, 4))
>>> str(a.inverse())
'n=5;1>2,3>4,4>5'
>>> str(a * a.inverse())
'n=5;2>2,4>4,5>5'
"""

from __future__ import annotations

import io
import re
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import compress, count, product
from operator import getitem, gt, itemgetter, lt, methodcaller

from .errors import (
    AmbientMismatchError,
    DomainError,
    NotInjectiveError,
    ParseError,
    _check_size,
    _shown,
)

__all__ = [
    "PartialPerm",
    "OrderFlags",
    "classify_order",
    "identity",
    "identity_on",
    "identity_off",
    "empty_map",
    "sorted_points",
]


_TEXT = re.compile(
    r"n=([1-9]\d*);((?:[1-9]\d*>[1-9]\d*)(?:,[1-9]\d*>[1-9]\d*)*)?", re.ASCII
)
_MAX_BYTE_N = 254  # images 1..n leave the byte 0xFF free to mark a point without one
_DEFINED = b"\xff" * 255 + b"\0"  # a byte code to its mask: 0xFF where a point has an image
_set = object.__setattr__


def _iterated(value, what: str) -> tuple:
    """``tuple(value)``; a value that is not iterable is refused by ``what`` it stands for."""
    try:
        items = iter(value)
    except TypeError:
        raise DomainError(f"{what} must be iterable, got {_shown(value)}") from None
    return tuple(items)


def sorted_points(n: int, points) -> tuple[int, ...]:
    """Validate distinct points of 1..n, n an int in 1..10**4300 - 1; return them sorted."""
    _check_size(n)
    pts = _iterated(points, "points")
    for p in pts:
        if type(p) is not int or not 1 <= p <= n:
            raise DomainError(f"point {_shown(p)} is outside 1..{_shown(n)}")
    pts = sorted(pts)
    for a, b in zip(pts, pts[1:]):
        if a == b:
            raise DomainError(f"point {a} repeats")
    return tuple(pts)


# (mul, strip, table, decode) for byte codes and for pair codes: strip(mul(a._code,
# table(b._code))) is the code of a * b, and decode gives the pairs.  mul keeps a byte
# code's length, so products of full-length codes are equal exactly when the maps are.
_KERNELS = (
    (bytes.translate, methodcaller("rstrip", b"\xff"),
     lambda code: b"\xff" + code.ljust(255, b"\xff"),
     lambda code: tuple(filter(itemgetter(1), enumerate(code.replace(b"\xff", b"\0"), 1)))),
    (lambda code, t: tuple((x, t[y]) for x, y in code if y in t), lambda code: code, dict,
     lambda code: code),
)


def _kernel(n: int):
    """The ``_KERNELS`` entry for the codes of maps on n points."""
    return _KERNELS[n > _MAX_BYTE_N]


def _byte_code(last: int, pairs) -> bytes:
    """The byte code of ascending (point, image) pairs whose last point is ``last``."""
    buf = bytearray(b"\xff") * last
    for a, b in pairs:
        buf[a - 1] = b
    return bytes(buf)


def _padded(n: int, code):
    """``code`` at the length that products of full-length codes keep: bytes padded to n."""
    return code.ljust(n, b"\xff") if n <= _MAX_BYTE_N else code


@dataclass(frozen=True, init=False, repr=False, order=True)
class PartialPerm:
    """An injective partial self-map of {1, ..., n} in canonical form, built from ``n``
    and the tuple of (point, image) pairs sorted by point."""

    __slots__ = ("n", "_code", "_flags", "_exts", "_text")
    __match_args__ = ("n", "pairs")
    n: int
    _code: bytes | tuple

    def __new__(cls, n: int, pairs: tuple[tuple[int, int], ...]) -> "PartialPerm":
        _check_size(n)
        if type(pairs) is not tuple:
            raise DomainError(f"pairs must be a tuple of 2-tuples, got {_shown(pairs)}")
        prev = 0
        seen = set()
        for pair in pairs:
            if type(pair) is not tuple or len(pair) != 2:
                raise DomainError(f"pair {_shown(pair)} is not a 2-tuple")
            a, b = pair
            if not (type(a) is type(b) is int and 1 <= a <= n and 1 <= b <= n):
                raise DomainError(f"pair {_shown(a)}>{_shown(b)} is not a pair of ints in 1..{n}")
            if a <= prev:
                raise DomainError("pairs must be strictly ascending in the point")
            if b in seen:
                raise NotInjectiveError(f"image point {b} repeats")
            prev = a
            seen.add(b)
        return cls._trusted(n, pairs)

    @classmethod
    def _wrap(cls, n: int, code) -> "PartialPerm":
        """Build from a code, for results valid by construction."""
        p = object.__new__(cls)
        _set(p, "n", n)
        _set(p, "_code", code)
        return p

    @classmethod
    def _trusted(cls, n: int, pairs) -> "PartialPerm":
        """Build from canonical pairs without validation, for results valid by construction."""
        code = pairs if n > _MAX_BYTE_N else _byte_code(pairs[-1][0] if pairs else 0, pairs)
        return cls._wrap(n, code)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return _kernel(self.n)[3](self._code)

    def __reduce__(self):
        return PartialPerm, (self.n, self.pairs)

    def __repr__(self) -> str:
        return f"PartialPerm(n={self.n!r}, pairs={self.pairs!r})"

    @classmethod
    def from_map(cls, n: int, mapping) -> "PartialPerm":
        """Build from a {point: image} mapping or an iterable of pairs, each point once."""
        items = mapping.items() if isinstance(mapping, Mapping) else _iterated(mapping, "mapping")
        pairs = []
        for item in items:
            try:
                a, b = item
            except (TypeError, ValueError):
                raise DomainError(f"{_shown(item)} is not a (point, image) pair") from None
            pairs.append((a, b))
        points = sorted_points(n, [a for a, _ in pairs])  # no repeated or unhashable point
        image = dict(pairs)
        return cls(n, tuple((a, image[a]) for a in points))

    @classmethod
    def parse(cls, text: str) -> "PartialPerm":
        """Parse the canonical text form.  A valid text on n <= 254 fills the byte code
        straight from its numbers; any other goes through the checking constructor.

        >>> PartialPerm.parse("n=3;").rank
        0
        """
        m = _TEXT.fullmatch(text.strip()) if isinstance(text, str) else None
        if m is None:
            raise ParseError(f"not an element in n=<n>;a>b,... form: {_shown(text)}")
        try:
            n = int(m.group(1))
            nums = list(map(int, m.group(2).replace(">", ",").split(","))) if m.group(2) else []
        except ValueError:  # the pattern admits only digits, so too many of them
            raise ParseError("a number in the element text has too many digits to read") from None
        points, images = nums[::2], nums[1::2]
        # the pattern admits only numbers >= 1, so these pass just when the constructor's do
        if n <= _MAX_BYTE_N and (not nums or points[-1] <= n and max(images) <= n
                                 and all(map(lt, points, points[1:]))
                                 and len(set(images)) == len(images)):
            p = cls._wrap(n, _byte_code(points[-1] if nums else 0, zip(points, images)))
        else:
            p = cls(n, tuple(zip(points, images)))
        _set(p, "_text", m.string)  # the stripped text, canonical once accepted
        return p

    def to_json(self) -> dict:
        return {"n": self.n, "map": [[a, b] for a, b in self.pairs]}

    @classmethod
    def from_json(cls, obj) -> "PartialPerm":
        if (
            not isinstance(obj, dict)
            or type(obj.get("n")) is not int
            or not isinstance(obj.get("map"), list)
        ):
            raise ParseError(f"expected {{'n': int, 'map': [[a, b], ...]}}, got {_shown(obj)}")
        pairs = []
        for item in obj["map"]:
            if (
                not isinstance(item, list)
                or len(item) != 2
                or not all(type(v) is int for v in item)
            ):
                raise ParseError(f"bad map entry {_shown(item)}")
            pairs.append((item[0], item[1]))
        return cls(obj["n"], tuple(pairs))

    @property
    def rank(self) -> int:
        """Number of points the map is defined on (= size of the image)."""
        return len(self._code) - (self._code.count(0xFF) if self.n <= _MAX_BYTE_N else 0)

    @property
    def domain(self) -> tuple[int, ...]:
        if self.n <= _MAX_BYTE_N:
            return tuple(compress(count(1), self._code.translate(_DEFINED)))
        return tuple(a for a, _ in self._code)

    @property
    def values(self) -> tuple[int, ...]:
        """Images read along the ascending domain."""
        if self.n <= _MAX_BYTE_N:
            return tuple(self._code.replace(b"\xff", b""))
        return tuple(b for _, b in self._code)

    @property
    def image(self) -> tuple[int, ...]:
        return tuple(sorted(self.values))

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)

    def __mul__(self, other: "PartialPerm") -> "PartialPerm":
        if not isinstance(other, PartialPerm):
            return NotImplemented
        if other.n != self.n:
            raise AmbientMismatchError(f"cannot compose n={self.n} with n={other.n}")
        mul, strip, table, _ = _kernel(self.n)
        return PartialPerm._wrap(self.n, strip(mul(self._code, table(other._code))))

    def inverse(self) -> "PartialPerm":
        if self.n > _MAX_BYTE_N:
            return PartialPerm._trusted(self.n, tuple(sorted((b, a) for a, b in self.pairs)))
        inv = bytearray(b"\xff") * self.n  # byte y - 1 is the point that y is the image of
        for x, y in enumerate(self._code, 1):
            if y != 0xFF:
                inv[y - 1] = x
        return PartialPerm._wrap(self.n, bytes(inv).rstrip(b"\xff"))

    def restrict(self, points) -> "PartialPerm":
        """Restrict to the given points; points outside the domain just drop.

        >>> str(PartialPerm.parse("n=4;1>1,2>4,3>3,4>2").restrict([1, 3]))
        'n=4;1>1,3>3'
        """
        keep = set(sorted_points(self.n, points))
        return PartialPerm._trusted(self.n, tuple(p for p in self.pairs if p[0] in keep))

    def __str__(self) -> str:
        text = getattr(self, "_text", None)
        if text is not None:
            return text
        if self.n > _MAX_BYTE_N:
            return f"n={self.n};" + ",".join([f"{a}>{b}" for a, b in self._code])
        pairs = [f"{a}>{b}" for a, b in enumerate(self._code, 1) if b != 0xFF]
        return f"n={self.n};" + ",".join(pairs)


def _render(n: int, codes, cell: str, head: str, tail: str) -> bytes:
    """One line per code of a map on n points: ``head``, its pairs as ``cell`` texts joined
    by commas, then ``tail``, as ASCII.  Byte codes read through one table per point of
    each image's cell, so no code is decoded."""
    if n > _MAX_BYTE_N:
        pairs = (",".join(cell.format(*pair) for pair in code) for code in codes)
        return "".join(head + text + tail for text in pairs).encode()
    cells = [[f",{cell.format(x, y)}".encode() for y in range(n + 1)] + [b""] * (255 - n)
             for x in range(1, n + 1)]
    head, tail, out = head.encode(), tail.encode(), io.BytesIO()
    out.writelines(head + b"".join(map(getitem, cells, code))[1:] + tail for code in codes)
    return out.getvalue()


def identity(n: int) -> PartialPerm:
    """The identity on all of 1..n."""
    _check_size(n)
    return PartialPerm._trusted(n, tuple((i, i) for i in range(1, n + 1)))


def identity_on(n: int, points) -> PartialPerm:
    """The partial identity defined exactly on the given points."""
    return PartialPerm._trusted(n, tuple((p, p) for p in sorted_points(n, points)))


def identity_off(n: int, skip: int) -> PartialPerm:
    """The partial identity on everything except one point.

    >>> str(identity_off(4, 2))
    'n=4;1>1,3>3,4>4'
    """
    sorted_points(n, [skip])  # checks n and the point
    return PartialPerm._trusted(n, tuple((i, i) for i in range(1, n + 1) if i != skip))


def empty_map(n: int) -> PartialPerm:
    """The nowhere-defined map."""
    return PartialPerm(n, ())


@dataclass(frozen=True)
class OrderFlags:
    """How an image sequence behaves along the ascending domain.

    Empty and singleton sequences satisfy all four properties.  A length-2
    sequence is both orientation-preserving and orientation-reversing.
    """

    order_preserving: bool
    order_reversing: bool
    orientation_preserving: bool
    orientation_reversing: bool

    @property
    def monotone(self) -> bool:
        return self.order_preserving or self.order_reversing

    @property
    def oriented(self) -> bool:
        return self.orientation_preserving or self.orientation_reversing


_FLAGS = {flags: OrderFlags(*flags) for flags in product((False, True), repeat=4)}


def classify_order(p: PartialPerm) -> OrderFlags:
    """Order and orientation behavior of the image sequence.

    The sequence is orientation-preserving when it is cyclic (at most one
    descent, read cyclically) and orientation-reversing when it is
    anti-cyclic (at most one ascent).  Equal answers are one shared object,
    one of the 16 flag combinations built at import, which the map keeps.

    >>> classify_order(PartialPerm.parse("n=5;2>5,3>3,4>2,5>1")).order_reversing
    True
    >>> f = classify_order(PartialPerm.parse("n=5;1>2,3>3,4>4,5>1"))
    >>> (f.order_preserving, f.orientation_preserving)
    (False, True)
    """
    flags = getattr(p, "_flags", None)
    if flags is not None:
        return flags
    v = p._code.replace(b"\xff", b"") if p.n <= _MAX_BYTE_N else p.values
    t = len(v)
    if t <= 1:
        flags = _FLAGS[True, True, True, True]
    else:  # the values are distinct, so the t - d steps that are not cyclic descents ascend
        d = sum(map(gt, v, v[1:] + v[:1]))
        flags = _FLAGS[d == 1 and v[-1] > v[0], d == t - 1 and v[-1] < v[0], d <= 1, d >= t - 1]
    _set(p, "_flags", flags)
    return flags
