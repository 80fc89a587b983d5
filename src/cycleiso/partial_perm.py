"""Partial permutations of {1, ..., n} with right-action composition.

A partial permutation is an injective map from a subset of {1, ..., n}
into {1, ..., n}.  An element is its ambient size ``n`` plus the tuple of
(point, image) pairs sorted by point, so equal maps hash equal and the
tuple ordering doubles as the canonical sort.

Maps act on the right and compose left to right: ``x`` under ``a * b`` is
``(x a) b``, defined when ``x a`` lands in the domain of ``b``.

Text form lists pairs in ascending point order; the empty map on five
points is ``"n=5;"``.

>>> a = PartialPerm.parse("n=5;2>1,4>3,5>4")
>>> a.domain, a.image
((2, 4, 5), (1, 3, 4))
>>> str(a.inverse())
'n=5;1>2,3>4,4>5'
>>> str(a * a.inverse())
'n=5;2>2,4>4,5>5'
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import gt, itemgetter, methodcaller

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


def sorted_points(n: int, points) -> tuple[int, ...]:
    """Validate distinct points of 1..n, n an int in 1..10**4300 - 1; return them sorted."""
    _check_size(n)
    pts = tuple(points)
    for p in pts:
        if type(p) is not int or not 1 <= p <= n:
            raise DomainError(f"point {_shown(p)} is outside 1..{_shown(n)}")
    pts = sorted(pts)
    for a, b in zip(pts, pts[1:]):
        if a == b:
            raise DomainError(f"point {a} repeats")
    return tuple(pts)


@dataclass(frozen=True, order=True)
class PartialPerm:
    """An injective partial self-map of {1, ..., n} in canonical form."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        _check_size(self.n)
        if type(self.pairs) is not tuple:
            raise DomainError(f"pairs must be a tuple of 2-tuples, got {_shown(self.pairs)}")
        prev = 0
        seen = set()
        for pair in self.pairs:
            if type(pair) is not tuple or len(pair) != 2:
                raise DomainError(f"pair {_shown(pair)} is not a 2-tuple")
            a, b = pair
            if not (type(a) is type(b) is int and 1 <= a <= self.n and 1 <= b <= self.n):
                raise DomainError(
                    f"pair {_shown(a)}>{_shown(b)} is not a pair of ints in 1..{self.n}"
                )
            if a <= prev:
                raise DomainError("pairs must be strictly ascending in the point")
            if b in seen:
                raise NotInjectiveError(f"image point {b} repeats")
            prev = a
            seen.add(b)

    @classmethod
    def _trusted(cls, n: int, pairs) -> "PartialPerm":
        """Build without validation, for results valid by construction."""
        p = object.__new__(cls)
        p.__dict__.update(n=n, pairs=pairs)
        return p

    @classmethod
    def from_map(cls, n: int, mapping) -> "PartialPerm":
        """Build from a {point: image} mapping or an iterable of pairs."""
        return cls(n, tuple(sorted(dict(mapping).items())))

    @classmethod
    def parse(cls, text: str) -> "PartialPerm":
        """Parse the canonical text form.

        >>> PartialPerm.parse("n=3;").rank
        0
        """
        m = _TEXT.fullmatch(text.strip()) if isinstance(text, str) else None
        if m is None:
            raise ParseError(f"not an element in n=<n>;a>b,... form: {_shown(text)}")
        try:
            n = int(m.group(1))
            pairs = ()
            if m.group(2):
                pairs = tuple(
                    (int(a), int(b))
                    for a, b in (item.split(">") for item in m.group(2).split(","))
                )
        except ValueError:  # the pattern admits only digits, so too many of them
            raise ParseError("a number in the element text has too many digits to read") from None
        return cls(n, pairs)

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
        return len(self.pairs)

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(a for a, _ in self.pairs)

    @property
    def values(self) -> tuple[int, ...]:
        """Images read along the ascending domain."""
        return tuple(b for _, b in self.pairs)

    @property
    def image(self) -> tuple[int, ...]:
        return tuple(sorted(b for _, b in self.pairs))

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)

    def __mul__(self, other: "PartialPerm") -> "PartialPerm":
        if not isinstance(other, PartialPerm):
            return NotImplemented
        if other.n != self.n:
            raise AmbientMismatchError(f"cannot compose n={self.n} with n={other.n}")
        lookup = dict(other.pairs)
        return PartialPerm._trusted(
            self.n,
            tuple((a, lookup[b]) for a, b in self.pairs if b in lookup),
        )

    def inverse(self) -> "PartialPerm":
        return PartialPerm._trusted(self.n, tuple(sorted((b, a) for a, b in self.pairs)))

    def restrict(self, points) -> "PartialPerm":
        """Restrict to the given points; points outside the domain just drop.

        >>> str(PartialPerm.parse("n=4;1>1,2>4,3>3,4>2").restrict([1, 3]))
        'n=4;1>1,3>3'
        """
        keep = set(sorted_points(self.n, points))
        return PartialPerm._trusted(self.n, tuple(p for p in self.pairs if p[0] in keep))

    def __str__(self) -> str:
        return f"n={self.n};" + ",".join(f"{a}>{b}" for a, b in self.pairs)


def _image_array(p: PartialPerm) -> tuple[int, ...]:
    """Entry x is the image of x, 0 where undefined; ``_image_pairs`` reads it back."""
    img = [0] * (p.n + 1)
    for a, b in p.pairs:
        img[a] = b
    return tuple(img)


def _image_pairs(img) -> tuple[tuple[int, int], ...]:
    """The pairs of the map an image array holds: its defined entries."""
    return tuple(filter(itemgetter(1), enumerate(img)))


def _image_bytes(p: PartialPerm) -> bytes:
    """Byte i is the image of point i + 1, 0xFF where undefined (so n <= 254).

    Stripped of trailing 0xFF, maps on one n sort bytewise as their pairs do.  At the
    first point x where a and b differ, say a is defined, with the smaller image if b is
    too.  If b has a pair from x on, a sorts first both ways: its pair at x precedes b's
    next one and its byte is below b's.  If not, b's pairs and bytes are prefixes of a's.
    """
    return bytes(map(dict(p.pairs).get, range(1, p.n + 1), [0xFF] * p.n))


def _byte_table(p: PartialPerm) -> bytes:
    """The table that makes ``_image_bytes(a).translate`` give ``_image_bytes(a * p)``."""
    return b"\xff" + _image_bytes(p).ljust(255, b"\xff")


def _byte_pairs(img: bytes) -> tuple[tuple[int, int], ...]:
    """The pairs of the map a byte image holds: its entries other than 0xFF."""
    return tuple(filter(itemgetter(1), enumerate(img.replace(b"\xff", b"\x00"), 1)))


_BYTES = (_image_bytes, _byte_table, bytes.translate, methodcaller("rstrip", b"\xff"), _byte_pairs)
_ARRAYS = (_image_array, _image_array, lambda img, t: itemgetter(*img)(t), _image_pairs,
           _image_pairs)


def _kernel(n: int):
    """``(encode, table, mul, key, decode)`` on n points: byte images up to n = 254, image
    arrays above.  ``decode(mul(encode(a), table(b)))`` is ``(a * b).pairs``, and ``key`` of
    an encoding sorts as the pairs do."""
    return _BYTES if n <= 254 else _ARRAYS


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
    _check_size(n)
    if type(skip) is not int or not 1 <= skip <= n:
        raise DomainError(f"point {_shown(skip)} is outside 1..{_shown(n)}")
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


def classify_order(p: PartialPerm) -> OrderFlags:
    """Order and orientation behavior of the image sequence.

    The sequence is orientation-preserving when it is cyclic (at most one
    descent, read cyclically) and orientation-reversing when it is
    anti-cyclic (at most one ascent).

    >>> classify_order(PartialPerm.parse("n=5;2>5,3>3,4>2,5>1")).order_reversing
    True
    >>> f = classify_order(PartialPerm.parse("n=5;1>2,3>3,4>4,5>1"))
    >>> (f.order_preserving, f.orientation_preserving)
    (False, True)
    """
    v = p.values
    t = len(v)
    if t <= 1:
        return OrderFlags(True, True, True, True)
    # the values are distinct, so the t - d steps that are not cyclic descents ascend
    d = sum(map(gt, v, v[1:] + v[:1]))
    return OrderFlags(d == 1 and v[-1] > v[0], d == t - 1 and v[-1] < v[0], d <= 1, d >= t - 1)
