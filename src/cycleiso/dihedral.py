"""The dihedral group of the n-cycle and its partial-permutation restrictions.

Group elements are kept in the normal form ``h^j g^k`` with ``j`` in
{0, 1} and ``0 <= k < n``, where the rotation ``g`` sends i to i + 1
(mod n) and the reflection ``h`` sends i to n - i + 1.  Like partial
permutations, group elements act on the right and words read left to
right, so ``apply(s * t, i) == apply(t, apply(s, i))``.

Text form: ``"g^2"``, ``"h*g^0"``.

The restrictions of these 2n permutations to subsets of 1..n are exactly
the partial isometries of the cycle; ``classify`` reports which of the
studied monoids a partial permutation belongs to and through which group
elements it extends.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import AmbientMismatchError, DomainError, ParseError, _check_cycle, _shown
from .partial_perm import PartialPerm, _set, classify_order, sorted_points
from .geometry import _dist, is_partial_isometry

__all__ = [
    "KINDS",
    "check_kind",
    "DihedralElement",
    "MembershipReport",
    "all_elements",
    "to_partial_perm",
    "extensions",
    "is_in_b2",
    "b2_count",
    "classify",
    "in_kind",
]

# The three submonoids of the partial isometries with closed-form theory:
# order-preserving, monotone, and orientation-preserving.
KINDS = ("odi", "mdi", "opdi")
# the order flag that narrows the isometries to each kind
_KIND_FLAG = {"odi": "order_preserving", "mdi": "monotone", "opdi": "orientation_preserving"}

_DIHEDRAL_TEXT = re.compile(r"(h\*)?g\^(\d+)", re.ASCII)


def check_kind(kind: str, allow_di: bool = False) -> None:
    allowed = KINDS + ("di",) if allow_di else KINDS
    if kind not in allowed:
        raise DomainError(f"unknown kind {_shown(kind)}; expected one of {', '.join(allowed)}")


@dataclass(frozen=True, order=True, slots=True)
class DihedralElement:
    """A symmetry of the n-cycle in the normal form h^j g^k."""

    n: int
    j: int
    k: int

    def __post_init__(self) -> None:
        _check_cycle(self.n)
        if type(self.j) is not int or self.j not in (0, 1):
            raise DomainError(f"reflection flag must be 0 or 1, got {_shown(self.j)}")
        if type(self.k) is not int or not 0 <= self.k < self.n:
            raise DomainError(f"rotation exponent {_shown(self.k)} is outside 0..{self.n - 1}")

    # these reduce k mod n only where % can: the constructor refuses every other n or k
    @classmethod
    def rotation(cls, n: int, k: int) -> "DihedralElement":
        return cls(n, 0, k % n if type(n) is type(k) is int and n > 0 else k)

    @classmethod
    def reflection(cls, n: int, k: int) -> "DihedralElement":
        return cls(n, 1, k % n if type(n) is type(k) is int and n > 0 else k)

    @classmethod
    def identity(cls, n: int) -> "DihedralElement":
        return cls(n, 0, 0)

    @classmethod
    def parse(cls, n: int, text: str) -> "DihedralElement":
        m = _DIHEDRAL_TEXT.fullmatch(text.strip()) if isinstance(text, str) else None
        if m is None:
            raise ParseError(f"not a dihedral element in g^k / h*g^k form: {_shown(text)}")
        try:
            k = int(m.group(2))
        except ValueError:  # the pattern admits only digits, so too many of them
            raise ParseError("the rotation exponent has too many digits to read") from None
        return cls(n, 1 if m.group(1) else 0, k)

    def apply(self, i: int) -> int:
        """Image of a point under the right action.

        >>> DihedralElement.reflection(5, 1).apply(4)
        3
        """
        if type(i) is not int or not 1 <= i <= self.n:
            raise DomainError(f"point {_shown(i)} is outside 1..{self.n}")
        return self._image(i)

    def _image(self, i: int) -> int:  # apply on a checked point; % would be slow on huge n
        if self.j == 0:
            return i + self.k if i <= self.n - self.k else i + self.k - self.n
        return self.k - i + 1 if i <= self.k else self.n + self.k - i + 1

    def __mul__(self, other: "DihedralElement") -> "DihedralElement":
        if not isinstance(other, DihedralElement):
            return NotImplemented
        if other.n != self.n:
            raise AmbientMismatchError(f"cannot multiply n={self.n} with n={other.n}")
        # pushing g^k past a reflection inverts the exponent: g^k h = h g^(-k)
        j = (self.j + other.j) % 2
        k = (other.k + (self.k if other.j == 0 else -self.k)) % self.n
        return _symmetry(self.n, j, k)

    def inverse(self) -> "DihedralElement":
        if self.j == 1:
            return self
        return _symmetry(self.n, 0, (self.n - self.k) % self.n)

    def power(self, m: int) -> "DihedralElement":
        if type(m) is not int:
            raise DomainError(f"power exponent must be an int, got {_shown(m)}")
        if self.j == 0:
            return _symmetry(self.n, 0, (self.k * m) % self.n)
        return self if m % 2 else _symmetry(self.n, 0, 0)

    def __str__(self) -> str:
        return f"h*g^{self.k}" if self.j else f"g^{self.k}"


def _symmetry(n: int, j: int, k: int) -> DihedralElement:
    """Build h^j g^k without the constructor's checks, for symmetries valid by construction."""
    s = object.__new__(DihedralElement)
    _set(s, "n", n)
    _set(s, "j", j)
    _set(s, "k", k)
    return s


def all_elements(n: int):
    """All 2n symmetries, rotations first, in canonical (j, k) order, one at a time; n is
    checked at the call."""
    _check_cycle(n)
    return (_symmetry(n, j, k) for j in (0, 1) for k in range(n))


def to_partial_perm(sigma: DihedralElement, points) -> PartialPerm:
    """Restrict a symmetry to a point set.

    >>> str(to_partial_perm(DihedralElement.rotation(4, 3), [2, 4]))
    'n=4;2>1,4>3'
    """
    return PartialPerm._trusted(
        sigma.n, tuple((a, sigma._image(a)) for a in sorted_points(sigma.n, points))
    )


def extensions(p: PartialPerm) -> tuple[DihedralElement, ...]:
    """All symmetries agreeing with the map on its domain, in canonical order.

    Nonempty exactly when the map is a partial isometry.  The count is 2n
    for the empty map, 2 for rank 1, 2 for rank 2 with antipodal domain
    endpoints, and 1 otherwise.

    A symmetry is fixed by its reflection flag and the image of one point,
    so the first pair a -> b leaves two candidates: the rotation g^(b-a)
    and the reflection h*g^(a+b-1), exponents mod n.  Each is checked on
    the k pairs, so the cost is O(k), not the 2n restrictions of a scan.
    n is checked once; no symmetry is built through the checking constructor.

    >>> [str(s) for s in extensions(PartialPerm.parse("n=5;1>3,2>4,3>5,5>2"))]
    ['g^2']
    """
    if not p.pairs:
        return tuple(all_elements(p.n))
    (a, b), n = p.pairs[0], p.n
    _check_cycle(n)
    candidates = _symmetry(n, 0, (b - a) % n), _symmetry(n, 1, (a + b - 1) % n)
    return tuple(s for s in candidates if all(s._image(x) == y for x, y in p.pairs))


def is_in_b2(p: PartialPerm) -> bool:
    """Whether the map is a rank-2 isometry with antipodal domain endpoints.

    >>> is_in_b2(PartialPerm.parse("n=4;1>2,3>4"))
    True
    """
    if p.n % 2 or p.rank != 2:
        return False
    (a, _), (b, _) = p.pairs
    return _dist(p.n, a, b) == p.n // 2 and is_partial_isometry(p)


def b2_count(n: int) -> int:
    """Number of rank-2 isometries with antipodal domain endpoints: n^2/2."""
    _check_cycle(n)
    return n * n // 2 if n % 2 == 0 else 0


@dataclass(frozen=True)
class MembershipReport:
    """Membership of one partial permutation in the four studied monoids."""

    in_di: bool
    in_odi: bool
    in_mdi: bool
    in_opdi: bool
    extensions: tuple[DihedralElement, ...]


def classify(p: PartialPerm) -> MembershipReport:
    """Membership report: the map is an isometry exactly when it has a
    dihedral extension, and the order flags narrow that down to the
    submonoids."""
    exts = extensions(p)
    flags = classify_order(p)
    in_di = bool(exts)
    in_kinds = {f"in_{k}": in_di and getattr(flags, flag) for k, flag in _KIND_FLAG.items()}
    return MembershipReport(in_di=in_di, **in_kinds, extensions=exts)


def in_kind(p: PartialPerm, kind: str) -> bool:
    check_kind(kind, allow_di=True)
    return getattr(classify(p), f"in_{kind}")
