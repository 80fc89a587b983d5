"""Geodesic metric of the cycle graph on n >= 3 vertices.

Vertices are 1..n with edges between consecutive integers and between 1
and n, so the distance is ``min(|x - y|, n - |x - y|)``, never more than
``n // 2``.  The extreme value ``n / 2`` occurs only for even n.  Public functions
check their input once; the private ``_dist`` and ``_sequence`` trust theirs.
"""

from __future__ import annotations

from itertools import combinations, repeat

from .errors import DomainError, UndefinedSequenceError, _check_cycle, _shown
from .partial_perm import PartialPerm, sorted_points

__all__ = [
    "distance",
    "distance_sequence",
    "delta",
    "is_partial_isometry",
    "is_partial_isometry_fast",
]


def _dist(n: int, x: int, y: int) -> int:
    d = abs(x - y)
    return n - d if d + d > n else d


def _sequence(n: int, pts) -> tuple[int, ...]:
    """(d(p1,p2), ..., d(pk,p1)): the last pair of ascending points is the extreme one."""
    return tuple(map(_dist, repeat(n), pts, pts[1:] + pts[:1]))


def distance(n: int, x: int, y: int) -> int:
    """Graph distance between two vertices of the n-cycle.

    >>> distance(5, 1, 4)
    2
    >>> distance(6, 1, 4)
    3
    """
    _check_cycle(n)
    for v in (x, y):
        if type(v) is not int or not 1 <= v <= n:
            raise DomainError(f"point {_shown(v)} is outside 1..{_shown(n)}")
    return _dist(n, x, y)


def distance_sequence(n: int, points) -> tuple[int, ...]:
    """Consecutive distances of a point set, plus the extreme-point distance.

    For A = {i1 < ... < ik} this is (d(i1,i2), ..., d(i(k-1),ik), d(i1,ik)).
    All entries are positive and at most n // 2.

    >>> distance_sequence(5, [1, 2, 4])
    (1, 2, 2)
    >>> distance_sequence(4, [1, 3])
    (2, 2)
    """
    _check_cycle(n)
    pts = sorted_points(n, points)
    if len(pts) < 2:
        raise UndefinedSequenceError(
            f"distance sequence needs at least two points, got {len(pts)}"
        )
    return _sequence(n, pts)


def delta(n: int, a_points, b_points) -> PartialPerm:
    """The unique order-preserving bijection from one point set onto another.

    >>> str(delta(4, [1, 2], [1, 4]))
    'n=4;1>1,2>4'
    """
    _check_cycle(n)
    a = sorted_points(n, a_points)
    b = sorted_points(n, b_points)
    if len(a) != len(b):
        raise DomainError(f"size mismatch: {len(a)} points versus {len(b)}")
    return PartialPerm._trusted(n, tuple(zip(a, b)))


def is_partial_isometry(p: PartialPerm) -> bool:
    """Whether the map preserves cycle distance on every pair of its domain.

    Maps of rank at most 1 are isometries vacuously.

    >>> is_partial_isometry(PartialPerm.parse("n=5;1>3,2>4,3>5,5>2"))
    True
    """
    _check_cycle(p.n)
    n = p.n
    return all(_dist(n, a, b) == _dist(n, fa, fb) for (a, fa), (b, fb) in combinations(p.pairs, 2))


def is_partial_isometry_fast(p: PartialPerm) -> bool:
    """Isometry test using only consecutive pairs plus the extreme pair.

    Correct whenever the image sequence is cyclic or anti-cyclic (which
    covers every monotone map); on other inputs it can answer true
    spuriously, so callers must check orientation first.
    """
    _check_cycle(p.n)
    return _sequence(p.n, p.domain) == _sequence(p.n, p.values)
