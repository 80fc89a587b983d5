"""Geodesic metric of the cycle graph on n >= 3 vertices.

Vertices are 1..n with edges between consecutive integers and between 1
and n, so the distance is ``min(|x - y|, n - |x - y|)``, never more than
``n // 2``.  The extreme value ``n / 2`` occurs only for even n.
"""

from __future__ import annotations

from .errors import DomainError, UndefinedSequenceError, _check_cycle, _shown
from .partial_perm import PartialPerm, sorted_points

__all__ = [
    "distance",
    "distance_sequence",
    "delta",
    "is_partial_isometry",
    "is_partial_isometry_fast",
]


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
    return min(abs(x - y), n - abs(x - y))


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
    seq = [distance(n, a, b) for a, b in zip(pts, pts[1:])]
    seq.append(distance(n, pts[0], pts[-1]))
    return tuple(seq)


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
    pairs = p.pairs
    for s in range(len(pairs)):
        a, fa = pairs[s]
        for t in range(s + 1, len(pairs)):
            b, fb = pairs[t]
            if distance(p.n, a, b) != distance(p.n, fa, fb):
                return False
    return True


def is_partial_isometry_fast(p: PartialPerm) -> bool:
    """Isometry test using only consecutive pairs plus the extreme pair.

    Correct whenever the image sequence is cyclic or anti-cyclic (which
    covers every monotone map); on other inputs it can answer true
    spuriously, so callers must check orientation first.
    """
    _check_cycle(p.n)
    if p.rank <= 1:
        return True
    dom = p.domain
    val = p.values
    if distance(p.n, dom[0], dom[-1]) != distance(p.n, val[0], val[-1]):
        return False
    return all(
        distance(p.n, dom[i], dom[i + 1]) == distance(p.n, val[i], val[i + 1])
        for i in range(len(dom) - 1)
    )
