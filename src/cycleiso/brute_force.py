"""Brute-force constructions used as independent oracles by the tests.

Everything here goes straight to the definitions: enumerate the whole
symmetric inverse monoid, or restrict every symmetry to every subset, and
filter.  Results are cached per (kind, n) since the test suite and the
acceptance checks revisit them constantly.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

from .errors import _check_size
from .partial_perm import PartialPerm, classify_order
from .dihedral import DihedralElement, all_elements, check_kind, to_partial_perm
from .engine import EnumeratedMonoid

__all__ = [
    "all_partial_perms",
    "dihedral_restrictions",
    "scan_extensions",
    "kind_elements",
    "kind_monoid",
    "random_oriented",
    "orientation_preserving_bijections",
    "order_reversing_bijection",
]


def all_partial_perms(n: int):
    """Every injective partial self-map of 1..n, one at a time; n is checked at the call."""
    _check_size(n)
    points = range(1, n + 1)
    return (PartialPerm(n, tuple(zip(dom, img))) for k in range(n + 1)
            for dom in combinations(points, k) for img in permutations(points, k))


@lru_cache(maxsize=None, typed=True)
def dihedral_restrictions(n: int) -> tuple[PartialPerm, ...]:
    """All partial isometries: every symmetry cut to every subset, deduped."""
    seen = set()
    for sigma in all_elements(n):
        for mask in range(1 << n):
            points = [i + 1 for i in range(n) if mask >> i & 1]
            seen.add(to_partial_perm(sigma, points))
    return tuple(sorted(seen))


def scan_extensions(p: PartialPerm) -> tuple[DihedralElement, ...]:
    """The symmetries extending the map: all 2n restricted and compared."""
    dom = p.domain
    return tuple(sigma for sigma in all_elements(p.n) if to_partial_perm(sigma, dom) == p)


_PREDICATES = {
    "di": lambda flags: True,
    "odi": lambda flags: flags.order_preserving,
    "mdi": lambda flags: flags.monotone,
    "opdi": lambda flags: flags.orientation_preserving,
}


@lru_cache(maxsize=None, typed=True)
def kind_elements(kind: str, n: int) -> tuple[PartialPerm, ...]:
    """The element set of one of the four monoids, from the definition."""
    check_kind(kind, allow_di=True)
    pred = _PREDICATES[kind]
    return tuple(p for p in dihedral_restrictions(n) if pred(classify_order(p)))


def kind_monoid(kind: str, n: int) -> EnumeratedMonoid:
    return EnumeratedMonoid(n, kind_elements(kind, n))


def random_oriented(n: int, rng) -> PartialPerm:
    """A random partial permutation of rank >= 2 whose image sequence is
    cyclic or anti-cyclic: a rotated sorted (or reverse-sorted) listing."""
    k = rng.randint(2, n)
    dom = sorted(rng.sample(range(1, n + 1), k))
    img = sorted(rng.sample(range(1, n + 1), k), reverse=rng.random() < 0.5)
    r = rng.randrange(k)
    return PartialPerm(n, tuple(zip(dom, img[r:] + img[:r])))


def _reflected(n, points):
    return [n - b + 1 for b in points]


def _rotated(n, points, s):
    # the set B g^(-s), written without wrapping into dihedral elements
    return [(b - 1 - s) % n + 1 for b in points]


def orientation_preserving_bijections(n: int, a_points, b_points):
    """All orientation-preserving bijections between two equal-size sets:
    exactly the rotations of the ascending image listing."""
    dom = sorted(a_points)
    img = sorted(b_points)
    assert len(dom) == len(img)
    for r in range(len(dom)):
        yield PartialPerm(n, tuple(zip(dom, img[r:] + img[:r])))


def order_reversing_bijection(n: int, a_points, b_points) -> PartialPerm:
    """The unique order-reversing bijection between two equal-size sets."""
    dom = sorted(a_points)
    img = sorted(b_points, reverse=True)
    assert len(dom) == len(img)
    return PartialPerm(n, tuple(zip(dom, img)))
