"""Closed-form cardinalities and ranks of the three cycle isometry monoids.

Everything here is exact integer arithmetic.  The even/odd corrections
that the displayed formulas write as (1 +- (-1)^n) factors are explicit
parity branches; the divisions below are integral in combination, never
termwise, which is why no floats appear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import _check_cycle
from .dihedral import DihedralElement, check_kind

__all__ = [
    "card",
    "card_rank_le1",
    "ProofCounts",
    "proof_counts",
    "rank_formula",
]


def card(kind: str, n: int) -> int:
    """Exact size of the order-preserving, monotone, or orientation-
    preserving partial isometry monoid of the n-cycle.

    >>> card("odi", 4), card("mdi", 4), card("opdi", 4)
    (44, 71, 77)
    """
    check_kind(kind)
    _check_cycle(n)
    even = n % 2 == 0
    if kind == "odi":
        return (
            3 * 2**n
            + (n + 1) * n * (n - 1) // 6
            - (n * n // 4 if even else 0)
            - 2 * n
            - 2
        )
    if kind == "opdi":
        return (
            n * 2**n
            + n * n * (n - 1) // 2
            - (n * n // 2 if even else 0)
            - n
            + 1
        )
    return (
        3 * 2 ** (n + 1)
        + (n + 1) * n * (n - 1) // 3
        - (3 * n * n // 2 if even else n * n)
        - 4 * n
        - 5
    )


def card_rank_le1(n: int) -> int:
    """Number of partial isometries of rank at most 1: every single-point
    map plus the empty map, n^2 + 1.  Common to all the studied monoids."""
    _check_cycle(n)
    return n * n + 1


@dataclass(frozen=True)
class ProofCounts:
    """Per-exponent restriction counts behind the cardinality formulas.

    For a fixed rotation exponent k, these count the rank >= 2 restrictions
    of the reflection h g^k that preserve order, the rank >= 2 restrictions
    of the rotation g^k that preserve order, and the rank >= 2 restrictions
    of h g^k that preserve orientation.
    """

    n: int
    k: int
    reflection_order_preserving: int
    rotation_order_preserving: int
    reflection_orientation_preserving: int


def proof_counts(n: int, k: int) -> ProofCounts:
    """Counts for one rotation exponent, straight from the definitions.

    Order-preserving pieces of h g^k pick one point from each side of the
    exponent, k(n - k) ways.  Order-preserving pieces of g^k take at least
    two points inside either arc the rotation keeps in order.  Orientation
    only forbids mixing the two sides of a reflection, adding the
    same-side pairs.
    """
    DihedralElement(n, 0, k)  # checks n and the exponent
    same_arc = sum(math.comb(n - k, i) for i in range(2, n - k + 1))
    same_arc += sum(math.comb(k, i) for i in range(2, k + 1))
    return ProofCounts(
        n=n,
        k=k,
        reflection_order_preserving=k * (n - k),
        rotation_order_preserving=same_arc,
        reflection_orientation_preserving=k * (n - k)
        + math.comb(k, 2)
        + math.comb(n - k, 2),
    )


def rank_formula(kind: str, n: int) -> int:
    """Minimum size of a generating set.

    For n >= 4 with m = (n - 1) // 2 the ranks are n + 2m, 2 + 3m, and
    2 + m; n = 3 is special because those counting arguments need n >= 4,
    and exhaustive search gives 3, 3, 2 there.

    >>> rank_formula("opdi", 5)
    4
    """
    check_kind(kind)
    _check_cycle(n)
    if n == 3:
        return {"odi": 3, "mdi": 3, "opdi": 2}[kind]
    m = (n - 1) // 2
    return {"odi": n + 2 * m, "mdi": 2 + 3 * m, "opdi": 2 + m}[kind]
