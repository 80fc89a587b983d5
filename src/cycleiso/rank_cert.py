"""Minimality certificates for generating sets.

The lower bounds mirror the counting arguments that pin the ranks down:
any generating set must contain, for each of a list of pairwise disjoint
requirements, a distinct generator meeting it.  A set is certified
minimal when it generates, meets every requirement, and its size equals
both the requirement count and the closed-form rank.

Each requirement is a class of points that the kind's symmetries identify.
odi needs, for each class {i}, a rank n-1 generator whose image misses i;
mdi needs the full reflection and, for each class {i, n - i + 1}, a rank
n-1 generator whose image misses a point of it.

The requirement machinery needs n >= 4; at n = 3 exhaustive search over
candidate subsets is still feasible and is used instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import DomainError, NotGeneratingError, _check_cycle
from .partial_perm import identity
from .dihedral import check_kind, in_kind
from .engine import close
from .formulas import card, rank_formula
from .generators import generator
from .brute_force import kind_elements

__all__ = [
    "Requirement",
    "CertificateReport",
    "gap_requirements",
    "lower_bound_certificate",
    "brute_force_rank",
]


@dataclass(frozen=True)
class Requirement:
    description: str
    satisfied: bool
    witness: str | None


@dataclass(frozen=True)
class CertificateReport:
    kind: str
    n: int
    generates: bool
    requirements: tuple[Requirement, ...]
    lower_bound: int
    generator_count: int
    expected_rank: int
    certified: bool
    notes: tuple[str, ...]


def _requirement(description: str, candidates, pred) -> Requirement:
    """The requirement met by the first candidate satisfying ``pred``."""
    w = next((p for p in candidates if pred(p)), None)
    return Requirement(description, w is not None, None if w is None else str(w))


def gap_requirements(kind: str, n: int, elements) -> tuple[Requirement, ...]:
    """Rank-2 generators every generating set needs, one per class of domain
    gaps, i = 1..(n - 1) // 2: {i, n - i} for opdi, and {i} then {n - i} for
    the other kinds.  n is an int in 3..10**4300 - 1."""
    check_kind(kind)
    _check_cycle(n)
    steps = range(1, (n - 1) // 2 + 1)
    classes = ([(i, n - i) for i in steps] if kind == "opdi"
               else [(i,) for i in steps] + [(n - i,) for i in steps])
    rank2 = [p for p in elements if p.rank == 2]
    return tuple(
        _requirement(
            f"rank-2 generator with domain gap {' or '.join(map(str, gaps))}",
            rank2,
            lambda p: (p.pairs[1][0] - p.pairs[0][0]) in gaps,
        )
        for gaps in classes
    )


def _requirements(kind: str, n: int, elements) -> list[Requirement]:
    ident = identity(n)
    gens = [p for p in elements if p != ident]
    if kind == "opdi":
        reqs = [
            _requirement("a nonidentity permutation", gens, lambda p: p.rank == n),
            _requirement("a rank n-1 generator", gens, lambda p: p.rank == n - 1),
        ]
    else:
        points = set(range(1, n + 1))
        reqs, classes = [], [{i} for i in range(1, n + 1)]
        if kind == "mdi":
            h = generator(n, "h")
            reqs = [_requirement("the full reflection", gens, lambda p: p == h)]
            classes = [{i, n - i + 1} for i in range(1, (n + 1) // 2 + 1)]
        reqs += [
            _requirement(
                f"rank n-1 generator with image missing {' or '.join(map(str, sorted(c)))}",
                gens,
                lambda p: p.rank == n - 1 and points - set(p.image) <= c,
            )
            for c in classes
        ]
    return reqs + list(gap_requirements(kind, n, gens))


def lower_bound_certificate(kind: str, n: int, gens) -> CertificateReport:
    """Certify a generating set as minimal.

    Raises when the set does not generate the monoid (including when some
    claimed generator is not even a member).  Otherwise reports the
    disjoint-requirement lower bound and whether it pins the set's size
    to the closed-form rank.
    """
    check_kind(kind)
    gens = tuple(gens)
    for p in gens:
        if p.n != n:
            raise DomainError(f"generator {p} does not live on n={n}")
        if not in_kind(p, kind):
            raise NotGeneratingError(f"{p} is not a member of {kind.upper()}_{n}")
    target = card(kind, n)
    reached = close(n, gens).size
    if reached != target:
        raise NotGeneratingError(
            f"closure reaches {reached} of {target} elements of {kind.upper()}_{n}"
        )
    expected = rank_formula(kind, n)
    notes: list[str] = []
    if n == 3:
        found = brute_force_rank(kind, 3)
        reqs: tuple[Requirement, ...] = (
            Requirement(
                f"exhaustive search puts the minimum generating set size at {found}",
                True,
                None,
            ),
        )
        lower = found
    else:
        reqs = tuple(_requirements(kind, n, gens))
        lower = len(reqs)
    count = len(gens)
    certified = all(r.satisfied for r in reqs) and lower == count == expected
    if count > expected:
        notes.append(
            f"the set has {count} generators but the rank is {expected}; "
            "it generates without being minimal"
        )
    if lower > count:
        # disjoint requirements each need a distinct generator, so this
        # would contradict the set generating at all
        notes.append("requirement count exceeds the generator count")
    return CertificateReport(
        kind=kind,
        n=n,
        generates=True,
        requirements=reqs,
        lower_bound=lower,
        generator_count=count,
        expected_rank=expected,
        certified=certified,
        notes=tuple(notes),
    )


def brute_force_rank(kind: str, n: int) -> int:
    """Smallest size of a generating set, by exhaustive search.

    Only n = 3 is supported; the subset lattice is hopeless beyond that
    and the certificate route exists precisely to avoid it.
    """
    check_kind(kind)
    if n != 3:
        raise DomainError("exhaustive rank search is only feasible for n = 3")
    target = kind_elements(kind, n)
    pool = [p for p in target if p != identity(n)]
    for size in range(1, len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            if close(n, combo).size == len(target):
                return size
    raise AssertionError("the full element set failed to generate itself")
