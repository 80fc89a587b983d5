"""The acceptance suite: every headline claim checked against an oracle.

Each criterion is a function returning (passed, detail); the registry at
the bottom drives both the ``verify`` CLI command and the test suite.
``max_n`` caps the ranges so a quick run stays quick; passing None runs
the full stated ranges.  A cap must be at least 4, where eight criteria
start, so every criterion checks something.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .errors import DomainError, _shown
from .partial_perm import classify_order
from .geometry import (
    delta,
    distance,
    distance_sequence,
    is_partial_isometry,
    is_partial_isometry_fast,
)
from .dihedral import KINDS, b2_count, extensions, is_in_b2
from .engine import close, cross_check_green, export_bytes
from .formulas import card, card_rank_le1, rank_formula
from .generators import standard_generators
from .factorize import factorize
from .rank_cert import lower_bound_certificate
from .brute_force import (
    _reflected,
    _rotated,
    all_partial_perms,
    dihedral_restrictions,
    kind_elements,
    kind_monoid,
    orientation_preserving_bijections,
    order_reversing_bijection,
    random_oriented,
)

__all__ = ["CriterionResult", "run_acceptance"]

# regression guard for criterion 10: factorization words stay below this
# many letters per cycle vertex
WORD_LENGTH_FACTOR = 8

_RANDOM_SEED = 20260816
_RANDOM_PER_N = 16_667  # 100,000 maps over the six sizes 7..12, rounded up


def _span(lo: int, hi: int, top: int | None) -> range:
    if top is not None:
        hi = min(hi, top)
    return range(lo, hi + 1)


def _check_cardinalities(top):
    ns = _span(3, 10, top)
    for n in ns:
        small = sum(1 for p in dihedral_restrictions(n) if p.rank <= 1)
        if small != card_rank_le1(n):
            return False, f"rank<=1 count at n={n}: {small} != {card_rank_le1(n)}"
        for kind in KINDS:
            got = len(kind_elements(kind, n))
            want = card(kind, n)
            if got != want:
                return False, f"{kind} n={n}: enumerated {got}, formula {want}"
    if (card("odi", 4), card_rank_le1(4)) != (44, 17):
        return False, "worked values at n=4 are off"
    return True, f"formulas match enumeration for n in 3..{ns[-1]}"


def _check_closure_enumeration(top):
    ns = _span(4, 8, top)
    for n in ns:
        for kind in KINDS:
            gens = standard_generators(kind, n)
            closed = close(n, gens.elements)
            if closed.elements != kind_elements(kind, n):
                return False, f"{kind} n={n}: closure differs from enumeration"
    return True, f"set equality for n in {list(ns)}"


def _check_extension_counts(top):
    checked = 0
    for n in _span(4, 7, top):
        half = n // 2 if n % 2 == 0 else None
        for p in dihedral_restrictions(n):
            if p.rank == 0:
                want = 2 * n
            elif p.rank == 1:
                want = 2
            elif p.rank == 2:
                (a, _), (b, _) = p.pairs
                want = 2 if distance(n, a, b) == half else 1
            else:
                want = 1
            got = len(extensions(p))
            if got != want:
                return False, f"{p}: {got} extensions, expected {want}"
            checked += 1
    return True, f"{checked} isometries have the predicted extension count"


def _check_b2_count(top):
    for n in _span(4, 10, top):
        found = sum(1 for p in dihedral_restrictions(n) if is_in_b2(p))
        if found != b2_count(n):
            return False, f"n={n}: scan found {found}, formula {b2_count(n)}"
    return True, "antipodal rank-2 scan matches n^2/2 on even n, 0 on odd"


def _check_fast_isometry(top):
    exhaustive = 0
    for n in _span(4, 6, top):
        for p in all_partial_perms(n):
            if p.rank < 2 or not classify_order(p).oriented:
                continue
            if is_partial_isometry_fast(p) != is_partial_isometry(p):
                return False, f"fast and full disagree on {p}"
            exhaustive += 1
    rng = random.Random(_RANDOM_SEED)
    sampled = 0
    for n in _span(7, 12, top):
        for _ in range(_RANDOM_PER_N):
            p = random_oriented(n, rng)
            if is_partial_isometry_fast(p) != is_partial_isometry(p):
                return False, f"fast and full disagree on {p}"
            sampled += 1
    return True, f"{exhaustive} exhaustive + {sampled} random maps agree"


def _check_distance_sequence_laws(top):
    from itertools import combinations

    checked = 0
    for n in _span(4, 7, top):
        points = range(1, n + 1)
        for k in range(2, n + 1):
            subsets = list(combinations(points, k))
            seqs = {a_set: distance_sequence(n, a_set) for a_set in subsets}
            for a_set in subsets:
                da = seqs[a_set]
                for b_set in subsets:
                    same = da == seqs[b_set]
                    if same != is_partial_isometry(delta(n, a_set, b_set)):
                        return False, f"order-preserving law fails on {a_set}, {b_set} (n={n})"
                    reflected = da == distance_sequence(n, _reflected(n, b_set))
                    if reflected != is_partial_isometry(
                        order_reversing_bijection(n, a_set, b_set)
                    ):
                        return False, f"order-reversing law fails on {a_set}, {b_set} (n={n})"
                    rotated = any(
                        da == distance_sequence(n, _rotated(n, b_set, s))
                        for s in range(n)
                    )
                    oriented = any(
                        is_partial_isometry(c)
                        for c in orientation_preserving_bijections(n, a_set, b_set)
                    )
                    if rotated != oriented:
                        return False, f"orientation law fails on {a_set}, {b_set} (n={n})"
                    checked += 1
    return True, f"all three laws hold on {checked} set pairs"


def _check_green_cross(top):
    counts = []
    for n in _span(4, 7, top):
        for kind in KINDS:
            report = cross_check_green(kind_monoid(kind, n), kind)
            if not report.passed:
                a, b = report.counterexample
                return False, f"{kind} n={n}: D and J disagree on {a} vs {b}"
            counts.append(report.d_class_count)
    return True, f"D = J partitions agree; class counts {counts}"


def _check_generator_minimality(top):
    for n in _span(4, 7, top):
        for kind in KINDS:
            gens = standard_generators(kind, n).elements
            full = card(kind, n)
            for skip in range(len(gens)):
                rest = gens[:skip] + gens[skip + 1 :]
                size = close(n, rest).size
                if size >= full:
                    return False, f"{kind} n={n}: dropping generator {skip} keeps size {size}"
    return True, "every single deletion strictly shrinks the closure"


def _check_rank_certificates(top):
    ns = _span(3, 9, top)
    for n in ns:
        for kind in KINDS:
            want = rank_formula(kind, n)
            report = lower_bound_certificate(kind, n, standard_generators(kind, n).elements)
            if n == 3:
                # at n = 3 the lower bound is the rank found by exhaustive search
                if not report.generates or report.lower_bound != want:
                    found = report.lower_bound
                    return False, f"{kind} n=3: search found rank {found}, formula {want}"
            elif not (
                report.certified and report.lower_bound == report.generator_count == want
            ):
                return False, f"{kind} n={n}: not certified at rank {want}"
    return True, f"ranks certified for n in {list(ns)}"


def _check_factorization(top):
    longest = (0, 1)  # (letters, n), seeded so any real word beats it
    for n in _span(4, 7, top):
        for kind in KINDS:
            gens = standard_generators(kind, n)
            for p in kind_elements(kind, n):
                word = factorize(p, kind)
                if gens.evaluate(word) != p:
                    return False, f"{kind} word for {p} evaluates wrong"
                if len(word) > WORD_LENGTH_FACTOR * n:
                    return False, f"{kind} word for {p} has {len(word)} letters"
                if len(word) * longest[1] > longest[0] * n:
                    longest = (len(word), n)
    ratio = longest[0] / longest[1]
    return True, (
        f"round-trip exact; longest word {longest[0]} letters at n={longest[1]} "
        f"({ratio:.2f} per vertex, bound {WORD_LENGTH_FACTOR})"
    )


def _check_monotone_identity(top):
    for n in _span(3, 50, top):
        if card("mdi", n) != 2 * card("odi", n) - n * n - 1:
            return False, f"formula identity fails at n={n}"
    for n in _span(3, 9, top):
        got = len(kind_elements("mdi", n))
        if got != 2 * len(kind_elements("odi", n)) - n * n - 1:
            return False, f"enumerated identity fails at n={n}"
    return True, "monotone = 2(order-preserving) - n^2 - 1, formulas and counts"


def _check_determinism(top):
    n = 7 if top is None else min(7, top)
    gens = standard_generators("odi", n).elements
    runs = [close(n, gens), close(n, gens)]
    if runs[0].elements != runs[1].elements or runs[0].words != runs[1].words:
        return False, "two runs disagree on elements or words"
    for fmt in ("txt", "jsonl"):
        for compress in (False, True):
            blobs = {export_bytes(m, fmt, compress) for m in runs}
            if len(blobs) != 1:
                return False, f"export ({fmt}, gzip={compress}) differs across two runs"
    return True, "two runs give byte-identical exports"


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


CRITERIA = (
    (1, "cardinality formulas", _check_cardinalities),
    (2, "closure equals enumeration", _check_closure_enumeration),
    (3, "extension counts", _check_extension_counts),
    (4, "antipodal rank-2 count", _check_b2_count),
    (5, "fast isometry criterion", _check_fast_isometry),
    (6, "distance sequence laws", _check_distance_sequence_laws),
    (7, "green J cross-check", _check_green_cross),
    (8, "generator minimality", _check_generator_minimality),
    (9, "rank certification", _check_rank_certificates),
    (10, "factorization round-trip", _check_factorization),
    (11, "monotone count identity", _check_monotone_identity),
    (12, "closure determinism", _check_determinism),
)


def run_criterion(number: int, top: int | None = None) -> CriterionResult:
    num, name, fn = CRITERIA[number - 1]
    assert num == number
    start = time.perf_counter()
    try:
        passed, detail = fn(top)
    except Exception as exc:  # a crash is a failure, not an excuse
        passed, detail = False, f"raised {exc!r}"
    return CriterionResult(number, name, passed, detail, time.perf_counter() - start)


def run_acceptance(top: int | None = None) -> list[CriterionResult]:
    """Run every criterion, optionally capping the n-ranges at ``top``."""
    if top is not None and (type(top) is not int or top < 4):
        raise DomainError(f"the acceptance suite needs max-n >= 4, got {_shown(top)}")
    return [run_criterion(num, top) for num, _, _ in CRITERIA]
