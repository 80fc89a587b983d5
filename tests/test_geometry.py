"""Metric, distance sequences, and the two isometry tests."""

import itertools

import pytest
from hypothesis import given, strategies as st

from cycleiso import (
    DihedralElement,
    DomainError,
    PartialPerm,
    UndefinedSequenceError,
    all_elements,
    b2_count,
    card,
    classify_order,
    delta,
    distance,
    distance_sequence,
    gap_requirements,
    generator,
    is_partial_isometry,
    is_partial_isometry_fast,
    rank_formula,
    standard_generators,
)
from cycleiso.geometry import _dist, _sequence
from cycleiso.brute_force import (
    all_partial_perms,
    kind_elements,
    orientation_preserving_bijections,
)

from conftest import Five, capped_child_lines, perms


_SIZE_CHECKS = {
    "card": lambda n: card("odi", n),
    "b2_count": b2_count,
    "standard_generators": lambda n: standard_generators("odi", n),
    "distance": lambda n: distance(n, 1, 2),
    "DihedralElement": lambda n: DihedralElement(n, 0, 0),
    "rank_formula": lambda n: rank_formula("odi", n),
    "generator": lambda n: generator(n, "e1"),
    "gap_requirements": lambda n: gap_requirements("odi", n, ()),
    "all_elements": all_elements,
    "kind_elements": lambda n: kind_elements("odi", n),
}


@pytest.mark.parametrize("caller", sorted(_SIZE_CHECKS))
@pytest.mark.parametrize(
    "n", [2, -1, True, 5.0, "5", Five(5)], ids=["2", "-1", "True", "5.0", "str", "int-subclass"]
)
def test_every_cycle_size_check_refuses_the_same_values(caller, n):
    with pytest.raises(DomainError, match="the cycle graph needs n >= 3"):
        _SIZE_CHECKS[caller](n)


_TOO_LONG_IN_A_CAPPED_CHILD = """
from cycleiso import DomainError
from test_geometry import _SIZE_CHECKS
for name, call in sorted(_SIZE_CHECKS.items()):
    try:
        call(10**4300)
    except DomainError as err:
        print(name, err)
"""


def test_every_cycle_size_check_refuses_sizes_too_long_to_print():
    # card and standard_generators would build values of 10**4300 bits or
    # entries if the check let the size through, so the calls run in a
    # capped child, never in this process
    lines = capped_child_lines(_TOO_LONG_IN_A_CAPPED_CHILD)
    message = "ambient size <int of 14285 bits> has more than 4300 digits"
    assert lines == [f"{name} {message}" for name in sorted(_SIZE_CHECKS)]


def test_distance_values():
    assert distance(5, 1, 4) == 2
    assert distance(6, 1, 4) == 3
    assert distance(6, 2, 2) == 0
    assert distance(7, 1, 7) == 1


@given(st.integers(3, 30), st.data())
def test_distance_is_a_metric(n, data):
    x = data.draw(st.integers(1, n))
    y = data.draw(st.integers(1, n))
    z = data.draw(st.integers(1, n))
    assert distance(n, x, y) == distance(n, y, x)
    assert (distance(n, x, y) == 0) == (x == y)
    assert distance(n, x, z) <= distance(n, x, y) + distance(n, y, z)
    assert distance(n, x, y) <= n // 2


@given(st.integers(3, 30), st.data())
def test_distance_is_rotation_invariant(n, data):
    x = data.draw(st.integers(1, n))
    y = data.draw(st.integers(1, n))
    s = data.draw(st.integers(0, n - 1))
    xs = (x - 1 + s) % n + 1
    ys = (y - 1 + s) % n + 1
    assert distance(n, x, y) == distance(n, xs, ys)


def test_distance_rejects_bad_input():
    with pytest.raises(DomainError):
        distance(2, 1, 1)
    with pytest.raises(DomainError):
        distance(5, 0, 3)
    with pytest.raises(DomainError):
        distance(5, 1, 6)


def test_private_metric_is_the_shorter_way_round_on_every_pair():
    for n in range(3, 41):
        for x in range(1, n + 1):
            for y in range(1, n + 1):
                assert _dist(n, x, y) == min((x - y) % n, (y - x) % n), (n, x, y)


def _appended_extreme_pair(n, pts):
    # the original construction: consecutive gaps, then the first-to-last gap
    # appended, each the shorter way round
    def gap(a, b):
        return min((a - b) % n, (b - a) % n)

    seq = [gap(a, b) for a, b in zip(pts, pts[1:])]
    seq.append(gap(pts[0], pts[-1]))
    return tuple(seq)


@st.composite
def ascending_points(draw):
    n = draw(st.integers(3, 40))
    pts = draw(st.sets(st.integers(1, n), min_size=2, max_size=n))
    return n, tuple(sorted(pts))


@given(ascending_points())
def test_private_sequence_reads_the_extreme_pair_as_the_wrap_pair(case):
    n, pts = case
    assert _sequence(n, pts) == _appended_extreme_pair(n, pts)


def test_distance_sequence_examples():
    assert distance_sequence(5, [1, 2, 4]) == (1, 2, 2)
    assert distance_sequence(4, [1, 3]) == (2, 2)
    assert distance_sequence(6, [2, 3, 6]) == (1, 3, 2)


def test_distance_sequence_needs_two_points():
    with pytest.raises(UndefinedSequenceError):
        distance_sequence(5, [2])
    with pytest.raises(UndefinedSequenceError):
        distance_sequence(5, [])


def test_distance_sequence_rejects_bools():
    with pytest.raises(DomainError):
        distance_sequence(5, [True, 3])
    with pytest.raises(DomainError):
        distance_sequence(True, [1, 3])


def test_distance_sequence_rejects_mixed_point_types():
    with pytest.raises(DomainError):
        distance_sequence(5, [1, "a"])


def test_delta_builds_the_ascending_pairing():
    assert str(delta(4, [1, 2], [1, 4])) == "n=4;1>1,2>4"
    assert delta(5, [], []).rank == 0
    with pytest.raises(DomainError):
        delta(5, [1, 2], [1])


def test_isometry_on_a_rotation_restriction():
    assert is_partial_isometry(PartialPerm.parse("n=5;1>3,2>4,3>5,5>2"))
    assert not is_partial_isometry(PartialPerm.parse("n=5;1>1,2>2,3>4"))


@given(perms())
def test_small_rank_maps_are_isometries(p):
    if p.rank <= 1:
        assert is_partial_isometry(p)


def test_fast_test_matches_full_test_on_oriented_maps():
    for n in (4, 5):
        for p in all_partial_perms(n):
            if p.rank >= 2 and classify_order(p).oriented:
                assert is_partial_isometry_fast(p) == is_partial_isometry(p), p


def test_fast_test_can_err_only_towards_true():
    # consecutive distances alone say nothing about non-adjacent pairs
    # when the value sequence is unordered, so false positives happen...
    spurious = PartialPerm.parse("n=6;1>1,2>2,4>4,5>3")
    assert not classify_order(spurious).oriented
    assert is_partial_isometry_fast(spurious)
    assert not is_partial_isometry(spurious)
    for n in (4, 5):
        for p in all_partial_perms(n):
            if is_partial_isometry(p):
                # ... but a real isometry always passes the fast test
                assert is_partial_isometry_fast(p)


def test_rotation_candidates_are_exactly_the_orientation_preserving_maps():
    # every orientation-preserving bijection between equal-size sets is a
    # rotated ascending pairing, so enumerating those rotations is complete
    for n in (4, 5, 6):
        points = range(1, n + 1)
        for k in (2, 3):
            for a_set in itertools.combinations(points, k):
                for b_set in itertools.combinations(points, k):
                    found = set(orientation_preserving_bijections(n, a_set, b_set))
                    everything = {
                        PartialPerm(n, tuple(zip(a_set, img)))
                        for img in itertools.permutations(b_set)
                        if classify_order(
                            PartialPerm(n, tuple(zip(a_set, img)))
                        ).orientation_preserving
                    }
                    assert found == everything
