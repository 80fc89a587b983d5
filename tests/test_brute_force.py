"""Sanity checks on the definitional oracles the other tests lean on."""

import random

import pytest

from cycleiso import DomainError, card, classify_order
from cycleiso.brute_force import (
    all_partial_perms,
    dihedral_restrictions,
    kind_elements,
    kind_monoid,
    order_reversing_bijection,
    orientation_preserving_bijections,
    random_oriented,
)

from conftest import Five


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_kind_element_counts_match_the_formulas(n):
    for kind in ("odi", "mdi", "opdi"):
        assert len(kind_elements(kind, n)) == card(kind, n)


@pytest.mark.parametrize("n", [5.0, True, Five(5)], ids=["5.0", "True", "int-subclass"])
def test_kind_elements_refuses_a_size_that_equals_a_cached_one(n):
    # an untyped cache would answer 5.0 or Five(5) with the entry for 5
    assert len(kind_elements("odi", 5)) == 104
    with pytest.raises(DomainError, match="the cycle graph needs n >= 3"):
        kind_elements("odi", n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_kinds_nest(n):
    odi = set(kind_elements("odi", n))
    mdi = set(kind_elements("mdi", n))
    opdi = set(kind_elements("opdi", n))
    di = set(kind_elements("di", n))
    assert odi < mdi < di
    assert odi < opdi < di


@pytest.mark.parametrize("n", [3, 4, 5])
def test_restrictions_are_exactly_the_di_elements(n):
    assert dihedral_restrictions(n) == kind_elements("di", n)


def test_all_partial_perms_count():
    # sum over rank k of C(n,k)^2 k! for n = 3: 1 + 9 + 18 + 6
    assert sum(1 for _ in all_partial_perms(3)) == 34


def test_every_restriction_is_a_partial_perm_of_the_right_size():
    for p in dihedral_restrictions(4):
        assert p.n == 4
        assert 0 <= p.rank <= 4


def test_kind_monoid_wraps_the_element_set():
    m = kind_monoid("opdi", 4)
    assert m.size == card("opdi", 4)
    assert m.n == 4


def test_random_oriented_is_oriented_and_seeded():
    rng = random.Random(99)
    seen = [random_oriented(7, rng) for _ in range(200)]
    for p in seen:
        assert p.rank >= 2
        flags = classify_order(p)
        assert flags.orientation_preserving or flags.orientation_reversing
    again = random.Random(99)
    assert seen == [random_oriented(7, again) for _ in range(200)]


def test_orientation_preserving_bijections_are_the_rotations():
    maps = list(orientation_preserving_bijections(6, [1, 3, 4], [2, 5, 6]))
    assert len(maps) == 3
    assert len(set(maps)) == 3
    for p in maps:
        assert sorted(p.domain) == [1, 3, 4]
        assert sorted(p.image) == [2, 5, 6]
        assert classify_order(p).orientation_preserving


def test_order_reversing_bijection_reverses():
    p = order_reversing_bijection(6, [1, 3, 4], [2, 5, 6])
    assert p.pairs == ((1, 6), (3, 5), (4, 2))
    assert classify_order(p).order_reversing
