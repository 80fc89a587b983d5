import pytest

from cycleiso import (
    DomainError,
    card,
    card_rank_le1,
    proof_counts,
    rank_formula,
)
from cycleiso.brute_force import dihedral_restrictions, kind_elements
from cycleiso.dihedral import DihedralElement, to_partial_perm
from cycleiso.partial_perm import classify_order

# brute-forced once, frozen here as regression pins
CARDINALITIES = {
    "odi": {3: 20, 4: 44, 5: 104, 6: 204, 7: 424, 8: 818},
    "mdi": {3: 30, 4: 71, 5: 182, 6: 371, 7: 798, 8: 1571},
    "opdi": {3: 31, 4: 77, 5: 206, 6: 451, 7: 1037, 8: 2233},
}


@pytest.mark.parametrize("kind", ["odi", "mdi", "opdi"])
def test_cardinality_formula_against_frozen_values(kind):
    for n, want in CARDINALITIES[kind].items():
        assert card(kind, n) == want


@pytest.mark.parametrize("kind", ["odi", "mdi", "opdi"])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_cardinality_formula_against_enumeration(kind, n):
    assert card(kind, n) == len(kind_elements(kind, n))


def test_cardinalities_nest_like_the_monoids():
    for n in range(3, 12):
        assert card("odi", n) < card("mdi", n)
        assert card("odi", n) < card("opdi", n)
        assert card("mdi", n) < 2 * card("odi", n)


def test_rank_le1_count():
    assert card_rank_le1(3) == 10
    assert card_rank_le1(4) == 17
    for n in (3, 4, 5, 6):
        small = [p for p in dihedral_restrictions(n) if p.rank <= 1]
        assert len(small) == card_rank_le1(n) == n * n + 1


def test_monotone_identity_in_two_ways():
    for n in range(3, 51):
        assert card("mdi", n) == 2 * card("odi", n) - n * n - 1
    for n in range(3, 8):
        assert len(kind_elements("mdi", n)) == 2 * len(kind_elements("odi", n)) - n * n - 1


def test_input_validation():
    with pytest.raises(DomainError):
        card("odi", 2)
    with pytest.raises(DomainError):
        card("foo", 5)
    with pytest.raises(DomainError):
        card_rank_le1(0)
    with pytest.raises(DomainError):
        rank_formula("odi", 2)
    with pytest.raises(DomainError):
        proof_counts(5, 5)
    with pytest.raises(DomainError):
        proof_counts(5, -1)


@pytest.mark.parametrize("k", [True, 1.0, "1"])
def test_proof_counts_require_an_int_exponent(k):
    with pytest.raises(DomainError):
        proof_counts(5, k)


def _scan_counts(n, k):
    """Independent per-exponent counts by scanning actual restrictions."""
    from itertools import combinations

    rot = DihedralElement.rotation(n, k)
    refl = DihedralElement.reflection(n, k)
    ref_op = rot_op = ref_orient = 0
    for size in range(2, n + 1):
        for dom in combinations(range(1, n + 1), size):
            if classify_order(to_partial_perm(refl, dom)).order_preserving:
                ref_op += 1
            if classify_order(to_partial_perm(rot, dom)).order_preserving:
                rot_op += 1
            if classify_order(to_partial_perm(refl, dom)).orientation_preserving:
                ref_orient += 1
    return ref_op, rot_op, ref_orient


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_proof_counts_match_a_restriction_scan(n):
    for k in range(n):
        counts = proof_counts(n, k)
        assert (
            counts.reflection_order_preserving,
            counts.rotation_order_preserving,
            counts.reflection_orientation_preserving,
        ) == _scan_counts(n, k)


def test_proof_count_examples():
    assert proof_counts(4, 1).reflection_order_preserving == 3
    assert proof_counts(4, 0).reflection_order_preserving == 0
    assert sum(proof_counts(4, k).reflection_order_preserving for k in range(4)) == 10


def test_proof_count_sums_recover_the_formula_pieces():
    for n in range(3, 31):
        refl = sum(proof_counts(n, k).reflection_order_preserving for k in range(n))
        assert refl == (n + 1) * n * (n - 1) // 6
        rot = sum(proof_counts(n, k).rotation_order_preserving for k in range(n))
        assert rot == 3 * 2**n - n * n - 2 * n - 3
        # the same sum written per exponent: all subsets of either arc
        # minus the rank <= 1 ones
        assert rot == sum(
            2 ** (n - k) - (n - k) - 1 + 2**k - k - 1 for k in range(n)
        )


def test_rank_formula_small_table():
    assert [rank_formula("odi", n) for n in range(3, 10)] == [3, 6, 9, 10, 13, 14, 17]
    assert [rank_formula("mdi", n) for n in range(3, 10)] == [3, 5, 8, 8, 11, 11, 14]
    assert [rank_formula("opdi", n) for n in range(3, 10)] == [2, 3, 4, 4, 5, 5, 6]
