"""Error messages name the offending value, whatever its size, and each public
entry refuses a bad value with one exception type and message."""

import pytest

from cycleiso import (
    AmbientMismatchError,
    DihedralElement,
    DomainError,
    EnumeratedMonoid,
    ParseError,
    PartialPerm,
    UndefinedSequenceError,
    card,
    close,
    delta,
    distance,
    distance_sequence,
    export_bytes,
    extensions,
    generator,
    identity_off,
    identity_on,
    is_in_b2,
    is_partial_isometry,
    is_partial_isometry_fast,
    j_partition,
    j_related,
    parse_word,
    proof_counts,
    sorted_points,
    to_partial_perm,
)
from cycleiso.errors import _shown

HUGE = 10**5000  # past int()'s 4300-digit printing limit


@pytest.mark.parametrize(
    "call,error,shown",
    [
        pytest.param(lambda: PartialPerm(5, ((HUGE, 1),)), DomainError, "<int of", id="pair"),
        pytest.param(
            lambda: PartialPerm(-HUGE, ()),
            DomainError,
            "<negative int of",
            id="ambient-size",
        ),
        pytest.param(
            lambda: DihedralElement(5, 0, HUGE),
            DomainError,
            "<int of",
            id="rotation-exponent",
        ),
        pytest.param(lambda: sorted_points(5, [HUGE]), DomainError, "<int of", id="sorted-points"),
        pytest.param(lambda: identity_off(5, HUGE), DomainError, "<int of", id="identity-off"),
        pytest.param(lambda: distance(5, 1, HUGE), DomainError, "<int of", id="distance"),
        pytest.param(lambda: card("odi", -HUGE), DomainError, "<negative int of", id="card"),
        pytest.param(
            lambda: close(5, [], workers=-HUGE),
            DomainError,
            "<negative int of",
            id="workers",
        ),
        pytest.param(lambda: proof_counts(5, HUGE), DomainError, "<int of", id="proof-counts"),
        pytest.param(
            lambda: sorted_points(HUGE, [0]),
            DomainError,
            "<int of",
            id="sorted-points-size",
        ),
        pytest.param(lambda: distance(HUGE, 1, 0), DomainError, "<int of", id="distance-size"),
        pytest.param(
            lambda: identity_off(HUGE, 0),
            DomainError,
            "<int of",
            id="identity-off-size",
        ),
        pytest.param(
            lambda: proof_counts(HUGE, -1),
            DomainError,
            "<int of",
            id="proof-counts-size",
        ),
        pytest.param(lambda: card(HUGE, 5), DomainError, "<int of", id="kind"),
        pytest.param(lambda: export_bytes(close(3, []), HUGE), ParseError, "<int of", id="format"),
        pytest.param(
            lambda: PartialPerm(5, [(HUGE, 1)]),
            DomainError,
            "<list holding",
            id="pairs-list",
        ),
        pytest.param(
            lambda: PartialPerm.from_json({"n": 5, "map": [[HUGE, 1.0]]}),
            ParseError,
            "<list holding",
            id="json-map-entry",
        ),
    ],
)
def test_ints_too_long_to_print_are_named_in_the_message(call, error, shown):
    with pytest.raises(error, match=shown):
        call()


@pytest.mark.parametrize(
    "parse",
    [
        pytest.param(lambda v: generator(5, v), id="generator"),
        pytest.param(PartialPerm.parse, id="element"),
        pytest.param(lambda v: DihedralElement.parse(5, v), id="dihedral"),
        pytest.param(parse_word, id="word"),
    ],
)
@pytest.mark.parametrize(
    "value", [7, None, b"g", 2.5, HUGE, [HUGE]], ids=["int", "none", "bytes", "float", "huge", "list"]
)
def test_parsers_refuse_values_that_are_not_text(parse, value):
    with pytest.raises(ParseError) as err:
        parse(value)
    assert _shown(value) in str(err.value)


# The public boundary: each entry checks its inputs once and refuses a bad
# value with the same type and message, whatever it does inside.
_G = DihedralElement(5, 0, 1)
_POINT_ENTRIES = {
    "distance": lambda v: distance(5, 1, v),
    "distance_sequence": lambda v: distance_sequence(5, [1, v]),
    "delta": lambda v: delta(5, [2], [v]),
    "to_partial_perm": lambda v: to_partial_perm(_G, [1, v]),
    "DihedralElement.apply": lambda v: _G.apply(v),
}


@pytest.mark.parametrize("entry", sorted(_POINT_ENTRIES))
@pytest.mark.parametrize(
    "point,shown",
    [(0, "0"), (6, "6"), (True, "True"), ("3", "'3'"), (1.5, "1.5")],
    ids=["0", "n+1", "True", "str", "float"],
)
def test_public_entries_refuse_a_bad_point_with_one_message(entry, point, shown):
    with pytest.raises(DomainError) as err:
        _POINT_ENTRIES[entry](point)
    assert type(err.value) is DomainError
    assert str(err.value) == f"point {shown} is outside 1..5"


def _on(n, *pairs):
    return PartialPerm(n, pairs)


_SWAP_2 = _on(2, (1, 2), (2, 1))  # rank 2 on the 2-point "cycle"
_FIX_2 = _on(2, (1, 1), (2, 2))


@pytest.mark.parametrize(
    "call,n",
    [
        pytest.param(lambda n: distance(n, 1, 1), (1, 2), id="distance"),
        pytest.param(lambda n: distance(n, 0, 7), (1, 2), id="distance-size-before-points"),
        pytest.param(lambda n: distance_sequence(n, [1]), (1, 2), id="distance_sequence"),
        pytest.param(lambda n: distance_sequence(n, [0]), (1, 2),
                     id="distance_sequence-size-before-points"),
        pytest.param(lambda n: delta(n, [1], [1]), (1, 2), id="delta"),
        pytest.param(lambda n: is_partial_isometry(_on(n)), (1, 2), id="is_partial_isometry"),
        pytest.param(lambda n: is_partial_isometry_fast(_on(n, (1, 1))), (1, 2),
                     id="is_partial_isometry_fast"),
        pytest.param(lambda n: extensions(_on(n)), (1, 2), id="extensions-rank0"),
        pytest.param(lambda n: extensions(_on(n, (1, 1))), (1, 2), id="extensions-rank1"),
        pytest.param(lambda n: distance_sequence(2, [1, 2]), (2,), id="distance_sequence-rank2"),
        pytest.param(lambda n: is_partial_isometry(_SWAP_2), (2,), id="is_partial_isometry-rank2"),
        pytest.param(lambda n: is_partial_isometry_fast(_SWAP_2), (2,),
                     id="is_partial_isometry_fast-rank2"),
        pytest.param(lambda n: is_in_b2(_SWAP_2), (2,), id="is_in_b2-rank2"),
        pytest.param(lambda n: extensions(_SWAP_2), (2,), id="extensions-rank2"),
        pytest.param(lambda n: j_related(_SWAP_2, _FIX_2, "mdi"), (2,), id="j_related-rank2"),
        pytest.param(lambda n: j_partition(EnumeratedMonoid(2, [_SWAP_2, _FIX_2]), "opdi"), (2,),
                     id="j_partition-rank2"),
    ],
)
def test_public_entries_refuse_short_cycles_with_one_message(call, n):
    for size in n:
        with pytest.raises(DomainError) as err:
            call(size)
        assert type(err.value) is DomainError
        assert str(err.value) == f"the cycle graph needs n >= 3, got {size}"


@pytest.mark.parametrize(
    "call,error,message",
    [
        pytest.param(lambda: distance_sequence(5, [3]), UndefinedSequenceError,
                     "distance sequence needs at least two points, got 1", id="one-point"),
        pytest.param(lambda: distance_sequence(5, [4, 1, 4]), DomainError, "point 4 repeats",
                     id="repeated-point"),
        pytest.param(lambda: delta(5, [1, 2], [3]), DomainError,
                     "size mismatch: 2 points versus 1", id="delta-sizes"),
        pytest.param(lambda: j_related(_SWAP_2, _FIX_2, "di"), DomainError,
                     "unknown kind 'di'; expected one of odi, mdi, opdi", id="j_related-kind"),
        pytest.param(lambda: j_related(_on(5), _on(6), "odi"), AmbientMismatchError,
                     "cannot compare n=5 with n=6", id="j_related-sizes"),
        pytest.param(lambda: j_partition(EnumeratedMonoid(2, [_SWAP_2]), "h"), DomainError,
                     "unknown kind 'h'; expected one of odi, mdi, opdi", id="j_partition-kind"),
    ],
)
def test_public_entries_refuse_other_bad_input_with_one_message(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message


@pytest.mark.parametrize(
    "call,value",
    [
        pytest.param(lambda: is_in_b2(_on(1, (1, 1))), False, id="is_in_b2-n1"),
        pytest.param(lambda: is_in_b2(_on(2, (2, 1))), False, id="is_in_b2-rank1-n2"),
        pytest.param(lambda: j_related(_on(2), _on(2), "odi"), True, id="j_related-rank0-n2"),
        pytest.param(lambda: j_related(_on(1, (1, 1)), _on(1, (1, 1)), "opdi"), True,
                     id="j_related-rank1-n1"),
        pytest.param(lambda: j_related(_on(2, (1, 2)), _on(2), "mdi"), False,
                     id="j_related-ranks-differ-n2"),
    ],
)
def test_answers_that_need_no_cycle_stay_answers(call, value):
    # below rank 2 the J key is the rank, and b2 needs rank 2 on an even cycle,
    # so these read no distance and refuse nothing
    assert call() is value


# points and maps given as a value that is not iterable, or as pairs that
# repeat a point or are not pairs, are refused with a DomainError naming it
_P = PartialPerm(5, ((1, 2),))


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(lambda: PartialPerm.from_map(5, [(1, 2), (1, 3)]), "point 1 repeats",
                     id="from_map-repeat"),
        pytest.param(lambda: PartialPerm.from_map(5, {1: 2, "a": 3}),
                     "point 'a' is outside 1..5", id="from_map-str-point"),
        pytest.param(lambda: PartialPerm.from_map(5, [([1], 2)]), "point [1] is outside 1..5",
                     id="from_map-list-point"),
        pytest.param(lambda: PartialPerm.from_map(5, [(1, 2, 3)]),
                     "(1, 2, 3) is not a (point, image) pair", id="from_map-triple"),
        pytest.param(lambda: PartialPerm.from_map(5, [1]), "1 is not a (point, image) pair",
                     id="from_map-int-pair"),
        pytest.param(lambda: PartialPerm.from_map(5, 7), "mapping must be iterable, got 7",
                     id="from_map-int"),
        pytest.param(lambda: sorted_points(5, 3), "points must be iterable, got 3",
                     id="sorted_points"),
        pytest.param(lambda: identity_on(5, 3), "points must be iterable, got 3",
                     id="identity_on"),
        pytest.param(lambda: _P.restrict(3), "points must be iterable, got 3", id="restrict"),
        pytest.param(lambda: delta(5, 3, [1]), "points must be iterable, got 3", id="delta"),
        pytest.param(lambda: to_partial_perm(_G, 3), "points must be iterable, got 3",
                     id="to_partial_perm"),
    ],
)
def test_points_and_maps_that_are_not_point_sets_are_refused_by_name(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert type(err.value) is DomainError
    assert str(err.value) == message
