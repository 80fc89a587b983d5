"""Error messages name the offending value, whatever its size."""

import pytest

from cycleiso import (
    DihedralElement,
    DomainError,
    ParseError,
    PartialPerm,
    card,
    close,
    distance,
    export_bytes,
    generator,
    identity_off,
    parse_word,
    proof_counts,
    sorted_points,
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
