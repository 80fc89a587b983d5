"""Named generators, standard sets, and word text."""

import random

import pytest
from hypothesis import given, strategies as st

from cycleiso import (
    DomainError,
    GeneratorSet,
    ParseError,
    PartialPerm,
    classify,
    generator,
    identity,
    identity_off,
    parse_word,
    standard_generators,
    word_text,
)


def test_single_generators_by_definition():
    assert str(generator(5, "g")) == "n=5;1>2,2>3,3>4,4>5,5>1"
    assert str(generator(5, "h")) == "n=5;1>5,2>4,3>3,4>2,5>1"
    assert str(generator(5, "x")) == "n=5;1>2,2>3,3>4,4>5"
    assert generator(5, "y") == generator(5, "x").inverse()
    assert generator(5, "e3") == identity_off(5, 3)
    assert str(generator(5, "x1")) == "n=5;1>1,2>5"
    assert str(generator(5, "x2")) == "n=5;1>1,3>4"
    assert generator(5, "y2") == generator(5, "x2").inverse()
    assert str(generator(7, "x3")) == "n=7;1>1,4>5"


def test_generator_name_validation():
    with pytest.raises(ParseError):
        generator(5, "z")
    with pytest.raises(ParseError):
        generator(5, "e01")
    with pytest.raises(ParseError):
        generator(5, "")
    for long_name in ("e" + "1" * 5000, "x" + "1" * 5000):
        with pytest.raises(ParseError):
            generator(5, long_name)
    # straddle indices stop at (n-1)//2
    with pytest.raises(DomainError):
        generator(5, "x3")
    with pytest.raises(DomainError):
        generator(4, "y2")


def test_standard_set_sizes():
    for n in range(3, 12):
        m = (n - 1) // 2
        assert len(standard_generators("odi", n)) == n + 2 * m
        assert len(standard_generators("mdi", n)) == 2 + (n + 1) // 2 - 1 + 2 * m
        assert len(standard_generators("opdi", n)) == 2 + m
        assert len(standard_generators("di", n)) == 3


def test_standard_set_name_layout():
    odi = standard_generators("odi", 5)
    assert odi.names == ("x", "y", "e2", "e3", "e4", "x1", "x2", "y1", "y2")
    mdi = standard_generators("mdi", 5)
    assert mdi.names == ("h", "x", "e2", "e3", "x1", "x2", "y1", "y2")
    opdi = standard_generators("opdi", 5)
    assert opdi.names == ("g", "e5", "x1", "x2")
    assert standard_generators("di", 5).names == ("g", "h", "e5")


def test_standard_generators_are_members():
    for n in (3, 4, 5, 6, 7):
        for kind, flag in (("odi", "in_odi"), ("mdi", "in_mdi"), ("opdi", "in_opdi")):
            for name, p in standard_generators(kind, n):
                assert getattr(classify(p), flag), (kind, n, name)


def test_generator_set_lookup_and_iteration():
    gens = standard_generators("opdi", 5)
    assert gens.element("g") == generator(5, "g")
    with pytest.raises(ParseError):
        gens.element("x")  # valid name, but not in this set
    assert dict(gens)["e5"] == identity_off(5, 5)


def test_word_evaluation():
    odi = standard_generators("odi", 5)
    assert odi.evaluate(()) == identity(5)
    assert odi.evaluate(("y", "x")) == identity_off(5, 1)
    assert odi.evaluate(("x", "y")) == identity_off(5, 5)
    # left to right: x then y undoes the shift where defined
    assert odi.evaluate(["x"] * 5) == PartialPerm.parse("n=5;")


@pytest.mark.parametrize("word", ["xy", "x", "", None, 7], ids=repr)
def test_evaluate_refuses_text_and_non_sequences(word):
    # text would otherwise be read letter by letter: "xy" as ("x", "y")
    with pytest.raises(ParseError, match="parse_word"):
        standard_generators("odi", 5).evaluate(word)


@st.composite
def _set_and_word(draw):
    # 254 and 255 are the last byte-image size and the first image-array size
    gens = standard_generators(draw(st.sampled_from(("odi", "mdi", "opdi", "di"))),
                               draw(st.integers(3, 12) | st.sampled_from((254, 255))))
    word = draw(st.lists(st.sampled_from(gens.names), max_size=min(3 * gens.n, 40)))
    return gens, word


@given(_set_and_word())
def test_evaluate_is_the_left_to_right_product(case):
    gens, word = case
    expected = identity(gens.n)
    for name in word:
        expected = expected * gens.element(name)
    assert gens.evaluate(word) == expected


@pytest.mark.parametrize("n", [*range(3, 9), 254, 255])
def test_evaluate_starts_every_word_from_its_own_identity(n):
    rng = random.Random(n)
    for kind in ("odi", "mdi", "opdi", "di"):
        # the shared standard set and a fresh one, which has evaluated nothing yet
        shared = standard_generators(kind, n)
        for gens in (shared, GeneratorSet(kind, n, shared.names)):
            words = [(), *(rng.choices(gens.names, k=rng.randint(1, 3 * n)) for _ in range(6)), ()]
            for word in words:
                expected = identity(n)
                for name in word:
                    expected = expected * gens.element(name)
                assert gens.evaluate(word) == expected, (kind, word)
            # the start code is the identity's, immutable, and this size's alone
            assert type(gens._identity_code) in (bytes, tuple)
            assert gens._identity_code == identity(n)._code
    assert standard_generators("odi", n)._identity_code != identity(n + 1)._code


@pytest.mark.parametrize("word", [[["g"]], [None], ["z"], ["x", 1]], ids=repr)
def test_evaluate_refuses_names_outside_the_set(word):
    with pytest.raises(ParseError, match="not in the odi generating set"):
        standard_generators("odi", 5).evaluate(word)


@pytest.mark.parametrize("n", [5, 255])  # a byte code and a map held as pairs
@pytest.mark.parametrize("bad", ["z", "e999", 1, None, ["g"], {"x": 1}], ids=repr)
def test_evaluate_names_the_first_bad_letter_of_a_word_read_once(n, bad):
    # an iterator cannot be read twice, so the letter a refusal names is the one it met
    gens = standard_generators("odi", n)
    word = ["x", "y", bad, "x", "z"]
    for form in (tuple(word), word, iter(word), (name for name in word)):
        with pytest.raises(ParseError) as refused:
            gens.evaluate(form)
        assert type(refused.value) is ParseError
        assert str(refused.value) == f"name {bad!r} is not in the odi generating set"
        assert refused.value.__suppress_context__


@pytest.mark.parametrize("n", [5, 255])
@pytest.mark.parametrize("word", ["x z", "xy", "z"], ids=repr)
def test_a_text_word_is_refused_before_any_letter_is_read(n, word):
    with pytest.raises(ParseError, match="read text with parse_word"):
        standard_generators("odi", n).evaluate(word)


@pytest.mark.parametrize(
    "kind,n,names,error",
    [
        ("odi", 5, ("x", "x"), ParseError),
        ("odi", 5, ("z",), ParseError),
        ("odi", 5, (1,), ParseError),
        ("xdi", 5, ("x",), DomainError),
        ("odi", 2, ("x",), DomainError),
        ("odi", 5, ["x"], DomainError),
        ("odi", 5, ("x9",), DomainError),
        ("odi", 5, ("y3",), DomainError),
        ("odi", 5, ("e6",), DomainError),
        ("odi", 5, ([1],), ParseError),
    ],
    ids=[
        "repeated-name", "unknown-name", "non-str-name", "unknown-kind", "cycle-too-small",
        "lists", "straddle-past-the-cycle", "inverse-straddle-past-the-cycle",
        "partial-identity-past-the-cycle", "unhashable-name",
    ],
)
def test_generator_set_refuses_malformed_contents(kind, n, names, error):
    # refused when built, so no word can reach a letter that is not in the set
    with pytest.raises(error):
        GeneratorSet(kind, n, names)


def test_generator_set_is_its_names():
    gens = GeneratorSet("odi", 5, ("y", "x"))
    assert gens.elements == (generator(5, "y"), generator(5, "x"))
    assert gens.evaluate(["x"]) == generator(5, "x")
    assert gens == GeneratorSet("odi", 5, ("y", "x")) != GeneratorSet("odi", 5, ("x", "y"))
    assert standard_generators("opdi", 5) == GeneratorSet("opdi", 5, ("g", "e5", "x1", "x2"))
    with pytest.raises(TypeError):
        GeneratorSet("odi", 5, ("x",), (generator(5, "y"),))


def test_word_text_round_trip():
    assert word_text(()) == "ε"
    assert word_text(("y", "x1", "x", "x")) == "y x1 x x"
    assert parse_word("y x1 x x") == ("y", "x1", "x", "x")
    assert parse_word("ε") == ()
    assert parse_word("") == ()
    assert parse_word("  g  e5 ") == ("g", "e5")
    for word in ((), ("h",), ("e2", "e2"), ("x", "y", "x12")):
        assert parse_word(word_text(word)) == word


@pytest.mark.parametrize(
    "name", ["e1\u0660", "x\u0661", "y1\uff10"], ids=["arabic-indic-zero", "arabic-indic-one", "fullwidth-zero"]
)
def test_names_take_ascii_digits_only(name):
    # int() reads any Unicode decimal digit, so e1\u0660 would build e10
    # under a name no generating set lists
    with pytest.raises(ParseError):
        generator(30, name)
    with pytest.raises(ParseError):
        parse_word(f"{name} g")


def test_word_parsing_rejects_junk():
    with pytest.raises(ParseError):
        parse_word("x q")
    with pytest.raises(ParseError):
        parse_word("x^2")


def test_standard_generators_validation():
    with pytest.raises(DomainError):
        standard_generators("odi", 2)
    with pytest.raises(DomainError):
        standard_generators("nope", 5)


@pytest.mark.parametrize(
    "kind,n", [(["odi"], 5), ("odi", [5]), ("odi", 2), ("odi", True)], ids=repr
)
def test_standard_generators_refuses_unhashable_and_bad_arguments(kind, n):
    # validated before any cache lookup could hash the arguments
    with pytest.raises(DomainError):
        standard_generators(kind, n)


def test_standard_generators_repeat_calls_agree():
    for kind in ("odi", "mdi", "opdi", "di"):
        assert standard_generators(kind, 7) == standard_generators(kind, 7)
