import pytest

from cycleiso import (
    DihedralElement,
    MembershipError,
    PartialPerm,
    classify,
    classify_order,
    empty_map,
    factorize,
    identity,
    identity_off,
    standard_generators,
    to_partial_perm,
)
from cycleiso.brute_force import kind_elements
from cycleiso.factorize import _mdi_word, _odi_word, _opdi_word, _rank2_reflection_word

from conftest import capped_child_lines


@pytest.mark.parametrize("kind", ["odi", "mdi", "opdi"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_every_member_round_trips(kind, n):
    gens = standard_generators(kind, n)
    names = set(gens.names)
    for p in kind_elements(kind, n):
        word = factorize(p, kind)
        assert set(word) <= names, (p, word)
        assert gens.evaluate(word) == p, (p, word)


def _listed_word(p, kind):
    # the word built from the first of the extensions classify lists
    sigma = classify(p).extensions[0]
    if kind == "mdi":
        return tuple(_mdi_word(p, sigma, classify_order(p).order_preserving))
    return tuple({"odi": _odi_word, "opdi": _opdi_word}[kind](p, sigma))


@pytest.mark.parametrize("kind", ["odi", "mdi", "opdi"])
def test_the_empty_map_factorizes_as_through_its_listed_extensions(kind):
    for n in range(3, 65):
        p = empty_map(n)
        word = factorize(p, kind)
        assert word == _listed_word(p, kind), n
        assert standard_generators(kind, n).evaluate(word) == p, n

@pytest.mark.parametrize("kind", ["odi", "mdi", "opdi"])
def test_word_length_stays_linear(kind):
    for n in (3, 4, 5, 6):
        worst = max(len(factorize(p, kind)) for p in kind_elements(kind, n))
        assert worst <= 8 * n


def test_identity_factorizes_to_the_empty_word():
    for kind in ("odi", "mdi", "opdi"):
        assert factorize(identity(6), kind) == ()


def test_notable_words():
    assert factorize(identity_off(5, 1), "odi") == ("y", "x")
    assert factorize(identity_off(5, 5), "odi") == ("x", "y")
    assert factorize(identity_off(5, 3), "odi") == ("e3",)
    h = standard_generators("mdi", 5).element("h")
    assert factorize(h, "mdi") == ("h",)
    g = standard_generators("opdi", 5).element("g")
    assert factorize(g, "opdi") == ("g",)


def test_rotation_extension_is_preferred_over_the_reflection():
    # antipodal rank-2 maps extend both ways; the word comes out of the
    # rotation construction, so no straddling generator appears in it
    p = PartialPerm.parse("n=4;1>2,3>4")
    for kind in ("odi", "mdi", "opdi"):
        word = factorize(p, kind)
        assert standard_generators(kind, 4).evaluate(word) == p
        assert not any(w[0] in "xy" and len(w) > 1 for w in word), word


def test_non_members_are_refused():
    h = standard_generators("mdi", 5).element("h")
    with pytest.raises(MembershipError):
        factorize(h, "odi")
    with pytest.raises(MembershipError):
        factorize(PartialPerm.parse("n=5;1>1,2>2,3>4"), "opdi")
    with pytest.raises(MembershipError):
        factorize(PartialPerm.parse("n=5;1>2,3>3,4>4,5>1"), "mdi")


def test_rank2_reflection_words_against_the_reflection_itself():
    # every i <= k < j slot except the half-circumference gaps, which the
    # function's precondition excludes
    for n in (4, 5, 6):
        odi = standard_generators("odi", n)
        for k in range(n):
            for i in range(1, k + 1):
                for j in range(k + 1, n + 1):
                    if 2 * (j - i) == n:
                        continue
                    word = _rank2_reflection_word(n, k, i, j)
                    want = to_partial_perm(DihedralElement.reflection(n, k), [i, j])
                    assert odi.evaluate(word) == want, (n, k, i, j, word)


def test_factorize_checks_the_kind_token():
    from cycleiso import DomainError

    with pytest.raises(DomainError):
        factorize(identity(5), "di")


def test_an_order_reversing_word_reads_no_generating_set():
    # the reflection peeled off an order-reversing map was read out of the
    # whole monoid set, about n^2/2 pairs: 454 MB at n = 3000, over the
    # child's cap; n = 301 round-trips a map held as pairs through that set
    lines = capped_child_lines("""
from cycleiso import PartialPerm, factorize, standard_generators
for n in (301, 3000):
    p = PartialPerm.parse(f"n={n};1>2,2>1")
    word = factorize(p, "mdi")
    print(len(word), word[-1], n > 301 or standard_generators("mdi", n).evaluate(word) == p)
""")
    assert lines == ["900 h True", "8998 h True"]
