import copy
import gc
import pickle
import random
from itertools import combinations

import pytest
from hypothesis import example, given, strategies as st

from cycleiso import (
    KINDS,
    AmbientMismatchError,
    CycleIsoError,
    DihedralElement,
    DomainError,
    NotInjectiveError,
    OrderFlags,
    ParseError,
    PartialPerm,
    all_elements,
    classify_order,
    delta,
    empty_map,
    identity,
    identity_off,
    identity_on,
    sorted_points,
    standard_generators,
    to_partial_perm,
)
from cycleiso.brute_force import all_partial_perms
from cycleiso.partial_perm import _KERNELS, _kernel

from conftest import capped_child_lines, perm_on, perm_pairs, perm_triples, perms, sparse_perm_on


def test_parse_str_round_trip():
    for text in ("n=5;2>1,4>3,5>4", "n=3;", "n=1;1>1", "n=12;3>11,10>2"):
        assert str(PartialPerm.parse(text)) == text


def test_parse_tolerates_surrounding_space():
    assert PartialPerm.parse("  n=4;2>3  ") == PartialPerm(4, ((2, 3),))


def _code_text(p):
    """The text decoded from the map's code."""
    return f"n={p.n};" + ",".join(f"{a}>{b}" for a, b in p.pairs)


@st.composite
def _padded_texts(draw):
    """The canonical text of a map on n = 1..40, 254 or 255 points, in surrounding space."""
    n = draw(st.integers(1, 40) | st.sampled_from((254, 255)))
    space = st.sampled_from(("", " ", "  ", "\t", "\n", " \r\n"))
    return draw(space) + _code_text(draw(sparse_perm_on(n, max_pairs=12))) + draw(space)


@given(_padded_texts())
@example("n=1;")
@example(" n=254;1>254,254>1 ")
@example("\tn=255;1>255,255>1\n")
def test_a_parsed_map_prints_the_text_it_read(text):
    p = PartialPerm.parse(text)
    assert str(p) == text.strip() == _code_text(p) == str(PartialPerm(p.n, p.pairs))
    assert type(str(p)) is str


@pytest.mark.parametrize("n", [5, 254, 255])
def test_the_kept_text_is_read_by_str_alone(n):
    text = f"n={n};1>2,3>{n},{n}>1"
    p, other = PartialPerm.parse(text), PartialPerm.parse(f"n={n};1>1,2>3,{n}>{n}")
    built = PartialPerm(n, p.pairs)
    assert p._text == text and not hasattr(built, "_text")
    # equality, hashing, order, repr and pickling read the code alone
    assert p == built and hash(p) == hash(built) and not p < built and not built < p
    assert repr(p) == repr(built)
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.dumps(p, proto) == pickle.dumps(built, proto)
    copies = [pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)]
    derived = [p * other, other * p, p * p, p.inverse(), p.restrict([1, n])]
    for q in copies + derived:
        assert not hasattr(q, "_text"), q
        assert str(q) == _code_text(q), q
    assert all(q == p and str(q) == text for q in copies)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "n=5",
        "n=05;",
        "n=0;",
        "n=5;1>2,",
        "n=5;1-2",
        "n=5;1>2 3>4",
        "garbage",
        # more digits than int() reads from text
        pytest.param("n=" + "1" * 5000 + ";", id="n-of-5000-digits"),
        pytest.param("n=5;" + "1" * 5000 + ">1", id="point-of-5000-digits"),
        # int() reads any Unicode decimal digit; the text form is ASCII
        pytest.param("n=1\u0660;1>1", id="arabic-indic-zero-in-n"),
        pytest.param("n=3\uff10;2>1\uff10", id="fullwidth-zeros"),
    ],
)
def test_parse_rejects_malformed_text(text):
    with pytest.raises(ParseError):
        PartialPerm.parse(text)


def test_parse_rejects_points_off_the_cycle():
    with pytest.raises(DomainError):
        PartialPerm.parse("n=5;1>6")
    with pytest.raises(DomainError):
        PartialPerm.parse("n=5;6>1")


def test_parse_rejects_unsorted_or_repeated_domains():
    with pytest.raises(DomainError):
        PartialPerm.parse("n=5;2>1,1>2")
    with pytest.raises(DomainError):
        PartialPerm.parse("n=5;2>1,2>3")


def test_repeated_image_point_is_rejected():
    with pytest.raises(NotInjectiveError):
        PartialPerm.parse("n=5;1>2,3>2")


@st.composite
def _pair_texts(draw):
    """n and a list of pairs of numbers up to n + 2, ascending in the point or not, often
    with a repeated image, on small cycles and around the last byte-code size."""
    n = draw(st.integers(1, 40) | st.integers(253, 255))
    number = st.integers(1, n + 2) | st.sampled_from((1, n, n + 1))
    pairs = draw(st.lists(st.tuples(number, number), max_size=8))
    if pairs and draw(st.booleans()):
        pairs.append((draw(number), draw(st.sampled_from(pairs))[1]))
    if draw(st.booleans()):
        pairs.sort()
    return n, pairs


@given(_pair_texts())
@example((254, [(1, 254), (254, 1)]))
@example((254, [(1, 255)]))
@example((254, [(255, 1)]))
@example((254, [(2, 1), (1, 2)]))
@example((254, [(1, 5), (2, 5)]))
@example((254, [(1, 1), (1, 2)]))
@example((255, [(1, 255), (255, 1)]))
@example((255, [(1, 256)]))
@example((1, []))
def test_parse_agrees_with_the_checking_constructor(case):
    n, pairs = case
    text = f"n={n};" + ",".join(f"{a}>{b}" for a, b in pairs)
    try:
        want = PartialPerm(n, tuple(pairs))
    except CycleIsoError as refused:
        with pytest.raises(CycleIsoError) as got:
            PartialPerm.parse(text)
        assert (type(got.value), str(got.value)) == (type(refused), str(refused))
    else:
        got = PartialPerm.parse(text)
        assert got == want and got._code == want._code and str(got) == text


def test_parse_of_a_valid_byte_code_text_skips_the_checking_constructor(monkeypatch):
    texts = ["n=1;", "n=1;1>1", "n=5;2>1,4>3,5>4", "n=254;", "n=254;1>254,254>1",
             "n=254;253>254", " n=12;3>11,10>2 "]
    want = [PartialPerm(p.n, p.pairs) for p in map(PartialPerm.parse, texts)]

    def refuse(cls, *args):
        raise AssertionError("parse went through the checking constructor")

    monkeypatch.setattr(PartialPerm, "__new__", refuse)
    assert [PartialPerm.parse(t) for t in texts] == want
    with pytest.raises(AssertionError):
        PartialPerm.parse("n=255;1>1")  # a pair code is built by the constructor


def test_from_map_sorts_by_point():
    p = PartialPerm.from_map(5, {4: 3, 2: 1})
    assert p.pairs == ((2, 1), (4, 3))
    assert p == PartialPerm.from_map(5, [(2, 1), (4, 3)])


def test_json_round_trip():
    p = PartialPerm.parse("n=5;2>1,4>3,5>4")
    assert p.to_json() == {"n": 5, "map": [[2, 1], [4, 3], [5, 4]]}
    assert PartialPerm.from_json(p.to_json()) == p


@pytest.mark.parametrize(
    "obj",
    [
        {},
        {"n": "5", "map": []},
        {"n": 5},
        {"n": 5, "map": [[1]]},
        {"n": 5, "map": [[1, 2, 3]]},
        {"n": 5, "map": [(1, 2)]},
        {"n": 5, "map": [[1, "2"]]},
        [5, []],
        {"n": True, "map": []},
        {"n": 5, "map": [[True, 2]]},
        {"n": True, "map": [[True, True]]},
    ],
)
def test_from_json_rejects_wrong_shapes(obj):
    with pytest.raises(ParseError):
        PartialPerm.from_json(obj)


def test_basic_accessors():
    p = PartialPerm.parse("n=5;2>5,3>3,4>2")
    assert p.rank == 3
    assert p.domain == (2, 3, 4)
    assert p.values == (5, 3, 2)
    assert p.image == (2, 3, 5)
    assert p.as_dict() == {2: 5, 3: 3, 4: 2}


def test_composition_follows_the_right_action():
    a = PartialPerm.parse("n=4;1>2,3>4")
    b = PartialPerm.parse("n=4;2>3,4>2")
    # x(a*b) = (xa)b, undefined where the chain breaks
    assert str(a * b) == "n=4;1>3,3>2"
    assert (a * empty_map(4)).rank == 0


def test_composition_requires_matching_ambient():
    with pytest.raises(AmbientMismatchError):
        PartialPerm.parse("n=4;1>2") * PartialPerm.parse("n=5;1>2")


@given(perm_triples())
def test_composition_is_associative(abc):
    a, b, c = abc
    assert (a * b) * c == a * (b * c)


@given(perms())
def test_identity_is_neutral(p):
    e = identity(p.n)
    assert e * p == p
    assert p * e == p


@given(perms())
def test_inverse_laws(p):
    q = p.inverse()
    assert p * q == identity_on(p.n, p.domain)
    assert q * p == identity_on(p.n, p.image)
    assert p * q * p == p
    assert q.inverse() == p


@given(st.sampled_from([*range(1, 9), 254, 255]).flatmap(
    lambda n: perm_on(n) if n <= 8 else sparse_perm_on(n)))
@example(PartialPerm(254, ((1, 254), (254, 1))))
@example(PartialPerm(254, ((253, 254),)))
@example(PartialPerm(255, ((254, 255),)))
def test_inverse_is_the_sorted_swapped_pairs(p):
    # the naive path: swap each pair, sort and encode through the checking constructor
    naive = PartialPerm(p.n, tuple(sorted((b, a) for a, b in p.pairs)))
    q = p.inverse()
    assert (q, q._code, q.pairs) == (naive, naive._code, naive.pairs)


@given(perm_pairs())
def test_inverse_reverses_products(ab):
    a, b = ab
    assert (a * b).inverse() == b.inverse() * a.inverse()


def test_image_array_codec_round_trips_every_small_map():
    # both kernels run on every small map: byte codes as elements hold them, and the
    # pairs, which the pair kernel composes without reading n
    for n in range(1, 5):
        maps = list(all_partial_perms(n))
        for p in maps:
            assert p._code == p._code.rstrip(b"\xff")
            assert len(p._code) == (p.domain[-1] if p.rank else 0)
        assert sorted(maps) == sorted(maps, key=lambda p: p.pairs)
        assert sorted(maps, key=lambda p: p._code) == sorted(maps, key=lambda p: p.pairs)
        for (mul, strip, table, decode), encode in zip(
            _KERNELS, (lambda p: p._code, lambda p: p.pairs)
        ):
            for a in maps:
                assert decode(encode(a)) == a.pairs
                for b in maps if n <= 3 else ():
                    assert decode(strip(mul(encode(a), table(encode(b))))) == (a * b).pairs


@given(perm_pairs(min_n=3, max_n=12))
def test_image_array_product_is_the_composition(ab):
    # the product engine.close and GeneratorSet.evaluate use from n = 255 on; it reads no n
    a, b = ab
    mul, strip, table, decode = _kernel(255)
    assert decode(strip(mul(a.pairs, table(b.pairs)))) == (a * b).pairs
    assert (PartialPerm(255, a.pairs) * PartialPerm(255, b.pairs)).pairs == (a * b).pairs


@st.composite
def _kernel_sized_pairs(draw):
    n = draw(st.integers(1, 300) | st.sampled_from((254, 255)))
    return draw(sparse_perm_on(n, max_pairs=8)), draw(sparse_perm_on(n, max_pairs=8))


@given(_kernel_sized_pairs())
@example((PartialPerm(254, ((1, 254), (254, 1))), PartialPerm(254, ((1, 1), (254, 254)))))
@example((PartialPerm(254, ((253, 254),)), PartialPerm(254, ((253, 253),))))
@example((PartialPerm(255, ((1, 255), (255, 1))), PartialPerm(255, ((1, 1), (255, 255)))))
@example((PartialPerm(255, ((254, 255),)), PartialPerm(255, ((255, 254),))))
def test_kernel_round_trips_sorts_and_composes(ab):
    # the codes engine.close and GeneratorSet.evaluate share: bytes up to n = 254
    a, b = ab
    mul, strip, table, decode = _kernel(a.n)
    ea, eb = a._code, b._code
    assert isinstance(ea, bytes) == (a.n <= 254)
    assert len(ea) == ((a.domain[-1] if a.rank else 0) if a.n <= 254 else a.rank)
    assert decode(ea) == a.pairs and decode(eb) == b.pairs
    assert _sign(ea, eb) == _sign(a, b)
    product = strip(mul(ea, table(eb)))
    assert decode(product) == (a * b).pairs
    assert product == (a * b)._code == PartialPerm(a.n, (a * b).pairs)._code


def _naive_product(a, b):
    lookup = dict(b.pairs)
    return tuple((x, lookup[y]) for x, y in a.pairs if y in lookup)


@st.composite
def _maps_across_the_byte_cut(draw):
    # dense maps on small cycles, sparse ones up to n = 300, where n itself is drawn
    # as a point as often as all the others together; c lives on any cycle
    def on(n):
        return perm_on(n) if n <= 16 else sparse_perm_on(n, max_pairs=8)

    n = draw(st.integers(1, 300) | st.sampled_from((254, 255)) | st.integers(1, 5))
    return draw(on(n)), draw(on(n)), draw(on(draw(st.sampled_from((n, 254, 255, 3)))))


@given(_maps_across_the_byte_cut())
@example((PartialPerm(254, ((1, 254), (254, 1))), PartialPerm(254, ((1, 1), (254, 254))),
          empty_map(255)))
@example((PartialPerm(254, ((253, 254),)), PartialPerm(254, ((253, 253),)), identity(254)))
@example((PartialPerm(255, ((1, 255), (255, 1))), PartialPerm(255, ((1, 1), (255, 255))),
          empty_map(254)))
@example((PartialPerm(255, ((254, 255),)), PartialPerm(255, ((255, 254),)), identity(255)))
@example((empty_map(254), PartialPerm(254, ((254, 1),)), PartialPerm(254, ((1, 254),))))
@example((PartialPerm(254, ((1, 254),)), empty_map(254), PartialPerm(254, ((254, 254),))))
@example((empty_map(255), PartialPerm(255, ((255, 1),)), PartialPerm(255, ((1, 255),))))
@example((PartialPerm(255, ((1, 255),)), empty_map(255), PartialPerm(255, ((255, 255),))))
def test_every_operation_agrees_with_the_pairs(abc):
    # a, b and c are built from pairs; a * b and the maps below it hold only the code
    # a product left, so each operation is checked on both kinds of element
    a, b, c = abc
    n = a.n
    ab = a * b
    assert ab.pairs == _naive_product(a, b)
    for p, q in ((a, b), (b, a), (a, c), (ab, a), (ab, b), (ab, ab * identity(n))):
        assert (p == q) == ((p.n, p.pairs) == (q.n, q.pairs))
        assert _sign(p, q) == _sign((p.n, p.pairs), (q.n, q.pairs))
        if p == q:
            assert hash(p) == hash(q)
    assert hash(ab) == hash(PartialPerm(n, ab.pairs)) and ab == PartialPerm(n, ab.pairs)
    for p in (a, b, ab, ab * a.inverse()):
        pairs = p.pairs
        assert PartialPerm(n, pairs) == p and p * identity(n) == p
        assert p.domain == tuple(x for x, _ in pairs) and p.values == tuple(y for _, y in pairs)
        assert p.image == tuple(sorted(p.values)) and p.rank == len(pairs)
        assert p.inverse().pairs == tuple(sorted((y, x) for x, y in pairs))
        assert p.restrict(b.domain).pairs == tuple(pair for pair in pairs if pair[0] in b.domain)
        assert str(p) == f"n={n};" + ",".join(f"{x}>{y}" for x, y in pairs)
        assert p.to_json() == {"n": n, "map": [list(pair) for pair in pairs]}


def _sign(x, y) -> int:
    return (x > y) - (x < y)


class _PickledPairs:
    """Pickles as a map whose ``__reduce__`` reads the given pairs."""

    def __init__(self, n, pairs):
        self.args = n, pairs

    def __reduce__(self):
        return PartialPerm, self.args


def _view_pairs(n):
    """Canonical pairs, built without a map: every di map at n <= 7, each symmetry cut to
    each point set; above, the full identity, the corner swap and seeded random maps."""
    points = range(1, n + 1)
    if n <= 7:
        return {tuple((a, s.apply(a)) for a in dom) for s in all_elements(n)
                for k in range(n + 1) for dom in combinations(points, k)}
    rng = random.Random(n)
    out = [tuple((a, a) for a in points), ((1, n), (n, 1)), ((n, n),), ()]
    for _ in range(300):
        dom = sorted({*rng.sample(points, rng.randint(1, 12)), rng.choice((1, n))})
        out.append(tuple(zip(dom, rng.sample(points, len(dom)))))
    return out


@pytest.mark.parametrize("n", [*range(3, 8), 254, 255])
def test_views_read_from_the_code_match_the_pair_formulas(n):
    for pairs in _view_pairs(n):
        text = f"n={n};" + ",".join(f"{a}>{b}" for a, b in pairs)
        built = PartialPerm(n, pairs)
        for p in (PartialPerm.parse(text), built, built * identity(n)):
            assert p.pairs == pairs
            assert p.rank == len(pairs)
            assert p.domain == tuple(a for a, _ in pairs)
            assert p.values == tuple(b for _, b in pairs)
            assert p.image == tuple(sorted(b for _, b in pairs))
            assert str(p) == text
            assert p.as_dict() == dict(pairs)
            assert p.to_json() == {"n": n, "map": [[a, b] for a, b in pairs]}
            assert repr(p) == f"PartialPerm(n={n!r}, pairs={pairs!r})"
            for proto in (2, pickle.HIGHEST_PROTOCOL):
                assert pickle.dumps(p, proto) == pickle.dumps(_PickledPairs(n, pairs), proto)
            # the views above left nothing on the map: up to 254 it holds n and its bytes
            if n <= 254:
                assert not any(isinstance(r, tuple) for r in gc.get_referents(p)), p


_HUGE_CYCLE_IN_A_CAPPED_CHILD = """
from cycleiso import PartialPerm, classify
n = 10**4300 - 1
p = PartialPerm(n, ((2, n), (n, 1)))
print(p.inverse() * p == PartialPerm(n, ((1, 1), (n, n))), p < p.inverse(), len(str(p)))
print(classify(PartialPerm(n, ((n, 1),))).in_opdi)
"""


def test_a_map_on_a_huge_cycle_costs_what_its_pairs_cost():
    # from n = 255 the code is the pairs, so a point near n stores no image per point
    assert capped_child_lines(_HUGE_CYCLE_IN_A_CAPPED_CHILD) == ["True False 12908", "True"]


@given(perm_pairs(), st.data())
def test_unvalidated_results_pass_validation(ab, data):
    a, b = ab
    n = a.n
    sigma = DihedralElement(n, data.draw(st.integers(0, 1)), data.draw(st.integers(0, n - 1)))
    built = [a * b, a.inverse(), a.restrict(b.domain)]
    built += [identity(n), identity_on(n, a.domain), delta(n, a.domain, a.image)]
    built += [identity_off(n, x) for x in range(1, n + 1)]
    built.append(to_partial_perm(sigma, a.domain))
    built += [p for kind in KINDS + ("di",) for p in standard_generators(kind, n).elements]
    # points in any order and with repeats: the factories must sort them,
    # and refuse the repeats
    points = data.draw(st.lists(st.integers(1, n), max_size=n))
    for build in (lambda: identity_on(n, points), lambda: to_partial_perm(sigma, points)):
        try:
            built.append(build())
        except DomainError:
            assert len(set(points)) < len(points)
    for p in built:
        assert PartialPerm(p.n, p.pairs) == p


@given(perms())
def test_restrict_agrees_with_left_identity(p):
    sub = p.domain[::2]
    assert p.restrict(sub) == identity_on(p.n, sub) * p
    assert p.restrict(range(1, p.n + 1)) == p


def test_restrict_validates_points():
    with pytest.raises(DomainError):
        PartialPerm.parse("n=4;1>2").restrict([0])


def test_sorted_points_rejects_repeats_and_strays():
    assert sorted_points(5, [3, 1]) == (1, 3)
    with pytest.raises(DomainError):
        sorted_points(5, [1, 1])
    with pytest.raises(DomainError):
        sorted_points(5, [7])


@pytest.mark.parametrize(
    "n,pairs",
    [(True, ()), (5, ((True, 2),)), (5, ((1, True),)), (5, ((1.0, 2),))],
)
def test_constructor_rejects_non_int_values(n, pairs):
    with pytest.raises(DomainError):
        PartialPerm(n, pairs)


def test_ambient_size_must_be_printable():
    # int() prints at most 4300 digits, so 10**4300 is the first size refused
    edge = 10**4300 - 1
    assert str(PartialPerm(edge, ((1, 1),))) == f"n={edge};1>1"
    for n in (10**4300, 10**5000):
        with pytest.raises(DomainError):
            PartialPerm(n, ())
        with pytest.raises(DomainError):
            PartialPerm.from_json({"n": n, "map": []})


@pytest.mark.parametrize("pairs", [[(1, 2)], ([1, 2],), ((1, 2, 3),), ((1,),), (1, 2)])
def test_constructor_rejects_pairs_that_are_not_a_tuple_of_two_tuples(pairs):
    with pytest.raises(DomainError):
        PartialPerm(5, pairs)


def test_sorted_points_validates_before_sorting():
    with pytest.raises(DomainError):
        sorted_points(5, [1, "a"])
    with pytest.raises(DomainError):
        sorted_points(5, [None, 2])
    with pytest.raises(DomainError):
        PartialPerm.parse("n=4;1>2").restrict([1, "a"])


def test_sorted_points_rejects_bools():
    with pytest.raises(DomainError):
        sorted_points(5, [True, 3])
    with pytest.raises(DomainError):
        PartialPerm.parse("n=4;1>2").restrict([True])


def test_identity_factories():
    assert str(identity(3)) == "n=3;1>1,2>2,3>3"
    assert str(identity_off(4, 2)) == "n=4;1>1,3>3,4>4"
    assert identity_on(4, [2]) == PartialPerm(4, ((2, 2),))
    assert empty_map(4).rank == 0
    with pytest.raises(DomainError):
        identity_off(4, 5)


_SIZE_CHECKS_IN_A_CAPPED_CHILD = """
from cycleiso import DomainError, PartialPerm, close, identity, identity_off, identity_on, sorted_points
from cycleiso.brute_force import all_partial_perms
for n in (10**4300, 10**5000, 0, -1, "5", 4.0, None):
    for call in (
        lambda: PartialPerm(n, ()),
        lambda: identity(n),
        lambda: identity_off(n, 1),
        lambda: identity_on(n, [1]),
        lambda: sorted_points(n, [1]),
        lambda: close(n, []),
        lambda: all_partial_perms(n),
    ):
        try:
            call()
        except DomainError as err:
            print(err)
"""


def test_identity_factories_check_the_size_before_building():
    # a call that built from its size first would try to materialise
    # 10**4300 points, so the calls run in a capped child, never in this
    # process
    lines = capped_child_lines(_SIZE_CHECKS_IN_A_CAPPED_CHILD)
    assert len(lines) == 49
    # each size: PartialPerm's refusal, then the same from the six others
    for k in range(1, 7):
        assert lines[k::7] == lines[0::7]


@pytest.mark.parametrize("skip", ["a", True, 2.0, 0])
def test_identity_off_requires_a_point_of_the_cycle(skip):
    with pytest.raises(DomainError):
        identity_off(4, skip)


def test_order_flags_of_worked_examples():
    reversing = classify_order(PartialPerm.parse("n=5;2>5,3>3,4>2,5>1"))
    assert reversing == OrderFlags(False, True, False, True)
    cyclic = classify_order(PartialPerm.parse("n=5;1>2,3>3,4>4,5>1"))
    assert cyclic == OrderFlags(False, False, True, False)
    ascending = classify_order(PartialPerm.parse("n=5;2>1,4>3,5>4"))
    assert ascending == OrderFlags(True, False, True, False)


def test_small_ranks_have_every_flag():
    assert classify_order(empty_map(6)) == OrderFlags(True, True, True, True)
    assert classify_order(PartialPerm.parse("n=6;4>2")) == OrderFlags(
        True, True, True, True
    )
    # two points always read as both cyclic and anti-cyclic
    two = classify_order(PartialPerm.parse("n=6;1>5,4>2"))
    assert (two.orientation_preserving, two.orientation_reversing) == (True, True)
    assert (two.order_preserving, two.order_reversing) == (False, True)


def test_monotone_and_oriented_are_disjunctions():
    f = OrderFlags(False, True, False, True)
    assert f.monotone and f.oriented
    assert not OrderFlags(False, False, True, False).monotone


def _four_scans(v) -> OrderFlags:
    # the definition read straight off: two linear scans and two cyclic counts
    t = len(v)
    if t <= 1:
        return OrderFlags(True, True, True, True)
    inc = all(v[i] < v[i + 1] for i in range(t - 1))
    dec = all(v[i] > v[i + 1] for i in range(t - 1))
    descents = sum(v[i] > v[(i + 1) % t] for i in range(t))
    ascents = sum(v[i] < v[(i + 1) % t] for i in range(t))
    return OrderFlags(inc, dec, descents <= 1, ascents <= 1)


@given(st.lists(st.integers(1, 60), unique=True, max_size=40))
def test_order_flags_match_the_four_scan_definition(values):
    p = PartialPerm(60, tuple(zip(range(1, len(values) + 1), values)))
    assert classify_order(p) == _four_scans(values)


@given(perms())
def test_order_flags_survive_inversion(p):
    assert classify_order(p) == classify_order(p.inverse())


@given(perms())
def test_canonical_text_round_trips(p):
    assert PartialPerm.parse(str(p)) == p
    assert PartialPerm.from_json(p.to_json()) == p
