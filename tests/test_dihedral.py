import copy
import importlib
import pickle
import random
from dataclasses import FrozenInstanceError
from functools import partial
from itertools import combinations, islice, permutations

import pytest
from hypothesis import example, given, strategies as st

from cycleiso import (
    AmbientMismatchError,
    DihedralElement,
    DomainError,
    KINDS,
    MembershipReport,
    OrderFlags,
    ParseError,
    PartialPerm,
    all_elements,
    b2_count,
    check_kind,
    classify,
    classify_order,
    extensions,
    empty_map,
    factorize,
    identity,
    in_kind,
    is_in_b2,
    to_partial_perm,
)
from cycleiso.brute_force import dihedral_restrictions, scan_extensions

from conftest import perm_on


def dihedrals(min_n=3, max_n=12):
    return st.builds(
        lambda n, j, k: DihedralElement(n, j, k % n),
        st.shared(st.integers(min_n, max_n), key="n"),
        st.integers(0, 1),
        st.integers(0, 100),
    )


def test_defining_relations():
    n = 7
    g = DihedralElement.rotation(n, 1)
    h = DihedralElement.reflection(n, 0)
    e = DihedralElement.identity(n)
    assert g.power(n) == e
    assert h * h == e
    assert h * g == g.power(n - 1) * h


def test_normal_form_strings():
    assert str(DihedralElement(5, 0, 2)) == "g^2"
    assert str(DihedralElement(5, 1, 0)) == "h*g^0"
    assert DihedralElement.parse(5, "h*g^3") == DihedralElement(5, 1, 3)
    assert DihedralElement.parse(5, " g^0 ") == DihedralElement.identity(5)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "g3",
        "h g^1",
        "g^-1",
        "hg^2",
        # more digits than int() reads from text
        pytest.param("g^" + "1" * 5000, id="rotation-of-5000-digits"),
        pytest.param("h*g^" + "1" * 5000, id="reflection-of-5000-digits"),
        # int() reads any Unicode decimal digit; the text form is ASCII
        pytest.param("g^\u0663", id="arabic-indic-three"),
    ],
)
def test_parse_rejects_other_spellings(text):
    with pytest.raises(ParseError):
        DihedralElement.parse(5, text)


def test_construction_bounds():
    with pytest.raises(DomainError):
        DihedralElement(2, 0, 0)
    with pytest.raises(DomainError):
        DihedralElement(5, 2, 0)
    with pytest.raises(DomainError):
        DihedralElement(5, 0, 5)
    assert DihedralElement.rotation(5, 7).k == 2


@pytest.mark.parametrize(
    "n,j,k", [(5, 0, True), (5, True, 0), (True, 0, 0), (5.0, 0, 0), (5, 0, 1.0), (5, 1.0, 0)]
)
def test_construction_requires_exact_ints(n, j, k):
    with pytest.raises(DomainError):
        DihedralElement(n, j, k)


@pytest.mark.parametrize("make", ["rotation", "reflection"])
@pytest.mark.parametrize(
    "n,k",
    [(0, 1), (1, 1), (2, 5), ("5", 1), (5.0, 1), (True, 1), (3, "1"), (3, 1.0), (3, True)],
    ids=["n0", "n1", "n2", "n-str", "n-float", "n-bool", "k-str", "k-float", "k-bool"],
)
def test_rotation_and_reflection_refuse_what_the_constructor_refuses(make, n, k):
    # the reduction k % n used to run first: n = 0 divided by zero, and a str
    # n or k raised TypeError
    with pytest.raises(DomainError) as want:
        DihedralElement(n, 0, k)
    with pytest.raises(DomainError) as got:
        getattr(DihedralElement, make)(n, k)
    assert type(got.value) is DomainError
    assert str(got.value) == str(want.value)


def test_rotation_and_reflection_reduce_any_int_exponent():
    assert DihedralElement.rotation(5, -8) == DihedralElement(5, 0, 2)
    assert DihedralElement.reflection(5, 10**5000 + 3) == DihedralElement(5, 1, 3)


def test_construction_refuses_sizes_too_long_to_print():
    # int() prints at most 4300 digits, so 10**4300 is the first size refused
    edge = 10**4300 - 1
    assert str(DihedralElement(edge, 1, edge - 1)) == f"h*g^{edge - 1}"
    for n in (10**4300, 10**5000):
        with pytest.raises(DomainError):
            DihedralElement(n, 0, n // 10)


@given(dihedrals(), dihedrals(), st.integers(1, 12))
def test_multiplication_matches_the_point_action(s, t, i):
    i = (i - 1) % s.n + 1
    assert (s * t).apply(i) == t.apply(s.apply(i))


def _walked(s, i):
    # h sends i to n - i + 1, then each of the k steps of g moves one point on
    if s.j:
        i = s.n - i + 1
    for _ in range(s.k):
        i = i % s.n + 1
    return i


@given(dihedrals(max_n=40), st.integers(1, 40))
def test_private_image_is_a_reflection_then_k_unit_rotations(s, i):
    i = (i - 1) % s.n + 1
    assert s._image(i) == _walked(s, i)


@given(dihedrals())
def test_inverse_and_power(s):
    e = DihedralElement.identity(s.n)
    assert s * s.inverse() == e
    assert s.inverse() * s == e
    assert s.power(0) == e
    assert s.power(3) == s * s * s


@pytest.mark.parametrize("s", [DihedralElement(5, 0, 2), DihedralElement(5, 1, 2)], ids=str)
@pytest.mark.parametrize("m", ["2", None, 1.5, True], ids=repr)
def test_power_refuses_an_exponent_that_is_not_an_int(s, m):
    # power("2") and power(None) raised TypeError, and power(1.5) a DomainError
    # that named the rotation exponent 3.0 it had computed
    with pytest.raises(DomainError) as err:
        s.power(m)
    assert type(err.value) is DomainError
    assert str(err.value) == f"power exponent must be an int, got {m!r}"


def test_power_takes_any_int_exponent():
    g = DihedralElement.rotation(5, 1)
    assert g.power(-1) == g.inverse()
    assert g.power(10**5000 + 2) == DihedralElement(5, 0, 2)
    assert DihedralElement.reflection(5, 3).power(-3) == DihedralElement.reflection(5, 3)


def test_ambient_mismatch_is_rejected():
    with pytest.raises(AmbientMismatchError):
        DihedralElement.rotation(4, 1) * DihedralElement.rotation(5, 1)


def test_all_elements_order_and_count():
    elems = list(all_elements(4))
    assert len(elems) == 8
    assert elems[0] == DihedralElement.identity(4)
    assert [str(s) for s in elems[:5]] == ["g^0", "g^1", "g^2", "g^3", "h*g^0"]


def _checked(s):
    # the constructor runs every check on the fields a symmetry was built with
    return DihedralElement(s.n, s.j, s.k)


@pytest.mark.parametrize("n", [*range(3, 41), 254, 255])
def test_symmetries_built_inside_equal_the_checked_ones(n):
    elems = list(all_elements(n))
    assert elems == [DihedralElement(n, j, k) for j in (0, 1) for k in range(n)]
    assert all(_checked(s) == s for s in elems)
    others = elems if n <= 40 else elems[:: n // 8]
    for s in elems:
        assert all(_checked(s * t) == s * t for t in others)
        assert _checked(s.inverse()) == s.inverse()
        for m in (-n - 1, -1, 0, 1, 2, n + 1, 10**30 + 5):
            assert _checked(s.power(m)) == s.power(m)
    for s in others:
        for points in ([], [1], [n // 2, n], [1, n // 2 + 1], [1, 2], range(1, n + 1)):
            p = to_partial_perm(s, points)
            exts = extensions(p)
            assert all(_checked(t) == t for t in exts)
            assert exts == scan_extensions(p)


def test_symmetries_built_inside_equal_the_checked_ones_at_4000_digits():
    n = 10**3999 + 7
    assert list(islice(all_elements(n), 3)) == [DihedralElement(n, 0, k) for k in range(3)]
    g, h = DihedralElement.rotation(n, 1), DihedralElement.reflection(n, 0)
    for s in (g.inverse(), g.power(-2), h * g, g * h, (h * g).inverse()):
        assert _checked(s) == s
    exts = extensions(PartialPerm(n, ((1, n),)))
    assert exts == (DihedralElement(n, 0, n - 1), DihedralElement(n, 1, 0))
    assert all(_checked(t) == t for t in exts)


@pytest.mark.parametrize(
    "s",
    [DihedralElement(7, 1, 3), next(all_elements(7)), DihedralElement.rotation(7, 2).inverse()],
    ids=str,
)
def test_a_symmetry_is_slotted_frozen_and_copies_with_its_hash(s):
    assert not hasattr(s, "__dict__")
    copies = [pickle.loads(pickle.dumps(s, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for back in copies + [copy.copy(s), copy.deepcopy(s)]:
        assert type(back) is DihedralElement
        assert back == s and hash(back) == hash(s)
    with pytest.raises(FrozenInstanceError):
        s.k = 1
    with pytest.raises(FrozenInstanceError):
        del s.k
    assert s == _checked(s)


@pytest.mark.parametrize("i", [True, 1.0, "1", 0, 6])
def test_apply_requires_a_point_of_the_cycle(i):
    with pytest.raises(DomainError):
        DihedralElement.rotation(5, 1).apply(i)


def test_restriction_to_points():
    assert str(to_partial_perm(DihedralElement.rotation(4, 3), [2, 4])) == "n=4;2>1,4>3"
    full = to_partial_perm(DihedralElement.reflection(5, 1), range(1, 6))
    assert str(full) == "n=5;1>1,2>5,3>4,4>3,5>2"


def test_extension_counts_by_rank():
    # rank 0: all 2n symmetries; rank 1: one rotation and one reflection
    assert len(extensions(empty_map(5))) == 10
    exts = extensions(PartialPerm.parse("n=5;2>4"))
    assert len(exts) == 2
    assert sorted(s.j for s in exts) == [0, 1]
    # rank 2 with antipodal endpoints: again a rotation/reflection pair
    exts = extensions(PartialPerm.parse("n=4;1>2,3>4"))
    assert [str(s) for s in exts] == ["g^1", "h*g^2"]
    # generic rank 2 and anything larger: unique
    assert len(extensions(PartialPerm.parse("n=5;1>3,2>4"))) == 1
    assert [str(s) for s in extensions(PartialPerm.parse("n=5;1>3,2>4,3>5,5>2"))] == [
        "g^2"
    ]
    # non-isometries extend to nothing
    assert extensions(PartialPerm.parse("n=5;1>1,2>2,3>4")) == ()


@given(st.integers(3, 8))
def test_every_symmetry_extends_its_own_restrictions(n):
    for sigma in all_elements(n):
        p = to_partial_perm(sigma, range(1, n + 1))
        assert extensions(p) == (sigma,)


@st.composite
def near_isometries(draw, min_n=3, max_n=16):
    """A random symmetry cut to a random domain, the same with one image
    moved (swapped with the pair already holding the new image), or an
    arbitrary injective map."""
    n = draw(st.integers(min_n, max_n))
    how = draw(st.sampled_from(["cut", "moved", "arbitrary"]))
    if how == "arbitrary":
        return draw(perm_on(n))
    sigma = DihedralElement(n, draw(st.integers(0, 1)), draw(st.integers(0, n - 1)))
    p = to_partial_perm(sigma, draw(st.sets(st.integers(1, n))))
    if how == "cut" or not p.pairs:
        return p
    images = dict(p.pairs)
    a = draw(st.sampled_from(p.domain))
    b = draw(st.integers(1, n))
    for x, y in p.pairs:
        if y == b:
            images[x] = images[a]
    images[a] = b
    return PartialPerm.from_map(n, images)


@given(near_isometries())
@example(PartialPerm.parse("n=3;"))
@example(PartialPerm.parse("n=16;"))
@example(PartialPerm.parse("n=7;4>1"))
@example(PartialPerm.parse("n=16;16>16"))
@example(PartialPerm.parse("n=8;1>3,5>7"))
@example(PartialPerm.parse("n=8;2>8,6>4"))
@example(PartialPerm.parse("n=16;3>14,11>6"))
@example(PartialPerm.parse("n=8;1>3,5>6"))
def test_extensions_match_the_scan(p):
    assert extensions(p) == scan_extensions(p)


@pytest.mark.parametrize(
    "n,pairs", [(1, ()), (1, ((1, 1),)), (2, ()), (2, ((1, 2),)), (2, ((1, 1), (2, 2)))]
)
def test_extensions_refuse_short_cycles_like_the_scan(n, pairs):
    # classify and factorize refuse with the same text, the empty map too,
    # although factorize builds none of its 2n extensions
    p = PartialPerm(n, pairs)
    with pytest.raises(DomainError) as scan:
        scan_extensions(p)
    assert str(scan.value) == f"the cycle graph needs n >= 3, got {n}"
    for call in [extensions, classify, *(partial(factorize, kind=kind) for kind in KINDS)]:
        with pytest.raises(DomainError) as fast:
            call(p)
        assert type(fast.value) is DomainError and str(fast.value) == str(scan.value)


def _random_maps(n, rng, count=24):
    """The empty map, then per round: a symmetry cut to a random domain, drawn past 1 two
    times in three, that cut with one image moved, an arbitrary injective map, and the cut
    again as a product, which holds only its code."""
    out = [empty_map(n)]
    for _ in range(count):
        sigma = DihedralElement(n, rng.randint(0, 1), rng.randrange(n))
        pool = range(rng.choice((1, 2, n // 2)), n + 1)
        cut = to_partial_perm(sigma, rng.sample(pool, rng.randint(1, len(pool))))
        images = cut.as_dict()
        a, b = rng.choice(cut.domain), rng.randint(1, n)
        images.update({x: images[a] for x, y in cut.pairs if y == b})
        images[a] = b
        dom = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
        arbitrary = PartialPerm(n, tuple(zip(dom, rng.sample(range(1, n + 1), len(dom)))))
        out += [cut, PartialPerm.from_map(n, images), arbitrary, cut * identity(n)]
    return out


def _code_draws(case):
    """The maps the code-reading paths are held to their oracles on."""
    what, n = case
    if what == "di":
        return dihedral_restrictions(n)
    if what == "rank3":
        points = range(1, n + 1)
        return [PartialPerm(n, tuple(zip(dom, img))) for k in range(4)
                for dom in combinations(points, k) for img in permutations(points, k)]
    return _random_maps(n, random.Random(n))


# 3..9 whole, rank <= 3 at 8, then random draws at 10..40 and around the last byte-code size;
# 255 and 256 hold their maps as pairs
_CODE_CASES = [*(("di", n) for n in range(3, 10)), ("rank3", 8),
               *(("random", n) for n in (*range(10, 41), 253, 254, 255, 256))]


@pytest.mark.parametrize("case", _CODE_CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_extensions_from_the_code_match_the_scan(case):
    for p in _code_draws(case):
        assert extensions(p) == scan_extensions(p), p


# every di map at 3..7, then random draws on the last byte-code size and the first held as pairs
_MEMO_CASES = [*(("di", n) for n in range(3, 8)), ("random", 254), ("random", 255)]


def _observed(p, other):
    """What equality, hashing, order, text, pickling and copying make of a map."""
    return (p == other, p != other, hash(p), p < other, p >= other, repr(p), str(p),
            pickle.dumps(p), pickle.loads(pickle.dumps(p)) == p, copy.copy(p) == p,
            hash(copy.deepcopy(p)))


def _fresh(p):
    """Two new maps equal to p, neither holding an answer yet: one built from the pairs,
    one a product, which holds only its code."""
    return PartialPerm(p.n, p.pairs), p * identity(p.n)


@pytest.mark.parametrize("case", _MEMO_CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_keeping_the_extensions_changes_no_answer(case):
    maps = _code_draws(case)
    for p, other in zip(maps, [*maps[1:], maps[0]]):
        want = scan_extensions(p)
        for q in _fresh(p):
            before = _observed(q, other)
            assert extensions(q) == want, p
            assert extensions(q) == want == extensions(PartialPerm(p.n, p.pairs)), p
            assert _observed(q, other) == before, p


@pytest.mark.parametrize("case", _MEMO_CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_a_second_extensions_call_reads_the_kept_answer(case):
    for p in [p for p in _code_draws(case) if p.pairs]:  # the empty map has its own tests
        for q in _fresh(p):
            first = extensions(q)
            assert extensions(q) is first, p
            # the answer is the element's own: a copy or an unpickled map works it out anew
            assert not hasattr(copy.copy(q), "_exts")
            assert not hasattr(pickle.loads(pickle.dumps(q)), "_exts")


@pytest.mark.parametrize("case", _MEMO_CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_a_second_classify_order_call_reads_the_kept_flags(case, monkeypatch):
    maps = [q for p in _code_draws(case) for q in _fresh(p)]
    others = [*maps[1:], maps[0]]
    before = [_observed(q, other) for q, other in zip(maps, others)]
    first = [classify_order(q) for q in maps]
    assert [_observed(q, other) for q, other in zip(maps, others)] == before
    # with no flags left to look up, only a kept answer can come back
    monkeypatch.setattr(importlib.import_module("cycleiso.partial_perm"), "_FLAGS", {})
    assert all(classify_order(q) is f for q, f in zip(maps, first))
    # the flags are the element's own: a copy or an unpickled map works them out anew
    q = maps[-1]
    assert not hasattr(copy.copy(q), "_flags")
    assert not hasattr(pickle.loads(pickle.dumps(q)), "_flags")


def test_membership_reports_hold_no_dict_and_round_trip():
    for text in ("n=5;1>3,2>4,3>5,5>2", "n=5;1>1,2>3", "n=6;1>1,4>4", "n=4;"):
        report = classify(PartialPerm.parse(text))
        assert not hasattr(report, "__dict__")
        copies = [pickle.loads(pickle.dumps(report, proto))
                  for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for back in copies + [copy.copy(report), copy.deepcopy(report)]:
            assert type(back) is MembershipReport and back == report
        with pytest.raises(FrozenInstanceError):
            report.in_di = not report.in_di


def _empty_maps(n):
    """Three empty maps on n points: two parsed, one the product of disjoint rank-1 maps."""
    return [empty_map(n), PartialPerm.parse(f"n={n};"),
            PartialPerm.parse(f"n={n};1>1") * PartialPerm.parse(f"n={n};2>2")]


@pytest.mark.parametrize("n", [3, 254, 255])
def test_the_empty_map_keeps_no_extensions_on_the_element(n):
    maps = _empty_maps(n)
    for p in maps:
        assert extensions(p) == tuple(all_elements(n))
        assert extensions(p) == tuple(all_elements(n))
    assert not any(hasattr(p, "_exts") for p in maps)


@pytest.mark.parametrize("n", [3, 254, 255])
def test_the_empty_maps_extensions_are_shared_up_to_254(n):
    first, *rest = (extensions(p) for p in _empty_maps(n))
    assert all((other is first) == (n <= 254) for other in rest)


def test_order_flags_are_shared_and_frozen():
    shared = {}
    for n in range(3, 9):
        for p in dihedral_restrictions(n):
            f = classify_order(p)
            assert shared.setdefault(f, f) is f, p
            assert f == _naive_order(p.values), p
    assert len(shared) <= 16
    for f in shared.values():
        made = OrderFlags(f.order_preserving, f.order_reversing,
                          f.orientation_preserving, f.orientation_reversing)
        assert made == f and made is not f and hash(made) == hash(f)
        with pytest.raises(FrozenInstanceError):
            f.order_preserving = not f.order_preserving
        with pytest.raises(FrozenInstanceError):
            made.orientation_reversing = True


def _naive_order(values) -> OrderFlags:
    # ascending or descending as listed, or as one of its rotations
    v = list(values)
    up, down = sorted(v), sorted(v, reverse=True)
    turns = [v[r:] + v[:r] for r in range(len(v))] or [v]
    return OrderFlags(v == up, v == down, up in turns, down in turns)


@pytest.mark.parametrize("case", _CODE_CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_order_flags_from_the_code_match_the_values(case):
    for p in _code_draws(case):
        assert classify_order(p) == _naive_order(p.values), p


def test_antipodal_rank2_detection():
    assert is_in_b2(PartialPerm.parse("n=4;1>2,3>4"))
    assert not is_in_b2(PartialPerm.parse("n=4;1>2,2>3"))
    assert not is_in_b2(PartialPerm.parse("n=5;1>3,2>4"))
    assert not is_in_b2(PartialPerm.parse("n=4;1>2,3>3"))
    assert not is_in_b2(PartialPerm.parse("n=4;1>1,2>2,3>3"))


def test_antipodal_rank2_count_formula():
    assert b2_count(4) == 8
    assert b2_count(5) == 0
    assert b2_count(10) == 50
    with pytest.raises(DomainError):
        b2_count(2)


def test_membership_narrowing():
    # order-preserving implies monotone and orientation-preserving
    report = classify(PartialPerm.parse("n=5;2>1,4>3,5>4"))
    assert (report.in_di, report.in_odi, report.in_mdi, report.in_opdi) == (
        True,
        True,
        True,
        True,
    )
    # order-reversing isometries are monotone but not order-preserving
    report = classify(PartialPerm.parse("n=5;2>5,3>4,4>3,5>2"))
    assert (report.in_odi, report.in_mdi, report.in_opdi) == (False, True, False)
    # cyclic but not monotone
    report = classify(PartialPerm.parse("n=5;1>3,2>4,4>1,5>2"))
    assert (report.in_odi, report.in_mdi, report.in_opdi) == (False, False, True)
    # not an isometry at all
    report = classify(PartialPerm.parse("n=5;1>1,2>2,3>4"))
    assert not report.in_di and report.extensions == ()
    assert not (report.in_odi or report.in_mdi or report.in_opdi)


def test_in_kind_follows_the_report():
    p = PartialPerm.parse("n=5;2>5,3>4,4>3,5>2")
    assert in_kind(p, "di") and in_kind(p, "mdi")
    assert not in_kind(p, "odi") and not in_kind(p, "opdi")
    with pytest.raises(DomainError):
        in_kind(p, "poi")


def test_check_kind_gates_the_ambient_token():
    check_kind("odi")
    check_kind("di", allow_di=True)
    with pytest.raises(DomainError):
        check_kind("di")
    with pytest.raises(DomainError):
        check_kind("ODI")
