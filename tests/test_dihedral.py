import pytest
from hypothesis import example, given, strategies as st

from cycleiso import (
    AmbientMismatchError,
    DihedralElement,
    DomainError,
    ParseError,
    PartialPerm,
    all_elements,
    b2_count,
    check_kind,
    classify,
    extensions,
    empty_map,
    in_kind,
    is_in_b2,
    to_partial_perm,
)
from cycleiso.brute_force import scan_extensions

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
    p = PartialPerm(n, pairs)
    with pytest.raises(DomainError) as fast:
        extensions(p)
    with pytest.raises(DomainError) as scan:
        scan_extensions(p)
    assert str(fast.value) == str(scan.value) == f"the cycle graph needs n >= 3, got {n}"


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
