import importlib
import random
from sys import intern

import pytest

from cycleiso import (
    DihedralElement,
    MembershipError,
    PartialPerm,
    classify,
    classify_order,
    empty_map,
    extensions,
    factorize,
    identity,
    identity_off,
    identity_on,
    standard_generators,
    to_partial_perm,
)
from cycleiso.brute_force import kind_elements
from cycleiso.factorize import (
    _MONOTONE_Y,
    _Y,
    _mdi_word,
    _missing_mask,
    _odi_word,
    _opdi_word,
    _rank2_reflection_word,
)

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
    # the word built from the extensions classify lists, the first preferred
    exts = classify(p).extensions
    if kind == "mdi":
        return tuple(_mdi_word(p, exts, classify_order(p).order_preserving))
    return tuple({"odi": _odi_word, "opdi": _opdi_word}[kind](p, exts[0]))


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


# The partial identities spelled point by point, as factorize did before it read them off
# a mask through letter tables: the oracles for _missing_mask, _op_identity_word and
# _rot_identity_word.

def _missing(n, domain):
    """The points of 1..n outside ``domain``, ascending, in one pass over 1..n."""
    have = set(domain)
    return [x for x in range(1, n + 1) if x not in have]


def _point_op_identity_word(n, missing, y=_Y):
    """The partial identity off the ascending points ``missing``, spelled with e letters
    and ``y``, the spelling of the shift; yx misses 1, xy misses n, and the monotone set
    spells e_i past (n + 1) / 2 as h e_(n-i+1) h."""
    half = (n + 1) // 2 if y is _MONOTONE_Y else n
    out = []
    for pt in missing:
        if pt == 1:
            out += y + ["x"]
        elif pt == n:
            out += ["x"] + y
        elif pt <= half:
            out.append(intern(f"e{pt}"))
        else:
            out += ["h", intern(f"e{n - pt + 1}"), "h"]
    return out


def _point_rot_identity_word(n, missing):
    """The partial identity off ``missing`` over the rotation alphabet, via
    e_l = g^(n-l) e_n g^l, walking the missing points in descending order."""
    pts = sorted(missing, reverse=True)
    if not pts:
        return []
    e = [f"e{n}"]
    out = ["g"] * (n - pts[0]) + e
    for prev, cur in zip(pts, pts[1:]):
        out += ["g"] * (prev - cur) + e
    return out + ["g"] * pts[-1]


def _old_odi_word(p, sigma, y=_Y):
    # _odi_word before it read the missing points and the arc off the sorted domain
    n = p.n
    if sigma.j == 0:
        word = _point_op_identity_word(n, _missing(n, p.domain), y)
        t = sigma.k
        if all(a <= n - t for a in p.domain):
            return word + ["x"] * t
        assert all(a >= n - t + 1 for a in p.domain)
        return word + y * (n - t)
    i, j = p.domain
    return _rank2_reflection_word(n, sigma.k, i, j, y)


def _old_opdi_word(p, sigma):
    # _opdi_word with its partial identities spelled point by point
    n = p.n
    if sigma.j == 0:
        return _point_rot_identity_word(n, _missing(n, p.domain)) + ["g"] * sigma.k
    (i, a), (j, b) = p.pairs
    k = 0 if a < b else n - j + 1
    tau = DihedralElement.rotation(n, -k) * sigma
    lo, hi = (i, j) if k == 0 else (1, i + k)
    word = ["g"] * k
    if lo > 1:
        word += _point_rot_identity_word(n, range(1, lo)) + ["g"] * (n - lo + 1)
    gap = hi - lo
    if gap <= (n - 1) // 2:
        word.append(f"x{gap}")
    else:
        word += ["g"] * (n - gap) + [f"x{n - gap}"] + ["g"] * (n - gap)
    return word + [f"e{n}", "g"] * (tau.k - lo)


def _point_word(p, kind):
    """factorize's word with every partial identity spelled point by point."""
    n = p.n
    exts = extensions(p) if p.pairs else (DihedralElement.identity(n),)
    if kind == "odi":
        return tuple(_old_odi_word(p, exts[0]))
    if kind == "opdi":
        return tuple(_old_opdi_word(p, exts[0]))
    if classify_order(p).order_preserving:
        return tuple(_old_odi_word(p, exts[0], _MONOTONE_Y))
    h = DihedralElement.reflection(n, 0)
    return tuple(_old_odi_word(p, min(s * h for s in exts), _MONOTONE_Y) + ["h"])


def _random_members(kind, n, rng, count=24):
    """Members of the kind on n points: symmetries cut to two points, which gives the
    rank-2 reflection pieces, to any points, or to one arc of a rotation."""
    out = []
    while len(out) < count:
        j, k = rng.randrange(2), rng.randrange(n)
        pool = rng.choice((range(1, n + 1), range(1, n - k + 1), range(n - k + 1, n + 1)))
        size = 2 if rng.random() < 1 / 3 else rng.randint(0, len(pool))
        if size <= len(pool):
            p = to_partial_perm(DihedralElement(n, j, k), rng.sample(pool, size))
            if getattr(classify(p), f"in_{kind}"):
                out.append(p)
    return out


def _members(kind, n):
    return kind_elements(kind, n) if n < 10 else _random_members(kind, n, random.Random(n))


@pytest.mark.parametrize("n", [*range(3, 41), 254, 255])
@pytest.mark.parametrize("kind", ["odi", "mdi", "opdi"])
def test_words_spelled_by_table_match_the_words_spelled_point_by_point(kind, n):
    for p in _members(kind, n):
        word = factorize(p, kind)
        want = _point_word(p, kind)
        assert word == want, p
        # each e letter is the one interned string of its name, as the oracle's are
        letters = [w for w in word if w[0] == "e"]
        assert all(w is intern(w) for w in letters), p
        if kind != "opdi":  # the rotation oracle's e_n is text built per call
            assert all(a is b for a, b in zip(letters, [w for w in want if w[0] == "e"])), p


def _to_monotone_alphabet(n, letters):
    # the monotone spelling before words were spelled in it as they were built: the
    # order-preserving letters rewritten one by one, y = hxh and e_i = h e_(n-i+1) h, since
    # the monotone set keeps only the reflection-closed half of the partial identities
    half = (n + 1) // 2
    out = []
    for w in letters:
        if w == "y":
            out += ["h", "x", "h"]
        elif w[0] == "e" and int(w[1:]) > half:
            out += ["h", f"e{n - int(w[1:]) + 1}", "h"]
        else:
            out.append(w)
    return out


def _peeled_mdi_word(p):
    # the monotone word before it was read off p's own extensions: an order-reversing p
    # had the reflection h (i to n - i + 1) peeled off the right, and the order-preserving
    # rest q was factorized from its own extensions
    n = p.n
    if classify_order(p).order_preserving:
        return tuple(_to_monotone_alphabet(n, _old_odi_word(p, extensions(p)[0])))
    q = PartialPerm(n, tuple((a, n + 1 - b) for a, b in p.pairs))
    h = DihedralElement.reflection(n, 0)
    assert tuple(sorted({s * h for s in extensions(p)})) == extensions(q)
    return tuple(_to_monotone_alphabet(n, _old_odi_word(q, extensions(q)[0])) + ["h"])


def _random_mdi_members(n, rng, count=16):
    """Symmetries cut to at least two points of one arc on which their images run one way,
    and on an even cycle the antipodal rank-2 swaps, which are order-reversing but extend to
    a rotation."""
    out = []
    if n % 2 == 0:
        out = [PartialPerm(n, ((a, a + n // 2), (a + n // 2, a))) for a in (1, 2, n // 2)]
    while len(out) < count:
        j, k = rng.randint(0, 1), rng.randrange(n)
        cut = k if j else n - k
        pool = rng.choice((range(1, cut + 1), range(cut + 1, n + 1)))
        if len(pool) >= 2:
            dom = rng.sample(pool, rng.randint(2, len(pool)))
            out.append(to_partial_perm(DihedralElement(n, j, k), dom))
    return out


@pytest.mark.parametrize("n", [*range(3, 10), 32, 254, 255])
def test_monotone_words_match_the_peeled_words(n):
    if n < 10:
        members = kind_elements("mdi", n)
    else:
        members = _random_mdi_members(n, random.Random(n))
    assert any(not classify_order(p).order_preserving for p in members)
    gens = standard_generators("mdi", n)
    for p in members:
        word = factorize(p, "mdi")
        assert word == _peeled_mdi_word(p), p
        assert gens.evaluate(word) == p, p


@pytest.mark.parametrize("n", [*range(3, 10), 32, 254, 255])
def test_order_preserving_words_match_the_old_arc_test(n):
    if n < 10:
        members = kind_elements("odi", n)
    else:
        members = [p for p in _random_mdi_members(n, random.Random(n))
                   if classify_order(p).order_preserving]
    for p in members:
        assert factorize(p, "odi") == tuple(_old_odi_word(p, extensions(p)[0])), p


@pytest.mark.parametrize("n", [3, 4, 9, 254, 255])
def test_missing_points_are_the_complement_of_the_domain(n):
    rng = random.Random(n)
    points = range(1, n + 1)
    drawn = [rng.sample(points, rng.randint(1, n)) for _ in range(20)]
    for dom in ([], points, [1], [n], [2, n - 1], *drawn):
        dom = tuple(sorted(dom))
        assert _missing(n, dom) == sorted(set(points) - set(dom)), dom
        mask = _missing_mask(identity_on(n, set(dom)))  # [2, n - 1] repeats at n = 3
        assert len(mask) == n and set(mask) <= {0, 1}, dom
        assert [x for x, flag in zip(points, mask) if flag] == _missing(n, dom), dom


@pytest.mark.parametrize("n", range(8, 33))
def test_monotone_words_of_random_members_match_the_rewritten_words(n):
    members = _random_mdi_members(n, random.Random(1000 + n), count=24)
    preserving = [classify_order(p).order_preserving for p in members]
    assert any(preserving) and not all(preserving)
    gens = standard_generators("mdi", n)
    half = (n + 1) // 2
    for p in members:
        word = factorize(p, "mdi")
        assert word == _peeled_mdi_word(p), p
        assert gens.evaluate(word) == p, p
        assert not any(w[0] == "e" and int(w[1:]) > half for w in word), word


def _order_reversing_members():
    """Order-reversing mdi members of rank >= 2, every one at 5..7 and random draws on the
    last byte-code size and the first held as pairs."""
    members = [p for n in range(5, 8) for p in kind_elements("mdi", n)]
    members += [p for n in (254, 255) for p in _random_mdi_members(n, random.Random(n))]
    return [p for p in members if not classify_order(p).order_preserving]


def test_an_order_reversing_word_builds_no_checked_symmetry(monkeypatch):
    members = _order_reversing_members()
    words = [factorize(p, "mdi") for p in members]

    def refuse(self):
        raise AssertionError("a symmetry went through the checking constructor")

    monkeypatch.setattr(DihedralElement, "__post_init__", refuse)
    with pytest.raises(AssertionError):
        DihedralElement.reflection(5, 0)
    assert [factorize(PartialPerm(p.n, p.pairs), "mdi") for p in members] == words


def test_a_non_isometry_is_refused_before_its_order_flags(monkeypatch):
    module = importlib.import_module("cycleiso.factorize")  # the package's name is the function
    read = []
    monkeypatch.setattr(module, "classify_order", lambda p: read.append(p) or classify_order(p))
    strangers = ["n=5;1>1,2>3", "n=8;1>2,2>4,3>3", "n=255;1>1,2>3"]
    for text in strangers:
        for kind in ("odi", "mdi", "opdi"):
            p = PartialPerm.parse(text)
            with pytest.raises(MembershipError) as refused:
                factorize(p, kind)
            assert str(refused.value) == f"{text} is not in {kind.upper()}_{p.n}"
    assert read == []
    # an isometry outside the kind is refused from its flags, with the same text
    p = PartialPerm.parse("n=5;1>2,2>3,3>4,4>5,5>1")
    with pytest.raises(MembershipError) as refused:
        factorize(p, "mdi")
    assert str(refused.value) == "n=5;1>2,2>3,3>4,4>5,5>1 is not in MDI_5"
    assert read == [p]
