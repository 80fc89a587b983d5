"""Closure, Green's relations, and element-set serialization."""

import copy
import gc
import gzip
import json
import pickle
import random
import re
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cycleiso import (
    AmbientMismatchError,
    DomainError,
    EnumeratedMonoid,
    NotInverseClosedError,
    ParseError,
    PartialPerm,
    close,
    cross_check_green,
    distance_sequence,
    export_bytes,
    export_elements,
    green_structural,
    identity,
    identity_off,
    identity_on,
    idempotents,
    import_elements,
    j_partition,
    j_related,
    standard_generators,
)
from cycleiso.brute_force import (
    _reflected,
    _rotated,
    dihedral_restrictions,
    kind_elements,
    kind_monoid,
)
from cycleiso.engine import _j_key
from cycleiso.partial_perm import _kernel

from conftest import perm_on, sparse_perm_on

ODI4_JCLASS_RANKS = [1, 1, 2, 3, 1]  # classes of rank 0, 1, 2, 3, 4
MDI4_JCLASS_RANKS = [1, 1, 2, 2, 1]
OPDI4_JCLASS_RANKS = [1, 1, 2, 1, 1]


def test_closure_of_nothing_is_the_trivial_monoid():
    m = close(5, [])
    assert m.elements == (identity(5),)
    assert m.words == {identity(5): ()}


def test_closure_contains_generators_and_identity():
    gens = standard_generators("opdi", 5)
    m = close(5, gens.elements)
    assert identity(5) in m
    for p in gens.elements:
        assert p in m


def test_closure_words_evaluate_to_their_elements():
    gens = standard_generators("mdi", 5).elements
    m = close(5, gens)
    assert m.generators == gens
    for p in m.elements:
        value = identity(5)
        for gi in m.words[p]:
            value = value * gens[gi]
        assert value == p
    assert m.words[identity(5)] == ()


def test_closure_is_independent_of_workers_and_duplicates():
    gens = standard_generators("odi", 6).elements
    reference = close(6, gens)
    for workers in (2, 3, 8):
        again = close(6, gens, workers=workers)
        assert again.elements == reference.elements
        assert again.words == reference.words
    doubled = close(6, gens + gens)
    assert doubled.elements == reference.elements


@pytest.mark.parametrize("workers", [0, -3, True, 2.0])
def test_closure_rejects_bad_worker_counts(workers):
    with pytest.raises(DomainError, match=re.escape(repr(workers))):
        close(4, standard_generators("odi", 4).elements, workers=workers)


def _validated_product(a, b):
    """Composition through the validating constructor only."""
    lookup = dict(b.pairs)
    return PartialPerm(a.n, tuple((x, lookup[y]) for x, y in a.pairs if y in lookup))


def _naive_closure(n, gens):
    """Layer-by-layer fixpoint with validated products: each layer in
    sorted order, each element against the generators in index order, the
    first word found for an element kept."""
    words = {identity(n): ()}
    layer = [identity(n)]
    while layer:
        fresh = []
        for p in sorted(layer):
            for gi, g in enumerate(gens):
                q = _validated_product(p, g)
                if q not in words:
                    words[q] = words[p] + (gi,)
                    fresh.append(q)
        layer = fresh
    return words


@st.composite
def _generator_sets(draw):
    n = draw(st.integers(1, 6))
    return n, draw(st.lists(perm_on(n), max_size=4))


def _assert_closure_is_naive(n, gens):
    m = close(n, gens)
    words = _naive_closure(n, gens)
    assert m.elements == tuple(sorted(words))
    assert m.words == words
    assert list(m.words) == list(m.elements)
    for p, word in m.words.items():
        value = identity(n)
        for gi in word:
            value = _validated_product(value, gens[gi])
        assert value == p


@settings(max_examples=60, deadline=None)
@given(_generator_sets())
def test_closure_matches_naive_fixpoint(case):
    _assert_closure_is_naive(*case)


@st.composite
def _wide_generator_sets(draw):
    n = draw(st.integers(255, 260))
    return n, draw(st.lists(sparse_perm_on(n), max_size=3))


@settings(max_examples=40, deadline=None)
@given(_wide_generator_sets())
def test_wide_closure_matches_naive_fixpoint(case):
    # from n = 255 on an image no longer fits a byte beside the 0xFF mark,
    # so close searches on image arrays
    _assert_closure_is_naive(*case)


def _byte_boundary_generators(n):
    swap = PartialPerm.from_map(n, {1: n, n: 1, **{x: x for x in range(2, n)}})
    return [swap, PartialPerm(n, ((n, n),)), identity_off(n, 1)]


@pytest.mark.parametrize("n", [254, 255])
def test_closure_at_the_byte_boundary_matches_naive_fixpoint(n):
    _assert_closure_is_naive(n, _byte_boundary_generators(n))


def _search_table(n, gens):
    """The search loop ``close`` ran before it skipped products: each layer in stripped
    order, each code against every letter in index order, the first link found kept."""
    mul, strip, table, _ = _kernel(n)
    tables = [table(g._code) for g in gens]
    layer = [identity(n)._code]
    found = {layer[0]: None}
    while layer:
        layer.sort(key=strip)
        fresh = []
        for code in layer:
            for gi, t in enumerate(tables):
                prod = mul(code, t)
                if prod not in found:
                    found[prod] = (code, gi)
                    fresh.append(prod)
        layer = fresh
    return list(found.items())


def _links(m):
    """A closure's search table as (code, (parent code, letter)) entries, the identity's
    link None: its parent codes zipped with its letter array."""
    return [(code, None if parent is None else (parent, letter))
            for (code, parent), letter in zip(m._parents.items(), m._letters, strict=True)]


def _assert_table_is_the_full_search(n, gens):
    # the same codes, in the same order, with the same (parent, letter) links
    assert _links(close(n, gens)) == _search_table(n, gens)


@pytest.mark.parametrize("kind", ["odi", "mdi", "opdi", "di"])
@pytest.mark.parametrize("n", range(3, 10))
def test_closure_table_is_the_full_search(kind, n):
    _assert_table_is_the_full_search(n, standard_generators(kind, n).elements)


@pytest.mark.parametrize("n", [254, 255])
def test_byte_boundary_table_is_the_full_search(n):
    _assert_table_is_the_full_search(n, _byte_boundary_generators(n))


@st.composite
def _repeating_generator_sets(draw, sets):
    # letters that repeat, the identity and idempotents give products that equal a letter
    n, gens = draw(sets)
    extra = [identity(n), *gens, *(p * p.inverse() for p in gens)]
    return n, draw(st.permutations(gens + draw(st.lists(st.sampled_from(extra), max_size=4))))


@settings(max_examples=60, deadline=None)
@given(_repeating_generator_sets(_generator_sets()))
def test_table_of_repeating_letters_is_the_full_search(case):
    _assert_table_is_the_full_search(*case)


@settings(max_examples=30, deadline=None)
@given(_repeating_generator_sets(_wide_generator_sets()))
def test_wide_table_of_repeating_letters_is_the_full_search(case):
    _assert_table_is_the_full_search(*case)


def _search_words(n, gens):
    """Each element's word, read off ``_search_table``'s links."""
    words = {}
    for code, link in _search_table(n, gens):
        words[code] = () if link is None else words[link[0]] + (link[1],)
    return {PartialPerm(n, _kernel(n)[3](code)): word for code, word in words.items()}


def _assert_the_table_layout(n, gens):
    # one parent code per search code, the identity's None; one letter per element; the
    # sorted codes are the table's own key objects; the words are the full search's
    m = close(n, gens)
    table = m._parents
    assert [code for code, parent in table.items() if parent is None] == [identity(n)._code]
    assert all(parent is None or parent in table for parent in table.values())
    assert len(m._letters) == m.size == len(table)
    keys = {id(code) for code in table}
    assert len(m._codes) == m.size and all(id(code) in keys for code in m._codes)
    assert m.words == _search_words(n, gens)
    assert list(m.words) == list(m.elements)
    for back in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
        assert (back.elements, back.words, back._letters) == (m.elements, m.words, m._letters)
        assert all(p in back for p in m)


@settings(max_examples=40, deadline=None)
@given(_repeating_generator_sets(_generator_sets()))
def test_closure_table_layout(case):
    _assert_the_table_layout(*case)


@settings(max_examples=20, deadline=None)
@given(_repeating_generator_sets(_wide_generator_sets()))
def test_wide_closure_table_layout(case):
    _assert_the_table_layout(*case)


@pytest.mark.parametrize("n", [254, 255])
def test_byte_boundary_table_layout(n):
    _assert_the_table_layout(n, _byte_boundary_generators(n))


def test_letters_past_a_byte_keep_their_index():
    # the letter array holds generator indices of any size, not bytes
    gens = [identity(4)] * 300 + list(standard_generators("mdi", 4).elements)
    _assert_the_table_layout(4, gens)
    assert max(close(4, gens)._letters) == len(gens) - 1


@pytest.mark.parametrize("enabled", [True, False])
def test_closure_leaves_the_collector_as_it_found_it(enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        close(6, standard_generators("opdi", 6).elements)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_a_closure_keeps_no_tracked_object_per_element():
    # the table maps bytes to bytes and the letters share one array, so a
    # closure hands the cyclic collector nothing to traverse per element
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        m = close(11, standard_generators("opdi", 11).elements)
        added = len(gc.get_objects()) - before
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert m.size == 23_123
    assert added < 64
    assert not gc.is_tracked(m._parents)


def test_closure_rejects_foreign_generators():
    with pytest.raises(AmbientMismatchError):
        close(5, [identity(4)])


def test_enumerated_monoid_basics():
    elems = kind_elements("opdi", 4)
    m = EnumeratedMonoid(4, elems)
    assert len(m) == m.size == len(elems)
    assert list(m) == sorted(elems)
    assert identity(4) in m
    assert PartialPerm.parse("n=4;1>1,2>3") not in m
    assert (m.generators, m.words) == ((), {})
    assert (m._parents, len(m._letters)) == (dict.fromkeys(m._codes), 0)
    with pytest.raises(AmbientMismatchError):
        EnumeratedMonoid(5, elems)
    # no argument can skip the sort or the n check; only close builds a monoid without them
    with pytest.raises(TypeError):
        EnumeratedMonoid(5, [], (), {})
    with pytest.raises(TypeError):
        EnumeratedMonoid(5, [PartialPerm.parse("n=4;")], parents={b"": None})
    # the least stray element, in the canonical (n, pairs) order, is named
    mixed = [identity(5), PartialPerm(6, ((2, 2),)), PartialPerm(4, ((3, 1),)), identity(4)]
    with pytest.raises(AmbientMismatchError, match=r"^element n=4;1>1,2>2,3>3,4>4 does not"):
        EnumeratedMonoid(5, iter(mixed))


def test_a_repeated_element_is_held_once(tmp_path):
    # the code table keeps one key per code, so a repeat adds no element
    p, q = PartialPerm.parse("n=5;1>2,2>1"), identity_on(5, [1, 2])
    m = EnumeratedMonoid(5, [p, p, q])
    assert (m.size, len(m), list(m)) == (2, 2, [q, p])
    assert [len(blob.splitlines()) for blob in _exports(m)[::2]] == [2, 2]
    for fmt in ("txt", "jsonl"):
        export_elements(m, tmp_path / fmt, fmt)
        assert import_elements(tmp_path / fmt).elements == (q, p)
    dec = green_structural(m)
    assert dec.l_classes == dec.r_classes == dec.h_classes == dec.d_classes == ((q, p),)


@pytest.mark.parametrize(
    "n,elements",
    [*((n, []) for n in (True, 5.0, "x", 0, -3, 10**4300)), (True, [identity(1)]), (5.0, [identity(5)])],
    ids=["True", "5.0", "str", "0", "-3", "10**4300", "True-identity", "5.0-identity"],
)
def test_a_set_built_from_elements_refuses_the_sizes_close_refuses(n, elements):
    with pytest.raises(DomainError) as closed:
        close(n, [])
    with pytest.raises(DomainError) as built:
        EnumeratedMonoid(n, elements)
    assert (type(built.value), str(built.value)) == (type(closed.value), str(closed.value))


def _membership_reads_the_elements(m, data, perm=perm_on):
    # every member is in, and each probe is in exactly when the element tuple holds it
    assert all(p in m for p in m.elements)
    n = m.n
    probes = data.draw(st.lists(perm(n), max_size=12))
    probes += data.draw(st.lists(perm(n - 1) | perm(n + 1), max_size=3))
    for p in (*probes, "x", None):
        assert (p in m) == (p in m.elements)
    with pytest.raises(TypeError):
        [] in m


_membership = settings(
    max_examples=5, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@pytest.mark.parametrize("kind", ["odi", "mdi", "opdi", "di"])
@pytest.mark.parametrize("n", range(3, 8))
@_membership
@given(data=st.data())
def test_closure_membership_reads_its_elements(kind, n, data):
    _membership_reads_the_elements(close(n, standard_generators(kind, n).elements), data)


@pytest.mark.parametrize("n", [254, 255])
@_membership
@given(data=st.data())
def test_byte_boundary_membership_reads_its_elements(n, data):
    # a closure's index holds codes at the search's length, so a probe's byte code is
    # padded to n before the lookup; a set built from its elements pads the same way
    m = close(n, _byte_boundary_generators(n))
    _membership_reads_the_elements(m, data, sparse_perm_on)
    _membership_reads_the_elements(EnumeratedMonoid(n, m.elements), data, sparse_perm_on)


@settings(max_examples=20, deadline=None)
@given(case=_wide_generator_sets(), data=st.data())
def test_wide_closure_membership_reads_its_elements(case, data):
    _membership_reads_the_elements(close(*case), data, sparse_perm_on)


def test_a_closure_pickles_with_its_membership():
    gens = standard_generators("mdi", 5).elements
    m = close(5, gens)
    back = pickle.loads(pickle.dumps(m))
    assert back.words == _naive_closure(5, gens)
    assert list(back.words) == list(m.elements)
    assert (back.elements, back.words) == (m.elements, m.words)
    assert all(p in back for p in m)


def _exports(m):
    return [export_bytes(m, fmt, compress) for fmt in ("txt", "jsonl") for compress in (0, 1)]


@pytest.mark.parametrize("kind,n", [("odi", 7), ("mdi", 7), ("opdi", 7), ("di", 7), ("pairs", 255)])
def test_a_closure_builds_no_elements_until_they_are_read(kind, n):
    if kind == "pairs":  # codes that are pairs, not bytes
        gens = _byte_boundary_generators(n)
        expected = tuple(sorted(_naive_closure(n, gens)))
    else:
        gens = standard_generators(kind, n).elements
        expected = kind_elements(kind, n)
    m = close(n, gens)
    assert (m.size, len(m), identity(n) in m, identity(n - 1) in m) == (
        len(expected), len(expected), True, False)
    exports = _exports(m)
    back = pickle.loads(pickle.dumps(m))
    assert "elements" not in vars(m) and "elements" not in vars(back)
    assert m.elements == back.elements == expected
    assert _exports(EnumeratedMonoid(n, m.elements)) == _exports(back) == exports
    again = pickle.loads(pickle.dumps(m))
    assert "elements" in vars(again)
    assert (again.elements, again.words, again.size) == (expected, m.words, len(expected))
    assert all(p in again for p in expected)
    assert _exports(again) == exports


def _assert_built_both_ways_alike(n, gens, data, perm=perm_on):
    # the elements of a closure, shuffled and some repeated, build the same monoid
    closed = close(n, gens)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    elements = list(closed.elements)
    elements += rng.choices(elements, k=rng.randint(1, 4))
    rng.shuffle(elements)
    built = EnumeratedMonoid(n, elements)
    assert (built._codes, built.size, built.elements) == (closed._codes, closed.size, closed.elements)
    assert built._parents.keys() == closed._parents.keys()
    assert vars(built).keys() == vars(closed).keys()
    for p in data.draw(st.lists(perm(n) | perm(n - 1) | perm(n + 1), max_size=12)) + elements:
        assert (p in built) == (p in closed)
    assert _exports(built) == _exports(closed)


@pytest.mark.parametrize("kind", ["odi", "mdi", "opdi", "di"])
@pytest.mark.parametrize("n", range(3, 8))
@_membership
@given(data=st.data())
def test_a_set_built_from_a_closures_elements_is_the_closure(kind, n, data):
    _assert_built_both_ways_alike(n, standard_generators(kind, n).elements, data)


@pytest.mark.parametrize("n", [254, 255])
@_membership
@given(data=st.data())
def test_a_set_built_from_a_byte_boundary_closures_elements_is_the_closure(n, data):
    _assert_built_both_ways_alike(n, _byte_boundary_generators(n), data, sparse_perm_on)


@_membership
@given(data=st.data())
def test_closure_of_a_generator_subset_membership_reads_its_elements(data):
    kind = data.draw(st.sampled_from(["odi", "mdi", "opdi", "di"]))
    n = data.draw(st.integers(3, 6))
    gens = standard_generators(kind, n).elements
    subset = data.draw(st.lists(st.sampled_from(gens), unique=True))
    _membership_reads_the_elements(close(n, subset), data)


@pytest.mark.parametrize("kind", ["odi", "mdi", "opdi", "di"])
@pytest.mark.parametrize("n", [3, 4, 5])
@_membership
@given(data=st.data())
def test_element_set_membership_reads_its_elements(tmp_path, kind, n, data):
    m = kind_monoid(kind, n)
    _membership_reads_the_elements(m, data)
    path = tmp_path / "dump.txt"
    export_elements(m, path)
    _membership_reads_the_elements(import_elements(path), data)


def test_green_classes_partition_and_refine():
    m = kind_monoid("mdi", 4)
    dec = green_structural(m)
    for classes in (dec.l_classes, dec.r_classes, dec.h_classes, dec.d_classes):
        listed = [p for cls in classes for p in cls]
        assert sorted(listed) == list(m.elements)
    h_sets = {frozenset(c) for c in dec.h_classes}
    for big in (dec.l_classes, dec.r_classes):
        for cls in big:
            # every L- and R-class splits into whole H-classes
            pieces = {
                frozenset(h) for h in dec.h_classes if set(h) <= set(cls)
            }
            assert set().union(*pieces) == set(cls)
            assert pieces <= h_sets


def test_shared_image_means_same_l_class():
    m = kind_monoid("odi", 4)
    dec = green_structural(m)
    a = identity_on(4, [1, 3])
    b = PartialPerm.parse("n=4;2>1,4>3")
    cls = next(c for c in dec.l_classes if a in c)
    assert b in cls


def test_full_identity_sits_alone_in_its_h_class():
    for kind in ("odi", "mdi"):
        dec = green_structural(kind_monoid(kind, 5))
        cls = next(c for c in dec.h_classes if identity(5) in c)
        if kind == "odi":
            assert cls == (identity(5),)
        else:
            # the monotone monoid adds the reflection on the full domain
            assert len(cls) == 2
    dec = green_structural(kind_monoid("opdi", 5))
    cls = next(c for c in dec.h_classes if identity(5) in c)
    assert len(cls) == 5  # the rotations


def test_green_needs_an_inverse_closed_set():
    x = standard_generators("odi", 5).element("x")
    powers = close(5, [x])
    assert x.inverse() not in powers
    with pytest.raises(NotInverseClosedError):
        green_structural(powers)


def _naive_d_classes(elements):
    """Components of the graph joining members that share a domain or an
    image: the transitive closure of L and R, one edge at a time."""
    keys = {p: (p.domain, p.image) for p in elements}
    unseen = set(elements)
    classes = []
    while unseen:
        start = min(unseen)
        unseen.discard(start)
        cls, stack = [start], [start]
        while stack:
            dom, img = keys[stack.pop()]
            near = {q for q in unseen if keys[q][0] == dom or keys[q][1] == img}
            unseen -= near
            cls += near
            stack += near
        classes.append(tuple(sorted(cls)))
    return tuple(sorted(classes))


@st.composite
def _inverse_submonoids(draw):
    n = draw(st.integers(3, 5))
    gen = st.one_of(perm_on(n), st.sampled_from(dihedral_restrictions(n)))
    gens = draw(st.lists(gen, max_size=3))
    return close(n, gens + [g.inverse() for g in gens])


@settings(max_examples=60, deadline=None)
@given(_inverse_submonoids())
def test_d_classes_are_the_closure_of_l_and_r(m):
    assert green_structural(m).d_classes == _naive_d_classes(m.elements)


def test_j_relation_examples():
    a = identity_on(5, [1, 2])
    b = identity_on(5, [1, 3])
    assert not j_related(a, b, "odi")
    assert j_related(a, a, "odi")
    # {2,4,5} is the reflection of {1,2,4}: monotone identifies them,
    # order-preserving does not
    c = identity_on(5, [1, 2, 4])
    d = identity_on(5, [2, 4, 5])
    assert not j_related(c, d, "odi")
    assert j_related(c, d, "mdi")
    assert j_related(c, d, "opdi")


def test_j_relation_ignores_rank_le1_geometry():
    for kind in ("odi", "mdi", "opdi"):
        assert j_related(identity_on(6, [1]), identity_on(6, [4]), kind)
        assert not j_related(identity_on(6, [1]), identity_on(6, [1, 2]), kind)


def test_j_relation_needs_one_ambient():
    with pytest.raises(AmbientMismatchError):
        j_related(identity(4), identity(5), "odi")


@pytest.mark.parametrize("kind", ["di", "xyz"])
def test_j_partition_checks_the_kind_on_any_set(kind):
    with pytest.raises(DomainError):
        j_partition(EnumeratedMonoid(4, [identity(4)]), kind)


@pytest.mark.parametrize("kind", ["odi", "mdi", "opdi"])
@pytest.mark.parametrize("n", [4, 5])
def test_j_relation_is_the_partition_equivalence(kind, n):
    m = kind_monoid(kind, n)
    classes = j_partition(m, kind)
    label = {}
    for ci, cls in enumerate(classes):
        for p in cls:
            label[p] = ci
    # all-pairs agreement with the partition gives reflexivity, symmetry,
    # and transitivity in one sweep
    for a in m.elements:
        for b in m.elements:
            assert j_related(a, b, kind) == (label[a] == label[b])


def _naive_j_key(p, kind):
    """The rank up to 1, else the least distance sequence of the domain
    moved by each symmetry the kind allows."""
    if p.rank <= 1:
        return p.rank
    n, dom = p.n, p.domain
    if kind == "odi":
        return distance_sequence(n, dom)
    if kind == "mdi":
        return min(distance_sequence(n, dom), distance_sequence(n, _reflected(n, dom)))
    return min(distance_sequence(n, _rotated(n, dom, s)) for s in range(n))


@pytest.mark.parametrize("kind", ["odi", "mdi", "opdi"])
@pytest.mark.parametrize("n", range(3, 10))
def test_j_key_is_the_least_moved_distance_sequence(kind, n):
    # the key reads only the domain, so the partial identities cover it
    for k in range(n + 1):
        for dom in combinations(range(1, n + 1), k):
            p = identity_on(n, dom)
            assert _j_key(p, kind) == _naive_j_key(p, kind)


@pytest.mark.parametrize("kind", ["odi", "mdi", "opdi"])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_structural_and_metric_green_agree(kind, n):
    report = cross_check_green(kind_monoid(kind, n), kind)
    assert report.passed
    assert report.d_class_count == report.j_class_count
    assert report.counterexample is None


def test_cross_check_names_a_witness_when_the_partitions_differ():
    # odi's J key describes D only inside ODI_5, not on all of DI_5
    m = kind_monoid("di", 5)
    report = cross_check_green(m, "odi")
    assert not report.passed
    assert (report.d_class_count, report.j_class_count) == (8, 15)
    p, q = report.counterexample
    (d_class,) = [c for c in green_structural(m).d_classes if p in c]
    (j_class,) = [c for c in j_partition(m, "odi") if p in c]
    assert (q in d_class) != (q in j_class)


# the J keys describe D only inside each kind's own monoid, so on all of DI_n
# they split classes; the pair is the least element whose classes differ and
# the least member of the symmetric difference of its two classes
@pytest.mark.parametrize("n,kind,counts,pair", [
    (5, "odi", (8, 15), ("n=5;1>1,2>2,3>3", "n=5;1>1,2>2,5>5")),
    (5, "mdi", (8, 12), ("n=5;1>1,2>2,3>3", "n=5;1>1,2>2,5>5")),
    (5, "opdi", (8, 8), None),
    (6, "odi", (13, 31), ("n=6;1>1,2>2,3>3", "n=6;1>1,2>2,6>6")),
    (6, "mdi", (13, 22), ("n=6;1>1,2>2,3>3", "n=6;1>1,2>2,6>6")),
    (6, "opdi", (13, 14), ("n=6;1>1,2>2,4>4", "n=6;1>1,2>2,5>5")),
])
def test_cross_check_counterexamples_on_all_of_di(n, kind, counts, pair):
    report = cross_check_green(kind_monoid("di", n), kind)
    assert (report.d_class_count, report.j_class_count) == counts
    assert report.passed == (pair is None)
    assert report.counterexample == (pair and tuple(map(PartialPerm.parse, pair)))


@pytest.mark.parametrize("kind", ["odi", "mdi", "opdi"])
@pytest.mark.parametrize("n", range(3, 8))
def test_cross_check_witness_is_the_first_element_whose_classes_differ(kind, n):
    # the per-element search the class-pair walk replaced
    m = kind_monoid("di", n)
    d_of = {p: frozenset(c) for c in green_structural(m).d_classes for p in c}
    j_of = {p: frozenset(c) for c in j_partition(m, kind) for p in c}
    naive = next(((p, min(d_of[p] ^ j_of[p])) for p in m if d_of[p] != j_of[p]), None)
    assert cross_check_green(m, kind).counterexample == naive


def test_j_class_counts_per_rank_at_n4():
    from collections import Counter

    expected = {
        "odi": ODI4_JCLASS_RANKS,
        "mdi": MDI4_JCLASS_RANKS,
        "opdi": OPDI4_JCLASS_RANKS,
    }
    for kind, per_rank in expected.items():
        classes = j_partition(kind_monoid(kind, 4), kind)
        ranks = Counter()
        for cls in classes:
            (rank,) = {p.rank for p in cls}  # J-classes are rank-homogeneous
            ranks[rank] += 1
        assert [ranks[r] for r in range(5)] == per_rank
        assert len(classes) == sum(per_rank)


def test_j_class_totals():
    totals = {(4, "odi"): 8, (4, "mdi"): 7, (4, "opdi"): 6,
              (5, "odi"): 15, (5, "mdi"): 12, (5, "opdi"): 8}
    for (n, kind), want in totals.items():
        assert len(j_partition(kind_monoid(kind, n), kind)) == want


def test_idempotents_are_the_partial_identities():
    m = close(4, standard_generators("odi", 4).elements)
    idem = idempotents(m)
    assert len(idem) == 2**4
    assert all(p.domain == p.image and p.values == p.domain for p in idem)
    x = standard_generators("odi", 4).element("x")
    assert x not in idem


def test_export_formats(tmp_path):
    m = kind_monoid("odi", 3)
    txt = export_bytes(m, "txt")
    lines = txt.decode().splitlines()
    assert len(lines) == 20
    assert lines == sorted(lines)
    assert lines[0] == "n=3;"
    jsonl = export_bytes(m, "jsonl")
    parsed = [json.loads(line) for line in jsonl.decode().splitlines()]
    assert parsed[0] == {"n": 3, "map": []}
    assert len(parsed) == 20
    unknown = "unknown format 'xml'; expected txt or jsonl"
    for elements in (m, EnumeratedMonoid(5, [])):
        with pytest.raises(ParseError, match=unknown):
            export_bytes(elements, "xml")
        with pytest.raises(ParseError, match=unknown):
            export_elements(elements, tmp_path / "dump.xml", "xml")
        assert not (tmp_path / "dump.xml").exists()


def test_export_gzip_is_deterministic():
    m = kind_monoid("opdi", 4)
    blob1 = export_bytes(m, "txt", compress=True)
    blob2 = export_bytes(m, "txt", compress=True)
    assert blob1 == blob2
    assert gzip.decompress(blob1) == export_bytes(m, "txt")


@pytest.mark.parametrize("fmt", ["txt", "jsonl"])
@pytest.mark.parametrize("compress", [False, True])
def test_file_round_trip(tmp_path, fmt, compress):
    m = kind_monoid("mdi", 4)
    path = tmp_path / f"dump.{fmt}"
    export_elements(m, path, fmt=fmt, compress=compress)
    back = import_elements(path)
    assert back.elements == m.elements
    assert back.n == m.n


@st.composite
def _closures(draw):
    n = draw(st.integers(3, 6))
    return close(n, draw(st.lists(perm_on(n), max_size=3)))


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(m=_closures(), fmt=st.sampled_from(["txt", "jsonl"]), compress=st.booleans())
def test_export_import_round_trip(tmp_path, m, fmt, compress):
    path = tmp_path / "dump"
    export_elements(m, path, fmt=fmt, compress=compress)
    back = import_elements(path)
    assert back.n == m.n
    assert back.elements == m.elements


@st.composite
def _element_sets(draw):
    n = draw(st.integers(1, 300))
    return EnumeratedMonoid(n, draw(st.lists(sparse_perm_on(n), unique=True)))


@given(_element_sets())
def test_export_lines_spell_each_element_as_str_and_to_json(m):
    # export joins each line from a table of pair cells; these are the
    # per-element spellings it replaced
    assert export_bytes(m, "txt").decode() == "".join(f"{p}\n" for p in m)
    jsonl = "".join(json.dumps(p.to_json(), separators=(",", ":")) + "\n" for p in m)
    assert export_bytes(m, "jsonl").decode() == jsonl


def test_import_accepts_any_line_order(tmp_path):
    m = kind_monoid("odi", 3)
    lines = export_bytes(m, "txt").decode().splitlines()
    path = tmp_path / "shuffled.txt"
    path.write_text("\n".join(reversed(lines)) + "\n")
    assert import_elements(path).elements == m.elements


@pytest.mark.parametrize(
    "content,complaint",
    [
        ("", "empty"),
        ("n=4;1>2\nnot an element\n", "form"),
        ("n=4;1>2\nn=4;1>2\n", "duplicate"),
        ("n=4;1>2\nn=5;1>2\n", "differs"),
        ("n=4; 1>2\n", "form"),
        ('{"n":4,"map":[[1,2]]}\n{"n":4, "map":[[2,3]]}\n', "canonical"),
        ('{"n":4,"map":[[1,2]]\n', "JSON"),
        pytest.param('{"n":' + "1" * 5000 + ',"map":[]}\n', "JSON", id="json-n-of-5000-digits"),
        pytest.param(b"\xff\xfe\x00", "UTF-8", id="not-utf8"),
        pytest.param(gzip.compress(b"\xff\xfe\x00"), "UTF-8", id="gzip-of-not-utf8"),
        pytest.param(gzip.compress(b"n=4;1>2\n")[:-5], "gzip", id="truncated-gzip"),
        pytest.param(gzip.compress(b"n=4;1>2\n")[:-8] + bytes(8), "gzip", id="gzip-bad-crc"),
        pytest.param(b"\x1f\x8bxxxx", "gzip", id="gzip-magic-then-junk"),
        pytest.param(b"\x1f\x8b\x08\x00" + bytes(6) + b"\xff" * 20, "gzip", id="gzip-bad-deflate"),
    ],
)
def test_import_rejects_what_export_never_writes(tmp_path, content, complaint):
    path = tmp_path / "bad.txt"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    with pytest.raises(ParseError, match=complaint):
        import_elements(path)


def test_import_reads_gzip_by_magic(tmp_path):
    m = kind_monoid("opdi", 4)
    path = tmp_path / "dump.bin"  # deliberately extension-free
    export_elements(m, path, fmt="jsonl", compress=True)
    assert import_elements(path).elements == m.elements
