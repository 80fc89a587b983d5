"""Finite-monoid machinery over partial permutations.

Closure from generators, Green's relations computed two independent ways
(structurally from images/domains versus the distance-sequence test), and
deterministic element-set serialization.
"""

from __future__ import annotations

import gzip
import io
import json
import zlib
from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .errors import (
    AmbientMismatchError,
    DomainError,
    NotInverseClosedError,
    ParseError,
    _check_cycle,
    _check_size,
    _shown,
)
from .partial_perm import PartialPerm, _kernel, _padded, _render, identity
from .geometry import _sequence
from .dihedral import check_kind

__all__ = [
    "EnumeratedMonoid",
    "GreenDecomposition",
    "CrossCheckReport",
    "close",
    "green_structural",
    "j_related",
    "j_partition",
    "cross_check_green",
    "idempotents",
    "export_bytes",
    "export_elements",
    "import_elements",
]


class EnumeratedMonoid:
    """A canonically sorted element set on one cycle, optionally with generator words.

    The set is held as its codes padded to n, in element order, which size and export read;
    ``elements`` strips and wraps them on first read.  Its table maps each code to its
    parent's code, and membership reads the table's keys.  ``EnumeratedMonoid(n, elements)``
    checks n as ``close`` does, sorts the elements canonically, refuses one on another n and
    holds each once; its ``generators`` are ``()``, its table has no parents and its letters
    and ``words`` are empty.  ``close`` builds its result itself, with its generators, its
    search table and an array of each entry's letter, in table order.  ``words``, built from
    the two on first read, maps the elements in order to the shortest words the search
    found, as tuples of indices into ``generators``.
    """

    def __init__(self, n, elements):
        _check_size(n)
        elements = sorted(elements)
        for p in elements:
            if p.n != n:
                raise AmbientMismatchError(f"element {p} does not live on n={n}")
        table = {_padded(n, p._code): p for p in elements}  # one entry per code
        self.n, self.generators, self._parents, self._letters = n, (), dict.fromkeys(table), array("i")
        self.elements, self._codes = tuple(table.values()), tuple(table)

    @cached_property
    def elements(self) -> tuple[PartialPerm, ...]:
        return tuple(PartialPerm._wrap(self.n, c) for c in map(_kernel(self.n)[1], self._codes))

    @cached_property
    def words(self) -> dict:
        words = {}  # by code; the table lists every parent before its children
        for (code, parent), letter in zip(self._parents.items(), self._letters):
            words[code] = () if parent is None else words[parent] + (letter,)
        return dict(zip(self.elements, map(words.__getitem__, self._codes))) if words else {}

    @property
    def size(self) -> int:
        return len(self._codes)

    def __len__(self) -> int:
        return len(self._codes)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, p) -> bool:
        hash(p)  # an unhashable probe raises TypeError, as set membership does
        return isinstance(p, PartialPerm) and p.n == self.n and _padded(p.n, p._code) in self._parents


def close(n, generators, workers: int = 1) -> EnumeratedMonoid:
    """Smallest composition-closed set containing the identity and the
    generators, via right-multiplication breadth-first search.

    It runs on the element codes ``partial_perm._kernel(n)`` composes: up to n = 254
    ``p * g`` is one ``bytes.translate``.  Each layer is visited in canonical order, each
    element against the generators in index order, and the first product found (shortest
    layer, then generator index) is kept with its parent and letter, as Froidure and Pin
    store it: the table maps it to its parent's code, and its letter goes into one array.
    A product already found is not formed: a repeated letter, nor u * b where u's word
    ends in a letter a with a * b the identity or a letter, since u * b is then u's parent
    times a * b, found the layer before; so the table is the full search's.  The result
    skips the constructor: it holds the table's keys sorted as elements, and the table.
    ``n`` must be an int in 1..10**4300 - 1, ``workers`` a positive int.
    """
    _check_size(n)
    gens = tuple(generators)
    for g in gens:
        if g.n != n:
            raise AmbientMismatchError(f"generator {g} does not live on n={n}")
    if type(workers) is not int or workers < 1:
        raise DomainError(f"workers must be a positive int, got {_shown(workers)}")
    mul, strip, table, _ = _kernel(n)
    tables = [table(g._code) for g in gens]
    layer = [identity(n)._code]
    found = {layer[0]: None}
    last = array("i", [-1])  # each found code's last letter, in table order; the identity's -1
    letters = {layer[0]: -1}  # the identity, then each distinct letter's search code: first index
    for gi, t in enumerate(tables):
        letters.setdefault(mul(layer[0], t), gi)
    every = [(gi, tables[gi]) for gi in letters.values() if gi >= 0]
    after = {a: [(b, t) for b, t in every if mul(c, t) not in letters] for c, a in letters.items()}
    after[-1] = every  # the letters a word with no last letter is multiplied by
    while layer:
        # the layer is the table's tail: visit it in stripped order, with its last letters
        ends, keys = last[-len(layer):], list(map(strip, layer))
        fresh = []
        for i in sorted(range(len(layer)), key=keys.__getitem__):
            code = layer[i]
            for gi, t in after[ends[i]]:
                prod = mul(code, t)
                if prod not in found:
                    found[prod] = code
                    last.append(gi)
                    fresh.append(prod)
        layer = fresh
    m = object.__new__(EnumeratedMonoid)
    m._codes = tuple(sorted(found, key=strip))
    m.n, m.generators, m._parents, m._letters = n, gens, found, last
    return m


@dataclass(frozen=True)
class GreenDecomposition:
    """Partitions of an element set into L-, R-, H-, and D-classes.

    L groups by image, R by domain, H by the pair, and D is the join of
    L and R.  For these finite monoids D coincides with J.
    """

    l_classes: tuple[tuple[PartialPerm, ...], ...]
    r_classes: tuple[tuple[PartialPerm, ...], ...]
    h_classes: tuple[tuple[PartialPerm, ...], ...]
    d_classes: tuple[tuple[PartialPerm, ...], ...]


def _grouped(elements, keys) -> tuple[tuple[PartialPerm, ...], ...]:
    # elements come in canonical order, each with its key, so each group is
    # built sorted and the groups arrive ordered by their least member
    groups = defaultdict(list)
    for p, key in zip(elements, keys):
        groups[key].append(p)
    return tuple(map(tuple, groups.values()))


def green_structural(m: EnumeratedMonoid) -> GreenDecomposition:
    """L/R/H from image and domain keys, D as R followed by L.

    Requires an inversion-closed set; the keyed description of L and R is
    only valid in an inverse submonoid of the partial permutations.  There
    q is D-related to p exactly when some member maps p's domain onto q's
    image, so the least image reached from a domain names its D-class.
    """
    keys, reach = [(p.domain, p.image) for p in m.elements], defaultdict(set)
    for p, (domain, image) in zip(m.elements, keys):
        if p.inverse() not in m:
            raise NotInverseClosedError(f"inverse of {p} is missing from the set")
        reach[domain].add(image)
    return GreenDecomposition(
        l_classes=_grouped(m.elements, (image for _, image in keys)),
        r_classes=_grouped(m.elements, (domain for domain, _ in keys)),
        h_classes=_grouped(m.elements, keys),
        d_classes=_grouped(m.elements, (min(reach[domain]) for domain, _ in keys)),
    )


def _j_key(p: PartialPerm, kind: str):
    # the domain's distance sequence, least over the symmetries the kind
    # allows; its last entry closes the cycle, so rotating the domain
    # shifts it cyclically and reflecting reverses the first k - 1 entries
    if p.rank <= 1:
        return p.rank
    _check_cycle(p.n)
    seq = _sequence(p.n, p.domain)
    if kind == "odi":
        return seq
    if kind == "mdi":
        return min(seq, seq[-2::-1] + seq[-1:])
    return min(seq[s:] + seq[:s] for s in range(len(seq)))


def j_related(a: PartialPerm, b: PartialPerm, kind: str) -> bool:
    """The two-sided Green relation, decided from domains alone.

    Members of the same kind are J-related iff their ranks agree and are
    at most 1, or the ranks agree and the domain distance sequences match
    up to the symmetries the kind allows: nothing for order-preserving,
    reflection for monotone, any rotation for orientation-preserving.
    Both maps must be members of ``kind``; the answer for other maps is
    unspecified.

    {2,4,5} is the reflection of {1,2,4}, and also a rotation of it:

    >>> c = PartialPerm.parse("n=5;1>1,2>2,4>4")
    >>> d = PartialPerm.parse("n=5;2>2,4>4,5>5")
    >>> [j_related(c, d, kind) for kind in ("odi", "mdi", "opdi")]
    [False, True, True]
    """
    check_kind(kind)
    if a.n != b.n:
        raise AmbientMismatchError(f"cannot compare n={a.n} with n={b.n}")
    return _j_key(a, kind) == _j_key(b, kind)


def j_partition(m: EnumeratedMonoid, kind: str) -> tuple[tuple[PartialPerm, ...], ...]:
    """Partition of the element set induced by ``j_related``: the members
    grouped by their J key, classes ordered by their least member."""
    check_kind(kind)
    return _grouped(m.elements, (_j_key(p, kind) for p in m.elements))


@dataclass(frozen=True)
class CrossCheckReport:
    passed: bool
    d_class_count: int
    j_class_count: int
    counterexample: tuple[PartialPerm, PartialPerm] | None


def cross_check_green(m: EnumeratedMonoid, kind: str) -> CrossCheckReport:
    """Compare the structural D-partition with the j_related partition.

    On mismatch the report carries a pair of elements on which the two
    relations disagree.
    """
    d_classes = green_structural(m).d_classes
    j_classes = j_partition(m, kind)
    if d_classes == j_classes:
        return CrossCheckReport(True, len(d_classes), len(j_classes), None)
    # both order their classes by least member, so the classes before the first
    # differing pair agree, and both of its classes start at the least element
    # whose two classes differ
    d, j = next((d, j) for d, j in zip(d_classes, j_classes) if d != j)
    return CrossCheckReport(False, len(d_classes), len(j_classes), (d[0], min({*d} ^ {*j})))


def idempotents(m: EnumeratedMonoid) -> tuple[PartialPerm, ...]:
    """Elements equal to their own square; here, the partial identities."""
    return tuple(p for p in m.elements if p * p == p)


def export_bytes(m: EnumeratedMonoid, fmt: str = "txt", compress: bool = False) -> bytes:
    """Serialize the sorted element list, one canonical line per element.

    Deterministic: fixed input gives byte-identical output, gzip included
    (no timestamps in the header).
    """
    if fmt not in ("txt", "jsonl"):
        raise ParseError(f"unknown format {_shown(fmt)}; expected txt or jsonl")
    if fmt == "txt":
        raw = _render(m.n, m._codes, "{}>{}", f"n={m.n};", "\n")
    else:
        raw = _render(m.n, m._codes, "[{},{}]", f'{{"n":{m.n},"map":[', "]}\n")
    if not compress:
        return raw
    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as zf:
        zf.write(raw)
    return buf.getvalue()


def export_elements(m: EnumeratedMonoid, path, fmt: str = "txt", compress: bool = False) -> None:
    Path(path).write_bytes(export_bytes(m, fmt, compress))


def import_elements(path) -> EnumeratedMonoid:
    """Read an element dump, rejecting anything a canonical export would
    not produce: a broken gzip stream, text that is not UTF-8, unparsable
    lines, non-canonical spellings, duplicates, or elements on different
    cycles."""
    data = Path(path).read_bytes()
    if data[:2] == b"\x1f\x8b":
        try:
            data = gzip.decompress(data)
        except (OSError, EOFError, zlib.error) as exc:
            raise ParseError(f"broken gzip stream: {exc}") from None
    try:
        lines = data.decode().splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}") from None
    fmt = "jsonl" if lines and lines[0].lstrip().startswith("{") else "txt"
    seen = set()
    elements = []
    n = None
    for num, line in enumerate(lines, start=1):
        if fmt == "jsonl":
            try:
                obj = json.loads(line)
            except ValueError as exc:  # bad syntax, or an int too long to read
                raise ParseError(f"line {num}: invalid JSON: {exc}") from None
            p = PartialPerm.from_json(obj)
        else:
            p = PartialPerm.parse(line)
        if (str(p) if fmt == "txt" else json.dumps(p.to_json(), separators=(",", ":"))) != line:
            raise ParseError(f"line {num}: not in canonical form")
        if p in seen:
            raise ParseError(f"line {num}: duplicate element {p}")
        if n is None:
            n = p.n
        elif p.n != n:
            raise ParseError(f"line {num}: ambient size {p.n} differs from {n}")
        seen.add(p)
        elements.append(p)
    if n is None:
        raise ParseError("empty element dump")
    return EnumeratedMonoid(n, elements)
