"""Constructive factorization over the standard generating sets.

Every member either extends to a rotation, in which case it is a partial
identity followed by a power of the shift, or it is a rank-2 piece of a
reflection, which one straddling generator plus shifts produces.  The
monotone words are the order-preserving ones spelled, as they are built,
in the monotone alphabet; the orientation-preserving reflection piece is
spelled directly over the rotation alphabet.

Word lengths stay linear in n: partial identities cost one or two letters
per missing point in the order-preserving alphabet, and the rotation
alphabet spells them with exactly n rotation letters total by walking the
points once in descending order.  Both read the missing points off one
0/1 mask of the map, and the letters come from tables, not from text built
per point.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, compress
from sys import intern

from .errors import MembershipError
from .partial_perm import _MAX_BYTE_N, PartialPerm, _padded, classify_order
# classify is unused here but stays importable: bench/jobs.py's tracer patches it by name
from .dihedral import _KIND_FLAG, DihedralElement, _symmetry, check_kind, classify, extensions

__all__ = ["factorize"]

_Y, _MONOTONE_Y = ["y"], ["h", "x", "h"]  # the shift y, and its spelling with h for mdi


def factorize(p: PartialPerm, kind: str) -> tuple[str, ...]:
    """A word over ``standard_generators(kind, p.n)`` evaluating to ``p``.

    Deterministic: of the dihedral extensions the rotation is preferred,
    then the smaller exponent.  Only that one is built: the empty map,
    which every symmetry extends, takes g^0 once n is checked, and any
    other map has at most two extensions.
    """
    check_kind(kind)
    exts = extensions(p) if p._code else (DihedralElement.identity(p.n),)
    if not exts or not getattr(flags := classify_order(p), _KIND_FLAG[kind]):
        raise MembershipError(f"{p} is not in {kind.upper()}_{p.n}")
    if kind == "mdi":
        return tuple(_mdi_word(p, exts, flags.order_preserving))
    return tuple({"odi": _odi_word, "opdi": _opdi_word}[kind](p, exts[0]))


_UNDEFINED = bytes(255) + b"\1"  # a byte code to its missing mask: 1 where a point has no image


def _missing_mask(p: PartialPerm):
    """Byte x - 1 is 1 when point x has no image under p, else 0."""
    if p.n <= _MAX_BYTE_N:
        return _padded(p.n, p._code).translate(_UNDEFINED)
    have = set(p.domain)
    return bytes(x not in have for x in range(1, p.n + 1))


@lru_cache(maxsize=8)  # a table is as long as the longest word it spells, so keep a few
def _op_letters(n: int, monotone: bool) -> tuple[tuple[str, ...], ...]:
    """Entry x - 1 spells the partial identity off point x, with e letters
    and the shift y (h x h when ``monotone``); the two partial identities
    that are not generators factor through the shift: yx misses 1, xy misses
    n.  The monotone set keeps the e_i with i <= (n + 1) / 2, the
    reflection-closed half, and spells the others h e_(n-i+1) h.  Each e
    letter is the one interned string of its name, so words share them."""
    y = tuple(_MONOTONE_Y if monotone else _Y)
    half = (n + 1) // 2 if monotone else n
    inner = ((intern(f"e{x}"),) if x <= half else ("h", intern(f"e{n - x + 1}"), "h")
             for x in range(2, n))
    return ((*y, "x"), *inner, ("x", *y))


def _rank2_reflection_word(n: int, k: int, i: int, j: int, y=_Y) -> list[str]:
    """Order-preserving word for the restriction of the k-th reflection to
    {i, j}, where i <= k < j (exactly the order-preserving case) and the
    gap j - i is not half the circumference.

    Shift i to 1, jump the gap with one straddling generator, then shift
    into place.  A half-circumference gap has no straddling generator, but
    such a piece also extends to a rotation, which ``factorize`` prefers.
    """
    assert 1 <= i <= k < j <= n and 2 * (j - i) != n
    gap = j - i
    jump = f"x{gap}" if gap <= (n - 1) // 2 else f"y{n - gap}"
    return y * (i - 1) + [jump] + ["x"] * (k - i)


def _odi_word(p: PartialPerm, sigma: DihedralElement, y=_Y) -> list[str]:
    """Order-preserving word for the preferred extension ``sigma`` cut to p's domain."""
    n, dom = p.n, p.domain
    if sigma.j == 0:
        word = [*chain.from_iterable(compress(_op_letters(n, y is _MONOTONE_Y), _missing_mask(p)))]
        t = sigma.k
        # an order-preserving rotation piece fits one of the two arcs
        if not dom or dom[-1] <= n - t:
            return word + ["x"] * t
        assert dom[0] >= n - t + 1
        return word + y * (n - t)
    i, j = dom
    return _rank2_reflection_word(n, sigma.k, i, j, y)


def _mdi_word(p: PartialPerm, exts, order_preserving: bool) -> list[str]:
    if order_preserving:
        return _odi_word(p, exts[0], _MONOTONE_Y)
    # p is order-reversing of rank >= 2, so q = p h (h: i to n - i + 1) is an
    # order-preserving member on p's domain whose extensions are the s h, the
    # least preferred; q's word reads only n and that domain, and q h = p
    h = _symmetry(p.n, 1, 0)
    return _odi_word(p, min(s * h for s in exts), _MONOTONE_Y) + ["h"]


def _opdi_word(p: PartialPerm, sigma: DihedralElement) -> list[str]:
    n, e = p.n, intern(f"e{p.n}")
    if sigma.j == 0:
        # the partial identity, via e_l = g^(n-l) e_n g^l: walking the points from n
        # down to 1, each adds g and a missing one e_n before it, so the g telescope to n
        missing = _missing_mask(p)
        cells = map((("g",), (e, "g")).__getitem__, missing[::-1]) if 1 in missing else ()
        return [*chain.from_iterable(cells)] + ["g"] * sigma.k
    # a reflection-only extension forces rank 2; g^k followed by the piece
    # beta = g^(-k) p is p, and the least k making beta order-preserving
    # is 0 or the shift carrying j past n to 1, which moves i to i + k
    (i, a), (j, b) = p.pairs
    k = 0 if a < b else n - j + 1
    tau = DihedralElement.rotation(n, -k) * sigma
    lo, hi = (i, j) if k == 0 else (1, i + k)
    # beta is _rank2_reflection_word's y^(lo-1) jump x^(tau.k-lo), spelled
    # with y^a = (identity off 1..a) g^(n-a), y_l = g^l x_l g^l, x = e_n g;
    # the identity off 1..a is g^(n-a) (e_n g)^a
    word = ["g"] * k
    if lo > 1:
        word += ["g"] * (n - lo + 1) + [e, "g"] * (lo - 1) + ["g"] * (n - lo + 1)
    gap = hi - lo
    if gap <= (n - 1) // 2:
        word.append(f"x{gap}")
    else:
        word += ["g"] * (n - gap) + [f"x{n - gap}"] + ["g"] * (n - gap)
    return word + [e, "g"] * (tau.k - lo)
