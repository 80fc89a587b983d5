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
missing points once in descending order.
"""

from __future__ import annotations

from sys import intern

from .errors import MembershipError
from .partial_perm import PartialPerm, classify_order
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


def _missing(n: int, domain) -> list[int]:
    """The points of 1..n outside ``domain``, ascending, in one pass over 1..n."""
    have = set(domain)
    return [x for x in range(1, n + 1) if x not in have]


def _op_identity_word(n: int, missing, y=_Y) -> list[str]:
    """The partial identity off the ascending points ``missing``, spelled
    with e letters and ``y``, the spelling of the shift; the two partial
    identities that are not generators factor through the shift: yx misses
    1, xy misses n.  The monotone set keeps the e_i with i <= (n + 1) / 2,
    the reflection-closed half, and spells the others h e_(n-i+1) h.  Each
    e letter is the one interned string of its name, so words share them."""
    half = (n + 1) // 2 if y is _MONOTONE_Y else n
    out: list[str] = []
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
        word = _op_identity_word(n, _missing(n, dom), y)
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


def _rot_identity_word(n: int, missing) -> list[str]:
    """The partial identity off ``missing`` over the rotation alphabet,
    via e_l = g^(n-l) e_n g^l.  Walking the missing points in descending
    order telescopes the rotation letters to exactly n; every e_n is one string."""
    pts = sorted(missing, reverse=True)
    if not pts:
        return []
    e = [f"e{n}"]
    out = ["g"] * (n - pts[0]) + e
    for prev, cur in zip(pts, pts[1:]):
        out += ["g"] * (prev - cur) + e
    return out + ["g"] * pts[-1]


def _opdi_word(p: PartialPerm, sigma: DihedralElement) -> list[str]:
    n = p.n
    if sigma.j == 0:
        return _rot_identity_word(n, _missing(n, p.domain)) + ["g"] * sigma.k
    # a reflection-only extension forces rank 2; g^k followed by the piece
    # beta = g^(-k) p is p, and the least k making beta order-preserving
    # is 0 or the shift carrying j past n to 1, which moves i to i + k
    (i, a), (j, b) = p.pairs
    k = 0 if a < b else n - j + 1
    tau = DihedralElement.rotation(n, -k) * sigma
    lo, hi = (i, j) if k == 0 else (1, i + k)
    # beta is _rank2_reflection_word's y^(lo-1) jump x^(tau.k-lo), spelled
    # with y^a = (identity off 1..a) g^(n-a), y_l = g^l x_l g^l, x = e_n g
    word = ["g"] * k
    if lo > 1:
        word += _rot_identity_word(n, range(1, lo)) + ["g"] * (n - lo + 1)
    gap = hi - lo
    if gap <= (n - 1) // 2:
        word.append(f"x{gap}")
    else:
        word += ["g"] * (n - gap) + [f"x{n - gap}"] + ["g"] * (n - gap)
    return word + [f"e{n}", "g"] * (tau.k - lo)
