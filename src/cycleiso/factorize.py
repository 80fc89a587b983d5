"""Constructive factorization over the standard generating sets.

Every member either extends to a rotation, in which case it is a partial
identity followed by a power of the shift, or it is a rank-2 piece of a
reflection, which one straddling generator plus shifts produces.  The
monotone alphabet is reached by rewriting the order-preserving letters;
the orientation-preserving reflection piece is spelled directly over the
rotation alphabet.

Word lengths stay linear in n: partial identities cost one or two letters
per missing point in the order-preserving alphabet, and the rotation
alphabet spells them with exactly n rotation letters total by walking the
missing points once in descending order.
"""

from __future__ import annotations

from .errors import MembershipError
from .partial_perm import PartialPerm, classify_order
# classify is unused here but stays importable: bench/jobs.py's tracer patches it by name
from .dihedral import _KIND_FLAG, DihedralElement, check_kind, classify, extensions

__all__ = ["factorize"]


def factorize(p: PartialPerm, kind: str) -> tuple[str, ...]:
    """A word over ``standard_generators(kind, p.n)`` evaluating to ``p``.

    Deterministic: of the dihedral extensions the rotation is preferred,
    then the smaller exponent.  Only that one is built: the empty map,
    which every symmetry extends, takes g^0 once n is checked, and any
    other map has at most two extensions.
    """
    check_kind(kind)
    exts = extensions(p) if p.pairs else (DihedralElement.identity(p.n),)
    flags = classify_order(p)
    if not exts or not getattr(flags, _KIND_FLAG[kind]):
        raise MembershipError(f"{p} is not in {kind.upper()}_{p.n}")
    if kind == "mdi":
        return tuple(_mdi_word(p, exts[0], flags.order_preserving))
    return tuple({"odi": _odi_word, "opdi": _opdi_word}[kind](p, exts[0]))


def _op_identity_word(n: int, missing) -> list[str]:
    """The partial identity off ``missing``, spelled with e letters; the
    two partial identities that are not generators factor through the
    shift: yx misses 1, xy misses n."""
    out: list[str] = []
    for pt in sorted(missing):
        if pt == 1:
            out += ["y", "x"]
        elif pt == n:
            out += ["x", "y"]
        else:
            out.append(f"e{pt}")
    return out


def _rank2_reflection_word(n: int, k: int, i: int, j: int) -> list[str]:
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
    return ["y"] * (i - 1) + [jump] + ["x"] * (k - i)


def _odi_word(p: PartialPerm, sigma: DihedralElement) -> list[str]:
    """Order-preserving word for ``p``, given its preferred extension."""
    n = p.n
    if sigma.j == 0:
        missing = set(range(1, n + 1)) - set(p.domain)
        word = _op_identity_word(n, missing)
        t = sigma.k
        if all(a <= n - t for a in p.domain):
            return word + ["x"] * t
        # an order-preserving rotation piece fits one of the two arcs
        assert all(a >= n - t + 1 for a in p.domain)
        return word + ["y"] * (n - t)
    i, j = p.domain
    return _rank2_reflection_word(n, sigma.k, i, j)


def _to_monotone_alphabet(n: int, letters) -> list[str]:
    """Rewrite order-preserving letters for the monotone set, which keeps
    only the reflection-closed half of the partial identities: y = hxh
    and e_i = h e_(n-i+1) h."""
    half = (n + 1) // 2
    out: list[str] = []
    for w in letters:
        if w == "y":
            out += ["h", "x", "h"]
        elif w[0] == "e" and int(w[1:]) > half:
            out += ["h", f"e{n - int(w[1:]) + 1}", "h"]
        else:
            out.append(w)
    return out


def _mdi_word(p: PartialPerm, sigma: DihedralElement, order_preserving: bool) -> list[str]:
    n = p.n
    if order_preserving:
        return _to_monotone_alphabet(n, _odi_word(p, sigma))
    # p is order-reversing of rank >= 2; peeling the reflection h (i to
    # n - i + 1) off the right leaves an order-preserving member
    q = PartialPerm._trusted(n, tuple((a, n + 1 - b) for a, b in p.pairs))
    return _to_monotone_alphabet(n, _odi_word(q, extensions(q)[0])) + ["h"]


def _rot_identity_word(n: int, missing) -> list[str]:
    """The partial identity off ``missing`` over the rotation alphabet,
    via e_l = g^(n-l) e_n g^l.  Walking the missing points in descending
    order telescopes the rotation letters to exactly n."""
    pts = sorted(missing, reverse=True)
    if not pts:
        return []
    out = ["g"] * (n - pts[0]) + [f"e{n}"]
    for prev, cur in zip(pts, pts[1:]):
        out += ["g"] * (prev - cur) + [f"e{n}"]
    return out + ["g"] * pts[-1]


def _opdi_word(p: PartialPerm, sigma: DihedralElement) -> list[str]:
    n = p.n
    if sigma.j == 0:
        missing = set(range(1, n + 1)) - set(p.domain)
        return _rot_identity_word(n, missing) + ["g"] * sigma.k
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
