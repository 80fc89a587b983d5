"""Command-line front end.

Every subcommand is a thin wrapper over one library call.  Its handler
returns ``(exit code, payload, lines)`` and prints nothing; ``main``
renders the result once, as the JSON object ``{"schema_version": 1,
**payload}`` under --json and as the text lines otherwise.  The one
exception is ``enumerate``, whose output is the export: it writes the
bytes itself and returns its "wrote N elements" line, or no lines when
the export goes to stdout.  Exit codes: 0 success, 1 a verification ran
and failed, 2 invalid input (bad kind, n out of range, unparsable
element, non-membership, an unwritable path or stdout).  A reader that
closes stdout early leaves the code the command reached, with nothing on
stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections import Counter
from dataclasses import asdict

from .errors import _SIZE_LIMIT, CycleIsoError, DomainError, _check_cycle, _shown
from .partial_perm import PartialPerm, classify_order
from .dihedral import KINDS, classify, extensions
from .engine import close, cross_check_green, export_bytes, green_structural
from .formulas import card, rank_formula
from .generators import standard_generators, word_text
from .factorize import factorize
from .rank_cert import lower_bound_certificate
from .brute_force import kind_elements, kind_monoid
from .verify import run_acceptance

SCHEMA_VERSION = 1

_ALL_KINDS = KINDS + ("di",)

_Output = tuple[int, dict, list[str]]

# the most elements enumerate and rank --certify build; mdi 18 and odi 19 (about 1,574,000
# elements), the largest either admits, peak at about 0.34 GB.  Also the most symmetries
# extensions and classify list: the 2,000,000 of n=1000000; peak at 353 and 390 MB
_MAX_ELEMENTS = 2_000_000
# greens and card --enumerate build all of di; 1 GB holds n = 14 (458,431), not n = 15 (982,786)
_MAX_DI = 500_000
# gens and the factorize round trip build the standard set; opdi 500000 (1,499,997 pairs,
# a PartialPerm per letter) peaks at 416 MB with --json, the most of any kind
_MAX_PAIRS = 1_500_000
# the factorize round trip composes the standard set letter by letter, n points a letter;
# opdi 'n=4000;' (8000 letters on 4000 points, exactly this) takes about 2.7 s end to end
_MAX_STEPS = 32_000_000


def _count(kind: str, n: int) -> int | None:
    # every count exceeds 2^n, so from this n on it is too long to print and over any
    # ceiling, and is not computed.  di is the empty map, the n^2 maps of rank 1, and the
    # 2n symmetries cut to each set of two or more points, less the n^2/2 repeats: two
    # symmetries agree on at most two points, and on two only when they are antipodal
    if n >= _SIZE_LIMIT.bit_length():
        return None
    if kind == "di":
        return 1 + n * n + 2 * n * (2**n - n - 1) - (n % 2 == 0) * n * n // 2
    return card(kind, n)


def _check_count(what: str, kind: str, n: int, limit: int) -> None:
    """Refuse ``what``, the command as typed, if it would build more than ``limit`` elements."""
    count = _count(kind, n)
    if count is None or count > limit:
        shown = f"more than 2^{n}" if count is None else _shown(count)
        raise DomainError(f"{what} would build {shown} elements (limit {limit})")


def _check_pairs(what: str, kind: str, n: int) -> None:
    _check_cycle(n)  # a size below 3 is refused as standard_generators refuses it
    m = (n - 1) // 2  # x_i and y_i hold two pairs, every other letter n or n - 1
    pairs = {"odi": n * (n - 1) + 4 * m, "mdi": n + (n - 1) * ((n + 1) // 2) + 4 * m,
             "opdi": 2 * n - 1 + 2 * m, "di": 3 * n - 1}[kind]
    if pairs > _MAX_PAIRS:
        raise DomainError(f"{what} would build {_shown(pairs)} pairs (limit {_MAX_PAIRS})")


def _check_symmetries(what: str, p: PartialPerm) -> None:
    """Refuse ``what`` for the empty map, whose extensions are all 2n symmetries, past the
    element ceiling; any other map has at most two."""
    if not p.pairs and 2 * p.n > _MAX_ELEMENTS:
        shown = _shown(2 * p.n)
        raise DomainError(f"{what} would build {shown} symmetries (limit {_MAX_ELEMENTS})")


def _cmd_card(args) -> _Output:
    formula = _count(args.kind, args.n)
    if formula is None or formula >= _SIZE_LIMIT:
        raise DomainError(f"card {args.kind} n={args.n} is too long to print")
    payload = {"kind": args.kind, "n": args.n, "formula": formula}
    if not args.enumerate:
        return 0, payload, [f"formula={formula}"]
    _check_count(f"card {args.kind} {args.n} --enumerate", "di", args.n, _MAX_DI)
    enumerated = len(kind_elements(args.kind, args.n))
    match = formula == enumerated
    payload.update(enumerated=enumerated, match=match)
    line = f"formula={formula} enumerated={enumerated} {'PASS' if match else 'FAIL'}"
    return 0 if match else 1, payload, [line]


def _cmd_enumerate(args) -> _Output:
    _check_count(f"enumerate {args.kind} {args.n}", args.kind, args.n, _MAX_ELEMENTS)
    gens = standard_generators(args.kind, args.n)
    m = close(args.n, gens.elements, workers=args.workers)
    blob = export_bytes(m, fmt=args.format, compress=args.gzip)
    if args.out is None:
        _to_stdout(lambda: sys.stdout.buffer.write(blob))
        return 0, {}, []
    with open(args.out, "wb") as fh:
        fh.write(blob)
    return 0, {}, [f"wrote {m.size} elements to {args.out}"]


def _cmd_greens(args) -> _Output:
    _check_count(f"greens {args.kind} {args.n}", "di", args.n, _MAX_DI)
    m = kind_monoid(args.kind, args.n)
    dec = green_structural(m)
    classes = {
        "J": dec.d_classes,
        "L": dec.l_classes,
        "R": dec.r_classes,
        "H": dec.h_classes,
    }[args.relation]
    histogram = sorted(Counter(len(c) for c in classes).items())
    payload = {
        "kind": args.kind,
        "n": args.n,
        "relation": args.relation,
        "classes": len(classes),
        "histogram": [[size, count] for size, count in histogram],
    }
    summary = f"kind={args.kind} n={args.n} relation={args.relation} classes={len(classes)}"
    ok = True
    # j_related is only defined inside the three classified submonoids
    if args.relation == "J" and args.kind != "di":
        ok = payload["crosscheck"] = cross_check_green(m, args.kind, dec).passed
        summary += f" crosscheck={'PASS' if ok else 'FAIL'}"
    lines = [summary, "class_size,num_classes"]
    lines += [f"{size},{count}" for size, count in histogram]
    return 0 if ok else 1, payload, lines


def _cmd_classify(args) -> _Output:
    p = PartialPerm.parse(args.element)
    _check_symmetries(f"classify {args.element}", p)
    report = classify(p)
    fields = {"element": str(p), "rank": p.rank}
    for name in ("in_di", "in_odi", "in_mdi", "in_opdi"):
        fields[name] = getattr(report, name)
    fields.update(asdict(classify_order(p)))
    fields["extensions"] = [str(s) for s in report.extensions]
    lines = []
    for name, value in fields.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, list):
            value = ",".join(value)
        lines.append(f"{name}={value}")
    return 0, fields, lines


def _cmd_extensions(args) -> _Output:
    p = PartialPerm.parse(args.element)
    _check_symmetries(f"extensions {args.element}", p)
    ext = [str(s) for s in extensions(p)]
    return 0, {"element": str(p), "extensions": ext}, ext


def _cmd_factorize(args) -> _Output:
    p = PartialPerm.parse(args.element)
    what = f"factorize {args.kind} {args.element}"
    _check_pairs(what, args.kind, p.n)
    word = factorize(p, args.kind)
    if len(word) * p.n > _MAX_STEPS:
        raise DomainError(f"{what} would evaluate {len(word)} letters on n={p.n}, "
                          f"{len(word) * p.n} steps (limit {_MAX_STEPS})")
    ok = standard_generators(args.kind, p.n).evaluate(word) == p
    payload = {
        "kind": args.kind,
        "element": str(p),
        "word": word_text(word),
        "letters": len(word),
        "roundtrip": ok,
    }
    lines = [f"word={word_text(word)}", f"roundtrip={'PASS' if ok else 'FAIL'}"]
    return 0 if ok else 1, payload, lines


def _cmd_gens(args) -> _Output:
    _check_pairs(f"gens {args.kind} {args.n}", args.kind, args.n)
    texts = [(name, str(p)) for name, p in standard_generators(args.kind, args.n)]
    payload = {
        "kind": args.kind,
        "n": args.n,
        "generators": [{"name": name, "element": text} for name, text in texts],
    }
    return 0, payload, ["name,element"] + [f"{name},{text}" for name, text in texts]


def _cmd_rank(args) -> _Output:
    value = rank_formula(args.kind, args.n)
    payload = {"kind": args.kind, "n": args.n, "rank": value}
    if not args.certify:
        return 0, payload, [f"rank={value}"]
    _check_count(f"rank {args.kind} {args.n} --certify", args.kind, args.n, _MAX_ELEMENTS)
    report = lower_bound_certificate(
        args.kind, args.n, standard_generators(args.kind, args.n).elements
    )
    if args.n == 3:
        # the standard sets are not minimal here, so the certificate is never
        # certified; its lower bound is the exhaustive search's minimum
        certified = report.lower_bound == value
        requirements = [
            {"description": "exhaustive minimal-set search", "satisfied": certified}
        ]
    else:
        certified = report.certified
        requirements = [asdict(r) for r in report.requirements]
    payload.update(certified=certified, requirements=requirements)
    line = f"rank={value} {'CERTIFIED' if certified else 'UNCERTIFIED'}"
    return 0 if certified else 1, payload, [line]


def _cmd_verify(args) -> _Output:
    results = run_acceptance(args.max_n)
    passed = all(r.passed for r in results)
    payload = {
        "max_n": args.max_n,
        "passed": passed,
        "criteria": [
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "seconds": round(r.seconds, 3),
                "detail": r.detail,
            }
            for r in results
        ],
    }
    lines = [
        f"criterion {r.number:>2} {'PASS' if r.passed else 'FAIL'} {r.name} "
        f"({r.seconds:.2f}s): {r.detail}"
        for r in results
    ]
    failed = sum(not r.passed for r in results)
    if failed:
        lines.append(f"{failed} of {len(results)} criteria FAILED")
    else:
        lines.append(f"all {len(results)} criteria passed")
    return 0 if passed else 1, payload, lines


def _ascii_int(text: str) -> int:
    """An int argument in ASCII digits; int() alone also reads "٥", "5_0", "+5" and " 6"."""
    if not (text.removeprefix("-").isdigit() and text.isascii()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):  # argparse drops a failed write on some versions
        _to_stdout(lambda: (file or sys.stdout).write(self.format_help()))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cycleiso",
        description="exact computations in the partial-isometry monoids of a cycle graph",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, kind=None, n=False, element=False, with_json=True):
        p = sub.add_parser(name, help=help_text)
        if kind is not None:
            p.add_argument("kind", choices=kind)
        if n:
            p.add_argument("n", type=_ascii_int)
        if element:
            p.add_argument("element", help="element text, e.g. 'n=5;2>1,4>3,5>4'")
        if with_json:
            p.add_argument("--json", action="store_true", help="structured output")
        p.set_defaults(handler=handler)
        return p

    p = add("card", _cmd_card, "cardinality from the closed formula", kind=KINDS, n=True)
    p.add_argument("--enumerate", action="store_true", help="cross-check against brute force")

    p = add("enumerate", _cmd_enumerate, "write the full element list", kind=_ALL_KINDS, n=True,
            with_json=False)
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--format", choices=("txt", "jsonl"), default="txt")
    p.add_argument("--gzip", action="store_true")
    p.add_argument("--workers", type=_ascii_int, default=1, help="positive int; the closure "
                   "is serial, so neither work nor output depends on it")

    p = add("greens", _cmd_greens, "Green's relation class counts", kind=_ALL_KINDS, n=True)
    p.add_argument("--relation", choices=("J", "L", "R", "H"), default="J")

    add("classify", _cmd_classify, "membership and order flags of one element", element=True)
    add("extensions", _cmd_extensions, "dihedral symmetries extending one element", element=True)
    add("factorize", _cmd_factorize, "word in the standard generators", kind=KINDS, element=True)
    add("gens", _cmd_gens, "the standard generating set", kind=_ALL_KINDS, n=True)

    p = add("rank", _cmd_rank, "minimum generating set size", kind=KINDS, n=True)
    p.add_argument("--certify", action="store_true", help="verify upper and lower bounds")

    p = add("verify", _cmd_verify, "run the acceptance suite")
    p.add_argument("--max-n", type=_ascii_int, default=None,
                   help="cap the n ranges, at least 4 (full run if omitted)")

    return parser


def _to_stdout(write) -> None:
    """Call ``write`` and flush stdout; a reader that closed stdout early is not an error,
    any other failure is raised."""
    if sys.stdout is None:  # descriptor 1 was closed when Python started
        raise OSError("stdout is closed")
    try:
        write()
        sys.stdout.flush()
    except OSError as exc:  # what is still buffered goes to devnull, not to an error at exit
        with open(os.devnull, "wb") as devnull, contextlib.suppress(ValueError):  # no descriptor
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            raise


def main(argv=None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse printed usage or help; 2 on bad input
            return int(exc.code or 0)
        code, payload, lines = args.handler(args)
        # enumerate has no --json: its output is the export itself
        if getattr(args, "json", False):
            lines = [json.dumps({"schema_version": SCHEMA_VERSION, **payload})]
        _to_stdout(lambda: sys.stdout.write("".join(f"{line}\n" for line in lines)))
    except (CycleIsoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
