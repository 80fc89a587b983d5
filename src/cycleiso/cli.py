"""Command-line front end.

Every subcommand is a thin wrapper over one library call plus
formatting.  Exit codes: 0 success, 1 a verification ran and failed,
2 invalid input (bad kind, n out of range, unparsable element,
non-membership).  Structured output is available with --json and
always carries schema_version.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import asdict

from .errors import _SIZE_LIMIT, CycleIsoError, DomainError
from .partial_perm import PartialPerm, classify_order
from .dihedral import KINDS, classify, extensions
from .engine import close, cross_check_green, export_bytes, green_structural
from .formulas import card, rank_formula
from .generators import standard_generators, word_text
from .factorize import factorize
from .rank_cert import brute_force_rank, lower_bound_certificate
from .brute_force import kind_elements, kind_monoid
from .verify import run_acceptance

SCHEMA_VERSION = 1

_ALL_KINDS = KINDS + ("di",)


def _emit_json(payload: dict) -> None:
    print(json.dumps({"schema_version": SCHEMA_VERSION, **payload}))


def _cmd_card(args) -> int:
    # every formula exceeds 2^n, so from this n on it is too long to print
    # and is refused before it is computed
    too_long = args.n >= _SIZE_LIMIT.bit_length()
    formula = None if too_long else card(args.kind, args.n)
    if too_long or formula >= _SIZE_LIMIT:
        raise DomainError(f"card {args.kind} n={args.n} is too long to print")
    if not args.enumerate:
        if args.json:
            _emit_json({"kind": args.kind, "n": args.n, "formula": formula})
        else:
            print(f"formula={formula}")
        return 0
    enumerated = len(kind_elements(args.kind, args.n))
    match = formula == enumerated
    if args.json:
        _emit_json(
            {
                "kind": args.kind,
                "n": args.n,
                "formula": formula,
                "enumerated": enumerated,
                "match": match,
            }
        )
    else:
        print(f"formula={formula} enumerated={enumerated} {'PASS' if match else 'FAIL'}")
    return 0 if match else 1


def _cmd_enumerate(args) -> int:
    gens = standard_generators(args.kind, args.n)
    m = close(args.n, gens.elements, workers=args.workers)
    blob = export_bytes(m, fmt=args.format, compress=args.gzip)
    if args.out is None:
        sys.stdout.buffer.write(blob)
        sys.stdout.buffer.flush()
    else:
        with open(args.out, "wb") as fh:
            fh.write(blob)
        print(f"wrote {m.size} elements to {args.out}")
    return 0


def _cmd_greens(args) -> int:
    m = kind_monoid(args.kind, args.n)
    dec = green_structural(m)
    classes = {
        "J": dec.d_classes,
        "L": dec.l_classes,
        "R": dec.r_classes,
        "H": dec.h_classes,
    }[args.relation]
    histogram = sorted(Counter(len(c) for c in classes).items())
    # j_related is only defined inside the three classified submonoids
    checked = args.relation == "J" and args.kind != "di"
    ok = True
    if checked:
        ok = cross_check_green(m, args.kind).passed
    if args.json:
        payload = {
            "kind": args.kind,
            "n": args.n,
            "relation": args.relation,
            "classes": len(classes),
            "histogram": [[size, count] for size, count in histogram],
        }
        if checked:
            payload["crosscheck"] = ok
        _emit_json(payload)
    else:
        summary = f"kind={args.kind} n={args.n} relation={args.relation} classes={len(classes)}"
        if checked:
            summary += f" crosscheck={'PASS' if ok else 'FAIL'}"
        print(summary)
        print("class_size,num_classes")
        for size, count in histogram:
            print(f"{size},{count}")
    return 0 if ok else 1


def _cmd_classify(args) -> int:
    p = PartialPerm.parse(args.element)
    report = classify(p)
    fields = {"element": str(p), "rank": p.rank}
    for name in ("in_di", "in_odi", "in_mdi", "in_opdi"):
        fields[name] = getattr(report, name)
    fields.update(asdict(classify_order(p)))
    fields["extensions"] = [str(s) for s in report.extensions]
    if args.json:
        _emit_json(fields)
        return 0
    for name, value in fields.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, list):
            value = ",".join(value)
        print(f"{name}={value}")
    return 0


def _cmd_extensions(args) -> int:
    p = PartialPerm.parse(args.element)
    ext = [str(s) for s in extensions(p)]
    if args.json:
        _emit_json({"element": str(p), "extensions": ext})
    else:
        for text in ext:
            print(text)
    return 0


def _cmd_factorize(args) -> int:
    p = PartialPerm.parse(args.element)
    word = factorize(p, args.kind)
    ok = standard_generators(args.kind, p.n).evaluate(word) == p
    if args.json:
        _emit_json(
            {
                "kind": args.kind,
                "element": str(p),
                "word": word_text(word),
                "letters": len(word),
                "roundtrip": ok,
            }
        )
    else:
        print(f"word={word_text(word)}")
        print(f"roundtrip={'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_gens(args) -> int:
    gens = standard_generators(args.kind, args.n)
    if args.json:
        _emit_json(
            {
                "kind": args.kind,
                "n": args.n,
                "generators": [
                    {"name": name, "element": str(p)} for name, p in gens
                ],
            }
        )
    else:
        print("name,element")
        for name, p in gens:
            print(f"{name},{p}")
    return 0


def _cmd_rank(args) -> int:
    value = rank_formula(args.kind, args.n)
    if not args.certify:
        if args.json:
            _emit_json({"kind": args.kind, "n": args.n, "rank": value})
        else:
            print(f"rank={value}")
        return 0
    if args.n == 3:
        # small enough to settle outright; the standard sets are not
        # minimal here, so the certificate route would never certify
        certified = brute_force_rank(args.kind, 3) == value
        requirements = [
            {"description": "exhaustive minimal-set search", "satisfied": certified}
        ]
    else:
        report = lower_bound_certificate(
            args.kind, args.n, standard_generators(args.kind, args.n).elements
        )
        certified = report.certified
        requirements = [
            {
                "description": r.description,
                "satisfied": r.satisfied,
                "witness": None if r.witness is None else str(r.witness),
            }
            for r in report.requirements
        ]
    if args.json:
        _emit_json(
            {
                "kind": args.kind,
                "n": args.n,
                "rank": value,
                "certified": certified,
                "requirements": requirements,
            }
        )
    else:
        print(f"rank={value} {'CERTIFIED' if certified else 'UNCERTIFIED'}")
    return 0 if certified else 1


def _cmd_verify(args) -> int:
    results = run_acceptance(args.max_n)
    if args.json:
        _emit_json(
            {
                "max_n": args.max_n,
                "passed": all(r.passed for r in results),
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
        )
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"criterion {r.number:>2} {status} {r.name} ({r.seconds:.2f}s): {r.detail}")
        failed = sum(1 for r in results if not r.passed)
        if failed:
            print(f"{failed} of {len(results)} criteria FAILED")
        else:
            print(f"all {len(results)} criteria passed")
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycleiso",
        description="exact computations in the partial-isometry monoids of a cycle graph",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, kind=None, n=False, element=False):
        p = sub.add_parser(name, help=help_text)
        if kind is not None:
            p.add_argument("kind", choices=kind)
        if n:
            p.add_argument("n", type=int)
        if element:
            p.add_argument("element", help="element text, e.g. 'n=5;2>1,4>3,5>4'")
        p.add_argument("--json", action="store_true", help="structured output")
        p.set_defaults(handler=handler)
        return p

    p = add("card", _cmd_card, "cardinality from the closed formula", kind=KINDS, n=True)
    p.add_argument("--enumerate", action="store_true", help="cross-check against brute force")

    p = sub.add_parser("enumerate", help="write the full element list")
    p.add_argument("kind", choices=_ALL_KINDS)
    p.add_argument("n", type=int)
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--format", choices=("txt", "jsonl"), default="txt")
    p.add_argument("--gzip", action="store_true")
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="positive int; the closure is serial, so neither work nor output depends on it",
    )
    p.set_defaults(handler=_cmd_enumerate)

    p = add("greens", _cmd_greens, "Green's relation class counts", kind=_ALL_KINDS, n=True)
    p.add_argument("--relation", choices=("J", "L", "R", "H"), default="J")

    add("classify", _cmd_classify, "membership and order flags of one element", element=True)
    add("extensions", _cmd_extensions, "dihedral symmetries extending one element", element=True)
    add("factorize", _cmd_factorize, "word in the standard generators", kind=KINDS, element=True)
    add("gens", _cmd_gens, "the standard generating set", kind=_ALL_KINDS, n=True)

    p = add("rank", _cmd_rank, "minimum generating set size", kind=KINDS, n=True)
    p.add_argument("--certify", action="store_true", help="verify upper and lower bounds")

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--max-n", type=int, default=None, help="cap the n ranges (full run if omitted)")
    p.add_argument("--json", action="store_true", help="structured output")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage; surface its code (2 on bad input)
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (CycleIsoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
