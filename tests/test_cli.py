"""End-to-end checks of the command-line front end.

Each subcommand is a thin wrapper, so most tests compare its output
against the library call it wraps and pin the exit code contract:
0 success, 1 failed verification, 2 invalid input.
"""

import json
import os
import subprocess
import sys
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import cycleiso
from cycleiso import (
    PartialPerm, card, factorize, generator, import_elements, standard_generators, verify,
)
from cycleiso.brute_force import kind_elements
from cycleiso.cli import _count, main

from conftest import capped_child_lines


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_card_plain(capsys):
    code, out, err = run(capsys, "card", "odi", "4")
    assert code == 0
    assert out == "formula=44\n"
    assert err == ""


def test_card_enumerate_cross_check(capsys):
    code, out, _ = run(capsys, "card", "odi", "4", "--enumerate")
    assert code == 0
    assert out == "formula=44 enumerated=44 PASS\n"


def test_card_json(capsys):
    code, out, _ = run(capsys, "card", "mdi", "5", "--enumerate", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["formula"] == card("mdi", 5) == 182
    assert payload["enumerated"] == 182
    assert payload["match"] is True


def test_card_rejects_small_n(capsys):
    code, out, err = run(capsys, "card", "odi", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("extra", [(), ("--json",)])
def test_card_too_long_to_print_is_refused(capsys, extra):
    code, out, err = run(capsys, "card", "odi", "20000", *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "n=20000" in err


@pytest.mark.parametrize("extra", [(), ("--json",)])
def test_card_too_long_to_print_is_refused_before_it_is_computed(
    capsys, monkeypatch, extra
):
    def fail(kind, n):
        raise AssertionError(f"card({kind!r}, {n}) was computed")

    monkeypatch.setattr("cycleiso.cli.card", fail)
    code, out, err = run(capsys, "card", "odi", "10000000000", *extra)
    assert code == 2
    assert out == ""
    assert err == "error: card odi n=10000000000 is too long to print\n"


def test_unknown_kind_is_a_usage_error(capsys):
    code, _, err = run(capsys, "card", "xyz", "4")
    assert code == 2
    assert "invalid choice" in err


def test_missing_subcommand_is_a_usage_error(capsys):
    assert run(capsys, *[])[0] == 2


def test_enumerate_to_stdout(capsysbinary):
    code = main(["enumerate", "odi", "3"])
    out = capsysbinary.readouterr().out
    assert code == 0
    lines = out.decode().splitlines()
    assert len(lines) == 20
    assert lines[0] == "n=3;"
    assert all(line.startswith("n=3;") for line in lines)


def test_enumerate_to_file_round_trips(tmp_path, capsys):
    path = tmp_path / "opdi4.jsonl.gz"
    code, out, _ = run(
        capsys, "enumerate", "opdi", "4", "--out", str(path),
        "--format", "jsonl", "--gzip",
    )
    assert code == 0
    assert out == f"wrote 77 elements to {path}\n"
    m = import_elements(path)
    assert m.size == 77


def test_enumerate_workers_do_not_change_the_file(tmp_path, capsys):
    paths = []
    for workers in ("1", "3"):
        path = tmp_path / f"w{workers}.txt"
        run(capsys, "enumerate", "mdi", "4", "--out", str(path),
            "--workers", workers)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_enumerate_rejects_nonpositive_workers(capsys, workers):
    code, out, err = run(capsys, "enumerate", "odi", "4", "--workers", workers)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and workers in err


_REFUSALS_IN_A_CAPPED_CHILD = """
import contextlib, io
from cycleiso.cli import main
for argv in {argvs!r}:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(list(argv))
    print(code, err.getvalue(), end="")
"""


def test_enumerate_refuses_runaway_sizes_up_front():
    # without the guard, enumerate opdi 40 ran until memory was gone, so
    # the refusals run in a child whose memory is capped
    cases = [
        ("enumerate", "opdi", "40"),
        ("enumerate", "mdi", "20", "--format", "jsonl"),
        ("enumerate", "di", "18"),
        # the first size of each kind past the ceiling
        ("enumerate", "odi", "20"),
        ("enumerate", "mdi", "19"),
        ("enumerate", "opdi", "17"),
        ("enumerate", "di", "16"),
    ]
    lines = capped_child_lines(_REFUSALS_IN_A_CAPPED_CHILD.format(argvs=cases))
    assert lines == [
        f"2 error: enumerate {kind} {n} would build {_count(kind, int(n))} "
        f"elements (limit 2000000)"
        for _, kind, n, *_ in cases
    ]


@pytest.mark.parametrize(
    "argv,limit",
    [
        (("enumerate", "odi", "5"), 103),
        # di 8 has 3985 elements; opdi 8's 3521 used to stand in for it
        (("enumerate", "di", "8", "--format", "jsonl"), 3000),
    ],
)
def test_enumerate_refuses_one_element_past_the_ceiling(capsys, monkeypatch, argv, limit):
    monkeypatch.setattr("cycleiso.cli._MAX_ELEMENTS", limit)
    kind, n = argv[1], argv[2]
    assert run(capsys, *argv) == (
        2, "", f"error: enumerate {kind} {n} would build {_count(kind, int(n))} "
        f"elements (limit {limit})\n"
    )


@pytest.mark.parametrize("n", range(3, 13))
def test_di_count_is_the_number_of_partial_isometries(n):
    assert _count("di", n) == len(kind_elements("di", n))


def test_enumerate_refuses_a_huge_size_without_computing_its_count(capsys, monkeypatch):
    def fail(kind, n):
        raise AssertionError(f"card({kind!r}, {n}) was computed")

    monkeypatch.setattr("cycleiso.cli.card", fail)
    n = "9" * 4300  # 2^n alone would not fit in memory
    code, out, err = run(capsys, "enumerate", "odi", n)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: enumerate odi {n} would build more than 2^{n} elements (limit 2000000)\n"
    )


def test_enumerate_refuses_any_max_elements_as_a_usage_error(capsys, monkeypatch):
    # the limit is fixed, so the flag is an unknown option and nothing is built
    def build(*args, **kwargs):
        raise AssertionError("close ran")

    monkeypatch.setattr("cycleiso.cli.close", build)
    for argv in [
        ("enumerate", "odi", "30", "--max-elements", str(10**30)),
        ("enumerate", "di", "30", "--max-elements", str(10**12), "--format", "jsonl"),
        ("enumerate", "odi", "5", "--max-elements", "104"),
        ("enumerate", "odi", "3", "--max-elements", "x"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: unrecognized arguments: --max-elements {argv[4]}\n")


def test_enumerate_max_elements_admits_a_monoid_of_exactly_that_size(tmp_path, capsys,
                                                                     monkeypatch):
    monkeypatch.setattr("cycleiso.cli._MAX_ELEMENTS", 104)
    path = tmp_path / "odi5.txt"
    code, out, _ = run(capsys, "enumerate", "odi", "5", "--out", str(path))
    assert code == 0
    assert out == f"wrote 104 elements to {path}\n"


def test_greens_card_enumerate_and_rank_certify_refuse_runaway_sizes_up_front():
    # without a guard, greens opdi 30 and card odi 40 --enumerate ran out of
    # memory and rank opdi 30 --certify raised SystemError, so the refusals run
    # in a child whose memory is capped.  greens and card --enumerate build all
    # of di, up to 500000 elements; rank --certify closes the kind
    cases = [
        (("greens", "opdi", "30"), "greens opdi 30", _count("di", 30), 500000),
        (("greens", "odi", "16", "--relation", "H"), "greens odi 16", _count("di", 16), 500000),
        (("greens", "di", "16", "--json"), "greens di 16", _count("di", 16), 500000),
        (("card", "odi", "40", "--enumerate"), "card odi 40 --enumerate", _count("di", 40),
         500000),
        (("card", "mdi", "16", "--enumerate", "--json"), "card mdi 16 --enumerate",
         _count("di", 16), 500000),
        (("rank", "opdi", "30", "--certify"), "rank opdi 30 --certify", card("opdi", 30),
         2000000),
        (("rank", "odi", "20", "--certify"), "rank odi 20 --certify", card("odi", 20), 2000000),
        (("rank", "mdi", "19", "--certify", "--json"), "rank mdi 19 --certify",
         card("mdi", 19), 2000000),
        (("rank", "opdi", "17", "--certify"), "rank opdi 17 --certify", card("opdi", 17),
         2000000),
        # past card's print limit the count is not computed
        (("greens", "odi", "20000"), "greens odi 20000", "more than 2^20000", 500000),
        (("rank", "mdi", "20000", "--certify"), "rank mdi 20000 --certify",
         "more than 2^20000", 2000000),
    ]
    lines = capped_child_lines(_REFUSALS_IN_A_CAPPED_CHILD.format(argvs=[c[0] for c in cases]))
    assert lines == [
        f"2 error: {what} would build {count} elements (limit {limit})"
        for _, what, count, limit in cases
    ]


@pytest.mark.parametrize(
    "argv,what",
    [
        (("greens", "opdi", "15"), "greens opdi 15"),
        (("greens", "di", "15", "--relation", "L"), "greens di 15"),
        (("card", "odi", "15", "--enumerate"), "card odi 15 --enumerate"),
        (("card", "mdi", "15", "--enumerate", "--json"), "card mdi 15 --enumerate"),
    ],
)
def test_greens_and_card_enumerate_refuse_di_15_before_building(capsys, monkeypatch, argv, what):
    # di 15 has 982786 elements; greens opdi 15 built them all and died of a
    # MemoryError after 59 s under a 1 GB cap
    def build(*args):
        raise AssertionError("di 15 was built")

    monkeypatch.setattr("cycleiso.cli.kind_monoid", build)
    monkeypatch.setattr("cycleiso.cli.kind_elements", build)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {what} would build 982786 elements (limit 500000)\n"


@pytest.mark.parametrize(
    "argv,builder",
    [
        (("greens", "opdi", "14"), "kind_monoid"),
        (("greens", "di", "14", "--relation", "L"), "kind_monoid"),
        (("card", "odi", "14", "--enumerate"), "kind_elements"),
        (("rank", "odi", "18", "--certify"), "lower_bound_certificate"),
        (("rank", "mdi", "17", "--certify"), "lower_bound_certificate"),
        (("rank", "opdi", "15", "--certify"), "lower_bound_certificate"),
        (("enumerate", "odi", "19"), "close"),
        (("enumerate", "mdi", "18"), "close"),
        (("enumerate", "opdi", "16"), "close"),
        (("enumerate", "di", "15"), "close"),
        (("rank", "odi", "19", "--certify"), "lower_bound_certificate"),
        (("rank", "mdi", "18", "--certify"), "lower_bound_certificate"),
        (("rank", "opdi", "16", "--certify"), "lower_bound_certificate"),
    ],
)
def test_the_largest_sizes_under_the_ceiling_go_on_to_build(monkeypatch, argv, builder):
    class Built(Exception):
        pass

    def build(*args, **kwargs):
        raise Built

    monkeypatch.setattr(f"cycleiso.cli.{builder}", build)
    with pytest.raises(Built):
        main(list(argv))


def test_greens_summary_and_histogram(capsys):
    code, out, _ = run(capsys, "greens", "odi", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind=odi n=4 relation=J classes=8 crosscheck=PASS"
    assert lines[1] == "class_size,num_classes"
    total = sum(
        size * count
        for size, count in (map(int, line.split(",")) for line in lines[2:])
    )
    assert total == 44


def test_greens_di_skips_the_crosscheck(capsys):
    code, out, _ = run(capsys, "greens", "di", "4", "--relation", "H")
    assert code == 0
    assert "crosscheck" not in out.splitlines()[0]


@pytest.mark.parametrize("kind", ["odi", "mdi", "opdi", "di"])
@pytest.mark.parametrize("relation", [(), ("--relation", "L")], ids=["J", "L"])
def test_greens_builds_one_decomposition_per_run(capsys, monkeypatch, kind, relation):
    # the J cross-check compares the decomposition the run already has
    real = cycleiso.engine.green_structural
    calls = []

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr("cycleiso.engine.green_structural", counted)
    monkeypatch.setattr("cycleiso.cli.green_structural", counted)
    code, _, _ = run(capsys, "greens", kind, "6", *relation)
    assert code == 0
    assert len(calls) == 1


def test_greens_json(capsys):
    code, out, _ = run(capsys, "greens", "opdi", "4", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["schema_version"] == 1
    assert payload["classes"] == 6
    assert payload["crosscheck"] is True
    assert sum(s * c for s, c in payload["histogram"]) == 77


@pytest.mark.parametrize("argv", [("greens", "odi", "0"), ("greens", "di", "-1", "--json")])
def test_greens_rejects_sizes_below_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: the cycle graph needs n >= 3, got {argv[2]}\n"


def test_classify_key_value_lines(capsys):
    code, out, _ = run(capsys, "classify", "n=5;2>1,4>3,5>4")
    assert code == 0
    got = dict(line.split("=", 1) for line in out.splitlines())
    assert got["element"] == "n=5;2>1,4>3,5>4"
    assert got["rank"] == "3"
    assert got["in_di"] == "true"
    assert got["in_odi"] == "true"
    assert got["in_opdi"] == "true"
    assert got["order_preserving"] == "true"
    assert got["order_reversing"] == "false"
    assert got["extensions"]


def test_classify_rejects_garbage(capsys):
    code, _, err = run(capsys, "classify", "not an element")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "n=" + "1" * 5000 + ";"),
        ("classify", "n=5;" + "1" * 5000 + ">1"),
        ("extensions", "n=" + "1" * 5000 + ";"),
        ("factorize", "odi", "n=" + "1" * 5000 + ";"),
        ("factorize", "odi", "n=5;1>" + "1" * 5000, "--json"),
    ],
    ids=["classify-n", "classify-point", "extensions", "factorize", "factorize-json"],
)
def test_overlong_numerals_are_invalid_input(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_non_ascii_digits_are_invalid_input(capsys):
    code, out, err = run(capsys, "classify", "n=1\u0660;1>1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("card", "odi", "\u0665"),
        ("card", "odi", "5_0"),
        ("card", "odi", "\uff11\uff10"),
        ("card", "odi", "+5"),
        ("card", "odi", " 6"),
        ("gens", "opdi", "\u0665"),
        ("rank", "mdi", "5_0"),
        ("greens", "odi", "+4"),
        ("enumerate", "odi", "\u0665"),
        ("enumerate", "odi", "5", "--workers", "\u0662"),
        ("verify", "--max-n", "\u0664"),
    ],
    ids=repr,
)
def test_sizes_take_ascii_digits_only(capsys, argv):
    # int() alone reads any Unicode decimal digit, underscores, a plus
    # sign and surrounding space: card odi \u0665 used to print formula=104
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "usage:" in err


def test_extensions_lists_symmetries(capsys):
    code, out, _ = run(capsys, "extensions", "n=5;2>4")
    assert code == 0
    assert out.splitlines() == ["g^2", "h*g^0"]


def test_extensions_json_matches_the_library(capsys):
    from cycleiso import DihedralElement, PartialPerm, extensions

    p = PartialPerm.parse("n=6;1>2,4>5")
    code, out, _ = run(capsys, "extensions", "n=6;1>2,4>5", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["schema_version"] == 1
    assert PartialPerm.parse(payload["element"]) == p
    back = tuple(DihedralElement.parse(6, text) for text in payload["extensions"])
    assert back == extensions(p) and len(back) == 2


def test_extensions_of_a_non_isometry_is_empty(capsys):
    code, out, _ = run(capsys, "extensions", "n=5;1>1,2>2,3>5")
    assert code == 0
    assert out == ""


def test_factorize_round_trip(capsys):
    code, out, _ = run(capsys, "factorize", "odi", "n=4;1>2,3>4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("word=")
    assert lines[1] == "roundtrip=PASS"


def test_factorize_json_matches_the_library(capsys):
    from cycleiso import PartialPerm, word_text

    p = PartialPerm.parse("n=5;2>1,4>3,5>4")
    code, out, _ = run(capsys, "factorize", "opdi", "n=5;2>1,4>3,5>4", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["word"] == word_text(factorize(p, "opdi"))
    assert payload["roundtrip"] is True


def test_factorize_non_member_is_invalid_input(capsys):
    code, _, err = run(capsys, "factorize", "odi", "n=4;1>2,2>1")
    assert code == 2
    assert err.startswith("error:")


def test_gens_csv(capsys):
    code, out, _ = run(capsys, "gens", "opdi", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,element"
    gens = standard_generators("opdi", 5)
    assert lines[1:] == [f"{name},{p}" for name, p in gens]


@pytest.mark.parametrize("kind", ["odi", "mdi", "opdi"])
def test_gens_json_matches_the_library(capsys, kind):
    from cycleiso import PartialPerm

    code, out, _ = run(capsys, "gens", kind, "6", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["schema_version"] == 1
    assert (payload["kind"], payload["n"]) == (kind, 6)
    back = [(g["name"], PartialPerm.parse(g["element"])) for g in payload["generators"]]
    assert back == list(standard_generators(kind, 6))


def _standard_names(kind, n):
    # the layout of standard_generators written out, to count a set too large to build
    m = (n - 1) // 2
    straddles = [f"x{i}" for i in range(1, m + 1)] + [f"y{i}" for i in range(1, m + 1)]
    if kind == "odi":
        return ["x", "y", *(f"e{i}" for i in range(2, n)), *straddles]
    if kind == "mdi":
        return ["h", "x", *(f"e{i}" for i in range(2, (n + 1) // 2 + 1)), *straddles]
    return ["g", f"e{n}", *straddles[:m]] if kind == "opdi" else ["g", "h", f"e{n}"]


@lru_cache
def _rank_sum(kind, n):
    # one letter at a time, so no set is held
    return sum(generator(n, name).rank for name in _standard_names(kind, n))


_CHECKED_SIZES = [*range(3, 41), 254, 255, 300]


@pytest.mark.parametrize("kind", ["odi", "mdi", "opdi", "di"])
def test_the_written_out_layout_is_the_standard_one(kind):
    for n in _CHECKED_SIZES:
        assert tuple(_standard_names(kind, n)) == standard_generators(kind, n).names


@pytest.mark.parametrize("kind", ["odi", "mdi", "opdi", "di"])
def test_gens_counts_the_pairs_of_the_set_from_n(capsys, monkeypatch, kind):
    # with no pairs allowed every size is refused, and the refusal shows the count
    monkeypatch.setattr("cycleiso.cli._MAX_PAIRS", 0)
    for n in _CHECKED_SIZES:
        count = sum(p.rank for p in standard_generators(kind, n).elements)
        assert run(capsys, "gens", kind, str(n)) == (
            2, "", f"error: gens {kind} {n} would build {count} pairs (limit 0)\n"
        )


def test_gens_and_factorize_refuse_runaway_generating_sets_up_front():
    # gens odi 4000 and the round trip of factorize odi 'n=4000;1>1' built
    # every letter of the set and died of a MemoryError under a 400 MB cap;
    # gens opdi 1333334 was admitted and peaked near 900 MB
    cases = [
        (("gens", "odi", "4000"), "gens odi 4000", _rank_sum("odi", 4000)),
        (("gens", "mdi", "4000", "--json"), "gens mdi 4000", _rank_sum("mdi", 4000)),
        (("factorize", "odi", "n=4000;1>1"), "factorize odi n=4000;1>1",
         _rank_sum("odi", 4000)),
        (("gens", "opdi", "500001"), "gens opdi 500001", 1500001),
        (("gens", "di", "1333333", "--json"), "gens di 1333333", 3999998),
    ]
    lines = capped_child_lines(_REFUSALS_IN_A_CAPPED_CHILD.format(argvs=[c[0] for c in cases]))
    assert lines == [
        f"2 error: {what} would build {count} pairs (limit 1500000)" for _, what, count in cases
    ]


# the largest n whose standard set holds at most the ceiling of 1500000 pairs, and at most
# the earlier ceiling of 4000000, so each kind's count is pinned at two boundaries
_LARGEST_SETS = [
    (1_500_000, "odi", 1224), (1_500_000, "mdi", 1729),
    (1_500_000, "opdi", 500000), (1_500_000, "di", 500000),
    (4_000_000, "odi", 1999), (4_000_000, "mdi", 2825),
    (4_000_000, "opdi", 1333334), (4_000_000, "di", 1333333),
]


@pytest.mark.parametrize(
    "limit,kind,n", [pytest.param(*case, id=f"{case[1]}-{case[2]}") for case in _LARGEST_SETS]
)
def test_the_largest_generating_sets_under_the_ceiling_go_on_to_build(capsys, monkeypatch,
                                                                      limit, kind, n):
    class Built(Exception):
        pass

    def build(*args):
        raise Built

    monkeypatch.setattr("cycleiso.cli.standard_generators", build)
    monkeypatch.setattr("cycleiso.cli.factorize", build)
    monkeypatch.setattr("cycleiso.cli._MAX_PAIRS", limit)
    with pytest.raises(Built):
        main(["gens", kind, str(n)])
    if kind != "di":
        with pytest.raises(Built):
            main(["factorize", kind, f"n={n};1>1"])
    code, out, err = run(capsys, "gens", kind, str(n + 1))
    assert (code, out) == (2, "")
    assert err.endswith(f" pairs (limit {limit})\n")


def test_extensions_and_classify_refuse_an_empty_map_on_a_runaway_cycle_up_front():
    # only the empty map extends to more than two symmetries, to all 2n of them: at
    # n = 2000000 both commands built them and died of a MemoryError under a 400 MB cap,
    # and at n = 10^4000 they never ended
    huge = "n=1" + "0" * 4000 + ";"
    cases = [
        (("extensions", "n=1000001;"), 2000002),
        (("classify", "n=1000001;", "--json"), 2000002),
        (("extensions", "n=2000000;", "--json"), 4000000),
        (("classify", huge), 2 * 10**4000),
    ]
    lines = capped_child_lines(_REFUSALS_IN_A_CAPPED_CHILD.format(argvs=[c[0] for c in cases]))
    assert lines == [
        f"2 error: {command} {element} would build {count} symmetries (limit 2000000)"
        for (command, element, *_), count in cases
    ]


@pytest.mark.parametrize("command", ["extensions", "classify"])
def test_an_empty_map_on_the_largest_admitted_cycle_goes_on_to_build(capsys, monkeypatch,
                                                                    command):
    class Built(Exception):
        pass

    def build(*args):
        raise Built

    monkeypatch.setattr(f"cycleiso.cli.{command}", build)
    with pytest.raises(Built):
        main([command, "n=1000000;"])
    # a map with a pair has at most two extensions, whatever its cycle
    with pytest.raises(Built):
        main([command, "n=1000001;1>1"])
    monkeypatch.setattr("cycleiso.cli._MAX_ELEMENTS", 10)
    with pytest.raises(Built):
        main([command, "n=5;"])
    assert run(capsys, command, "n=6;") == (
        2, "", f"error: {command} n=6; would build 12 symmetries (limit 10)\n"
    )


def test_factorize_refuses_a_runaway_round_trip_before_it_evaluates():
    # the round trip composes the standard set letter by letter, n points a letter: opdi
    # 'n=8000;1>1' took 21 s through the command line and 'n=20000;1>1' about two minutes
    cases = [
        (("factorize", "opdi", "n=4001;1>1"), 8001, 4001),
        (("factorize", "opdi", "n=4001;"), 8002, 4001),
        (("factorize", "opdi", "n=20000;1>1", "--json"), 39999, 20000),
        (("factorize", "opdi", "n=20000;1>2,2>1"), 20002, 20000),
    ]
    lines = capped_child_lines(_REFUSALS_IN_A_CAPPED_CHILD.format(argvs=[c[0] for c in cases]))
    assert lines == [
        f"2 error: factorize opdi {element} would evaluate {letters} letters on n={n}, "
        f"{letters * n} steps (limit 32000000)"
        for (_, _, element, *_), letters, n in cases
    ]


@pytest.mark.parametrize("kind,element,letters", [
    ("opdi", "n=4000;", 8000), ("opdi", "n=4000;1>1", 7999), ("mdi", "n=1729;1>2,2>1", 5184),
])
def test_the_largest_round_trips_under_the_ceiling_go_on_to_evaluate(capsys, monkeypatch, kind,
                                                                     element, letters):
    # the empty map of opdi 4000, 8000 letters on 4000 points, is exactly the ceiling
    class Built(Exception):
        pass

    def build(*args):
        raise Built

    assert len(factorize(PartialPerm.parse(element), kind)) == letters
    monkeypatch.setattr("cycleiso.cli.standard_generators", build)
    with pytest.raises(Built):
        main(["factorize", kind, element])
    n = int(element[2:element.index(";")])
    monkeypatch.setattr("cycleiso.cli._MAX_STEPS", letters * n - 1)
    code, out, err = run(capsys, "factorize", kind, element)
    assert (code, out) == (2, "")
    assert err.endswith(f" letters on n={n}, {letters * n} steps (limit {letters * n - 1})\n")


def test_rank_plain(capsys):
    code, out, _ = run(capsys, "rank", "opdi", "5")
    assert code == 0
    assert out == "rank=4\n"


def test_rank_certified(capsys):
    code, out, _ = run(capsys, "rank", "opdi", "5", "--certify")
    assert code == 0
    assert out == "rank=4 CERTIFIED\n"


def test_rank_certify_n3_uses_the_exhaustive_search(capsys):
    code, out, _ = run(capsys, "rank", "mdi", "3", "--certify", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["rank"] == 3
    assert payload["certified"] is True
    assert payload["requirements"][0]["description"] == "exhaustive minimal-set search"


def test_rank_json_carries_requirements(capsys):
    code, out, _ = run(capsys, "rank", "odi", "5", "--certify", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["certified"] is True
    assert len(payload["requirements"]) == 9
    assert all(r["satisfied"] for r in payload["requirements"])


def test_verify_quick_run(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 13
    assert all(" PASS " in line for line in lines[:-1])
    assert lines[-1] == "all 12 criteria passed"


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "4", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["passed"] is True
    assert len(payload["criteria"]) == 12
    assert [c["number"] for c in payload["criteria"]] == list(range(1, 13))


def test_verify_exits_1_when_a_criterion_fails(capsys, monkeypatch):
    monkeypatch.setattr(verify, "extensions", lambda p: ())
    code, out, _ = run(capsys, "verify", "--max-n", "4")
    lines = out.splitlines()
    assert code == 1
    assert [line[:17] for line in lines if " FAIL " in line] == ["criterion  3 FAIL"]
    assert lines[-1] == "1 of 12 criteria FAILED"


def test_verify_rejects_tiny_cap(capsys):
    for cap in ("2", "3"):
        code, _, err = run(capsys, "verify", "--max-n", cap)
        assert code == 2
        assert err.startswith("error:")


# the child makes a pipe and closes its read end before the command runs, so
# every write to the pipe finds no reader, as under `cycleiso ... | true`
_CLOSED_PIPE = """
import os, sys
import cycleiso.cli
read, write = os.pipe()
os.close(read)
{patch}
sys.exit(cycleiso.cli.main({argv!r}))
"""
_TO_STDOUT = "os.dup2(write, 1)"
_NO_ELEMENTS = _TO_STDOUT + "; cycleiso.cli.kind_elements = lambda kind, n: []"
_NO_EXTENSIONS = _TO_STDOUT + "; sys.modules['cycleiso.verify'].extensions = lambda p: ()"
_CLOSED_STDOUT_CASES = [
    (["card", "odi", "5"], _TO_STDOUT, 0),
    (["card", "odi", "5", "--json"], _TO_STDOUT, 0),
    (["card", "odi", "5", "--enumerate"], _NO_ELEMENTS, 1),
    (["enumerate", "odi", "5"], _TO_STDOUT, 0),
    (["enumerate", "mdi", "6", "--format", "jsonl", "--gzip"], _TO_STDOUT, 0),
    (["greens", "odi", "5", "--relation", "L"], _TO_STDOUT, 0),
    (["classify", "n=5;1>2,2>3"], _TO_STDOUT, 0),
    (["extensions", "n=5;1>2,2>3", "--json"], _TO_STDOUT, 0),
    (["factorize", "odi", "n=5;1>2,2>3"], _TO_STDOUT, 0),
    (["gens", "odi", "200"], _TO_STDOUT, 0),
    (["rank", "odi", "5", "--certify", "--json"], _TO_STDOUT, 0),
    (["verify", "--max-n", "4"], _TO_STDOUT, 0),
    (["verify", "--max-n", "4", "--json"], _NO_EXTENSIONS, 1),
    (["gens", "--help"], _TO_STDOUT, 0),
]


def _closed_pipe_child(argv, patch, unbuffered):
    # the environment is pinned: whether stdout is buffered decides whether a
    # write fails at once or at the flush before exit, so each mode runs
    src = os.path.dirname(os.path.dirname(cycleiso.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=src, **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    child = subprocess.run(
        [sys.executable, "-c", _CLOSED_PIPE.format(argv=argv, patch=patch)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    return child.returncode, child.stderr


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv,patch,code", _CLOSED_STDOUT_CASES, ids=[" ".join(c[0]) for c in _CLOSED_STDOUT_CASES]
)
def test_a_closed_stdout_keeps_the_command_code_and_says_nothing(argv, patch, code, unbuffered):
    # a reader that stops early is not invalid input: the command's own code
    # stands, and no error or "Exception ignored" line reaches stderr
    assert _closed_pipe_child(argv, patch, unbuffered) == (code, "")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_closed_pipe_on_out_is_an_error(unbuffered):
    # only stdout's reader may leave quietly: an --out whose reader left has
    # cut the export short, so the command fails as an unwritable path does
    patch = "cycleiso.cli.open = lambda path, mode: os.fdopen(write, mode)"
    argv = ["enumerate", "odi", "5", "--out", "pipe"]
    assert _closed_pipe_child(argv, patch, unbuffered) == (2, "error: [Errno 32] Broken pipe\n")


_NO_READER = [
    pytest.param("os.dup2(os.open('/dev/full', os.O_WRONLY), 1)",
                 "[Errno 28] No space left on device", id="full",
                 marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                          reason="needs /dev/full")),
    # started with descriptor 1 closed, Python sets sys.stdout to None
    pytest.param("sys.stdout = None", "stdout is closed", id="none"),
]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("patch,error", _NO_READER)
@pytest.mark.parametrize("argv", [["gens", "--help"], ["card", "odi", "5"]], ids=" ".join)
def test_a_stdout_that_takes_nothing_is_an_error(argv, patch, error, unbuffered):
    # output that no reader could take is lost, not cut short by a reader:
    # exit 2 with the error, for --help as for a command's own lines
    assert _closed_pipe_child(argv, patch, unbuffered) == (2, f"error: {error}\n")


_LONG = "1" * 5000
# each subcommand with its positionals: a kind, an n, an element
_COMMANDS = {
    "card": "kn", "enumerate": "kn", "greens": "kn", "classify": "e", "extensions": "e",
    "factorize": "ke", "gens": "kn", "rank": "kn", "verify": "", "frobnicate": "kn",
}
_KINDS = ["odi", "mdi", "opdi", "di", "xdi"]
_NS = ["-1", "0", "2", "3", "4", "5", "6", "x", _LONG]
_ELEMENTS = [
    "n=5;1>2,2>3", "n=5;2>4", "n=4;1>4,2>1", "n=6;1>6,3>4", "n=5;1>1,3>2", "n=5;",
    "n=5;2>1,1>2", "n=5;1>1,1>2", "n=5;1>1,2>1", "n=5;6>1", "n=0;",
    "n=5;1>" + _LONG, "n=" + _LONG + ";", "g^2", "",
]
_FLAGS = [
    ["--json"], ["--enumerate"], ["--certify"], ["--gzip"], ["--help"],
    ["--format", "txt"], ["--format", "jsonl"], ["--format", "xml"],
    ["--workers", "0"], ["--workers", "2"], ["--workers", "x"],
    ["--relation", "J"], ["--relation", "L"], ["--relation", "X"],
    ["--out", "{out}/file"], ["--out", "{out}/missing/file"], ["--max-n", "2"],
]


@st.composite
def _argvs(draw):
    """A subcommand, its positionals or another set of them, then flags,
    each drawn from valid and invalid spellings."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    shape = draw(st.just(_COMMANDS[command]) | st.sampled_from(["", "k", "kn", "e", "ke", "kne"]))
    argv = [command]
    for slot, vocabulary in (("k", _KINDS), ("n", _NS), ("e", _ELEMENTS)):
        if slot in shape:
            argv.append(draw(st.sampled_from(vocabulary)))
    for flag in draw(st.lists(st.sampled_from(_FLAGS), max_size=2)):
        argv += flag
    if command == "verify":
        # the last --max-n wins, so every verify run stays small
        argv += ["--max-n", draw(st.sampled_from(["3", "4"]))]
    return argv


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_argvs())
def test_any_argv_exits_0_1_or_2(tmp_path, capsysbinary, argv):
    argv = [arg.format(out=tmp_path) for arg in argv]
    assert main(argv) in (0, 1, 2)
    capsysbinary.readouterr()


_HUGE = "1" + "0" * 4300  # 10^4300, the first size past the ceiling
_SIZES = ["-1", "0", "2", "3", "30", "254", "255", "4000", "20000", _HUGE, "٥", "５", "१२"]
# values for the --max-elements option that enumerate no longer has, so that the seeded
# argvs stay as they were and the option is now fuzzed as an unknown one
_LIMITS = ["-1", "4000", "2000000", "2000001", *(str(10**k) for k in (12, 18, 24, 30))]
# 1000001 and a size of 4299 digits put the empty map's 2n symmetries past the element
# ceiling, and 20000 an opdi round trip past its step ceiling
_ELEMENT_SIZES = ["-1", "0", "2", "3", "254", "255", "4000", "20000", "1000001",
                  "1" + "0" * 4298, _HUGE, "٥"]
_SIZED_ELEMENTS = [
    text.format(n) for n in _ELEMENT_SIZES for text in ("n={};1>1", "n={};1>2,2>1", "n={};")
]
# each subcommand's own flags, a size standing for N and a limit for M
_OWN_FLAGS = {
    "card": [["--json"], ["--enumerate"]],
    "enumerate": [["--out", "{out}/file"], ["--out", "{out}/missing/file"], ["--gzip"],
                  ["--format", "jsonl"], ["--workers", "N"], ["--max-elements", "M"],
                  ["--max-elements", "M"]],
    "greens": [["--json"], ["--relation", "L"], ["--relation", "H"]],
    "classify": [["--json"]], "extensions": [["--json"]], "factorize": [["--json"]],
    "gens": [["--json"]], "rank": [["--json"], ["--certify"]], "verify": [["--json"]],
    "frobnicate": [],
}


# the argvs are drawn in the child, since 10^4300 is too long for its command line
_ARGVS_IN_A_CAPPED_CHILD = """
import contextlib, os, random
from cycleiso.cli import main
from test_cli import _grammar_argvs
argvs = _grammar_argvs(random.Random(5), 320)
print(len(argvs))
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \\
        contextlib.redirect_stderr(sink):
    codes = []
    for argv in argvs:
        argv = [arg.format(out={out!r}) for arg in argv]
        try:
            codes.append(str(main(argv)))
        except BaseException as exc:  # a traceback, named with the argv that raised it
            codes.append(f"{{argv!r}} raised {{type(exc).__name__}}")
print("\\n".join(codes))
"""


def _grammar_argvs(rng, count):
    # each subcommand with its positionals or another set of them, then up
    # to two flags, mostly its own; every size slot is drawn from _SIZES
    argvs = []
    for _ in range(count):
        command = rng.choice(sorted(_COMMANDS))
        shape = _COMMANDS[command] if rng.random() < 0.8 else rng.choice(["", "k", "kn", "ke"])
        argv = [command]
        for slot, vocabulary in (("k", _KINDS), ("n", _SIZES), ("e", _ELEMENTS + _SIZED_ELEMENTS)):
            if slot in shape:
                argv.append(rng.choice(vocabulary))
        for _ in range(rng.randrange(3)):
            flags = _OWN_FLAGS[command] if rng.random() < 0.8 else _FLAGS
            if flags:
                draws = {"N": _SIZES, "M": _LIMITS}
                argv += [rng.choice(draws[a]) if a in draws else a for a in rng.choice(flags)]
        if command == "verify":
            argv += ["--max-n", rng.choice(["3", "4"])]
        argvs.append(argv)
    return argvs


def test_drawn_argvs_exit_0_1_or_2_in_a_capped_child(tmp_path):
    # sizes up to 10^4300 against every subcommand: a runaway build shows
    # as a MemoryError under the child's cap, not as this process running out
    import time

    start = time.perf_counter()
    count, *codes = capped_child_lines(_ARGVS_IN_A_CAPPED_CHILD.format(out=str(tmp_path)))
    assert time.perf_counter() - start < 30
    assert len(codes) == int(count) >= 300
    assert [c for c in codes if c not in ("0", "1", "2")] == []
