"""Acceptance gate: every criterion runs uncapped and must pass.

Run with -s to see the one-line PASS/FAIL report per criterion.
``UNCAPPED_DETAILS`` pins what each uncapped criterion reports it
checked, so a change that quietly checks less shows up as a new detail.
"""

import itertools

import pytest

from cycleiso import DomainError, verify
from cycleiso.verify import CRITERIA, run_acceptance, run_criterion

UNCAPPED_DETAILS = {
    1: "formulas match enumeration for n in 3..10",
    2: "set equality for n in [4, 5, 6, 7, 8]",
    3: "2816 isometries have the predicted extension count",
    4: "antipodal rank-2 scan matches n^2/2 on even n, 0 on odd",
    5: "6208 exhaustive + 100002 random maps agree",
    6: "all three laws hold on 4548 set pairs",
    7: "D = J partitions agree; class counts [8, 7, 6, 15, 12, 8, 31, 22, 14, 62, 41, 20]",
    8: "every single deletion strictly shrinks the closure",
    9: "ranks certified for n in [3, 4, 5, 6, 7, 8, 9]",
    10: "round-trip exact; longest word 27 letters at n=6 (4.50 per vertex, bound 8)",
    11: "monotone = 2(order-preserving) - n^2 - 1, formulas and counts",
    12: "two runs give byte-identical exports",
}


@pytest.mark.parametrize(
    "number,name", [(num, name) for num, name, _ in CRITERIA],
    ids=[f"criterion_{num:02d}" for num, _, _ in CRITERIA],
)
def test_acceptance_criterion(number, name):
    result = run_criterion(number)
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {number:>2} {status} {name} ({result.seconds:.2f}s): {result.detail}")
    assert result.passed, f"criterion {number} ({name}): {result.detail}"
    assert result.detail == UNCAPPED_DETAILS[number]


# eight criteria start at n = 4, so a cap of 3 would leave them empty
@pytest.mark.parametrize(
    "top", [2, 3, "4", 4.0, True], ids=["2", "3", "str", "float", "bool"]
)
def test_run_acceptance_refuses_a_cap_that_is_not_an_int_of_at_least_4(top):
    with pytest.raises(DomainError, match="the acceptance suite needs max-n >= 4"):
        run_acceptance(top)


def test_a_criterion_that_raises_fails_with_the_exception_as_detail(monkeypatch):
    def crash(top):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(verify, "CRITERIA", ((1, "crash", crash),) + CRITERIA[1:])
    result = run_criterion(1)
    assert not result.passed
    assert result.detail == "raised ZeroDivisionError('division by zero')"


def test_a_capped_determinism_check_runs_at_the_cap(monkeypatch):
    sizes, real_close = [], verify.close

    def close(n, gens):
        sizes.append(n)
        return real_close(n, gens)

    monkeypatch.setattr(verify, "close", close)
    result = run_criterion(12, 4)
    assert result.passed and sizes == [4, 4]
    assert result.detail == run_criterion(12).detail


def _second_run_differs(real_close):
    runs = iter([real_close, lambda n, gens: real_close(n, gens[:-1])])
    return lambda n, gens: next(runs)(n, gens)


def _new_bytes_each_call(real_export):
    calls = itertools.count()
    return lambda m, fmt, compress: real_export(m, fmt, compress) + bytes([next(calls)])


def _off_by_one(real):
    return lambda *args: real(*args) + 1


# each case breaks one criterion by giving names in verify's namespace a
# wrong answer built from the real one: (criterion, fakes, cap, detail).
# The criterion must fail at the cap with a detail that names the case.
_BROKEN = [
    (1, {"card_rank_le1": _off_by_one}, 4, "rank<=1 count at n=3: 10 != 11"),
    (1, {"card": _off_by_one}, 4, "odi n=3: enumerated 20, formula 21"),
    # formula and enumeration wrong the same way: only the worked values catch it
    (1, {"card": _off_by_one, "kind_elements": lambda real: lambda k, n: (*real(k, n), None)},
     4, "worked values at n=4 are off"),
    (2, {"kind_elements": lambda real: lambda k, n: ()},
     4, "odi n=4: closure differs from enumeration"),
    (3, {"extensions": lambda real: lambda p: ()}, 4, "n=4;: 0 extensions, expected 8"),
    (4, {"is_in_b2": lambda real: lambda p: False}, 4, "n=4: scan found 0, formula 8"),
    (5, {"is_partial_isometry_fast": lambda real: lambda p: True},
     4, "fast and full disagree on n=4;1>1,2>3"),
    # right on the exhaustive sizes, wrong on the random sweep
    (5, {"is_partial_isometry_fast": lambda real: lambda p: real(p) if p.n < 7 else not real(p)},
     7, "fast and full disagree on n=7;1>5,2>6,3>7,4>2,6>3,7>4"),
    (6, {"delta": lambda real: lambda n, a, b: real(n, a, a)},
     4, "order-preserving law fails on (1, 2), (1, 3) (n=4)"),
    (6, {"order_reversing_bijection": lambda real: lambda n, a, b: real(n, a, a)},
     4, "order-reversing law fails on (1, 2), (1, 3) (n=4)"),
    (6, {"orientation_preserving_bijections": lambda real: lambda n, a, b: ()},
     4, "orientation law fails on (1, 2), (1, 2) (n=4)"),
    (7, {"kind_monoid": lambda real: lambda k, n: real("di", n)},
     4, "odi n=4: D and J disagree on n=4;1>1,2>2,3>3 vs n=4;1>1,2>2,4>4"),
    (8, {"card": lambda real: lambda k, n: 0}, 4, "odi n=4: dropping generator 0 keeps size 28"),
    (9, {"rank_formula": _off_by_one}, 4, "odi n=3: search found rank 3, formula 4"),
    (9, {"rank_formula": lambda real: lambda k, n: real(k, n) + (n > 3)},
     4, "odi n=4: not certified at rank 7"),
    (10, {"factorize": lambda real: lambda p, k: ()}, 4, "odi word for n=4; evaluates wrong"),
    (10, {"WORD_LENGTH_FACTOR": lambda real: 0}, 4, "odi word for n=4; has 6 letters"),
    (11, {"card": lambda real: lambda k, n: 0}, 4, "formula identity fails at n=3"),
    (11, {"kind_elements": lambda real: lambda k, n: ()}, 4, "enumerated identity fails at n=3"),
    (12, {"close": _second_run_differs}, 4, "two runs disagree on elements or words"),
    (12, {"export_bytes": _new_bytes_each_call},
     4, "export (txt, gzip=False) differs across two runs"),
]


@pytest.mark.parametrize(
    "number,fakes,top,detail", _BROKEN,
    ids=[f"criterion_{num:02d}-{'+'.join(fakes)}" for num, fakes, _, _ in _BROKEN],
)
def test_a_broken_criterion_fails_and_names_the_case(monkeypatch, number, fakes, top, detail):
    for name, fake in fakes.items():
        monkeypatch.setattr(verify, name, fake(getattr(verify, name)))
    result = run_criterion(number, top)
    assert not result.passed
    assert result.detail == detail
