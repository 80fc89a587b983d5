"""Acceptance gate: every criterion runs uncapped and must pass.

Run with -s to see the one-line PASS/FAIL report per criterion.
"""

import pytest

from cycleiso import DomainError, verify
from cycleiso.verify import CRITERIA, run_acceptance, run_criterion


@pytest.mark.parametrize(
    "number,name", [(num, name) for num, name, _ in CRITERIA],
    ids=[f"criterion_{num:02d}" for num, _, _ in CRITERIA],
)
def test_acceptance_criterion(number, name):
    result = run_criterion(number)
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {number:>2} {status} {name} ({result.seconds:.2f}s): {result.detail}")
    assert result.passed, f"criterion {number} ({name}): {result.detail}"


@pytest.mark.parametrize("top", [2, "3", 3.0, True], ids=["2", "str", "float", "bool"])
def test_run_acceptance_refuses_a_cap_that_is_not_an_int_of_at_least_3(top):
    with pytest.raises(DomainError, match="the acceptance suite needs max-n >= 3"):
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

    def close(n, gens, **kwargs):
        sizes.append(n)
        return real_close(n, gens, **kwargs)

    monkeypatch.setattr(verify, "close", close)
    result = run_criterion(12, 4)
    assert result.passed and sizes == [4, 4]
    assert result.detail == run_criterion(12).detail
