"""Minimality certificates: standard sets certify, broken sets do not."""

import random

import pytest

from cycleiso import (
    DomainError,
    KINDS,
    NotGeneratingError,
    NotInverseClosedError,
    brute_force_rank,
    card,
    close,
    gap_requirements,
    generator,
    identity_off,
    lower_bound_certificate,
    rank_formula,
    standard_generators,
)
from cycleiso.brute_force import kind_elements


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_standard_sets_are_certified_minimal(kind, n):
    gens = standard_generators(kind, n)
    report = lower_bound_certificate(kind, n, gens.elements)
    assert report.generates
    assert report.certified
    assert report.lower_bound == report.generator_count == report.expected_rank
    assert report.expected_rank == rank_formula(kind, n)
    assert report.notes == ()
    assert all(r.satisfied for r in report.requirements)


def test_every_requirement_names_a_witness_when_satisfied():
    report = lower_bound_certificate("mdi", 5, standard_generators("mdi", 5).elements)
    for req in report.requirements:
        assert req.satisfied
        assert req.witness is not None
        assert req.description


def test_odi_5_needs_nine_generators():
    gens = standard_generators("odi", 5)
    report = lower_bound_certificate("odi", 5, gens.elements)
    assert len(gens) == 9
    assert report.lower_bound == 9
    assert report.certified


def test_mdi_4_certifies_at_five():
    report = lower_bound_certificate("mdi", 4, standard_generators("mdi", 4).elements)
    assert report.expected_rank == 5
    assert report.certified


def test_dropping_a_generator_breaks_generation():
    gens = standard_generators("opdi", 5)
    kept = [p for name, p in gens if name != "x1"]
    with pytest.raises(NotGeneratingError, match="closure reaches"):
        lower_bound_certificate("opdi", 5, kept)


def test_non_member_generator_is_rejected():
    gens = list(standard_generators("odi", 5).elements)
    gens.append(generator(5, "h"))
    with pytest.raises(NotGeneratingError, match="not a member"):
        lower_bound_certificate("odi", 5, gens)


def test_wrong_ambient_generator_is_rejected():
    gens = list(standard_generators("odi", 5).elements)
    gens.append(generator(6, "x"))
    with pytest.raises(DomainError):
        lower_bound_certificate("odi", 5, gens)


def test_oversized_set_generates_without_certifying():
    gens = list(standard_generators("odi", 4).elements)
    gens.append(identity_off(4, 1))
    report = lower_bound_certificate("odi", 4, gens)
    assert report.generates
    assert not report.certified
    assert report.generator_count == report.expected_rank + 1
    assert any("without being minimal" in note for note in report.notes)


@pytest.mark.parametrize(
    "kind,expected", [("odi", 3), ("mdi", 3), ("opdi", 2)]
)
def test_exhaustive_rank_at_n_3(kind, expected):
    assert brute_force_rank(kind, 3) == expected


@pytest.mark.parametrize("kind", KINDS)
def test_n_3_certificates_report_the_exhaustive_bound(kind):
    # the standard sets generate at n = 3 but are larger than the rank
    # there, so the certificate correctly refuses to certify them
    gens = standard_generators(kind, 3)
    report = lower_bound_certificate(kind, 3, gens.elements)
    assert report.generates
    assert report.lower_bound == rank_formula(kind, 3)
    assert not report.certified
    assert len(report.requirements) == 1
    assert "exhaustive search" in report.requirements[0].description


def test_exhaustive_rank_refuses_larger_cycles():
    with pytest.raises(DomainError):
        brute_force_rank("odi", 4)


def test_exhaustive_rank_refuses_a_size_that_is_not_an_int():
    with pytest.raises(DomainError, match="the cycle graph needs n >= 3, got 3.0"):
        brute_force_rank("odi", 3.0)


def test_gap_requirement_descriptions_and_witnesses():
    gens = standard_generators("odi", 7)
    reqs = gap_requirements("odi", 7, gens.elements)
    assert [r.description for r in reqs] == [
        "rank-2 generator with domain gap 1",
        "rank-2 generator with domain gap 2",
        "rank-2 generator with domain gap 3",
        "rank-2 generator with domain gap 6",
        "rank-2 generator with domain gap 5",
        "rank-2 generator with domain gap 4",
    ]
    assert all(r.satisfied for r in reqs)
    assert reqs[0].witness == str(gens.element("x1"))
    assert reqs[3].witness == str(gens.element("y1"))


def test_opdi_gap_requirements_pair_opposite_gaps():
    gens = standard_generators("opdi", 6)
    reqs = gap_requirements("opdi", 6, gens.elements)
    assert [r.description for r in reqs] == [
        "rank-2 generator with domain gap 1 or 5",
        "rank-2 generator with domain gap 2 or 4",
    ]
    assert all(r.satisfied for r in reqs)


def test_gap_requirements_report_missing_coverage():
    gens = [p for p in standard_generators("odi", 5).elements if p.rank != 2]
    reqs = gap_requirements("odi", 5, gens)
    assert reqs
    assert not any(r.satisfied for r in reqs)
    assert all(r.witness is None for r in reqs)


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("kind", KINDS)
def test_random_generating_sets_satisfy_every_gap_requirement(kind, n):
    # the requirements are necessary conditions, so any subset that
    # happens to generate the whole monoid must meet all of them
    density = {"odi": 0.9, "mdi": 0.6, "opdi": 0.55}[kind]
    rng = random.Random(20260816 * n + len(kind))
    elements = kind_elements(kind, n)
    target = card(kind, n)
    generating = 0
    for _ in range(8):
        subset = [p for p in elements if rng.random() < density]
        try:
            monoid = close(n, subset)
        except NotInverseClosedError:
            continue
        if monoid.size != target:
            continue
        generating += 1
        for req in gap_requirements(kind, n, subset):
            assert req.satisfied, (kind, n, req)
    assert generating >= 1
