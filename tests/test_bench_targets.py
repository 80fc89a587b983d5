"""Module attributes the benchmark's tracer replaces by name.

``bench/jobs.py`` wraps each ``(module, attribute)`` below with
``getattr``/``setattr`` (its ``_CLI_TARGETS`` and ``_QUERY_TARGETS``
tables), so dropping one of these imports from the library would fail
only the traced benchmark run.  This test makes it fail here instead.
"""

import importlib

import pytest

TARGETS = [
    # _CLI_TARGETS
    ("cycleiso.cli", "standard_generators"),
    ("cycleiso.cli", "close"),
    ("cycleiso.cli", "export_bytes"),
    ("cycleiso.cli", "kind_monoid"),
    ("cycleiso.cli", "green_structural"),
    ("cycleiso.cli", "cross_check_green"),
    ("cycleiso.engine", "green_structural"),
    ("cycleiso.engine", "j_partition"),
    # _QUERY_TARGETS
    ("cycleiso.dihedral", "extensions"),
    ("cycleiso.factorize", "classify"),
    ("cycleiso.factorize", "extensions"),
]


@pytest.mark.parametrize("module,attr", TARGETS, ids=lambda v: str(v))
def test_traced_attribute_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
