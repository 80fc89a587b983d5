import doctest

import pytest

from cycleiso import dihedral, engine, formulas, generators, geometry, partial_perm


@pytest.mark.parametrize(
    "module", [partial_perm, geometry, dihedral, formulas, generators, engine]
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
