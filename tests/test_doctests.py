import doctest
import re
from pathlib import Path

import pytest

from cycleiso import dihedral, engine, formulas, generators, geometry, partial_perm

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize(
    "module", [partial_perm, geometry, dihedral, formulas, generators, engine]
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_library_example():
    # the fenced block alone: doctest.testfile would read the closing
    # fence as expected output
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    test = doctest.DocTestParser().get_doctest(block, {}, "README", str(README), 0)
    result = doctest.DocTestRunner().run(test)
    assert result.attempted > 0
    assert result.failed == 0
