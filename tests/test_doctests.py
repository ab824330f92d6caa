import doctest
from pathlib import Path

import pytest

import kschur.affine
import kschur.alcoves
import kschur.cores
import kschur.nilcoxeter

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize(
    "module",
    [kschur.affine, kschur.cores, kschur.alcoves, kschur.nilcoxeter],
)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0


def test_readme_library_example():
    # the paper's main theorem at k = 4, as the README shows it
    result = doctest.testfile(str(README), module_relative=False)
    assert result.failed == 0
    assert result.attempted > 0
