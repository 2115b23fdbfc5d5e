"""The README's library tour, run as doctests: a name dropped from
``simplepa.__all__`` or a changed value fails here, not only in the README."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
