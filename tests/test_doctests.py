"""The docstring examples of every reflharm module run and hold."""

import doctest
import importlib
import pathlib

import reflharm

PACKAGE = pathlib.Path(reflharm.__file__).parent


def test_docstring_examples_of_every_module():
    attempted = 0
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__main__":
            continue
        name = "reflharm" if path.stem == "__init__" else "reflharm." + path.stem
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted += result.attempted
    assert attempted > 0
