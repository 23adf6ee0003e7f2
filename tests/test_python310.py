"""pyproject.toml allows Python 3.10, so no source may use newer syntax.

`ast.parse` with feature_version=(3, 10) rejects grammar added after 3.10
(such as `except*` groups), whatever interpreter runs the suite."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).parents[1]


def test_every_source_parses_as_python_310():
    paths = sorted(path for top in ("src", "tests", "bench")
                   for path in (ROOT / top).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path),
                  feature_version=(3, 10))
