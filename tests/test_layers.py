"""The import layering of the package: each module imports only from
modules of a strictly lower layer, at module level and inside functions
alike."""

import ast
import pathlib

import reflharm

LAYER = {
    "errors": 0,
    "scalars": 1,
    "linalg": 2,
    "mpoly": 3,
    "groups": 4,
    "harmonics": 5,
    "rootdata": 5,
    "characters": 6,
    "factorisation": 6,
    "weyl": 7,
    "cli": 8,
    "__main__": 9,
    "__init__": 9,
}

PACKAGE = pathlib.Path(reflharm.__file__).parent


def _module_imports(path):
    """Sibling modules named by every `from .x import` and `from . import
    x` in the module, including imports inside functions."""
    tree = ast.parse(path.read_text())
    targets = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                targets.extend(alias.name for alias in node.names)
            else:
                targets.append(node.module)
    return targets


def test_every_module_has_a_layer():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(LAYER)


def test_modules_import_only_lower_layers():
    for path in sorted(PACKAGE.glob("*.py")):
        for target in _module_imports(path):
            assert LAYER.get(target, LAYER[path.stem]) < LAYER[path.stem], (
                path.stem, target)
