"""Every name the benchmark tracer wraps still exists in the package.

`bench/tracer.py` looks each target up with `holder.__dict__[attr]`, so a
deleted or renamed function makes every traced benchmark run fail before
its first request.  The target list is read from the tracer's source, which
is neither imported nor run."""

import ast
import importlib
import pathlib

TRACER = pathlib.Path(__file__).parents[1] / "bench" / "tracer.py"


def _targets():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)]
                == ["TARGETS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS list in %s" % TRACER.name)


def test_every_traced_name_binds():
    targets = _targets()
    assert targets
    for _, _, owner, attr in targets:
        module_name, _, cls_name = owner.partition(".")
        module = importlib.import_module("reflharm." + module_name)
        holder = getattr(module, cls_name) if cls_name else module
        assert attr in vars(holder), (owner, attr)
