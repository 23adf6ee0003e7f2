"""The README's library example runs as written."""

import pathlib

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_at_a_glance_runs():
    text = README.read_text()
    section = text.split("## Library at a glance", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
