"""Every function the benchmark's traced run wraps still exists under its name.

The traced run patches the names listed in ``TRACED`` of ``bench/spans.py``;
a rename in the package would otherwise surface only when the benchmark runs.
The file is parsed, not imported or changed.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def traced_names() -> list[tuple[str, str]]:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            traced = ast.literal_eval(node.value)
            return [(mod, fn) for mod, fns in traced.items() for fn in fns]
    raise AssertionError(f"no TRACED table in {SPANS}")


@pytest.mark.parametrize("module,name", traced_names())
def test_traced_name_resolves(module, name):
    obj = importlib.import_module(f"wahlkit.{module}")
    for part in name.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
