"""The names the benchmark's tracer wraps still exist in chevlie."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_names() -> list[tuple[str, str]]:
    """(layer, path) of every `Fn` in the `TRACED` list, read from the source."""
    tree = ast.parse(TRACING.read_text())
    (traced,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
    ]
    return [(ast.literal_eval(fn.args[0]), ast.literal_eval(fn.args[1])) for fn in traced.elts]


def test_traced_names_resolve():
    # `tracing.install` looks up every name with getattr, so a deleted or
    # renamed function would make every traced run fail
    names = _traced_names()
    assert len(names) > 30
    for layer, path in names:
        obj = importlib.import_module(f"chevlie.{layer}")
        for attr in path.split("."):
            assert hasattr(obj, attr), f"chevlie.{layer}.{path} does not resolve"
            obj = getattr(obj, attr)
        assert callable(obj), f"chevlie.{layer}.{path} is not callable"
