"""Every function the benchmark's tracer wraps exists in the library.

``vmbench/tracer.py`` wraps each name in its ``LAYERS`` table with
``getattr(violinmorph.<layer>, name)``; a name deleted or renamed in the
library would crash every traced benchmark run. The table is read from
the tracer's source, which is parsed and not imported.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "vmbench" / "tracer.py"


def _layers():
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACER}")


def test_every_traced_name_resolves():
    layers = _layers()
    assert "slicing" in layers and "cross_section" in layers["slicing"]
    missing = [f"{layer}.{name}" for layer, names in layers.items() for name in names
               if not callable(getattr(importlib.import_module(f"violinmorph.{layer}"),
                                       name, None))]
    assert missing == []
