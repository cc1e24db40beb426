"""The funquant names that the demos and the benchmark depend on all resolve.

Neither the demos nor ``bench/tracer.py`` run in this suite, so a deleted or
renamed name they use would otherwise show only when they are run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SCRIPTS = sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("bench/*.py")])


def _funquant_names(tree):
    """(module, name) for each name imported from funquant or read off an imported funquant module."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "funquant":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "funquant":
                    modules[alias.asname or "funquant"] = alias.name if alias.asname else "funquant"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            yield modules[node.value.id], node.attr


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_script_funquant_names_resolve(script):
    names = set(_funquant_names(ast.parse(script.read_text(encoding="utf-8"))))
    missing = [f"{module}.{name}" for module, name in sorted(names)
               if not hasattr(importlib.import_module(module), name)]
    assert not missing


def test_tracer_layer_table_resolves():
    spec = importlib.util.spec_from_file_location("_bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    rows = tracer.layer_table()
    assert rows
    missing = [f"{module}.{attr}" for module, attr, *_ in rows
               if not hasattr(importlib.import_module(f"funquant.{module}"), attr)]
    assert not missing
