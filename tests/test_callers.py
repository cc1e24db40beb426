"""The funquant names that the demos and the benchmark depend on all resolve.

Neither the demos nor ``bench/tracer.py`` run in this suite, so a deleted or
renamed name they use would otherwise show only when they are run.
"""

import ast
import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SCRIPTS = sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("bench/*.py")])


def _funquant_names(tree):
    """(module, dotted path) for each name imported from funquant, and for each attribute
    read off such a name or off an imported funquant module."""
    bound = {}  # local name -> (module, dotted path of the object it names in that module)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "funquant":
            for alias in node.names:
                bound[alias.asname or alias.name] = (node.module, alias.name)
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "funquant":
                    bound[alias.asname or "funquant"] = (alias.name if alias.asname else "funquant", "")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
            module, path = bound[node.value.id]
            yield module, f"{path}.{node.attr}".lstrip(".")


def _resolves(module: str, path: str) -> bool:
    try:
        functools.reduce(getattr, path.split("."), importlib.import_module(module))
    except AttributeError:
        return False
    return True


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_script_funquant_names_resolve(script):
    names = set(_funquant_names(ast.parse(script.read_text(encoding="utf-8"))))
    missing = [f"{module}.{path}" for module, path in sorted(names) if not _resolves(module, path)]
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
