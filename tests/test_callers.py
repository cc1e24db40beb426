"""The funquant names that the demos and the benchmark depend on all resolve,
every name the package exports is read by some program, and so is every
public method and property of an exported class.  The three quick demos run.

The slow demos and ``bench/tracer.py`` do not run in this suite, so a deleted
or renamed name they use would otherwise show only when they are run.  An
export or method that only the tests read is a helper no caller needs.
"""

import ast
import functools
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SCRIPTS = sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("bench/*.py")])
PACKAGE = ROOT / "src" / "funquant"


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


def _reads(tree):
    """Every name a module reads: loaded names, attribute names, and str constants (``bench/tracer.py``
    names some functions only as strings)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _exports():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in init.body if isinstance(node, ast.ImportFrom) for alias in node.names}


@functools.cache
def _program_reads():
    programs = [*(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), *SCRIPTS]
    return {name for p in programs for name in _reads(ast.parse(p.read_text(encoding="utf-8")))}


def test_every_export_is_read_by_a_program():
    assert sorted(_exports() - _program_reads()) == []


def test_every_public_method_of_an_exported_class_is_read_by_a_program():
    funquant = importlib.import_module("funquant")
    kinds = (property, classmethod, staticmethod)
    members = {
        f"{name}.{attr}"
        for name in _exports() if inspect.isclass(cls := getattr(funquant, name))
        for attr, value in vars(cls).items()
        if not attr.startswith("_") and (inspect.isfunction(value) or isinstance(value, kinds))
    }
    assert sorted(m for m in members if m.split(".")[1] not in _program_reads()) == []


@pytest.mark.parametrize("demo", ["01_simulate_random_functions.py", "02_covariance_eigenanalysis.py",
                                  "05_conditional_structure.py"])
def test_quick_demo_runs(tmp_path, demo):
    # a demo can read a method through a local variable, which the name checks above cannot see
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
