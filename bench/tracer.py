"""Layer spans for one funquant process, recorded from outside the package.

Run a funquant process under the tracer with

    python3 bench/tracer.py SPANS.json -m funquant kmeans --config cfg.json
    python3 bench/tracer.py SPANS.json bench/sweep_1d.py --config cfg.json --out dir

The tracer imports funquant, replaces the public entry points of its layers
(``models``, ``estimates``, ``quantize``, ``laws``, ``checks``, ``basis``,
``_io``) with timing wrappers in every funquant namespace that holds them,
then runs the target as ``__main__``.  Spans are aggregated in memory per
(layer, caller layer) edge and written to SPANS.json when the process ends,
so the trace never lands in the program's artifact directory.

A layer's self time is its span time minus the time its child spans cover.
Spans nest strictly because the benchmark runs funquant single-threaded
(``--jobs 1``), so the self times of all spans add up to the time covered by
the outermost spans.
"""

from __future__ import annotations

import functools
import json
import runpy
import sys
import time
from pathlib import Path

# Public nearest-point functions of funquant.quantize, reported as one layer.
NEAREST = ("assign", "empirical_mse", "self_consistency_residual", "quantizer_variable", "min_distance")

# The nine identity checks of funquant.checks, by report name.
CHECKS = (
    "convex_hull",
    "unitary_equivariance",
    "kernel_orthogonality",
    "eigen_span",
    "dimension_bound",
    "projection_self_consistency",
    "conditional_linearity",
    "ratio_invariance",
    "mse_identity",
)


def _rows(args, kwargs):
    return {"rows": int(args[1] if len(args) > 1 else kwargs["n"])}


def _nearest_counts(args, kwargs):
    import numpy as np

    samples = np.asarray(args[0])
    w = args[1]
    n = samples.shape[0] if samples.ndim == 2 else 1
    pairs = n * w.k
    # computed, not measured: the (n, k, d) float64 difference tensor
    return {"pairs": pairs, "bytes_computed": pairs * w.d * 8}


def _write_counts(args, kwargs):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes": len(text.encode())}


def _lloyd_counts(result):
    report = result[1]
    return {
        "iterations_best": report.iterations,
        "restarts": report.restarts_used,
        "converged": int(report.converged),
    }


def layer_table():
    """(module, attribute, span name, argument counter, result counter) rows."""
    rows = [
        ("models", "sample", "models.sample", _rows, None),
        ("estimates", "estimate", "estimates.estimate", None, None),
        ("estimates", "write_estimate_json", "estimates.write_estimate_json", None, None),
        ("quantize", "lloyd", "quantize.lloyd", None, _lloyd_counts),
        ("quantize", "univariate_principal_points", "quantize.univariate", None, None),
        ("quantize", "closed_form_two_points", "quantize.closed_form_two_points", None, None),
        ("quantize", "g_constant", "quantize.g_constant", None, None),
        ("quantize", "write_pointset_json", "quantize.write_pointset_json", None, None),
        ("checks", "reference_suite", "checks.suite", None, None),
        ("basis", "make_basis", "basis.make_basis", None, None),
        ("basis", "write_curve_csv", "basis.write_curve_csv", None, None),
        ("_io", "atomic_write", "io.write", _write_counts, None),
    ]
    rows += [("quantize", name, "quantize.nearest", _nearest_counts, None) for name in NEAREST]
    rows += [("checks", f"check_{name}", f"checks.{name}", None, None) for name in CHECKS]
    return rows


# Law methods, wrapped on each concrete law class.
LAW_METHODS = (("cell_moments", "laws.cell_moments"), ("expected_sq_distance", "laws.expected_sq_distance"))


class Tracer:
    """Aggregates spans per (name, parent name): calls, total and self time, counters."""

    def __init__(self):
        self.stack: list[list] = []  # [name, parent name, start, time covered by children]
        self.edges: dict[tuple[str, str], dict] = {}
        self.root_s = 0.0

    def wrap(self, fn, name, arg_counter=None, result_counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = dict(arg_counter(args, kwargs)) if arg_counter else {}
            parent = tracer.stack[-1][0] if tracer.stack else ""
            frame = [name, parent, time.perf_counter(), 0.0]
            tracer.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if result_counter is not None:
                    counts.update(result_counter(result))
                return result
            finally:
                tracer.stack.pop()
                tracer._close(frame, time.perf_counter() - frame[2], counts)

        return traced

    def _close(self, frame, duration, counts):
        name, parent, _, children = frame
        edge = self.edges.setdefault((name, parent), {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        edge["calls"] += 1
        edge["total_s"] += duration
        edge["self_s"] += duration - children
        for key, value in counts.items():
            edge[key] = edge.get(key, 0) + value
        if self.stack:
            self.stack[-1][3] += duration
        else:
            self.root_s += duration

    def dump(self, path):
        payload = {
            "root_s": self.root_s,
            "edges": [{"name": n, "parent": p, **v} for (n, p), v in sorted(self.edges.items())],
        }
        Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def install(tracer: Tracer) -> None:
    """Replace every layer entry point in every loaded funquant namespace."""
    from funquant import laws

    replacements = {}
    for module_name, attr, span, arg_counter, result_counter in layer_table():
        module = sys.modules[f"funquant.{module_name}"]
        original = getattr(module, attr)
        replacements[id(original)] = tracer.wrap(original, span, arg_counter, result_counter)
    for module_name in [m for m in sys.modules if m == "funquant" or m.startswith("funquant.")]:
        namespace = vars(sys.modules[module_name])
        for attr, value in list(namespace.items()):
            if id(value) in replacements:
                namespace[attr] = replacements[id(value)]
    for cls in (laws.UnivariateLaw, *laws.UnivariateLaw.__subclasses__()):
        for method, span in LAW_METHODS:
            if method in vars(cls):
                setattr(cls, method, tracer.wrap(vars(cls)[method], span))


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS.json (-m MODULE | SCRIPT) [ARGS...]", file=sys.stderr)
        return 2
    spans_path, target = argv[0], argv[1:]
    import funquant.cli  # noqa: F401  loads every funquant module before patching

    tracer = Tracer()
    install(tracer)
    code = 0
    try:
        if target[0] == "-m":
            sys.argv = [target[1], *target[2:]]
            runpy.run_module(target[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = list(target)
            runpy.run_path(target[0], run_name="__main__")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
