"""Per-layer metrics from traced reps, and the kernel and Lloyd-step probes.

Every figure is a mean per traced rep, so the self times, ``trace.other_self_s``
and ``trace.unattributed_s`` add up to ``trace.wall_s`` exactly.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from collections import defaultdict

from tracer import CHECKS

# layer name -> quantities read straight off its spans
SPAN_LAYERS = {
    "models.sample": ("calls", "self_s", "rows"),
    "estimates.estimate": ("calls", "self_s"),
    "quantize.nearest": ("calls", "self_s", "pairs", "bytes_computed"),
    "quantize.lloyd": ("calls", "self_s", "iterations_best", "restarts"),
    "quantize.univariate": ("calls", "self_s"),
    "laws.cell_moments": ("calls", "self_s"),
    "io.write": ("calls", "self_s", "bytes"),
    "basis.write_curve_csv": ("calls", "self_s"),
    **{f"checks.{name}": ("self_s",) for name in CHECKS},
}
UNITS = {"calls": "count", "self_s": "s", "rows": "count", "pairs": "count", "bytes_computed": "B",
         "iterations_best": "count", "restarts": "count", "bytes": "B"}
PROBE_METRICS = {"quantize.nearest.call_s": "s", "quantize.nearest.peak_alloc_mb": "MB", "quantize.lloyd.step_s": "s"}


def _totals(rep) -> dict[str, dict]:
    """Sum one rep's span edges over callers and processes, per layer name."""
    totals: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for process in rep.spans:
        for edge in process["edges"]:
            for key, value in edge.items():
                if key not in ("name", "parent"):
                    totals[edge["name"]][key] += value
    return totals


def _fixture_s(rep) -> float:
    """Reference-suite time outside every check span."""
    suite = checks = 0.0
    for process in rep.spans:
        for edge in process["edges"]:
            if edge["name"] == "checks.suite":
                suite += edge["total_s"]
            elif edge["parent"] == "checks.suite" and edge["name"].startswith("checks."):
                checks += edge["total_s"]
    return suite - checks


def _passed(rep_dir) -> int:
    return sum(
        sum(1 for r in json.loads(path.read_text()) if r["passed"] and not r["flags"])
        for path in (rep_dir / "out").rglob("verification.json")
    )


def per_layer(plain, traced, traced_dirs) -> dict:
    reps = len(traced)
    sums: dict[str, float] = defaultdict(float)
    lloyd_calls = converged = 0
    for rep, rep_dir in zip(traced, traced_dirs):
        totals = _totals(rep)  # a layer the rep did not run reads 0
        for name, quantities in SPAN_LAYERS.items():
            for q in quantities:
                sums[f"{name}.{q}"] += totals[name][q]
        named_self = sum(totals[name]["self_s"] for name in SPAN_LAYERS)
        all_self = sum(t["self_s"] for t in totals.values())
        root = sum(process["root_s"] for process in rep.spans)
        sums["trace.other_self_s"] += all_self - named_self
        sums["trace.unattributed_s"] += rep.wall_s - root
        sums["trace.wall_s"] += rep.wall_s
        sums["checks.fixture_s"] += _fixture_s(rep)
        sums["checks.passed"] += _passed(rep_dir)
        lloyd_calls += totals["quantize.lloyd"]["calls"]
        converged += totals["quantize.lloyd"]["converged"]
    metrics = {}
    for name, quantities in SPAN_LAYERS.items():
        for q in quantities:
            metrics[f"{name}.{q}"] = (sums[f"{name}.{q}"] / reps, UNITS[q])
    metrics["quantize.lloyd.converged_ratio"] = (converged / lloyd_calls if lloyd_calls else 0.0, "ratio")
    metrics["checks.fixture_s"] = (sums["checks.fixture_s"] / reps, "s")
    metrics["checks.passed"] = (sums["checks.passed"] / reps, "count")
    for name in ("trace.other_self_s", "trace.unattributed_s", "trace.wall_s"):
        metrics[name] = (sums[name] / reps, "s")
    metrics["trace.overhead_s"] = (
        statistics.fmean(t.wall_s for t in traced) - statistics.fmean(p.wall_s for p in plain), "s")
    return metrics


def _median_time(fn, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def probes(workload, seed: int) -> dict:
    """Time one ``assign`` and one Lloyd step at the workload's (n, k, d)."""
    case = workload.probe_case()
    if case is None:  # no nearest-point kernel in this workload
        return {name: (0.0, unit) for name, unit in PROBE_METRICS.items()}
    import funquant as fq

    model, n, k = case
    draws = fq.sample(fq.model_from_dict(model), n, seed)
    start = draws[:k]
    w = fq.PointSet(start)
    fq.assign(draws, w)
    call_s = _median_time(lambda: fq.assign(draws, w))
    tracemalloc.start()
    try:
        fq.assign(draws, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one step is the difference between m+1 and m iterations from the same start
    m = 3
    short = _median_time(lambda: fq.lloyd(draws, k, init=start, max_iter=m))
    long = _median_time(lambda: fq.lloyd(draws, k, init=start, max_iter=m + 1))
    return {
        "quantize.nearest.call_s": (call_s, "s"),
        "quantize.nearest.peak_alloc_mb": (peak / 2**20, "MB"),
        "quantize.lloyd.step_s": (long - short, "s"),
    }
