"""funquant benchmark: one workload, measured end to end or traced by layer.

    python3 bench/run.py --workload kmeans-d3 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is run from ``src/``.
Workloads: kmeans-d3, verify-suite, fpca-d64, quantize-1d (see README.md).

A rep is one run of the workload: the program processes it starts, from
process start to exit.  The benchmark repeats reps, each on inputs made from
its own rep key (seed, index), until ``--seconds`` are used, then checks
every rep's artifacts.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
each rep twice, plain and under ``tracer.py``, and reports the per-layer
metrics.  The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# One process, one BLAS thread: the figures measure the program, not the scheduler.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 3
MIN_REPS = 3
# No program process of any workload needs more than ~10 s; a hung one is
# killed so the benchmark still ends well within its 180 s limit.
PROCESS_TIMEOUT_S = 60

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "mse": "1"}


@dataclass
class Rep:
    """One run of a workload."""

    key: RepKey
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    hashes: dict[str, str] = field(default_factory=dict)
    mse: float | None = None
    error: str | None = None
    spans: list[dict] = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def launch(args, log: Path) -> tuple[float, float, int]:
    """Run one process; return its wall seconds, peak RSS in MB and exit code."""
    with open(log, "wb") as sink:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=sink, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def hash_tree(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def run_rep(workload, key: RepKey, rep_dir: Path, traced: bool) -> Rep:
    """Run the workload's processes once and hash what they wrote (ungated)."""
    rep = Rep(key=key)
    out, cfg_dir, logs = rep_dir / "out", rep_dir / "cfg", rep_dir / "logs"
    for d in (out, cfg_dir, logs):
        d.mkdir(parents=True, exist_ok=True)
    for i, args in enumerate(workload.commands(key, cfg_dir, out)):
        spans = rep_dir / f"spans_{i}.json"
        if traced:
            args = (str(BENCH / "tracer.py"), str(spans), *args)
        wall, rss, code = launch(args, logs / f"{i}.log")
        rep.wall_s += wall
        rep.peak_rss_mb = max(rep.peak_rss_mb, rss)
        if traced and spans.exists():
            rep.spans.append(json.loads(spans.read_text()))
        if code != 0:
            rep.error = f"process {i} exited {code}: " + (logs / f"{i}.log").read_text()[-2000:]
            return rep
    rep.hashes = hash_tree(out)
    return rep


def gate_rep(workload, rep: Rep, rep_dir: Path) -> None:
    """Run the workload's correctness gate; record the failure on the rep."""
    from workloads import GateError

    if rep.error is not None:
        return
    try:
        rep.mse = workload.gate(rep.key, rep_dir / "cfg", rep_dir / "out")
    except (GateError, OSError, KeyError, ValueError) as exc:  # ValueError covers bad JSON
        rep.error = f"gate: {type(exc).__name__}: {exc}"


def measure_setup(work: Path, runs: int) -> tuple[list[float], list[str]]:
    """Interpreter start, ``import funquant`` and config parsing: a CLI run with nothing to do."""
    cfg = work / "setup.json"
    cfg.write_text(json.dumps({"task": "report", "inputs": []}) + "\n")
    times, errors = [], []
    for i in range(runs + 1):
        out = work / f"setup_{i}"
        wall, _, code = launch(("-m", "funquant", "report", "--config", str(cfg), "--out", str(out)),
                               work / f"setup_{i}.log")
        if code != 0 or not (out / "report.csv").exists():
            errors.append(f"setup run {i} exited {code}")
        elif i > 0:  # the first run fills the bytecode and page caches
            times.append(wall)
    return times, errors


def percentile_summary(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    summary = {"n": n, "median": statistics.median(values)}
    if n >= 20:
        q = int(100 * (1 - 10 / n))
        summary[f"p{q}"] = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    else:
        summary["max"] = max(values)
    return summary


def metadata(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        # the ceiling keeps git from reading a repository above the checkout
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
                                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        digest.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "workload_seed": seed,
    }


def run_plain(workload, seed: int, seconds: float, work: Path) -> tuple[dict, list[Rep], dict]:
    """End-to-end metrics from timed reps, the last of which repeats the first rep's seed."""
    from workloads import RepKey

    setup_times, setup_errors = measure_setup(work, SETUP_RUNS)
    reps: list[Rep] = []
    deadline = time.perf_counter() + seconds
    while True:
        reps.append(run_rep(workload, RepKey(seed, len(reps)), work / f"rep{len(reps)}", traced=False))
        typical = statistics.median(r.wall_s for r in reps)
        if len(reps) >= MIN_REPS - 1 and time.perf_counter() + 2 * typical > deadline:
            break
    # determinism probe: the same seed again must write byte-identical artifacts
    reps.append(run_rep(workload, reps[0].key, work / f"rep{len(reps)}", traced=False))
    for i, rep in enumerate(reps):
        gate_rep(workload, rep, work / f"rep{i}")
    if reps[-1].error is None and reps[0].error is None and reps[-1].hashes != reps[0].hashes:
        reps[-1].error = "artifact hashes differ between two runs of the same seed"
    timed = [r for r in reps if r.error is None] or reps
    # mse is a mean over the distinct rep keys, not a timing: quantize-1d
    # spreads its law parameters evenly over them
    gated = [r.mse for r in reps[:-1] if r.mse is not None]
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in timed),
        "setup_s": statistics.median(setup_times) if setup_times else 0.0,
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in timed),
        "mse": statistics.fmean(gated) if gated else 0.0,
    }
    details = {
        "wall_s": percentile_summary([r.wall_s for r in timed]),
        "wall_s_samples": [r.wall_s for r in reps],
        "setup_s": percentile_summary(setup_times) if setup_times else {},
        "setup_errors": setup_errors,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, reps, details


def run_traced(workload, seed: int, seconds: float, work: Path) -> tuple[dict, list[Rep], dict]:
    """Per-layer metrics: each rep key runs plain, then traced; both must write the same bytes."""
    import layers
    from workloads import RepKey

    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        i = len(traced)
        plain.append(run_rep(workload, RepKey(seed, i), work / f"plain{i}", traced=False))
        traced.append(run_rep(workload, RepKey(seed, i), work / f"traced{i}", traced=True))
        typical = statistics.median(p.wall_s + t.wall_s for p, t in zip(plain, traced))
        if len(traced) >= 2 and time.perf_counter() + typical > deadline:
            break
    for i, (p, t) in enumerate(zip(plain, traced)):
        gate_rep(workload, p, work / f"plain{i}")
        gate_rep(workload, t, work / f"traced{i}")
        if p.error is None and t.error is None and p.hashes != t.hashes:
            t.error = "traced run wrote different artifacts than the plain run of the same seed"
    metrics = layers.per_layer(plain, traced, [work / f"traced{i}" for i in range(len(traced))])
    metrics.update(layers.probes(workload, seed))
    return metrics, [*plain, *traced], {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="funquant benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (SRC / "funquant" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: no funquant source tree under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # the parent's own numpy (gates, probes) runs pinned like the children
    os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    sys.path[:0] = [str(SRC), str(BENCH)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](smoke=args.smoke)

    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = run_traced if args.trace else run_plain
        metrics, reps, details = runner(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    failures = [f"rep {r.key.index} (config seed {r.key.config_seed}): {r.error}" for r in reps if r.error]
    failures += details.pop("setup_errors", [])
    attempted = len(reps) + (0 if args.trace else SETUP_RUNS + 1)
    print(json.dumps({"workload": args.workload, "trace": args.trace, "metadata": metadata(args.seed),
                      "reps": len(reps), "failures": failures, **details}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
