"""Command-line driver: JSON scenario configs in, artifact files out.

Subcommands: ``simulate``, ``estimate``, ``kmeans``, ``closed-form``,
``verify``, ``report``.  A single JSON config plus the seed determines a
run completely; re-running the same config and seed writes byte-identical
numeric outputs, whatever ``--jobs`` is.  Exit codes: 0 success, 1 failed
verification checks, 2 config/schema problems, 3 numerical singularities.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .basis import FOURIER, SYNTHETIC, Basis, make_basis, write_curve_csv
from .checks import ALL_CHECKS, SUITE_MIN_N, reference_suite
from .errors import ConfigError, DegenerateDirectionError, FunquantError, SingularityError, UsageError
from .estimates import estimate, write_estimate_json
from .models import (
    EllipticalModel, covariance_operator, is_finite_number, model_from_dict, sample, write_samples_csv,
)
from .quantize import PointSet, closed_form_two_points, g_constant, lloyd, write_pointset_json
from ._io import atomic_write, write_json

_EXIT_OK = 0
_EXIT_CHECK_FAILED = 1
_EXIT_CONFIG = 2
_EXIT_SINGULAR = 3


@dataclass
class Scenario:
    task: str
    out: Path
    seed: int
    model: EllipticalModel | None = None
    n: int | None = None
    k: int | None = None
    restarts: int = 10
    tol: float = 1e-8
    max_iter: int = 300
    checks: list[str] | None = None
    inputs: list[str] | None = None
    basis: Basis | None = None
    jobs: int = 1


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _numeric(value, where: str, kind: type, ok, wanted: str):
    """``value`` as a finite ``kind`` (int or float) for which ``ok`` holds.

    Bools, strings, non-finite numbers and, for ints, non-integral numbers
    exit 2 with a message anchored to ``where``; ``300.0`` counts as an int.
    """
    if is_finite_number(value) and (kind is float or float(value).is_integer()) and ok(kind(value)):
        return kind(value)
    raise ConfigError(f"{where}: {wanted} required, got {value!r}")


def _count(cfg: dict, name: str, default=None, low: int = 1, high: float = math.inf, where: str = "config") -> int:
    wanted = f"integer >= {low}" if high == math.inf else f"integer in [{low}, {high}]"
    return _numeric(cfg.get(name, default), f"{where}.{name}", int, lambda v: low <= v <= high, wanted)


def _read_json(path: str, what: str):
    """The JSON document in the file at ``path``; failing to read or parse it is a ConfigError naming the path."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read {what} ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})") from exc
    except (ValueError, RecursionError) as exc:  # e.g. an integer literal over the int-string limit, or deep nesting
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def _load_config(path: str) -> dict:
    payload = _read_json(path, "config")
    _expect(isinstance(payload, dict), f"{path}: top-level config must be an object")
    return payload


def _parse_basis(cfg: dict) -> Basis | None:
    raw = cfg.get("basis")
    if raw is None:
        return None
    _expect(isinstance(raw, dict), "config.basis: must be an object")
    family = raw.get("family", FOURIER)
    _expect(family in (FOURIER, SYNTHETIC), f"config.basis.family: unknown family {family!r}")
    dimension = _count(raw, "dimension", cfg["model"]["d"] if "model" in cfg else None, where="config.basis")
    if "grid" in raw:
        grid = raw["grid"]
        _expect(
            isinstance(grid, list) and all(map(is_finite_number, grid)),
            f"config.basis.grid: a list of finite numbers required, got {grid!r}",
        )
    elif "grid_points" in raw:
        m = _count(raw, "grid_points", low=2, where="config.basis")
        try:
            grid = np.linspace(0.0, 1.0, m).tolist()
        except MemoryError as exc:
            raise ConfigError(f"config.basis.grid_points: too large for this machine's memory ({exc})") from exc
    else:
        grid = None
    try:  # family and dimension are checked above, so only the grid can be at fault
        return make_basis(family, dimension, grid)
    except ConfigError as exc:
        raise ConfigError(f"config.basis.grid: {exc}") from exc


def _parse_scenario(task: str, cfg: dict, args) -> Scenario:
    cfg_task = cfg.get("task")
    if cfg_task is not None and cfg_task != task:
        raise ConfigError(f"config.task: config says {cfg_task!r} but the {task!r} command was invoked")

    seed, where = cfg.get("seed", 0), "config.seed"
    if args.seed is not None:
        seed, where = args.seed, "--seed"
    seed = _numeric(seed, where, int, lambda v: v >= 0, "nonnegative integer")

    out = Path(args.out) if args.out else Path(cfg.get("out", "results"))
    jobs = _numeric(args.jobs, "--jobs", int, lambda v: v >= 1, "integer >= 1")
    scenario = Scenario(task=task, out=out, seed=seed, jobs=jobs)

    if task in ("simulate", "estimate", "kmeans", "closed-form"):
        _expect("model" in cfg, "config.model: required for this task")
        scenario.model = model_from_dict(cfg["model"])
        scenario.basis = _parse_basis(cfg)
        if scenario.basis is not None:
            _expect(
                scenario.basis.dimension == scenario.model.d,
                "config.basis.dimension: must match config.model.d",
            )

    if task in ("simulate", "estimate", "kmeans"):
        scenario.n = _count(cfg, "n", low=2 if task == "estimate" else 1)

    if task == "kmeans":
        scenario.k = _count(cfg, "k")
        _expect(scenario.k <= scenario.n, f"config.k: k={scenario.k} exceeds n={scenario.n}")
        scenario.restarts = _count(cfg, "restarts", scenario.restarts, high=1000)
        scenario.tol = _numeric(cfg.get("tol", scenario.tol), "config.tol", float, lambda v: v > 0, "positive number")
        scenario.max_iter = _count(cfg, "max_iter", scenario.max_iter)

    if task == "verify":
        checks = cfg.get("checks")
        if checks is not None:
            _expect(
                isinstance(checks, list) and all(isinstance(c, str) for c in checks),
                "config.checks: must be a list of check names",
            )
            unknown = [c for c in checks if c not in ALL_CHECKS]
            _expect(not unknown, f"config.checks: unknown names {unknown}; valid: {list(ALL_CHECKS)}")
        scenario.checks = checks
        scenario.n = _count(cfg, "n", 200_000, low=SUITE_MIN_N, high=200_000)

    if task == "report":
        inputs = cfg.get("inputs")
        _expect(
            isinstance(inputs, list) and all(isinstance(p, str) for p in inputs),
            "config.inputs: a list of result file paths is required",
        )
        scenario.inputs = inputs

    return scenario


def _write_manifest(scenario: Scenario, cfg_text: str) -> None:
    digest = hashlib.sha256(cfg_text.encode()).hexdigest()
    write_json(scenario.out / f"{scenario.task.replace('-', '_')}_manifest.json", {
        "task": scenario.task,
        "config_sha256": digest,
        "seed": scenario.seed,
        "version": __version__,
    })


def _write_points(scenario: Scenario, points: PointSet, mse: float, residual: float, note: str) -> int:
    """Write and print ``pointset.json``, then, given a basis, one curve CSV per point."""
    path = scenario.out / "pointset.json"
    write_pointset_json(path, points, mse, residual)
    print(f"wrote {path} ({note})")
    if scenario.basis is not None:
        for i, row in enumerate(points.points):
            curve = scenario.out / f"point_{i + 1}.csv"
            write_curve_csv(curve, scenario.basis, row)
            print(f"wrote {curve}")
    return _EXIT_OK


def _run_simulate(scenario: Scenario) -> int:
    draws = sample(scenario.model, scenario.n, scenario.seed)
    path = scenario.out / "samples.csv"
    write_samples_csv(path, draws)
    print(f"wrote {path}")
    return _EXIT_OK


def _run_estimate(scenario: Scenario) -> int:
    est = estimate(sample(scenario.model, scenario.n, scenario.seed))
    path = scenario.out / "estimate.json"
    write_estimate_json(path, est)
    print(f"wrote {path}")
    return _EXIT_OK


def _run_kmeans(scenario: Scenario) -> int:
    draws = sample(scenario.model, scenario.n, scenario.seed)
    points, report = lloyd(draws, scenario.k, tol=scenario.tol, max_iter=scenario.max_iter,
                           restarts=scenario.restarts, seed=scenario.seed, jobs=scenario.jobs)
    if not math.isfinite(report.self_consistency_residual):  # a domain stayed empty
        raise SingularityError(f"config.k: the draws have fewer than k={scenario.k} distinct rows")
    return _write_points(scenario, points, report.final_mse, report.self_consistency_residual,
                         f"iterations={report.iterations}, converged={report.converged}")


def _run_closed_form(scenario: Scenario) -> int:
    points = closed_form_two_points(scenario.model)
    g = g_constant(scenario.model)
    gamma = covariance_operator(scenario.model)
    mse = float(np.trace(gamma)) - (1.0 - g) * float(gamma[0, 0])
    return _write_points(scenario, points, mse, 0.0, f"analytic mse={mse:.6g}, g={g:.6g}")


def _run_verify(scenario: Scenario) -> int:
    reports = reference_suite(
        seed=scenario.seed, n=scenario.n, checks=scenario.checks, jobs=scenario.jobs
    )
    path = scenario.out / "verification.json"
    write_json(path, [r.to_dict() for r in reports])
    print(f"wrote {path}")
    failed = 0
    for r in reports:
        if r.flags:
            status = "FLAGGED"
        elif r.passed:
            status = "PASS"
        else:
            status = "FAIL"
            failed += 1
        key = _worst(r.residuals, r.tolerances)
        worst = "" if key is None else f" {key}={r.residuals[key]:.3g} (tol {r.tolerances[key]:.3g})"
        label = r.params.get("model", r.params.get("law", ""))
        print(f"[{status}] {r.name} [{r.tolerance_class}] {label}{worst} ({r.runtime:.2f}s)")
    return _EXIT_CHECK_FAILED if failed else _EXIT_OK


def _worst(residuals: dict, tolerances: dict):
    """The residual key farthest past its tolerance (a missing one is 0), or None if there are none."""

    def ratio(key):
        value, tol = residuals[key], tolerances.get(key, 0.0)
        if tol == 0:
            return float("inf") if value > 0 else 0.0
        return value / tol

    return max(residuals, key=ratio, default=None)


def _record_fields(rec, where: str) -> tuple[dict, dict, dict]:
    """A report record's params, residuals and tolerances, checked for the types ``report`` reads;
    residuals and tolerances must be numbers within float range (NaN and +-inf count, bools do not)."""
    _expect(isinstance(rec, dict), f"{where}: a JSON object required, got {rec!r}")
    _expect(isinstance(rec.get("name", ""), str), f"{where}: name must be a string, got {rec.get('name')!r}")
    fields = {key: rec.get(key, {}) for key in ("params", "residuals", "tolerances")}
    for key, value in fields.items():
        _expect(isinstance(value, dict), f"{where}: {key} must be an object, got {value!r}")
    for key in ("residuals", "tolerances"):
        for name, v in fields[key].items():
            number = isinstance(v, float) or (type(v) is int and abs(v) <= sys.float_info.max)
            _expect(number, f"{where}: {key}.{name} must be a number, got {v!r}")
    return fields["params"], fields["residuals"], fields["tolerances"]


def _report_rows(inputs: list[str]) -> list[dict]:
    rows = []
    for path in inputs:
        if not Path(path).exists():
            raise ConfigError(f"{path}: input file does not exist")
        payload = _read_json(path, "verification reports")
        if not isinstance(payload, list):
            raise ConfigError(f"{path}: expected a JSON array of verification reports")
        for i, rec in enumerate(payload):
            params, residuals, tolerances = _record_fields(rec, f"{path}: record {i}")
            key = _worst(residuals, tolerances)
            residual, tol = ("", "") if key is None else (residuals[key], tolerances.get(key, ""))
            passed = "flagged" if rec.get("flags") else str(bool(rec.get("passed"))).lower()
            rows.append({
                "name": rec.get("name", ""),
                "model": params.get("model", params.get("law", "")),
                "n": params.get("n", ""),
                "seed": params.get("seed", ""),
                "residual": residual,
                "tol": tol,
                "pass": passed,
            })
    if len(inputs) > 1:
        rows.sort(key=lambda r: (r["name"], str(r["seed"])))
    return rows


_COLUMNS = ("name", "model", "n", "seed", "residual", "tol", "pass")


def _run_report(scenario: Scenario) -> int:
    rows = _report_rows(scenario.inputs)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_COLUMNS)
    for row in rows:
        writer.writerow([row[c] for c in _COLUMNS])
    csv_path = scenario.out / "report.csv"
    atomic_write(csv_path, buffer.getvalue())

    md_lines = ["| " + " | ".join(_COLUMNS) + " |", "|" + "---|" * len(_COLUMNS)]
    for row in rows:
        md_lines.append("| " + " | ".join(str(row[c]) for c in _COLUMNS) + " |")
    md_path = scenario.out / "report.md"
    atomic_write(md_path, "\n".join(md_lines) + "\n")
    print(f"wrote {csv_path}")
    print(f"wrote {md_path}")
    return _EXIT_OK


_RUNNERS = {
    "simulate": _run_simulate,
    "estimate": _run_estimate,
    "kmeans": _run_kmeans,
    "closed-form": _run_closed_form,
    "verify": _run_verify,
    "report": _run_report,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funquant",
        description="Simulate elliptical random functions and compute their principal points.",
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for task in _RUNNERS:
        p = sub.add_parser(task, help=f"run the {task} task from a JSON config")
        p.add_argument("--config", required=True, help="path to the scenario config (JSON)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--jobs", type=int, default=1, help="parallel workers for Lloyd restarts")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        scenario = _parse_scenario(args.task, cfg, args)
        try:
            scenario.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"config.out: cannot create {scenario.out} ({exc})") from exc
        try:  # every other scenario value is checked already, so a usage fault comes from the model
            code = _RUNNERS[args.task](scenario)
            _write_manifest(scenario, json.dumps({**cfg, "seed": scenario.seed}, sort_keys=True))
        except (DegenerateDirectionError, UsageError) as exc:
            raise ConfigError(f"config.model: {exc}") from exc
        except OSError as exc:
            raise ConfigError(f"config.out: cannot write to {scenario.out} ({exc})") from exc
        return code
    except SingularityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_SINGULAR
    except (ConfigError, FunquantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: config.n: too large for this machine's memory ({exc})", file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
