"""The four benchmark workloads: generated configs, commands and correctness gates.

Each workload turns a rep key (benchmark seed, rep index) into the configs
the program reads, names the processes one rep runs, and checks the artifacts
those processes wrote.  The program only ever sees the generated configs; the
benchmark seed stays here.
Why each workload exists and how its sizes were chosen is in README.md.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

import funquant as fq
import numpy as np

ROOT = Path(__file__).resolve().parent.parent

T5 = {"kind": "student_t", "nu": 5.0}
KMEANS_D3_MODEL = {"d": 3, "mu": [0.0, 0.0, 0.0], "lambda": [4.0, 1.0, 0.25], "mixture": T5}
FPCA_D = 64
FPCA_MODEL = {
    "d": FPCA_D,
    "mu": [0.0] * FPCA_D,
    "lambda": [1.0 / (i * i) for i in range(1, FPCA_D + 1)],
    "mixture": T5,
}

# The seven checks whose verdicts do not depend on the sample (exact algebra,
# or Lloyd fixed-point properties), and the two Monte-Carlo ones.
SAMPLE_FREE_CHECKS = [
    "convex_hull",
    "unitary_equivariance",
    "kernel_orthogonality",
    "eigen_span",
    "dimension_bound",
    "projection_self_consistency",
    "ratio_invariance",
]
MONTE_CARLO_CHECKS = ["conditional_linearity", "mse_identity"]
# The Monte-Carlo checks always run at this config seed, whose verdicts at the
# seed commit are recorded below (see README.md, "Known gaps").
MONTE_CARLO_SEED = 0

# Reports of the reference suite, in output order, as (check, model or law,
# flags), recorded from the seed commit.  Every unflagged report must pass.
EXPECTED_REPORTS = [
    ("convex_hull", "gaussian|lam=(4,1,0.25)", ()),
    ("dimension_bound", "gaussian|lam=(4,1,0.25)", ()),
    ("eigen_span", "gaussian|lam=(4,1,0.25)", ()),
    ("projection_self_consistency", "gaussian|lam=(4,1,0.25)", ()),
    ("unitary_equivariance", "gaussian|lam=(4,1,0.25)", ()),
    ("convex_hull", "t5|lam=(4,1,0.25)", ()),
    ("dimension_bound", "t5|lam=(4,1,0.25)", ()),
    ("eigen_span", "t5|lam=(4,1,0.25)", ()),
    ("projection_self_consistency", "t5|lam=(4,1,0.25)", ()),
    ("unitary_equivariance", "t5|lam=(4,1,0.25)", ()),
    ("convex_hull", "gaussian|lam=(1,1,1)", ()),
    ("dimension_bound", "gaussian|lam=(1,1,1)", ()),
    ("eigen_span", "gaussian|lam=(1,1,1)", ("degenerate-spectrum",)),
    ("convex_hull", "t5|lam=(1,1,1)", ()),
    ("dimension_bound", "t5|lam=(1,1,1)", ()),
    ("eigen_span", "t5|lam=(1,1,1)", ("degenerate-spectrum",)),
    ("convex_hull", "gaussian|lam=(1,0)", ()),
    ("dimension_bound", "gaussian|lam=(1,0)", ()),
    ("kernel_orthogonality", "gaussian|lam=(1,0)", ()),
    ("eigen_span", "gaussian|lam=(1,0)", ()),
    ("projection_self_consistency", "gaussian|lam=(1,0)", ()),
    ("unitary_equivariance", "gaussian|lam=(1,0)", ()),
    ("convex_hull", "t5|lam=(1,0)", ()),
    ("dimension_bound", "t5|lam=(1,0)", ()),
    ("kernel_orthogonality", "t5|lam=(1,0)", ()),
    ("eigen_span", "t5|lam=(1,0)", ()),
    ("projection_self_consistency", "t5|lam=(1,0)", ()),
    ("unitary_equivariance", "t5|lam=(1,0)", ()),
    ("ratio_invariance", "normal", ()),
    ("ratio_invariance", "uniform(0,1)", ()),
]
EXPECTED_MONTE_CARLO_REPORTS = [
    ("conditional_linearity", "gaussian|lam=(4,1,0.25)", ()),
    ("mse_identity", "gaussian|lam=(4,1,0.25)", ()),
    ("conditional_linearity", "t5|lam=(4,1,0.25)", ()),
    ("mse_identity", "t5|lam=(4,1,0.25)", ()),
    ("conditional_linearity", "gaussian|lam=(1,1,1)", ()),
    ("conditional_linearity", "t5|lam=(1,1,1)", ()),
]


class RepKey(NamedTuple):
    """A rep's identity: the benchmark seed and the rep's index in the run."""

    seed: int
    index: int

    @property
    def config_seed(self) -> int:
        """The seed written into the rep's program configs."""
        return int(np.random.SeedSequence([self.seed, self.index]).generate_state(1)[0])


class GateError(Exception):
    """An artifact failed its correctness gate."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


def _write_config(path: Path, payload: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return str(path)


def _chunked_mse(draws: np.ndarray, points, chunk: int = 4096) -> float:
    """funquant's own empirical_mse, evaluated in row chunks to bound memory."""
    w = fq.PointSet(points)
    total = 0.0
    for start in range(0, draws.shape[0], chunk):
        block = draws[start:start + chunk]
        total += fq.empirical_mse(block, w) * block.shape[0]
    return total / draws.shape[0]


def _check_pointset(out: Path, cfg: dict) -> float:
    """k finite points, a finite residual, and the written mse recomputed on the draws.

    Returns the written mse per unit of the draws' total variance: with t5
    tails the raw mse follows the draws' own scatter from seed to seed.
    """
    payload = json.loads((out / "pointset.json").read_text())
    points = np.asarray(payload["points"], dtype=float)
    _require(payload["k"] == cfg["k"] and points.shape == (cfg["k"], cfg["model"]["d"]),
             f"pointset has shape {points.shape}, expected ({cfg['k']}, {cfg['model']['d']})")
    _require(bool(np.isfinite(points).all()), "pointset has non-finite coordinates")
    _require(math.isfinite(payload["residual"]), f"residual {payload['residual']} is not finite")
    draws = fq.sample(fq.model_from_dict(cfg["model"]), cfg["n"], cfg["seed"])
    mse = _chunked_mse(draws, points)
    # points and mse are written at 12 significant digits
    _require(abs(mse - payload["mse"]) <= 1e-9 * abs(mse),
             f"written mse {payload['mse']!r} != recomputed {mse!r}")
    total_variance = float(((draws - draws.mean(axis=0)) ** 2).sum(axis=1).mean())
    return float(payload["mse"]) / total_variance


class Workload:
    """One benchmark workload; ``smoke`` shrinks every size for the smoke test."""

    name = ""

    def __init__(self, smoke: bool = False):
        self.smoke = smoke

    def commands(self, key: RepKey, cfg_dir: Path, out: Path) -> list[tuple[str, ...]]:
        """The interpreter arguments of each process of one rep, in order."""
        raise NotImplementedError

    def gate(self, key: RepKey, cfg_dir: Path, out: Path) -> float:
        """Raise GateError on a wrong artifact; return the rep's mse figure."""
        raise NotImplementedError

    def probe_case(self) -> tuple[dict, int, int] | None:
        """(model, n, k) of the workload's nearest-point calls, for the kernel probes."""
        return None


class KmeansD3(Workload):
    name = "kmeans-d3"

    def config(self, key: RepKey) -> dict:
        # Restarts here take 36 to 276 iterations (200 restarts, 20 seeds), so
        # the cap fixes the work per rep at 10 x 30 Lloyd steps whatever the seed.
        n, restarts = (2_000, 2) if self.smoke else (20_000, 10)
        return {"task": "kmeans", "model": KMEANS_D3_MODEL, "n": n, "k": 8, "restarts": restarts, "max_iter": 30,
                "seed": key.config_seed}

    def commands(self, key, cfg_dir, out):
        path = _write_config(cfg_dir / "kmeans.json", self.config(key))
        return [("-m", "funquant", "kmeans", "--config", path, "--out", str(out), "--jobs", "1")]

    def gate(self, key, cfg_dir, out):
        return _check_pointset(out, self.config(key))

    def probe_case(self):
        cfg = self.config(RepKey(0, 0))
        return cfg["model"], cfg["n"], cfg["k"]


class VerifySuite(Workload):
    name = "verify-suite"

    def configs(self, key: RepKey) -> tuple[dict, dict]:
        n_lloyd, n_mc = (1_000, 20_000) if self.smoke else (2_000, 20_000)
        return (
            {"task": "verify", "n": n_lloyd, "seed": key.config_seed, "checks": SAMPLE_FREE_CHECKS},
            {"task": "verify", "n": n_mc, "seed": MONTE_CARLO_SEED, "checks": MONTE_CARLO_CHECKS},
        )

    def commands(self, key, cfg_dir, out):
        commands = []
        for i, cfg in enumerate(self.configs(key)):
            path = _write_config(cfg_dir / f"verify_{i}.json", cfg)
            commands.append(("-m", "funquant", "verify", "--config", path, "--out", str(out / f"part{i}"),
                             "--jobs", "1"))
        return commands

    def gate(self, key, cfg_dir, out):
        g_sum = 0.0
        for i, expected in enumerate((EXPECTED_REPORTS, EXPECTED_MONTE_CARLO_REPORTS)):
            reports = json.loads((out / f"part{i}" / "verification.json").read_text())
            seen = [(r["name"], r["params"].get("model", r["params"].get("law")), tuple(r["flags"])) for r in reports]
            _require(seen == expected, f"part {i}: report list or flags differ from the seed commit: {seen}")
            failed = [s[:2] for s, r in zip(seen, reports) if not r["flags"] and not r["passed"]]
            _require(not failed, f"part {i}: checks failed: {failed}")
            g_sum += sum(r["params"]["g"] for r in reports if r["name"] == "mse_identity")
        # the suite writes no distortion of its own; its two-point constants
        # g = D_2 / Var are the suite's quality figure
        return g_sum

    def probe_case(self):
        # the suite's fixtures: k=3 Lloyd on the gaussian (4, 1, 0.25) model
        model = {**KMEANS_D3_MODEL, "mixture": {"kind": "gaussian"}}
        return model, self.configs(RepKey(0, 0))[0]["n"], 3


class FpcaD64(Workload):
    name = "fpca-d64"

    def configs(self, key: RepKey) -> tuple[dict, dict]:
        # As in kmeans-d3: restarts here take 14 to 91 iterations, so with the
        # cap at 15 the work per rep hardly depends on the seed.
        n_est, n, restarts = (2_000, 300, 2) if self.smoke else (50_000, 2_000, 10)
        basis = {"family": "fourier-on-[0,1]", "grid_points": 256}
        return (
            {"task": "estimate", "model": FPCA_MODEL, "n": n_est, "seed": key.config_seed},
            {"task": "kmeans", "model": FPCA_MODEL, "n": n, "k": 16, "restarts": restarts, "max_iter": 15,
             "seed": key.config_seed, "basis": basis},
        )

    def commands(self, key, cfg_dir, out):
        est, km = self.configs(key)
        return [
            ("-m", "funquant", "estimate", "--config", _write_config(cfg_dir / "estimate.json", est),
             "--out", str(out), "--jobs", "1"),
            ("-m", "funquant", "kmeans", "--config", _write_config(cfg_dir / "kmeans.json", km),
             "--out", str(out), "--jobs", "1"),
        ]

    def gate(self, key, cfg_dir, out):
        est, km = self.configs(key)
        eig = np.asarray(json.loads((out / "estimate.json").read_text())["eigvals"], dtype=float)
        _require(eig.shape == (FPCA_D,) and bool(np.isfinite(eig).all()), "eigenvalues missing or non-finite")
        _require(bool(np.all(np.diff(eig) <= 0.0)), "eigenvalues are not in descending order")
        curves = sorted(p.name for p in out.glob("point_*.csv"))
        _require(curves == sorted(f"point_{i + 1}.csv" for i in range(km["k"])),
                 f"expected one curve CSV per point, found {curves}")
        for name in curves:
            lines = (out / name).read_text().splitlines()
            _require(lines[0] == "t,value" and len(lines) == 1 + km["basis"]["grid_points"], f"{name} is malformed")
        return _check_pointset(out, km)

    def probe_case(self):
        km = self.configs(RepKey(0, 0))[1]
        return km["model"], km["n"], km["k"]


# How far a point may sit from its cell mean, in standard deviations.  At k=20
# the seed solver stops at max_iter=500 before its 1e-12 tolerance, with
# residuals up to 1.4e-5 on the t laws (1.5e-7 normal, 3.9e-7 mixture).
CELL_MEAN_TOL = {2: 1e-9, 5: 1e-9, 10: 1e-9, 20: 1e-4}


class Quantize1d(Workload):
    name = "quantize-1d"

    KS = (2, 5, 10, 20)

    def config(self, key: RepKey) -> dict:
        # One t law per rep keeps a rep near 4 s, so a run holds several reps.
        # Law parameters step through their ranges on a randomly shifted
        # lattice over the rep index, so every run covers each range evenly.
        shift = np.random.Generator(np.random.Philox(np.random.SeedSequence([key.seed, 7]))).random(3)
        u = (shift + key.index * np.array([(math.sqrt(5) - 1) / 2, math.sqrt(2) - 1, math.sqrt(3) - 1])) % 1.0
        nu, z2, p = 4.0 + 6.0 * u[0], 1.5 + 1.5 * u[1], 0.3 + 0.4 * u[2]
        laws = [{"kind": "gaussian"}, {"kind": "student_t", "nu": round(float(nu), 6)},
                {"kind": "two_point", "z1": 1.0, "z2": round(float(z2), 6), "p": round(float(p), 6)}]
        return {"ks": [2, 5] if self.smoke else list(self.KS), "laws": laws}

    def commands(self, key, cfg_dir, out):
        path = _write_config(cfg_dir / "sweep.json", self.config(key))
        script = str(Path(__file__).resolve().parent / "sweep_1d.py")
        return [(script, "--config", path, "--out", str(out))]

    def gate(self, key, cfg_dir, out):
        oracles = _oracles()
        payload = json.loads((out / "sweep.json").read_text())
        total = 0.0
        for entry in payload["laws"]:
            mixture = fq.ScaleMixture.from_dict(entry["mixture"])
            law = mixture.standardized_law()
            scale = math.sqrt(law.variance)
            pdf, core, tails = _oracle_pdf(law, oracles)
            for k in self.config(key)["ks"]:
                y = np.asarray(entry["points"][str(k)], dtype=float)
                _require(y.shape == (k,) and bool(np.all(np.diff(y) > 0)), f"{mixture.label()} k={k}: bad points")
                bounds = np.concatenate(([-np.inf], (y[1:] + y[:-1]) / 2.0, [np.inf]))
                for j in range(k):
                    m0, m1, _ = law.cell_moments(bounds[j], bounds[j + 1])
                    _require(abs(y[j] - m1 / m0) <= CELL_MEAN_TOL[k] * scale,
                             f"{mixture.label()} k={k}: point {j} is off its cell mean by {abs(y[j] - m1 / m0):.3g}")
                d_oracle = oracles.quantization_objective(pdf, y, -core, core, inf_tails=tails)
                d_law = law.expected_sq_distance(y)
                _require(abs(d_oracle - d_law) <= 1e-9 * law.variance,
                         f"{mixture.label()} k={k}: oracle distortion {d_oracle!r} != law {d_law!r}")
                total += d_oracle / law.variance
        for model in payload["models"]:
            if model["mixture"]["kind"] == "gaussian":
                _require(abs(model["g"] - (1.0 - 2.0 / math.pi)) <= 1e-9, f"{model['model']}: g={model['g']!r}")
            _require(len(model["two_points"]) == 2, f"{model['model']}: expected two points")
        return total


def _oracles():
    """The independent quadrature oracle shipped with the test suite."""
    tests = str(ROOT / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import oracles

    return oracles


def _oracle_pdf(law, oracles):
    """A pdf for the oracle, built from scipy rather than the law's own code."""
    if isinstance(law, fq.StudentTLaw):
        base = oracles.student_t_pdf(law.nu)
        return (lambda y: base(y / law.scale) / law.scale), 60.0 * law.scale, True
    weights, scales = law.weights, law.scales

    def pdf(y):
        return sum(w * oracles.normal_pdf(y / s) / s for w, s in zip(weights, scales))

    return pdf, 14.0 * max(scales), False


WORKLOADS = {w.name: w for w in (KmeansD3, VerifySuite, FpcaD64, Quantize1d)}
