"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from funquant import (
    EllipticalModel,
    ScaleMixture,
    SubspaceSplit,
    UniformLaw,
    check_conditional_linearity,
    check_convex_hull,
    check_dimension_bound,
    check_kernel_orthogonality,
    check_ratio_invariance,
    check_unitary_equivariance,
    closed_form_two_points,
    covariance_operator,
    empirical_mse,
    g_constant,
    lloyd,
    principal_angles,
    random_orthogonal,
    reference_models,
    sample,
    univariate_principal_points,
)

import oracles
from oracles import normal_law


def ok(number: int, message: str) -> None:
    print(f"\n[PASS] criterion {number}: {message}")


@pytest.fixture(scope="module")
def gaussian_425():
    return EllipticalModel(
        mu=np.zeros(3), lam=np.array([4.0, 1.0, 0.25]), mixture=ScaleMixture.gaussian()
    )


@pytest.fixture(scope="module")
def t5_425():
    return EllipticalModel(
        mu=np.zeros(3), lam=np.array([4.0, 1.0, 0.25]), mixture=ScaleMixture.student_t(5.0)
    )


def test_criterion_1_univariate_oracle_agreement():
    started = time.perf_counter()

    solver_normal = univariate_principal_points(normal_law(), 2)
    oracle_normal, _ = oracles.brute_force_principal_points(
        oracles.normal_pdf, 2, -13, 13, search_span=(-4, 4)
    )
    np.testing.assert_allclose(solver_normal, oracle_normal, atol=1e-4)
    np.testing.assert_allclose(solver_normal, [-0.79788, 0.79788], atol=1e-4)

    solver_uniform = univariate_principal_points(UniformLaw(0.0, 1.0), 2)
    oracle_uniform, _ = oracles.brute_force_principal_points(
        oracles.uniform_pdf(0.0, 1.0), 2, 0.0, 1.0, max_panel=0.2
    )
    np.testing.assert_allclose(solver_uniform, oracle_uniform, atol=1e-6)
    np.testing.assert_allclose(solver_uniform, [0.25, 0.75], atol=1e-6)

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    ok(1, f"solver matches brute-force oracle (normal 1e-4, uniform 1e-6) in {elapsed:.1f}s")


def test_criterion_2_two_point_recovery_end_to_end(gaussian_425):
    started = time.perf_counter()
    draws = sample(gaussian_425, 100_000, seed=42)
    points, report = lloyd(draws, 2, tol=1e-10, restarts=10, seed=42)

    expected = 2.0 * 0.797884560803
    found = points.points[np.argsort(points.points[:, 0])]
    target = np.array([[-expected, 0.0, 0.0], [expected, 0.0, 0.0]])
    np.testing.assert_allclose(found, target, atol=0.05)

    direction = points.points[1] - points.points[0]
    direction = direction / np.linalg.norm(direction)
    angle = principal_angles(direction[:, None], np.eye(3)[:, :1])[0]
    assert angle < 0.1

    closed = closed_form_two_points(gaussian_425)
    closed_sorted = closed.points[np.argsort(closed.points[:, 0])]
    np.testing.assert_allclose(found, closed_sorted, atol=0.05)

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    ok(2, f"k=2 solver recovers +-{expected:.5f} phi_1 (angle {angle:.3f} rad) in {elapsed:.1f}s")


def test_criterion_3_mse_identity(gaussian_425, t5_425):
    started = time.perf_counter()

    g_gauss = g_constant(gaussian_425)
    assert abs(g_gauss - 0.36338) < 1e-4

    for model in (gaussian_425, t5_425):
        g = g_constant(model)
        gamma = covariance_operator(model)
        predicted = float(np.trace(gamma)) - (1.0 - g) * float(gamma[0, 0])
        draws = sample(model, 200_000, seed=7)
        measured = empirical_mse(draws, closed_form_two_points(model))
        assert abs(measured / predicted - 1.0) < 0.02

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    ok(3, f"mse at closed-form points matches trace identity within 2% (g={g_gauss:.5f}) in {elapsed:.1f}s")


def test_criterion_4_similarity_equivariance(gaussian_425):
    draws = sample(gaussian_425, 50_000, seed=11)
    points, _ = lloyd(draws, 2, tol=1e-11, restarts=5, seed=11)
    report = check_unitary_equivariance(
        draws, points, nu=np.array([0.3, -0.7, 1.1]), rho=2.0,
        u_mat=random_orthogonal(3, seed=99),
    )
    assert report.passed
    assert report.residuals["mse_scaling"] < 1e-10
    assert report.residuals["residual_scaling"] < 1e-10
    ok(4, "similarity transform scales mse by exactly rho^2 and residual by |rho| (1e-10)")


def test_criterion_5_kernel_orthogonality():
    model = EllipticalModel(
        mu=np.zeros(4), lam=np.array([2.0, 1.0, 0.0, 0.0]), mixture=ScaleMixture.gaussian()
    )
    draws = sample(model, 50_000, seed=5)
    points, _ = lloyd(draws, 3, tol=1e-10, restarts=5, seed=5)
    report = check_kernel_orthogonality(draws, points, model)
    assert report.passed
    assert report.residuals["kernel_magnitude"] < 1e-12
    ok(5, "all solver points carry < 1e-12 on zero-eigenvalue coordinates")


def test_criterion_6_conditional_mean_linearity():
    for mixture in (ScaleMixture.gaussian(), ScaleMixture.student_t(5.0)):
        model = EllipticalModel(mu=np.zeros(2), lam=np.array([2.0, 1.0]), mixture=mixture)
        rotated = SubspaceSplit(u_basis=random_orthogonal(2, seed=6)[:1])
        report = check_conditional_linearity(sample(model, 200_000, 6), model, rotated)
        assert report.passed
        assert report.residuals["slope_max_z"] < 4.0

        aligned = SubspaceSplit(u_basis=np.eye(2)[:1])
        report = check_conditional_linearity(sample(model, 200_000, 16), model, aligned)
        assert report.passed
        assert report.residuals["slope_max_z"] < 4.0
    ok(6, "regression slope matches the analytic operator within 4 SE (rotated and aligned)")


def test_criterion_7_scale_ratio_invariance():
    for law, label in ((normal_law(), "normal"), (UniformLaw(0.0, 1.0), "uniform")):
        report = check_ratio_invariance(law, [0.5, 1.0, 2.0, 10.0], 2, label=label)
        assert report.passed
        assert report.residuals["ratio_spread"] < 1e-6
    ok(7, "D(2)/Var invariant across rho in {0.5, 1, 2, 10} within 1e-6")


def test_criterion_8_dimension_bound_and_convex_hull():
    for idx, model in enumerate(reference_models()):
        draws = sample(model, 20_000, seed=800 + idx)
        for k in (2, 3):
            points, _ = lloyd(draws, k, tol=1e-10, restarts=5, seed=800 + idx)
            bound_report = check_dimension_bound(draws, points)
            assert bound_report.passed, (model.label(), k, bound_report.residuals)

            hull_report = check_convex_hull(draws, points)
            assert hull_report.passed, (model.label(), k, hull_report.residuals)
            trace_cov = float(np.trace(covariance_operator(model)))
            if trace_cov > 0:
                assert hull_report.residuals["simplex_residual"] < 1e-3 * np.sqrt(trace_cov)
    ok(8, "centered rank <= k-1 and mean in convex hull for all reference runs")


def test_criterion_9_cli_byte_determinism(tmp_path):
    root = Path(__file__).parent.parent

    def run(task, cfg_path, out_dir, jobs="1"):
        result = subprocess.run(
            [sys.executable, "-m", "funquant", task, "--config", str(cfg_path),
             "--out", str(out_dir), "--jobs", jobs],
            capture_output=True, text=True, cwd=root,
        )
        assert result.returncode == 0, result.stderr
        return {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir())}

    model = {"d": 3, "mu": [0.0, 0.0, 0.0], "lambda": [4.0, 1.0, 0.25],
             "mixture": {"kind": "student_t", "nu": 5.0}}
    configs = {
        "simulate": {"model": model, "task": "simulate", "n": 50, "seed": 3},
        "kmeans": {"model": model, "task": "kmeans", "n": 4000, "k": 3,
                   "restarts": 4, "tol": 1e-9, "seed": 3},
        "verify": {"task": "verify", "n": 4000, "seed": 3,
                   "checks": ["dimension_bound", "kernel_orthogonality", "eigen_span", "ratio_invariance"]},
    }
    for task, cfg in configs.items():
        cfg_path = tmp_path / f"{task}.json"
        cfg_path.write_text(json.dumps(cfg))
        first = run(task, cfg_path, tmp_path / f"{task}_1", jobs="1")
        second = run(task, cfg_path, tmp_path / f"{task}_2", jobs="1")
        parallel = run(task, cfg_path, tmp_path / f"{task}_4", jobs="4")
        assert first == second, f"{task}: rerun changed bytes"
        assert first == parallel, f"{task}: --jobs changed bytes"
    ok(9, "simulate/kmeans/verify reruns byte-identical, including under --jobs 4")
