"""Executable property checks for the identities behind the solvers.

Each check measures residuals against stated tolerances and returns a
structured :class:`VerificationReport`; a failing check reports
``passed=False`` instead of raising, so suites can aggregate.  Each check's
tolerances are fixed constants stated in its docstring, and every report
records the tolerances it was judged by.  They fall into three classes,
recorded per report: ``exact-algebra`` (1e-10 scale, identities that hold
up to rounding), ``quadrature`` (1e-6..1e-4, limited by the one-dimensional
solver), and ``monte-carlo`` (standard-error multiples or relative
percentages, limited by sampling).

Checks whose preconditions cannot be decided from data (for example span
comparisons under a nearly degenerate spectrum) come back flagged rather
than failed.  Every check judges only the draws and model it is handed:
:func:`reference_suite` alone draws and seeds samples, labels each report
with its model and seed, and times it.  The checks use no part of
scipy: their one-dimensional solves go through the laws' own special
function ports (see ``funquant.laws``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .basis import SubspaceSplit, random_orthogonal
from .errors import ShapeError, UsageError
from .estimates import principal_angles
from .laws import NormalMixtureLaw, UniformLaw, UnivariateLaw
from .models import EllipticalModel, ScaleMixture, conditional_slope, sample
from .quantize import (
    PointSet,
    assign,
    empirical_mse,
    g_constant,
    lloyd,
    self_consistency_residual,
    univariate_principal_points,
)

EXACT = "exact-algebra"
QUADRATURE = "quadrature"
MONTE_CARLO = "monte-carlo"


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check: residuals, tolerances, pass flag, runtime.

    ``runtime`` is set by :func:`reference_suite`, and the first report on a
    fixture covers building it; a check called directly leaves it at 0.0.
    """

    name: str
    params: dict
    residuals: dict
    tolerances: dict
    passed: bool
    tolerance_class: str
    flags: tuple[str, ...] = ()
    runtime: float = 0.0

    def to_dict(self) -> dict:
        # runtime deliberately left out: exported reports must be
        # byte-identical across reruns of the same config and seed.
        return {
            "name": self.name,
            "params": self.params,
            "residuals": self.residuals,
            "tolerances": self.tolerances,
            "passed": self.passed,
            "tolerance_class": self.tolerance_class,
            "flags": list(self.flags),
        }


def _finish(name, params, residuals, tolerances, tol_class, flags) -> VerificationReport:
    passed = all(v <= tolerances[key] for key, v in residuals.items())  # False for NaN
    return VerificationReport(
        name=name,
        params=params,
        residuals={k: float(v) for k, v in residuals.items()},
        tolerances={k: float(v) for k, v in tolerances.items()},
        passed=passed,
        tolerance_class=tol_class,
        flags=tuple(flags),
    )


def check_convex_hull(samples: np.ndarray, w: PointSet) -> VerificationReport:
    """The sample mean is sum_j p_j y_j, with p_j the share of the samples in y_j's domain.

    A self-consistent set has E X = sum_j P(X in D_j) y_j.  The shares are a
    point of the probability simplex, so the residual |sum_j p_j y_j - mean|
    bounds the mean's distance to the points' convex hull from above; as the
    mean is sum_j p_j mean_j, it is at most the self-consistency residual.
    Tolerance: 1e-3 times the root of the samples' total variance.
    """
    samples = np.asarray(samples, dtype=float)
    shares = assign(samples, w).counts / samples.shape[0]
    mean = samples.mean(axis=0)
    residual = float(np.linalg.norm(shares @ w.points - mean))
    tol = 1e-3 * math.sqrt(float(((samples - mean) ** 2).sum(axis=1).mean()))
    p = {"n": samples.shape[0], "k": w.k}
    return _finish("convex_hull", p, {"simplex_residual": residual}, {"simplex_residual": tol}, MONTE_CARLO, ())


def check_unitary_equivariance(
    samples: np.ndarray,
    w: PointSet,
    nu: np.ndarray,
    rho: float,
    u_mat: np.ndarray,
) -> VerificationReport:
    """Similarity transforms x -> nu + rho U x carry fixed points to fixed points.

    The mean squared error scales by exactly rho^2 and the self-consistency
    residual by |rho| (both to 1e-10), and re-running the solver from the
    transformed set (stopping tolerance 1e-8) moves no point by more than
    max(1e-8, 10 times the transformed residual).
    """
    if rho == 0:
        raise UsageError("rho must be nonzero")
    u_mat = np.asarray(u_mat, dtype=float)
    dev = np.abs(u_mat.T @ u_mat - np.eye(u_mat.shape[0])).max()
    if dev > 1e-10:
        raise ShapeError(f"transform matrix is not orthogonal (deviation {dev:.2e})")
    samples = np.asarray(samples, dtype=float)
    nu = np.asarray(nu, dtype=float)
    fixed_point_tol = 1e-8

    samples2 = nu + rho * (samples @ u_mat.T)
    w2 = PointSet(nu + rho * (w.points @ u_mat.T))

    mse1 = empirical_mse(samples, w)
    mse2 = empirical_mse(samples2, w2)
    res1 = self_consistency_residual(samples, w)
    res2 = self_consistency_residual(samples2, w2)

    refit, _ = lloyd(samples2, w.k, init=w2.points, tol=fixed_point_tol, max_iter=200)
    movement = float(np.linalg.norm(refit.points - w2.points, axis=1).max())

    residuals = {
        "mse_scaling": abs(mse2 / (rho**2 * mse1) - 1.0),
        "residual_scaling": abs(res2 - abs(rho) * res1),
        "lloyd_movement": movement,
    }
    tolerances = {
        "mse_scaling": 1e-10,
        "residual_scaling": 1e-10,
        "lloyd_movement": max(fixed_point_tol, 10.0 * res2),
    }
    p = {"n": samples.shape[0], "k": w.k, "rho": rho}
    return _finish("unitary_equivariance", p, residuals, tolerances, EXACT, ())


def check_kernel_orthogonality(samples: np.ndarray, w: PointSet, model: EllipticalModel) -> VerificationReport:
    """A fixed point ``w`` of draws of ``model`` carries no weight on the
    model's zero-eigenvalue coordinates (every entry there at most 1e-8)."""
    kernel = np.flatnonzero(model.lam == 0.0)
    if kernel.size == 0:
        raise UsageError("model has no zero eigenvalues; nothing to check")
    residual = float(np.abs(w.points[:, kernel]).max())
    p = {"model": model.label(), "n": len(samples), "k": w.k}
    return _finish("kernel_orthogonality", p, {"kernel_magnitude": residual},
                   {"kernel_magnitude": 1e-8}, EXACT, ())


def span_rank(svals: np.ndarray) -> tuple[int, bool]:
    """Rank of a span from singular values, with an ambiguity verdict.

    The rank counts singular values above 1e-6 times the largest one; a
    value between 1e-7 and 1e-5 of the largest sits too close to that
    cutoff to call, so the result is marked ambiguous.
    """
    svals = np.asarray(svals, dtype=float)
    if svals.size == 0 or svals[0] <= 0:
        return 0, False
    ratios = svals / svals[0]
    rank = int((ratios > 1e-6).sum())
    ambiguous = bool(np.any((ratios > 1e-7) & (ratios < 1e-5)))
    return rank, ambiguous


def _has_gap(lam: np.ndarray, q: int = 1) -> bool:
    """Whether ``lam`` falls by 1e-3 of its top value or more after its q-th value (or ends there)."""
    if q >= lam.size:
        return True
    top = float(lam[0]) if lam[0] > 0 else 1.0
    return float(lam[q - 1] - lam[q]) / top >= 1e-3


def check_eigen_span(samples: np.ndarray, w: PointSet, model: EllipticalModel, q_expected: int) -> VerificationReport:
    """Centered fixed points span leading eigendirections.

    ``w`` is a fixed point of ``samples``, draws of ``model``, whose
    eigendirections are the coordinate axes.  The span's rank is read off
    the singular values of the centered point matrix by :func:`span_rank`
    and must equal ``q_expected`` exactly; its principal angles against the
    top-q eigendirections must stay below 0.1.  Models whose spectrum falls
    by less than 1e-3 of its top value after the q-th value, and fixtures
    where a singular value sits near the rank cutoff, are flagged
    indeterminate instead of failed.
    """
    samples = np.asarray(samples, dtype=float)
    p = {"model": model.label(), "n": samples.shape[0], "k": w.k, "q_expected": q_expected}
    if not _has_gap(model.lam, q_expected):
        return _finish("eigen_span", p, {}, {}, MONTE_CARLO, ("degenerate-spectrum",))

    centered = w.points - samples.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered)
    rank, ambiguous = span_rank(svals)
    flags = ["ambiguous-rank"] if ambiguous else []
    if rank == 0 or flags:
        return _finish("eigen_span", p, {}, {}, MONTE_CARLO, tuple(flags) or ("zero-span",))

    max_angle = float(principal_angles(vt[:rank].T, np.eye(model.d)[:, :rank]).max())
    residuals = {"max_angle": max_angle, "rank_deviation": float(abs(rank - q_expected))}
    tolerances = {"max_angle": 0.1, "rank_deviation": 0.0}
    return _finish("eigen_span", p, residuals, tolerances, MONTE_CARLO, ())


def check_dimension_bound(samples: np.ndarray, w: PointSet) -> VerificationReport:
    """A k-point fixed point of ``samples``, centered at their mean, spans at most k-1 dimensions."""
    samples = np.asarray(samples, dtype=float)
    mean = samples.mean(axis=0)
    centered = w.points - mean
    svals = np.linalg.svd(centered, compute_uv=False)
    scale = math.sqrt(float(((samples - mean) ** 2).sum(axis=1).mean()))
    cutoff = 1e-6 * max(float(svals[0]), scale)
    rank = int((svals > cutoff).sum())
    residuals = {"rank_excess": float(max(0, rank - (w.k - 1)))}
    tolerances = {"rank_excess": 0.0}
    p = {"n": samples.shape[0], "k": w.k}
    return _finish("dimension_bound", p, residuals, tolerances, EXACT, ())


def check_projection_self_consistency(samples: np.ndarray, w: PointSet) -> VerificationReport:
    """Projecting onto the span of a fixed point preserves the fixed point.

    Distances to in-span points decompose orthogonally, so assignments are
    unchanged and the projected residual cannot exceed the original one
    (up to a relative 1e-9 plus 1e-12, with a floor of 1e-8).
    """
    samples = np.asarray(samples, dtype=float)
    _, svals, vt = np.linalg.svd(w.points)
    rank = int((svals > 1e-9 * svals[0]).sum()) if svals[0] > 0 else 0
    if rank == 0:
        p = {"n": samples.shape[0], "k": w.k}
        return _finish("projection_self_consistency", p, {}, {}, EXACT, ("zero-span",))
    basis_rows = vt[:rank]
    proj_samples = samples @ basis_rows.T
    proj_points = PointSet(w.points @ basis_rows.T)
    res_before = self_consistency_residual(samples, w)
    res_after = self_consistency_residual(proj_samples, proj_points)
    residuals = {"projected_residual": res_after}
    tolerances = {"projected_residual": max(1e-8, res_before * (1.0 + 1e-9) + 1e-12)}
    p = {"n": samples.shape[0], "k": w.k, "span_dim": rank}
    return _finish("projection_self_consistency", p, residuals, tolerances, EXACT, ())


def check_conditional_linearity(
    samples: np.ndarray, model: EllipticalModel, split: SubspaceSplit
) -> VerificationReport:
    """Least-squares slope of the complement block on the subspace block of
    ``samples``, draws of ``model``, matches the analytic regression
    operator; binned conditional means sit on the analytic line.

    Every entry of the estimated slope must sit within 4 of its sandwich
    standard errors of the analytic one, whether that entry is zero or not,
    so the bound follows the sampling noise at any n and any split.  The
    means over 10 quantile bins of the first subspace coordinate must each
    sit within 4 standard errors of the line (bins under 10 draws skipped).
    When every bin is skipped, as below 100 draws, the binned residual is
    left out and the report is flagged ``too-few-draws``, not passed.
    """
    slope = conditional_slope(model, split)
    samples = np.asarray(samples, dtype=float)
    w1 = samples @ split.u_basis.T
    w2 = samples @ split.complement.T
    w1c = w1 - w1.mean(axis=0)
    w2c = w2 - w2.mean(axis=0)
    solution, _, _, _ = np.linalg.lstsq(w1c, w2c, rcond=None)
    slope_hat = solution.T

    gram_inv = np.linalg.inv(w1c.T @ w1c)
    resid = w2c - w1c @ solution
    # sandwich standard errors: scale-mixture responses are heteroskedastic
    # in the regressor, so the plain OLS variance would understate
    se = np.empty_like(slope_hat)
    for i in range(resid.shape[1]):
        meat = w1c.T @ (w1c * resid[:, i : i + 1] ** 2)
        se[i] = np.sqrt(np.diag(gram_inv @ meat @ gram_inv))

    residuals = {"slope_max_z": float(np.max(np.abs(slope_hat - slope) / se))}
    tolerances = {"slope_max_z": 4.0}

    mu1 = split.u_basis @ model.mu
    mu2 = split.complement @ model.mu
    bins = 10
    edges = np.quantile(w1[:, 0], np.linspace(0.0, 1.0, bins + 1))
    bin_z = []
    for b in range(bins):
        lo, hi = edges[b], edges[b + 1]
        mask = (w1[:, 0] >= lo) & (w1[:, 0] <= hi if b == bins - 1 else w1[:, 0] < hi)
        count = int(mask.sum())
        if count < 10:
            continue
        pred = mu2 + slope @ (w1[mask].mean(axis=0) - mu1)
        observed = w2[mask].mean(axis=0)
        bin_se = w2[mask].std(axis=0, ddof=1) / math.sqrt(count)
        bin_z.append(float(np.max(np.abs(observed - pred) / bin_se)))
    if bin_z:
        residuals["binned_mean_max_z"] = max(bin_z)
        tolerances["binned_mean_max_z"] = 4.0

    p = {"model": model.label(), "n": samples.shape[0], "q": split.q}
    flags = () if bin_z else ("too-few-draws",)
    return _finish("conditional_linearity", p, residuals, tolerances, MONTE_CARLO, flags)


def check_ratio_invariance(law: UnivariateLaw, rhos, k: int, label: str = "") -> VerificationReport:
    """The scale-free quantization ratio D(k)/Var is invariant under scaling (spread at most 1e-6)."""
    rhos = [float(r) for r in rhos]
    if any(r == 0 for r in rhos):
        raise UsageError("scale factors must be nonzero")

    def ratio(one_law: UnivariateLaw) -> float:
        pts = univariate_principal_points(one_law, k)
        return one_law.expected_sq_distance(pts) / one_law.variance

    values = [ratio(law)] + [ratio(law.scaled(r)) for r in rhos]
    residuals = {"ratio_spread": float(max(values) - min(values))}
    tolerances = {"ratio_spread": 1e-6}
    p = {"law": label or type(law).__name__, "k": k, "rhos": rhos}
    return _finish("ratio_invariance", p, residuals, tolerances, QUADRATURE, ())


def check_mse_identity(samples: np.ndarray, model: EllipticalModel, directions) -> VerificationReport:
    """Two-point quantization error along a unit direction a equals
    trace(Cov) - (1 - g) <a, Cov a>, minimized at the top eigendirection.

    The error is measured on ``samples``, draws of ``model``.  Each
    direction's measured error must match the identity to 2%, and the
    measured and predicted minimizing directions must be the same one.
    """
    g = g_constant(model)
    ez2 = model.mixture.second_moment()
    trace_cov = ez2 * float(model.lam.sum())
    samples = np.asarray(samples, dtype=float)

    residuals = {}
    tolerances = {}
    measured = []
    predicted = []
    for i, a in enumerate(directions):
        a = np.asarray(a, dtype=float)
        if abs(float(np.linalg.norm(a)) - 1.0) > 1e-8:
            raise UsageError(f"direction {i} is not unit norm")
        shape_var = float(a @ (model.lam * a))
        law = model.mixture.projection_law(math.sqrt(shape_var))
        offsets = univariate_principal_points(law, 2)
        points = PointSet(model.mu + offsets[:, None] * a)
        mse = empirical_mse(samples, points)
        pred = trace_cov - (1.0 - g) * ez2 * shape_var
        measured.append(mse)
        predicted.append(pred)
        residuals[f"identity_rel_error_{i}"] = abs(mse / pred - 1.0)
        tolerances[f"identity_rel_error_{i}"] = 0.02
    residuals["argmin_mismatch"] = float(int(np.argmin(measured)) != int(np.argmin(predicted)))
    tolerances["argmin_mismatch"] = 0.0

    p = {"model": model.label(), "n": samples.shape[0], "directions": len(measured), "g": g}
    return _finish("mse_identity", p, residuals, tolerances, MONTE_CARLO, ())


def reference_models() -> list[EllipticalModel]:
    """Gaussian and t5 mixtures over the three reference spectra."""
    spectra = [(4.0, 1.0, 0.25), (1.0, 1.0, 1.0), (1.0, 0.0)]
    mixtures = [ScaleMixture.gaussian(), ScaleMixture.student_t(5.0)]
    return [EllipticalModel(mu=np.zeros(len(lam)), lam=np.array(lam), mixture=mixture)
            for lam in spectra for mixture in mixtures]


_N_MID = 50_000  # most draws of a shared Lloyd fixture; the Monte Carlo checks take the suite's full n
_FIXTURE_MAX_ITER = 1_000  # no fixture solve reaches it: the checks judge the identities of a fixed point
# What suite rows judge, as (k, seed offset from the model's base seed, most draws, restarts): per model,
# one k=3 and one k=2 Lloyd fixture shared by its checks on that k, whose identities hold at any fixed
# point (one k-means++ start), eigen_span's own larger one (best of 5: principal points), and (k=0: no
# solve) the Monte Carlo checks' draws.  The offsets are part of the exported reports.
_K3, _K2, _SPAN = (3, 1, _N_MID, 1), (2, 5, _N_MID, 1), (2, 4, 100_000, 5)
_MC8, _MC9 = (0, 8, math.inf, 0), (0, 9, math.inf, 0)


def _on_fixture(model, fixture, base, n, jobs):
    """Read-only draws of ``model`` for ``fixture`` at the model's ``base`` seed and, if k > 0, a k-point Lloyd
    fixed point on them from the fixture's restarts and whether it converged: where the suite draws and solves."""
    k, offset, most, restarts = fixture
    draws = sample(model, min(n, most), base + offset)
    draws.setflags(write=False)  # every check on the fixture shares them
    points, solved = lloyd(draws, k, tol=1e-10, max_iter=_FIXTURE_MAX_ITER, restarts=restarts, seed=base + offset,
                           jobs=jobs) if k else (None, None)
    return draws, points, solved is None or solved.converged


# The reference suite in report order.  Each model row names a check, the rule for the reference
# models it runs on (None: every model) and its fixture, and runs as run(model, base seed, draws,
# points).  The row without a fixture flags eigen_span, as the check would, on a model with no gap
# after its top value; it runs as run(model, base seed, n), before any draw.  The law rows run once,
# after every model.  Rows reach checks and solvers through this module's global names when they
# run, so a wrapper set on the module sees every call.
_MODEL_ROWS = (
    ("convex_hull", None, _K3, lambda m, s, x, w: check_convex_hull(x, w)),
    ("dimension_bound", None, _K3, lambda m, s, x, w: check_dimension_bound(x, w)),
    ("kernel_orthogonality", lambda m: np.any(m.lam == 0.0), _K2,
     lambda m, s, x, w: check_kernel_orthogonality(x, w, m)),
    ("eigen_span", lambda m: _has_gap(m.lam), _SPAN, lambda m, s, x, w: check_eigen_span(x, w, m, 1)),
    ("eigen_span", lambda m: not _has_gap(m.lam), None, lambda m, s, n: _finish("eigen_span", {
        "model": m.label(), "n": min(n, _SPAN[2]), "k": 2, "q_expected": 1, "seed": s + _SPAN[1]},
        {}, {}, MONTE_CARLO, ("degenerate-spectrum",))),
    ("projection_self_consistency", lambda m: _has_gap(m.lam), _K2,
     lambda m, s, x, w: check_projection_self_consistency(x, w)),
    ("unitary_equivariance", lambda m: _has_gap(m.lam), _K2, lambda m, s, x, w: check_unitary_equivariance(
        x, w, np.linspace(0.5, -0.5, m.d), 2.0, random_orthogonal(m.d, s + 7))),
    ("conditional_linearity", lambda m: m.lam[-1] > 0, _MC8, lambda m, s, x, w: check_conditional_linearity(
        x, m, SubspaceSplit(u_basis=random_orthogonal(m.d, s + 8)[:1]))),
    ("mse_identity", lambda m: _has_gap(m.lam) and m.lam[1] > 0, _MC9, lambda m, s, x, w: check_mse_identity(
        x, m, [*np.eye(m.d)[:2], np.eye(m.d)[:2].sum(axis=0) / math.sqrt(2.0)])),
)
_LAW_ROWS = (
    ("ratio_invariance", lambda: check_ratio_invariance(
        NormalMixtureLaw(weights=(1.0,), scales=(1.0,)), [0.5, 2.0, 10.0], 2, label="normal")),
    ("ratio_invariance", lambda: check_ratio_invariance(
        UniformLaw(0.0, 1.0), [0.5, 2.0, 10.0], 3, label="uniform(0,1)")),
)

ALL_CHECKS = tuple(dict.fromkeys(row[0] for row in _MODEL_ROWS + _LAW_ROWS))

# The fewest draws the suite takes: its largest Lloyd fixture has k = 3 points.
SUITE_MIN_N = 3


def reference_suite(seed: int = 0, n: int = 200_000, checks=None, jobs: int = 1) -> list[VerificationReport]:
    """Run the selected checks over the reference models.

    ``checks`` is a list of names from :data:`ALL_CHECKS` (default: all), and ``n`` is at least
    :data:`SUITE_MIN_N`.  The suite alone draws samples, from seeds derived from ``seed`` so that runs
    are reproducible and independent of execution order.  It labels each report with its model and
    seed and sets its ``runtime`` (0.0 for a check called directly).  A model's checks on one k share
    one Lloyd fixture (``eigen_span`` has its own), drawn and solved when a selected check first needs
    it, so a subset run judges the same fixture as a full run, and dropped after the model's checks.
    The first report on a fixture carries its build time, so the runtimes add up to the suite's time.
    The fixtures of the checks that hold at any fixed point take one k-means++ start; ``jobs`` threads
    run the five restarts of ``eigen_span``'s.  A report judged on a fixture whose solve stopped at its
    step cap is flagged ``unconverged-fixture``.
    """
    selected = list(ALL_CHECKS) if checks is None else list(checks)
    unknown = [c for c in selected if c not in ALL_CHECKS]
    if unknown:
        raise UsageError(f"unknown checks: {unknown}; expected names from {ALL_CHECKS}")
    if n < SUITE_MIN_N:
        raise UsageError(f"n must be >= {SUITE_MIN_N} (the largest fixture k), got {n}")

    reports: list[VerificationReport] = []
    for idx, model in enumerate(reference_models()):
        base, fixtures = seed + 1000 * idx, {}
        for name, applies, fixture, run in _MODEL_ROWS:
            if name not in selected or not (applies is None or applies(model)):
                continue
            started = time.perf_counter()
            if fixture is None:
                report = run(model, base, n)
            else:
                draws, points, converged = fixtures.get(fixture) or _on_fixture(model, fixture, base, n, jobs)
                if fixture[0]:  # a Lloyd fixture serves the model's other checks on its k; plain draws serve one
                    fixtures[fixture] = draws, points, converged
                report = run(model, base, draws, points)
                report = replace(report, params={**report.params, "model": model.label(), "seed": base + fixture[1]},
                                 flags=report.flags + (() if converged else ("unconverged-fixture",)))
            reports.append(replace(report, runtime=time.perf_counter() - started))
    for name, run in _LAW_ROWS:
        if name in selected:
            started = time.perf_counter()
            reports.append(replace(run(), runtime=time.perf_counter() - started))
    return reports
