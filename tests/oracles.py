"""Independent oracles used to freeze expected values.

The quantization oracle never touches the package's cell-moment or
fixed-point machinery: it evaluates E[min_j (Y - y_j)^2] by numeric
quadrature of ``min`` against a pdf callable (panel-wise Gauss-Legendre
between cell boundaries, so every panel integrand is smooth, plus a
1/y-substituted panel for each infinite tail) and minimizes that objective
directly by coarse grid search with Nelder-Mead refinement.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import minimize
from scipy.stats import norm as _norm

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(48)


def _gl_panel(f, a: float, b: float) -> float:
    half = 0.5 * (b - a)
    y = 0.5 * (a + b) + half * _NODES
    return half * float(np.sum(_WEIGHTS * f(y)))


def quantization_objective(
    pdf, points, core_lo: float, core_hi: float, inf_tails: bool = False, max_panel: float = 1.0
) -> float:
    """E[min_j (Y - y_j)^2] by Gauss-Legendre panels split at cell boundaries.

    The core interval is integrated in panels no wider than ``max_panel``;
    with ``inf_tails`` the mass outside the core is captured exactly through
    the substitution u = 1/y (needs core_lo < 0 < core_hi).
    """
    pts = np.sort(np.asarray(points, dtype=float))

    def integrand(y):
        d2 = np.min((y[:, None] - pts[None, :]) ** 2, axis=1)
        return d2 * pdf(y)

    breaks = (pts[1:] + pts[:-1]) / 2.0
    edges = np.concatenate(
        ([core_lo], breaks[(breaks > core_lo) & (breaks < core_hi)], [core_hi])
    )
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        n_sub = max(1, int(np.ceil((b - a) / max_panel)))
        sub = np.linspace(a, b, n_sub + 1)
        for sa, sb in zip(sub[:-1], sub[1:]):
            total += _gl_panel(integrand, sa, sb)
    if inf_tails:
        assert core_lo < 0 < core_hi
        total += _gl_panel(lambda u: integrand(1.0 / u) / u**2, 1e-30, 1.0 / core_hi)
        total += _gl_panel(lambda u: integrand(-1.0 / u) / u**2, 1e-30, -1.0 / core_lo)
    return total


def brute_force_principal_points(
    pdf,
    k: int,
    lo: float,
    hi: float,
    inf_tails: bool = False,
    coarse: int = 25,
    max_panel: float = 1.0,
    search_span: tuple[float, float] | None = None,
) -> tuple[np.ndarray, float]:
    """Grid search over sorted k-tuples, refined locally with Nelder-Mead."""
    span = search_span if search_span is not None else (lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo))
    grid = np.linspace(span[0], span[1], coarse)
    scored = []
    for combo in itertools.combinations(range(coarse), k):
        x = grid[list(combo)]
        val = quantization_objective(pdf, x, lo, hi, inf_tails=inf_tails, max_panel=4 * max_panel)
        scored.append((val, tuple(x)))
    scored.sort()

    def objective(x):
        return quantization_objective(pdf, x, lo, hi, inf_tails=inf_tails, max_panel=max_panel)

    best_x, best_val = None, np.inf
    for _, start in scored[:3]:
        res = minimize(
            objective, np.array(start), method="Nelder-Mead",
            options={"xatol": 1e-11, "fatol": 1e-15, "maxiter": 4000, "maxfev": 6000},
        )
        if res.fun < best_val:
            best_val, best_x = float(res.fun), np.sort(res.x)
    return best_x, best_val


# Reference Lloyd: the distance and domain-mean code of funquant 0.1.0, one
# full (n, k, d) difference tensor per pass and one boolean mask per domain.
# The blocked kernel and bincount means of funquant.quantize must reproduce
# it bit for bit for d >= 2 (for d = 1 numpy's mean sums a domain pairwise,
# bincount sequentially, so the last bit may differ).


def reference_sq_distances(samples, points):
    diff = samples[:, None, :] - points[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def reference_residual(samples, points):
    labels = reference_sq_distances(samples, points).argmin(axis=1)
    worst = 0.0
    for j in range(points.shape[0]):
        mask = labels == j
        if not mask.any():
            return float("inf")
        worst = max(worst, float(np.linalg.norm(samples[mask].mean(axis=0) - points[j])))
    return worst


def reference_lloyd_once(samples, k, tol, max_iter, points):
    """(points, final mse, iterations, converged, mse history) from one start."""
    n = samples.shape[0]
    points = np.array(points, dtype=float)
    mse_history = []
    converged = False
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        d2 = reference_sq_distances(samples, points)
        labels = d2.argmin(axis=1)
        mse_history.append(float(d2[np.arange(n), labels].mean()))
        new_points = points.copy()
        empty = []
        for j in range(k):
            mask = labels == j
            if mask.any():
                new_points[j] = samples[mask].mean(axis=0)
            else:
                empty.append(j)
        for j in empty:
            far = reference_sq_distances(samples, new_points).min(axis=1)
            new_points[j] = samples[int(far.argmax())]
        shift = float(np.linalg.norm(new_points - points, axis=1).max())
        points = new_points
        if shift < tol:
            converged = True
            break
    final_mse = float(reference_sq_distances(samples, points).min(axis=1).mean())
    mse_history.append(final_mse)
    return points, final_mse, iterations, converged, tuple(mse_history)


def reference_kmeanspp_init(samples, k, rng):
    """k-means++ starts, each pick's squared distances summed along the sample rows."""
    n = samples.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((samples - samples[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        # with every distance zero, the lowest row not yet chosen
        idx = int(rng.choice(n, p=d2 / total)) if total > 0.0 else next(i for i in range(n) if i not in chosen)
        chosen.append(idx)
        d2 = np.minimum(d2, ((samples - samples[idx]) ** 2).sum(axis=1))
    return samples[chosen]


def reference_lloyd(samples, k, init=None, tol=1e-8, max_iter=300, restarts=10, seed=0):
    """Best run as (points, final mse, iterations, converged, mse history, residual).

    Restart streams and k-means++ starts are drawn as ``lloyd`` draws them,
    the starts by ``reference_kmeanspp_init``.
    """
    if init is not None:
        starts = [init]
    else:
        streams = np.random.SeedSequence([seed, 1]).spawn(restarts)
        starts = [reference_kmeanspp_init(samples, k, np.random.Generator(np.random.Philox(s))) for s in streams]
    runs = [reference_lloyd_once(samples, k, tol, max_iter, start) for start in starts]
    best = runs[min(range(len(runs)), key=lambda r: (runs[r][1], r))]
    return best + (reference_residual(samples, best[0]),)


def normal_pdf(y):
    return _norm.pdf(y)


def student_t_pdf(nu: float):
    from scipy.stats import t as _t

    return lambda y: _t.pdf(y, df=nu)


def uniform_pdf(lo: float, hi: float):
    def pdf(y):
        y = np.asarray(y, dtype=float)
        return np.where((y >= lo) & (y <= hi), 1.0 / (hi - lo), 0.0)

    return pdf


def gauss_hermite_objective(points, mean: float = 0.0, sd: float = 1.0, n_nodes: int = 128) -> float:
    """Gauss-Hermite cross-check of the objective for normal laws."""
    x, w = np.polynomial.hermite.hermgauss(n_nodes)
    y = np.sqrt(2.0) * sd * x + mean
    pts = np.asarray(points, dtype=float)
    d2 = np.min((y[:, None] - pts[None, :]) ** 2, axis=1)
    return float(np.sum(w * d2) / np.sqrt(np.pi))


# Frozen oracle outputs (recomputed in test_quantize.py::test_oracle_reproduces_frozen_values):
#   brute_force_principal_points(normal_pdf, k, -13, 13, search_span=(-4, 4))
#   brute_force_principal_points(uniform_pdf(0, 1), k, 0, 1, max_panel=0.2)
#   brute_force_principal_points(student_t_pdf(5), k, -30, 30, inf_tails=True,
#                                max_panel=2.0, search_span=(-5, 5))
NORMAL_K2 = (-0.797884560803, 0.797884560803)
NORMAL_K2_MSE = 0.363380227632
NORMAL_K3 = (-1.224006361925, 0.0, 1.224006361925)
NORMAL_K3_MSE = 0.190174039248
UNIFORM01_K2 = (0.25, 0.75)
UNIFORM01_K2_MSE = 1.0 / 48.0
UNIFORM01_K3 = (1.0 / 6.0, 0.5, 5.0 / 6.0)
UNIFORM01_K3_MSE = 1.0 / 108.0
T5_K2 = (-0.949016724556, 0.949016724556)
T5_K2_MSE = 0.766033923179
T5_K3 = (-1.640595246371, 0.0, 1.640595246371)
T5_K3_MSE = 0.457163873333
G_GAUSSIAN = 0.363380227632
G_T5 = 0.459620353908
