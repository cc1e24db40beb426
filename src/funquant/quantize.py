"""Solvers for self-consistent sets and principal points.

``lloyd`` alternates nearest-point assignment with domain-mean updates on
sample matrices, with k-means++ style seeding, multiple restarts and
farthest-point re-seeding of empty domains.  ``univariate_principal_points``
is the one-dimensional solver driven by exact cell moments of a law, used
both for the closed-form two-point solution along the leading
eigendirection and for the scale-free quantization constant ``g``.  It makes
Newton steps on the expected squared distance: one array ``cell_moments``
call gives every cell's mass and moments, and the Hessian is tridiagonal,
so each step is one L D L^T solve (``_solve_tridiagonal``) and the
iteration converges quadratically.  Where the Hessian is not positive
definite, or a step would break the points' order, it falls back to one
Lloyd-Max step (each point to its cell mean).  Cell masses are tail-exact
(see ``funquant.laws``), so far tail cells keep their conditional means.

One blocked kernel, ``_nearest``, labels every sample with its nearest
point.  It ranks the points by the expansion |c|^2 - 2 x.c, taking the
cross terms of a block of rows from one BLAS product, on samples and points
shifted by the sample mean, so a large mean costs no precision.  A rounding
bound set by the dtype, d and the centered norms marks every row whose two
best values are too close to call, exact ties included; those rows are
ranked again by the difference formula sum_i (x_i - c_i)^2.  So labels are
exactly the difference formula's, ties go to the lowest index, and runs are
reproducible.  A Lloyd step reads only labels: ``_sq_distances``, the
difference formula on each row's labelled point, runs only where distances
are read.  Memory is O(n k), plus one workspace per ``jobs`` thread (a
(k, rows) block of at most 8 MiB, a (2, rows) tally, a (rows, d) gather
buffer, n labels and distances), plus the centered copy and (d, n) column
copy ``lloyd`` shares and seeds from.  ``_domain_means`` computes every
domain mean.  Indices are 0-based throughout.  The module loads numpy
only, and so does the one-dimensional solver, through the law's own
methods (see ``funquant.laws``).
"""

from __future__ import annotations

import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateDirectionError, InsufficientDataError, ShapeError, UsageError
from .laws import UnivariateLaw
from .models import EllipticalModel
from ._io import write_json


@dataclass(frozen=True)
class PointSet:
    """An ordered set of k candidate points in coefficient space."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float, copy=True)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ShapeError(f"points must form a non-empty (k, d) matrix, got shape {pts.shape}")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def k(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class AttractionAssignment:
    """Nearest-point labels (0-based) and per-domain counts."""

    labels: np.ndarray
    counts: np.ndarray


@dataclass(frozen=True)
class LloydReport:
    iterations: int
    final_mse: float
    self_consistency_residual: float
    restarts_used: int
    converged: bool


# Cap on the bytes of a ``_nearest`` block's (k, rows) expanded distances; ``_sq_distances`` gathers as many rows.
_BLOCK_BYTES = 8 << 20


def _centered(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The samples less their mean, that mean, and each centered row's norm."""
    n = samples.shape[0]
    shift = np.ones(n) @ samples / max(1, n)
    centered = samples - shift
    return centered, shift, np.sqrt(np.einsum("nd,nd->n", centered, centered))


def _repair(samples: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Nearest-point labels by the difference formula, ties to the lowest index."""
    diff = samples[:, None, :] - points[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff).argmin(axis=1)


class _Workspace:
    """One thread's ``_nearest`` and ``_sq_distances`` buffers, ``rows`` a block (``_BLOCK_BYTES`` read when made)."""

    def __init__(self, n: int, k: int, d: int):
        self.rows = max(1, min(n, _BLOCK_BYTES // (8 * max(k, d))))
        # flat, so a short last block takes a contiguous (k, rows) or (2, rows) prefix
        self.expanded, self.tally = np.empty(k * self.rows), np.empty(2 * self.rows)
        self.row_min, self.bound = np.empty((2, self.rows))
        self.gather = np.empty((self.rows, d))
        self.labels, self.d2min = np.empty(n, dtype=np.intp), np.empty(n)


def _nearest(samples: np.ndarray, points: np.ndarray, centered=None, work=None) -> np.ndarray:
    """Nearest-point labels, ties to the lowest index.

    The labels are exactly those of the difference formula sum_i (x_i - c_i)^2.
    Points are ranked by the expansion |c|^2 - 2 x.c on samples and points
    shifted by the sample mean, with the cross terms of a block of rows from
    one BLAS product (|x|^2 is the same for every point of a row and is
    dropped).  The expansion and the difference formula each differ from the
    exact distance by at most about (d + 3) eps/2 R^2 per point, where
    R = |x - s| + max_j |c_j - s| and s is the shift, so a row whose two best
    expanded values lie more than (2d + 8) eps R^2 apart has the same nearest
    point under both.  The (2, rows) tally, [1 ... 1; 0 ... k-1] times the 0/1
    mask of points that close to a row's best, counts them and sums their indices
    exactly; a row with one takes the sum as its label, and any other, exact
    ties included, is ranked again by the difference formula.  ``centered`` is
    ``_centered(samples)`` when the caller has it.  Blocks write into ``work``
    (new when None); its labels are returned, and overwritten by its next call.
    """
    x, shift, norms = _centered(samples) if centered is None else centered
    n, d = samples.shape
    k = points.shape[0]
    work = _Workspace(n, k, d) if work is None else work
    c = points - shift
    c2 = np.einsum("kd,kd->k", c, c)
    cross = -2.0 * c
    reach = np.sqrt(c2.max())
    slack = (2 * d + 8) * np.finfo(samples.dtype).eps
    # the floor covers the absolute rounding of gradual underflow
    floor = np.finfo(samples.dtype).tiny
    weights = np.vstack([np.ones(k), np.arange(k)])
    repair_rows = max(1, _BLOCK_BYTES // (8 * points.size))
    labels = work.labels
    for start in range(0, n, work.rows):
        stop = min(start + work.rows, n)
        m = stop - start
        expanded = np.matmul(cross, x[start:stop].T, out=work.expanded[:k * m].reshape(k, m))
        expanded += c2[:, None]
        bound = np.add(norms[start:stop], reach, out=work.bound[:m])
        np.square(bound, out=bound)
        bound *= slack
        bound += floor
        row_min = expanded.min(axis=0, out=work.row_min[:m])
        row_min += bound
        close = np.less_equal(expanded, row_min, out=expanded)  # the spent block takes the mask as 0.0/1.0
        counts, index_sum = np.matmul(weights, close, out=work.tally[:2 * m].reshape(2, m))
        labels[start:stop] = index_sum
        near = start + np.flatnonzero(np.not_equal(counts, 1.0, out=close[0]))  # close[0] is spent by now
        for first in range(0, near.size, repair_rows):
            tied = near[first:first + repair_rows]
            labels[tied] = _repair(samples[tied], points)
    return labels


def _sq_distances(samples: np.ndarray, points: np.ndarray, labels: np.ndarray, work=None) -> np.ndarray:
    """Each row's squared distance to its labelled point by the difference formula, in ``work.d2min``."""
    n = samples.shape[0]
    work = _Workspace(n, *points.shape) if work is None else work
    for start in range(0, n, work.rows):
        stop = min(start + work.rows, n)
        # labels are in range, and "clip" writes straight into ``out``
        diff = points.take(labels[start:stop], axis=0, out=work.gather[:stop - start], mode="clip")
        np.subtract(samples[start:stop], diff, out=diff)
        np.einsum("nd,nd->n", diff, diff, out=work.d2min[start:stop])
    return work.d2min


def _domain_means(columns: np.ndarray, labels: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean of each domain's samples (zero rows for empty domains) and counts, from (d, n) columns."""
    counts = np.bincount(labels, minlength=k)
    sums = np.zeros((k, columns.shape[0]))
    for j, column in enumerate(columns):
        sums[:, j] = np.bincount(labels, weights=column, minlength=k)
    return sums / np.maximum(counts, 1)[:, None], counts


def _residual(columns: np.ndarray, labels: np.ndarray, points: np.ndarray) -> float:
    means, counts = _domain_means(columns, labels, points.shape[0])
    if not counts.all():
        return float("inf")
    return max(float(np.linalg.norm(m - p)) for m, p in zip(means, points))


def min_distance(v, w: PointSet) -> tuple[float, int]:
    """Distance from v to its nearest point and that point's (0-based) index, ties to the lowest."""
    v = np.asarray(v, dtype=float)
    if v.shape != (w.d,):
        raise ShapeError(f"vector must have shape ({w.d},), got {v.shape}")
    row = _check_samples(v[None, :])
    labels = _nearest(row, w.points)
    return float(np.sqrt(_sq_distances(row, w.points, labels)[0])), int(labels[0])


def assign(samples: np.ndarray, w: PointSet) -> AttractionAssignment:
    """Domain-of-attraction labels for every sample row."""
    labels = _nearest(_check_samples(samples, w.d), w.points)
    return AttractionAssignment(labels=labels, counts=np.bincount(labels, minlength=w.k))


def empirical_mse(samples: np.ndarray, w: PointSet) -> float:
    """Average squared distance to the nearest point of the set."""
    samples = _check_samples(samples, w.d)
    return float(_sq_distances(samples, w.points, _nearest(samples, w.points)).mean())


def self_consistency_residual(samples: np.ndarray, w: PointSet) -> float:
    """max_j || mean(samples in domain j) - y_j ||.

    An empty domain is reported as ``inf`` rather than silently skipped.
    """
    samples = _check_samples(samples, w.d)
    return _residual(samples.T, _nearest(samples, w.points), w.points)


def quantizer_variable(samples: np.ndarray, w: PointSet) -> np.ndarray:
    """The nearest-point quantizer: row j maps to its assigned point."""
    return w.points[_nearest(_check_samples(samples, w.d), w.points)]


def _check_samples(samples, d: int | None = None) -> np.ndarray:
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ShapeError(f"samples must be a 2-d matrix, got shape {samples.shape}")
    if d is not None and samples.shape[1] != d:
        raise ShapeError(f"samples have dimension {samples.shape[1]}, point set has {d}")
    if not np.isfinite(samples).all():
        raise UsageError("samples must be finite; found NaN or infinite entries")
    return samples


def _kmeanspp_init(samples: np.ndarray, columns: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = samples.shape[0]
    chosen = [int(rng.integers(n))]
    d2, dist, term = np.full(n, np.inf), np.empty(n), np.empty(n)
    for _ in range(1, k):
        dist.fill(0.0)  # the last pick's squared distances, summed over the columns in coordinate order
        for column, c in zip(columns, samples[chosen[-1]]):
            dist += np.square(np.subtract(column, c, out=term), out=term)
        total = np.minimum(d2, dist, out=d2).sum()
        # with every distance zero, the lowest row not yet chosen
        idx = int(rng.choice(n, p=d2 / total)) if total > 0.0 else next(i for i in range(n) if i not in chosen)
        chosen.append(idx)
    return samples[chosen]


def _lloyd_once(samples, centered, columns, points, tol, max_iter, work):
    # One run from the start ``points``, which it never writes to.  Steps read only labels, and one
    # array in ``work`` is enough: the domain means read them before the next ``_nearest`` writes them.
    # The assignment made after the last update gives the final mse and residual.
    k = points.shape[0]
    labels = _nearest(samples, points, centered, work)
    converged, iterations = False, 0
    while iterations < max_iter and not converged:
        iterations += 1
        means, counts = _domain_means(columns, labels, k)
        new_points = np.where(counts[:, None] > 0, means, points)
        for j in np.flatnonzero(counts == 0):
            # re-seed to the sample farthest from the current set; keeps k fixed
            far = _sq_distances(samples, new_points, _nearest(samples, new_points, centered, work), work)
            new_points[j] = samples[int(far.argmax())]
        converged = float(np.linalg.norm(new_points - points, axis=1).max()) < tol
        points = new_points
        labels = _nearest(samples, points, centered, work)
    return points, LloydReport(
        iterations=iterations,
        final_mse=float(_sq_distances(samples, points, labels, work).mean()),
        self_consistency_residual=_residual(columns, labels, points),
        restarts_used=1,
        converged=converged,
    )


def lloyd(
    samples: np.ndarray,
    k: int,
    init="kmeans++",
    tol: float = 1e-8,
    max_iter: int = 300,
    restarts: int = 10,
    seed: int = 0,
    jobs: int = 1,
) -> tuple[PointSet, LloydReport]:
    """Alternate assignment and domain means until the point shift is below tol.

    ``init`` is either ``"kmeans++"`` (seeded squared-distance sampling,
    one independent stream per restart) or an explicit, finite (k, d) array
    of starting points, in which case a single run is performed.  Empty
    domains re-seed their point to the farthest sample.  The restart with
    the lowest final mean squared error wins; ties go to the lowest
    restart index, so the result does not depend on ``jobs``.
    """
    samples = _check_samples(samples)
    n = samples.shape[0]
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    if n < k:
        raise InsufficientDataError(f"need at least k={k} samples, got {n}")
    if not tol > 0:
        raise UsageError(f"tol must be positive, got {tol}")

    def each(fn, items):
        if jobs <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))

    centered, columns = _centered(samples), np.ascontiguousarray(samples.T)
    if isinstance(init, str):
        if init != "kmeans++":
            raise UsageError(f"unknown init {init!r}; expected 'kmeans++' or an array of points")
        if restarts < 1:
            raise UsageError(f"restarts must be >= 1, got {restarts}")
        # [seed, 1] keeps restart streams disjoint from sampling streams of the same
        # seed.  All starts are seeded before any solve makes its workspace.
        rngs = [np.random.Generator(np.random.Philox(s)) for s in np.random.SeedSequence([seed, 1]).spawn(restarts)]
        starts = each(lambda rng: _kmeanspp_init(samples, columns, k, rng), rngs)
    else:
        init_points = np.asarray(init, dtype=float)
        if init_points.shape != (k, samples.shape[1]):
            raise ShapeError(
                f"initial points must have shape ({k}, {samples.shape[1]}), got {init_points.shape}"
            )
        if not np.isfinite(init_points).all():
            raise UsageError("initial points must be finite; found NaN or infinite entries")
        starts = [init_points]
    local = threading.local()

    def solve(start):
        # each thread makes one workspace and reuses it for every restart that runs on it
        if not hasattr(local, "work"):
            local.work = _Workspace(n, k, samples.shape[1])
        return _lloyd_once(samples, centered, columns, start, tol, max_iter, local.work)

    results = each(solve, starts)
    best = min(range(len(starts)), key=lambda r: (results[r][1].final_mse, r))
    points, report = results[best]
    return PointSet(points), replace(report, restarts_used=len(starts))


def _solve_tridiagonal(diagonal: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs for the symmetric tridiagonal A with this diagonal and off-diagonal (n >= 2).

    A port of LAPACK ``dptsv``, which ``scipy.linalg.solveh_banded`` runs
    for one off-diagonal: the L D L^T factorisation (``dpttrf``), then the
    two substitutions (``dptts2``), each in the reference order, so the
    solution is the same to the bit.  Raises ``np.linalg.LinAlgError`` at
    the first pivot that is not positive.
    """
    d, e, x = diagonal.tolist(), off.tolist(), rhs.tolist()
    n = len(d)
    for i in range(n):
        if d[i] <= 0.0:
            raise np.linalg.LinAlgError(f"leading minor {i + 1} is not positive definite")
        if i < n - 1:
            ei = e[i]
            e[i] = ei / d[i]
            d[i + 1] -= e[i] * ei
    for i in range(1, n):
        x[i] -= x[i - 1] * e[i - 1]
    x[n - 1] /= d[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = x[i] / d[i] - x[i + 1] * e[i]
    return np.array(x)


def _solver_step(law: UnivariateLaw, y: np.ndarray) -> np.ndarray:
    """One Newton step on the distortion of the sorted points y.

    With cells cut at the midpoints b of adjacent points, half the gradient
    is y_j m0_j - m1_j, and half the Hessian is tridiagonal: m0_j minus
    f(b) (y_{j+1} - y_j) / 4 for each adjacent midpoint b on the diagonal,
    -f(b) (y_{j+1} - y_j) / 4 off it.  Where that Hessian is not positive
    definite, or the step would break the points' order, the step is one
    Lloyd-Max update instead: each point moves to its cell's mean.
    """
    mid = (y[1:] + y[:-1]) / 2.0
    m0, m1, _ = law.cell_moments(np.concatenate(([-np.inf], mid)), np.concatenate((mid, [np.inf])))
    coupling = -law.pdf(mid) * np.diff(y) / 4.0
    diagonal = m0.copy()
    diagonal[1:] += coupling
    diagonal[:-1] += coupling
    try:
        new = y + _solve_tridiagonal(diagonal, coupling, m1 - y * m0)
        if np.all(np.diff(new) > 0):
            return new
    except np.linalg.LinAlgError:
        pass
    return np.divide(m1, m0, out=y.copy(), where=m0 > 1e-300)


def univariate_principal_points(law: UnivariateLaw, k: int) -> np.ndarray:
    """Best k-point quantizer of a one-dimensional law, by Newton's method.

    Cell boundaries are midpoints of adjacent points, and at the solution
    each point is its cell's conditional mean (self-consistency).  Each
    iteration takes the moments of all k cells from the law's exact cell
    moments in one array call and makes a Newton step on the expected
    squared distance, whose Hessian is tridiagonal (Pages and Printems
    2003), so the iteration converges quadratically.  Where the Hessian is
    not positive definite, or the step would break the points' order, the
    iteration makes one Lloyd-Max step instead (each point to its cell
    mean; a cell with mass below 1e-300 keeps its point).  Iteration stops
    when no point moves by 1e-12 standard deviations or more, or after
    500 steps.  Several deterministic quantile-spread starts are run and
    the one with the lowest expected squared distance wins.
    """
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    if k == 1:
        return np.array([law.mean])
    scale = float(np.sqrt(law.variance))
    if not scale > 0:
        raise UsageError("law has zero variance; quantizer is degenerate")
    tol = 1e-12 * max(scale, 1e-12)

    base = (np.arange(k) + 0.5) / k
    level_sets = [0.5 + (base - 0.5) * c for c in (1.0, 0.5, 0.25)]
    level_sets += [np.clip(base + shift, 1e-4, 1.0 - 1e-4) for shift in (0.1 / k, -0.1 / k)]

    best_points = None
    best_objective = np.inf
    for levels in level_sets:
        y = np.array([law.quantile(p) for p in levels])
        y.sort()
        for _ in range(500):
            new = _solver_step(law, y)
            shift = np.abs(new - y).max()
            y = new
            if shift < tol:
                break
        objective = law.expected_sq_distance(y)
        if best_points is None or objective < best_objective * (1.0 - 1e-14):
            best_objective = objective
            best_points = y
    return np.sort(best_points)


def closed_form_two_points(model: EllipticalModel) -> PointSet:
    """The two-point solution: mean offset along the leading eigendirection.

    The offsets are the two principal points of the projection law onto the
    top eigendirection (scale sqrt(lambda_1) times the mixture projection).
    If the two leading eigenvalues coincide the direction is not unique; a
    warning is issued and the canonical first basis direction is used.
    """
    lam1 = float(model.lam[0])
    if lam1 <= 0:
        raise DegenerateDirectionError("model has a zero top eigenvalue; no spread to quantize")
    if model.d > 1 and lam1 - float(model.lam[1]) < 1e-10 * lam1:
        warnings.warn(
            "top eigendirection is not unique (tied leading eigenvalues); "
            "returning the canonical first basis direction",
            RuntimeWarning,
            stacklevel=2,
        )
    law = model.mixture.projection_law(float(np.sqrt(lam1)))
    gammas = univariate_principal_points(law, 2)
    direction = np.zeros(model.d)
    direction[0] = 1.0
    points = model.mu + gammas[:, None] * direction
    return PointSet(points)


def g_constant(model: EllipticalModel) -> float:
    """Scale-free two-point quantization constant of the projection law.

    The ratio (best two-point expected squared distance) / variance of any
    one-dimensional projection; independent of the direction because the
    standardized projection law is.  Equals 1 - 2/pi for gaussian models.
    """
    if float(model.lam.sum()) <= 0:
        raise DegenerateDirectionError("model has an all-zero spectrum")
    law = model.mixture.standardized_law()
    points = univariate_principal_points(law, 2)
    return float(law.expected_sq_distance(points) / law.variance)


def write_pointset_json(path, w: PointSet, mse: float, residual: float) -> None:
    write_json(path, {
        "k": w.k,
        "points": w.points.tolist(),
        "mse": float(mse),
        "residual": float(residual),
    })
