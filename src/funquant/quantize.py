"""Solvers for self-consistent sets and principal points.

``lloyd`` alternates nearest-point assignment with domain-mean updates on
sample matrices, with k-means++ style seeding, multiple restarts and
farthest-point re-seeding of empty domains.  ``univariate_principal_points``
is the one-dimensional solver driven by exact cell moments of a law, used
for the closed-form two-point solution and the quantization constant
``g``: one start found by dynamic programming over a grid of cells
(``_grid_cuts``), then Newton steps, each one L D L^T solve of the
tridiagonal Hessian (``_solve_tridiagonal``), or Lloyd-Max steps where
Newton's cannot be taken, and a step off any saddle (``_escape``).

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
        if not np.isfinite(pts).all():
            raise UsageError("points must be finite; found NaN or infinite entries")
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
        with np.errstate(over="ignore"):  # an overflow leaves ``total`` infinite, which raises below
            for column, c in zip(columns, samples[chosen[-1]]):
                dist += np.square(np.subtract(column, c, out=term), out=term)
            total = np.minimum(d2, dist, out=d2).sum()
        if not np.isfinite(total):
            raise UsageError("the samples' squared distances overflow float64")
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
        if jobs <= 1 or len(items) == 1:  # one item runs inline: no pool for a single start
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
        init_points = PointSet(init).points
        if init_points.shape != (k, samples.shape[1]):
            raise ShapeError(
                f"initial points must have shape ({k}, {samples.shape[1]}), got {init_points.shape}"
            )
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


def _hessian(law: UnivariateLaw, y: np.ndarray):
    """Masses m0 and first moments m1 about the mean of the cells of the sorted points y, and the
    diagonal and off-diagonal of half the distortion's Hessian (half its gradient is (y - mean) m0 - m1).

    With cells cut at the midpoints b of adjacent points, it is m0_j minus
    f(b) (y_{j+1} - y_j) / 4 for each adjacent b on the diagonal, that term off it.
    """
    mid = (y[1:] + y[:-1]) / 2.0
    m0, m1, _ = law.cell_moments(np.concatenate(([-np.inf], mid)), np.concatenate((mid, [np.inf])))
    coupling = -law.pdf(mid) * np.diff(y) / 4.0
    diagonal = m0.copy()
    diagonal[1:] += coupling
    diagonal[:-1] += coupling
    return m0, m1, diagonal, coupling


def _solver_step(law: UnivariateLaw, y: np.ndarray) -> np.ndarray:
    """One Newton step on the distortion of the sorted points y; where the Hessian is not positive
    definite, or the step would break the points' order, one Lloyd-Max step (each point to its
    cell's mean) instead."""
    m0, m1, diagonal, coupling = _hessian(law, y)
    try:
        new = y + _solve_tridiagonal(diagonal, coupling, m1 - (y - law.mean) * m0)
        if np.all(np.diff(new) > 0):
            return new
    except np.linalg.LinAlgError:
        pass
    return law.mean + np.divide(m1, m0, out=y - law.mean, where=m0 > 1e-300)


def _escape(law: UnivariateLaw, y: np.ndarray) -> np.ndarray | None:
    """Ordered points of lower distortion than y, off a saddle, or None where y is none.

    Lloyd-Max steps keep a symmetric point set symmetric, so the solver can
    stop at a symmetric saddle.  Where the Hessian's L D L^T fails (only
    there, as a first LAPACK eigensolve adds 0.9 MB to the process) and it
    has a negative eigenvalue, this tries y + t v, then y - t v, along its
    eigenvector v (points' sum rising) for t = sd, sd/2, ..., 2^-52 sd.
    """
    _, _, diagonal, coupling = _hessian(law, y)
    try:
        _solve_tridiagonal(diagonal, coupling, y)
        return None
    except np.linalg.LinAlgError:
        values, vectors = np.linalg.eigh(np.diag(diagonal) + np.diag(coupling, 1) + np.diag(coupling, -1))
    if values[0] >= 0.0:
        return None
    v = vectors[:, 0] if vectors[:, 0].sum() >= 0.0 else -vectors[:, 0]
    level, t = law.expected_sq_distance(y), float(np.sqrt(law.variance))
    for _ in range(53):
        for trial in (y + t * v, y - t * v):
            if np.all(np.diff(trial) > 0) and law.expected_sq_distance(trial) < level:
                return trial
        t /= 2.0
    return None


_GRID_BLOCK = 4096  # the most elements of one block of the start's dynamic program


def _grid_moments(law: UnivariateLaw, k: int):
    """Cell moments (m0, m1, m2) of the start's grid for k points, in one ``cell_moments`` call.

    20 cells a point, at most 1,000, so k may not exceed 500 (UsageError).
    The finite bounds are mean + sd sinh(t) at even steps of t, dense near
    the mean and reaching 40 sd or the ends of the law's support if nearer,
    so only the two infinite end cells of a bounded law have no mass.
    """
    if k > 500:
        raise UsageError(f"k must be <= 500, two of the start grid's 1,000 cells a point; got k={k}")
    scale, reach = float(np.sqrt(law.variance)), np.arcsinh(40.0)
    lo, hi = (np.clip(np.arcsinh((end - law.mean) / scale), -reach, reach) for end in law.support)
    bounds = law.mean + scale * np.sinh(np.linspace(lo, hi, min(20 * k, 1000) - 1))
    return law.cell_moments(np.concatenate(([-np.inf], bounds)), np.concatenate((bounds, [np.inf])))


def _run_costs(p0: np.ndarray, p1: np.ndarray, p2: np.ndarray, rows: slice, cols: slice) -> np.ndarray:
    """Cost S2 - S1^2 / S0 of the run of cells i to j - 1, for i in rows and j in cols, from the
    prefix sums of the cells' moments; inf for a run without mass (S0 <= 0, as where j <= i)."""
    s0, s1 = p0[cols] - p0[rows, None], p1[cols] - p1[rows, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(s0 > 0.0, p2[cols] - p2[rows, None] - s1 * s1 / s0, np.inf)


def _grid_cuts(m0: np.ndarray, m1: np.ndarray, m2: np.ndarray, k: int) -> np.ndarray:
    """The cuts of m ordered cells into k runs of adjacent cells with the least total cost.

    A run costs its squared distance to its mean (``_run_costs``; inf, so
    never taken, without mass).  The least total is a shortest path (Wang
    and Song 2011, Ckmeans.1d.dp): k - 1 min-plus layers, ties to the lowest
    cut, over costs taken in blocks of at most ``_GRID_BLOCK`` elements and
    not kept.  The cost is Monge, so a layer's best last cut never falls as
    the run's end moves right, and each block of ends searches only cuts
    from the previous end's best on: with every cut, a solve takes 3 times
    as long at k=20 and 9 times at k=50.  Returns the k + 1 cuts, 0 to m.
    """
    m = m0.size
    p0, p1, p2 = (np.concatenate(([0.0], np.cumsum(x))) for x in (m0, m1, m2))
    # each run needs a rise of p0, and k rises let k runs each take one
    if np.count_nonzero(np.diff(p0)) < k:
        raise UsageError(f"k={k} points need k grid cells with mass; the law has mass in {np.count_nonzero(m0)}")
    best = _run_costs(p0, p1, p2, slice(0, 1), slice(None))[0]  # best[j]: least cost of cells 0 to j - 1
    back = np.empty((k - 1, m + 1), dtype=np.intp)
    for layer in back:
        new = np.empty(m + 1)
        j = low = 0
        while j <= m:
            # ends j to j + width - 1 take cuts from low, the best of end j - 1: (span + width) width
            # elements at most _GRID_BLOCK
            span = j - low
            width = max(1, int((np.sqrt(span * span + 4 * _GRID_BLOCK) - span) / 2))
            rows, cols = slice(low, j + width), slice(j, j + width)
            total = best[rows, None] + _run_costs(p0, p1, p2, rows, cols)
            at = total.argmin(axis=0)
            layer[cols] = low + at
            new[cols] = total[at, np.arange(at.size)]
            low += int(at[-1])
            j += width
        best = new
    cuts = [m]
    for layer in back[::-1]:
        cuts.append(int(layer[cuts[-1]]))
    return np.array([0] + cuts[::-1])


def univariate_principal_points(law: UnivariateLaw, k: int) -> np.ndarray:
    """Best k-point quantizer of a one-dimensional law, by Newton's method.

    Cells are cut at midpoints of adjacent points; at the solution each
    point is its cell's mean.  The start is the best quantizer whose cells
    are runs of a grid's cells (``_grid_cuts`` on ``_grid_moments``, so
    k <= 500).  Each step is a Newton step, whose Hessian is tridiagonal
    (Pages and Printems 2003), or a Lloyd-Max step where Newton's cannot be
    taken (a cell with mass below 1e-300 keeps its point).  Iteration stops
    when no point moves by 1e-12 sd, or after 500 steps; from a saddle it
    steps off (``_escape``) and iterates again, at most 10 times.
    """
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    if k == 1:
        return np.array([law.mean])
    if not law.variance > 0:
        raise UsageError("law has zero variance; quantizer is degenerate")
    tol = 1e-12 * max(float(np.sqrt(law.variance)), 1e-12)
    m0, m1, m2 = _grid_moments(law, k)
    runs = _grid_cuts(m0, m1, m2, k)[:-1]
    y = law.mean + np.add.reduceat(m1, runs) / np.add.reduceat(m0, runs)
    for _ in range(10):
        for _ in range(500):
            new = _solver_step(law, y)
            shift = np.abs(new - y).max()
            y = new
            if shift < tol:
                break
        lower = _escape(law, y)
        if lower is None:
            break
        y = lower
    return y


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
