"""Coefficient-space representation of elements of a separable Hilbert space.

Every element is stored as its vector of coefficients in a fixed orthonormal
basis, truncated at level ``dimension``.  ``make_basis`` builds the one basis
type, ``Basis``, in one of two families: the Fourier basis on [0, 1] (for
rendering coefficient vectors as curves) and a purely synthetic basis whose
"evaluation" is the identity on coordinates.  Norms and inner products are
the plain Euclidean ones on coefficients, which is Parseval's identity at
the truncation level; ``SubspaceSplit`` completes an orthonormal subspace
basis to the whole truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from ._io import atomic_write, fmt12

FOURIER = "fourier-on-[0,1]"
SYNTHETIC = "synthetic-eigen"

_FAMILIES = (FOURIER, SYNTHETIC)


@dataclass(frozen=True)
class Basis:
    """An evaluable orthonormal basis truncated at level ``dimension``.

    The Fourier family is ordered 1, sqrt(2) cos(2 pi t), sqrt(2) sin(2 pi t),
    sqrt(2) cos(4 pi t), ...  The synthetic family has no evaluation grid;
    its coordinates are abstract and ``to_curve`` is the identity.
    """

    family: str
    dimension: int
    grid: np.ndarray | None = field(repr=False, default=None)

    def design_matrix(self) -> np.ndarray:
        """Evaluate all basis functions on the basis grid, returning an (m, d) matrix."""
        if self.family == SYNTHETIC:
            return np.eye(self.dimension)
        t = self.grid
        cols = np.empty((t.size, self.dimension))
        cols[:, 0] = 1.0
        for j in range(1, self.dimension):
            freq = 2.0 * np.pi * ((j + 1) // 2)
            if j % 2 == 1:
                cols[:, j] = np.sqrt(2.0) * np.cos(freq * t)
            else:
                cols[:, j] = np.sqrt(2.0) * np.sin(freq * t)
        return cols

    def to_curve(self, coeffs) -> np.ndarray:
        """Render a coefficient vector as function values on the basis grid."""
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (self.dimension,):
            raise ShapeError(f"coefficient vector must have shape ({self.dimension},), got {c.shape}")
        if self.family == SYNTHETIC:
            return c.copy()
        return self.design_matrix() @ c


def make_basis(family: str, dimension: int, grid=None) -> Basis:
    """The evaluable orthonormal basis of ``family`` truncated at ``dimension``.

    ``family`` is ``"fourier-on-[0,1]"`` or ``"synthetic-eigen"`` and
    ``dimension`` an integer >= 1.  ``grid`` gives the Fourier family's
    evaluation abscissae: at least 2 finite, strictly increasing points in
    [0, 1].  It defaults to ``4 * dimension`` uniform points from 0 to 1,
    enough for the evaluated Gram matrix to be the identity to 1e-6.  The
    synthetic family has no grid; a given one is checked, then dropped.  Any
    other input raises ``ConfigError``.
    """
    if family not in _FAMILIES:
        raise ConfigError(f"unknown basis family {family!r}; expected one of {_FAMILIES}")
    if not isinstance(dimension, (int, np.integer)) or dimension < 1:
        raise ConfigError(f"basis dimension must be a positive integer, got {dimension!r}")
    if grid is not None:
        grid = np.array(grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ConfigError("grid must be a 1-d sequence with at least 2 points")
        if not np.isfinite(grid).all():
            raise ConfigError("grid abscissae must be finite")
        if np.any(np.diff(grid) <= 0):
            raise ConfigError("grid abscissae must be strictly increasing")
        if grid[0] < 0.0 or grid[-1] > 1.0:
            raise ConfigError("grid abscissae must lie in [0, 1]")
    if family == SYNTHETIC:
        return Basis(family=SYNTHETIC, dimension=dimension, grid=None)
    if grid is None:
        grid = np.linspace(0.0, 1.0, 4 * dimension)
    grid.setflags(write=False)
    return Basis(family=FOURIER, dimension=dimension, grid=grid)


def fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Copy of ``vecs`` with each column's first entry above 1e-12 in magnitude made positive."""
    vecs = vecs.copy()
    for j in range(vecs.shape[1]):
        idx = np.flatnonzero(np.abs(vecs[:, j]) > 1e-12)
        if idx.size and vecs[idx[0], j] < 0:
            vecs[:, j] = -vecs[:, j]
    return vecs


def _orthonormal_completion(u_basis: np.ndarray) -> np.ndarray:
    # Rows spanning the orthogonal complement, from the right singular
    # vectors of the input; signs fixed for determinism, rows kept
    # contiguous as the SVD returns them.
    q = u_basis.shape[0]
    _, _, vt = np.linalg.svd(u_basis, full_matrices=True)
    return np.ascontiguousarray(fix_signs(vt[q:].T).T)


@dataclass(frozen=True)
class SubspaceSplit:
    """An orthonormal subspace basis and its orthogonal complement.

    ``u_basis`` holds q orthonormal rows spanning the subspace; the
    complement within the d-dimensional truncation is derived once at
    construction with a deterministic sign convention.
    """

    u_basis: np.ndarray
    complement: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        u = np.array(self.u_basis, dtype=float, copy=True)
        if u.ndim != 2:
            raise ShapeError(f"u_basis must be a (q, d) matrix, got shape {u.shape}")
        q, d = u.shape
        if q < 1 or q > d:
            raise ShapeError(f"need 1 <= q <= d, got q={q}, d={d}")
        gram_dev = np.abs(u @ u.T - np.eye(q)).max()
        if gram_dev > 1e-10:
            raise ShapeError(f"u_basis rows are not orthonormal (Gram deviation {gram_dev:.2e})")
        u.setflags(write=False)
        object.__setattr__(self, "u_basis", u)
        object.__setattr__(self, "complement", _orthonormal_completion(u))

    @property
    def q(self) -> int:
        return self.u_basis.shape[0]

    @property
    def d(self) -> int:
        return self.u_basis.shape[1]


def random_orthogonal(d: int, seed: int) -> np.ndarray:
    """Seeded Haar-like orthogonal matrix via QR with a sign-fixed R diagonal."""
    if d < 1:
        raise ShapeError(f"dimension must be >= 1, got {d}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    a = rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def write_curve_csv(path, basis: Basis, coeffs) -> None:
    """Export a coefficient vector as a ``t,value`` CSV on the basis grid.

    A synthetic basis has no grid: its rows are the coordinate indices
    0..d-1 and the coefficients themselves.
    """
    t = np.arange(basis.dimension, dtype=float) if basis.family == SYNTHETIC else basis.grid
    values = basis.to_curve(coeffs)
    lines = ["t,value"]
    lines.extend(f"{fmt12(ti)},{fmt12(vi)}" for ti, vi in zip(t, values))
    atomic_write(path, "\n".join(lines) + "\n")
