"""Coefficient-space representation of elements of a separable Hilbert space.

Every element is stored as its vector of coefficients in a fixed orthonormal
basis, truncated at level ``d``.  Two concrete bases are provided: the
Fourier basis on [0, 1] (for rendering coefficient vectors as curves) and a
purely synthetic basis whose "evaluation" is the identity on coordinates.
All norms and inner products are the plain Euclidean ones on coefficients,
which is Parseval's identity at the truncation level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from ._io import atomic_write, fmt12

FOURIER = "fourier-on-[0,1]"
SYNTHETIC = "synthetic-eigen"

_FAMILIES = (FOURIER, SYNTHETIC)


def as_coeffs(v, d: int | None = None) -> np.ndarray:
    """Validate and return a 1-d float coefficient vector."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ShapeError(f"coefficient vector must be 1-d, got shape {v.shape}")
    if d is not None and v.shape[0] != d:
        raise ShapeError(f"expected length {d}, got {v.shape[0]}")
    return v


@dataclass(frozen=True)
class BasisSpec:
    """Specification of an evaluable orthonormal basis.

    Parameters
    ----------
    family : str
        Either ``"fourier-on-[0,1]"`` or ``"synthetic-eigen"``.
    dimension : int
        Truncation level d >= 1.
    grid : array-like, optional
        Strictly increasing evaluation abscissae in [0, 1].  Defaults to a
        uniform grid with ``4 * dimension`` points for the Fourier family
        (enough for the evaluated Gram matrix to be the identity to 1e-6).
    """

    family: str
    dimension: int
    grid: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ConfigError(f"unknown basis family {self.family!r}; expected one of {_FAMILIES}")
        if not isinstance(self.dimension, (int, np.integer)) or self.dimension < 1:
            raise ConfigError(f"basis dimension must be a positive integer, got {self.dimension!r}")
        if self.grid is not None:
            g = np.asarray(self.grid, dtype=float)
            if g.ndim != 1 or g.size < 2:
                raise ConfigError("grid must be a 1-d sequence with at least 2 points")
            if not np.isfinite(g).all():
                raise ConfigError("grid abscissae must be finite")
            if np.any(np.diff(g) <= 0):
                raise ConfigError("grid abscissae must be strictly increasing")
            if g[0] < 0.0 or g[-1] > 1.0:
                raise ConfigError("grid abscissae must lie in [0, 1]")
            object.__setattr__(self, "grid", tuple(float(t) for t in g))


@dataclass(frozen=True)
class Basis:
    """An evaluable orthonormal basis truncated at level d.

    The Fourier family is ordered 1, sqrt(2) cos(2 pi t), sqrt(2) sin(2 pi t),
    sqrt(2) cos(4 pi t), ...  The synthetic family has no evaluation grid;
    its coordinates are abstract and ``to_curve`` is the identity.
    """

    family: str
    dimension: int
    grid: np.ndarray | None = field(repr=False, default=None)

    @property
    def d(self) -> int:
        return self.dimension

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
        c = as_coeffs(coeffs, self.dimension)
        if self.family == SYNTHETIC:
            return c.copy()
        return self.design_matrix() @ c

    def gram(self) -> np.ndarray:
        """Gram matrix of the basis evaluated on its grid, via trapezoidal quadrature."""
        if self.family == SYNTHETIC:
            return np.eye(self.dimension)
        t = self.grid
        phi = self.design_matrix()
        f = phi[:, :, None] * phi[:, None, :]
        return (np.diff(t)[:, None, None] * (f[1:] + f[:-1])).sum(axis=0) / 2.0


def make_basis(spec: BasisSpec) -> Basis:
    """Build the evaluable basis described by ``spec``."""
    if spec.family == SYNTHETIC:
        return Basis(family=SYNTHETIC, dimension=spec.dimension, grid=None)
    if spec.grid is not None:
        grid = np.asarray(spec.grid, dtype=float)
    else:
        grid = np.linspace(0.0, 1.0, 4 * spec.dimension)
    grid.setflags(write=False)
    return Basis(family=FOURIER, dimension=spec.dimension, grid=grid)


def inner_product(u, v) -> float:
    """Hilbert inner product <u, v> = sum of coefficient products."""
    u = as_coeffs(u)
    v = as_coeffs(v, u.shape[0])
    return float(u @ v)


def norm(v) -> float:
    """Hilbert norm ||v|| (Euclidean norm of the coefficients)."""
    return float(np.linalg.norm(as_coeffs(v)))


def truncate(v, k: int) -> np.ndarray:
    """Project onto the span of the first k basis elements.

    Coefficients with index <= k are preserved, the rest are zeroed.  The
    operation is idempotent.
    """
    v = as_coeffs(v)
    if not 1 <= k <= v.shape[0]:
        raise ShapeError(f"truncation level must be in [1, {v.shape[0]}], got {k}")
    out = np.zeros_like(v)
    out[:k] = v[:k]
    return out


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


def split(v, s: SubspaceSplit) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of v in the subspace basis and its orthonormal completion.

    Satisfies ``||w1||^2 + ||w2||^2 = ||v||^2`` and is inverted exactly by
    :func:`recompose`.
    """
    v = as_coeffs(v, s.d)
    return s.u_basis @ v, s.complement @ v


def recompose(w1, w2, s: SubspaceSplit) -> np.ndarray:
    """Inverse of :func:`split`."""
    w1 = as_coeffs(w1, s.q)
    w2 = as_coeffs(w2, s.d - s.q)
    return s.u_basis.T @ w1 + s.complement.T @ w2


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
