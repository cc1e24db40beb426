"""Empirical moments in coefficient space and covariance eigenanalysis.

The covariance uses the 1/n convention so that the mean squared deviation
from the sample mean equals the trace exactly.  Eigenpairs are reported in
descending order with a deterministic sign convention, and negative
eigenvalues from rounding are clipped to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import fix_signs
from .errors import InsufficientDataError, ShapeError, UsageError
from ._io import write_json


@dataclass(frozen=True)
class CovarianceEstimate:
    """Sample mean, covariance and its eigendecomposition."""

    mean_hat: np.ndarray
    cov_hat: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    n: int


def estimate(samples: np.ndarray) -> CovarianceEstimate:
    """Moment estimates from an (n, d) coefficient matrix, which it consumes by centring it in place.

    A writeable float64 ``samples`` holds ``samples - mean_hat`` afterwards; pass ``samples.copy()``
    to keep the draws.  Any other input is copied once and left unchanged.  Requires n >= 2.  The
    eigendecomposition is of the symmetrized covariance; eigenvalues below zero (rounding noise,
    the matrix is a Gram matrix) are clipped to 0.
    """
    samples = np.require(samples, dtype=float, requirements="W")
    if samples.ndim != 2:
        raise ShapeError(f"samples must be a 2-d matrix, got shape {samples.shape}")
    n = samples.shape[0]
    if n < 2:
        raise InsufficientDataError(f"need at least 2 samples, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):  # the raises below say what went wrong
        mean_hat = samples.mean(axis=0)  # not finite exactly when an entry is not, or a column sum overflows
        if not np.isfinite(mean_hat).all() and not np.isfinite(samples).all():
            raise UsageError("samples must be finite; found NaN or infinite entries")
        centered = np.subtract(samples, mean_hat, out=samples)
        cov_hat = (centered.T @ centered) / n
    if not np.isfinite(cov_hat).all():
        raise UsageError("the samples' second moments overflow float64")
    cov_hat = 0.5 * (cov_hat + cov_hat.T)
    w, v = np.linalg.eigh(cov_hat)
    order = np.argsort(w)[::-1]
    w = np.clip(w[order], 0.0, None)
    v = fix_signs(v[:, order])
    return CovarianceEstimate(mean_hat=mean_hat, cov_hat=cov_hat, eigvals=w, eigvecs=v, n=n)


def principal_angles(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Principal angles between the column spans of two orthonormal frames.

    Angles are ``arccos`` of the singular values of ``u.T @ w`` (descending
    cosines, so ascending angles), each in [0, pi/2].  Small angles are
    recovered through the sine formulation, since ``arccos`` alone cannot
    resolve angles below ~1e-8.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    w = np.atleast_2d(np.asarray(w, dtype=float))
    if u.ndim != 2 or w.ndim != 2 or u.shape[0] != w.shape[0]:
        raise ShapeError(f"frames must share their ambient dimension, got {u.shape} and {w.shape}")
    for name, frame in (("first", u), ("second", w)):
        gram_dev = np.abs(frame.T @ frame - np.eye(frame.shape[1])).max()
        if gram_dev > 1e-8:
            raise ShapeError(f"{name} frame columns are not orthonormal (deviation {gram_dev:.2e})")
    cross = u.T @ w
    cosines = np.clip(np.linalg.svd(cross, compute_uv=False), 0.0, 1.0)
    residual_svals = np.linalg.svd(w - u @ cross, compute_uv=False)
    sines = np.sort(np.clip(residual_svals, 0.0, 1.0))[: cosines.size]
    angles = np.arccos(cosines)  # ascending: cosines come out descending
    small = cosines**2 > 0.5
    angles[small] = np.arcsin(sines[small])
    return angles


def trace_tail(model, from_index: int) -> float:
    """Sum of the model's shape eigenvalues ``model.lam`` with 1-based index >= ``from_index``.

    ``from_index = d + 1`` gives 0: the tail beyond the truncation level is
    zero by construction.
    """
    d = model.d
    if not 1 <= from_index <= d + 1:
        raise ShapeError(f"from_index must be in [1, {d + 1}], got {from_index}")
    return float(model.lam[from_index - 1 :].sum())


def write_estimate_json(path, est: CovarianceEstimate) -> None:
    write_json(path, {
        "mean": est.mean_hat.tolist(),
        "eigvals": est.eigvals.tolist(),
        "eigvecs": est.eigvecs.tolist(),
        "n": est.n,
    })
