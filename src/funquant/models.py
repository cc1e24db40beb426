"""Elliptical random elements built as scale mixtures of Gaussian processes.

A model is a mean vector, a descending spectrum for the shape operator in
its own eigenbasis, and a positive scale variable Z: draws are
``mu + Z * (sqrt(lambda_i) * xi_i)_i`` with iid standard normal xi.  The
covariance operator is ``E(Z^2) * diag(lambda)``, one-dimensional
projections are scale mixtures of normals, and conditional means given a
finite-dimensional projection are linear in the conditioning variable.

Randomness is drawn from a counter-based Philox generator with a fixed
stream layout: stream 0 feeds the scale draws Z, stream 1 the Gaussian
coefficients xi.  Runs are reproducible bit-for-bit from the seed alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .basis import SubspaceSplit
from .errors import ConfigError, DegenerateDirectionError, ShapeError, SingularityError, UsageError
from .laws import NormalMixtureLaw, StudentTLaw, UnivariateLaw
from ._io import atomic_write, fmt12

GAUSSIAN = "gaussian"
STUDENT_T = "student_t"
TWO_POINT = "two_point"

# The parameters each mixture kind takes, in their JSON order.
_PARAMETERS = {GAUSSIAN: (), STUDENT_T: ("nu",), TWO_POINT: ("z1", "z2", "p")}


def is_finite_number(value) -> bool:
    """True for a finite int or float; bools, strings, null, containers, NaN and +-inf fail."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


@dataclass(frozen=True)
class ScaleMixture:
    """The law of the positive scale variable Z.

    ``gaussian`` is Z == 1, ``student_t`` is Z = sqrt(nu / chi2_nu) with
    finite nu > 2 (so second moments exist), ``two_point`` takes the finite
    value z1 with probability p and z2 otherwise.  Zero values are admitted
    for the two-point kind (the sampler degenerates gracefully) but such
    mixtures have no projection density.  The parameters of each kind are
    listed once, in ``_PARAMETERS``, which construction, ``to_dict`` and
    ``from_dict`` all read.
    """

    kind: str
    nu: float | None = None
    z1: float | None = None
    z2: float | None = None
    p: float | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _PARAMETERS:
            raise ConfigError(f"unknown mixture kind {self.kind!r}")
        for name in _PARAMETERS[self.kind]:
            if getattr(self, name) is None:
                raise ConfigError(f"{self.kind} mixture needs {name}")
        if self.kind == STUDENT_T and not 2 < self.nu < math.inf:
            raise ConfigError(f"student_t mixture needs finite nu > 2, got {self.nu!r}")
        if self.kind == TWO_POINT:
            if not (0 <= self.z1 < math.inf and 0 <= self.z2 < math.inf):
                raise ConfigError("two_point values must be nonnegative and finite")
            if not 0.0 <= self.p <= 1.0:
                raise ConfigError(f"two_point probability must be in [0, 1], got {self.p}")

    @classmethod
    def gaussian(cls) -> "ScaleMixture":
        return cls(kind=GAUSSIAN)

    @classmethod
    def student_t(cls, nu: float) -> "ScaleMixture":
        return cls(kind=STUDENT_T, nu=float(nu))

    @classmethod
    def two_point(cls, z1: float, z2: float, p: float) -> "ScaleMixture":
        return cls(kind=TWO_POINT, z1=float(z1), z2=float(z2), p=float(p))

    def second_moment(self) -> float:
        """E(Z^2), finite by construction for every admitted kind."""
        if self.kind == GAUSSIAN:
            return 1.0
        if self.kind == STUDENT_T:
            return self.nu / (self.nu - 2.0)
        return self.p * self.z1**2 + (1.0 - self.p) * self.z2**2

    def sample_z(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == GAUSSIAN:
            return np.ones(n)
        if self.kind == STUDENT_T:
            return np.sqrt(self.nu / rng.chisquare(self.nu, size=n))
        return np.where(rng.random(n) < self.p, self.z1, self.z2)

    def projection_law(self, scale: float) -> UnivariateLaw:
        """The law of ``scale * Z * xi`` with xi standard normal."""
        if scale <= 0:
            raise DegenerateDirectionError(f"projection scale must be positive, got {scale}")
        if self.kind == GAUSSIAN:
            return NormalMixtureLaw(weights=(1.0,), scales=(scale,))
        if self.kind == STUDENT_T:
            return StudentTLaw(nu=self.nu, scale=scale)
        if self.z1 <= 0 or self.z2 <= 0:
            raise UsageError("two_point mixture with a zero value has no projection density")
        return NormalMixtureLaw(
            weights=(self.p, 1.0 - self.p),
            scales=(scale * self.z1, scale * self.z2),
        )

    def standardized_law(self) -> UnivariateLaw:
        """The unit-variance law of ``Z * xi / sqrt(E(Z^2))``."""
        return self.projection_law(1.0 / np.sqrt(self.second_moment()))

    def to_dict(self) -> dict:
        return {"kind": self.kind, **{name: getattr(self, name) for name in _PARAMETERS[self.kind]}}

    @classmethod
    def from_dict(cls, payload: dict) -> "ScaleMixture":
        if not isinstance(payload, dict) or "kind" not in payload:
            raise ConfigError("mixture: expected an object with a 'kind' field")
        kind = payload["kind"]
        for key in sum(_PARAMETERS.values(), ()):
            if key in payload and not is_finite_number(payload[key]):
                raise ConfigError(f"mixture.{key}: finite number required, got {payload[key]!r}")
        if not isinstance(kind, str) or kind not in _PARAMETERS:
            raise ConfigError(f"mixture.kind: unknown value {kind!r}")
        for key in sum(_PARAMETERS.values(), ()):
            if key in _PARAMETERS[kind] and key not in payload:
                raise ConfigError(f"mixture.{key}: required for {kind}")
            if key in payload and key not in _PARAMETERS[kind]:
                raise ConfigError(f"mixture.{key}: not a parameter of a {kind} mixture")
        return cls(kind=kind, **{key: float(payload[key]) for key in _PARAMETERS[kind]})

    def label(self) -> str:
        if self.kind == GAUSSIAN:
            return "gaussian"
        if self.kind == STUDENT_T:
            return f"t{self.nu:g}"
        return f"two_point({self.z1:g},{self.z2:g};p={self.p:g})"


@dataclass(frozen=True)
class EllipticalModel:
    """Mean, descending shape spectrum and scale mixture of a random element."""

    mu: np.ndarray
    lam: np.ndarray
    mixture: ScaleMixture

    def __post_init__(self):
        # copy before freezing so a caller's array is never made read-only
        mu = np.array(self.mu, dtype=float, copy=True)
        lam = np.array(self.lam, dtype=float, copy=True)
        if mu.ndim != 1 or lam.ndim != 1:
            raise ConfigError("mu and lambda must be 1-d")
        if mu.shape != lam.shape:
            raise ConfigError(f"mu and lambda disagree in length: {mu.shape[0]} vs {lam.shape[0]}")
        if lam.size < 1:
            raise ConfigError("model dimension must be >= 1")
        if not (np.isfinite(mu).all() and np.isfinite(lam).all()):
            raise ConfigError("mu and lambda must be finite")
        if np.any(np.diff(lam) > 0):
            raise ConfigError("lambda must be non-increasing")
        if lam[-1] < 0:
            raise ConfigError("lambda must be nonnegative")
        mu.setflags(write=False)
        lam.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "lam", lam)

    @property
    def d(self) -> int:
        return self.mu.shape[0]

    def label(self) -> str:
        lam = ",".join(f"{x:g}" for x in self.lam)
        return f"{self.mixture.label()}|lam=({lam})"


def _streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    # Stream 0: scale draws Z.  Stream 1: Gaussian coefficients xi.
    # The [seed, 0] entropy tags the sampling domain so other consumers of
    # the same seed (e.g. solver restarts) get independent streams.
    children = np.random.SeedSequence([seed, 0]).spawn(2)
    return tuple(np.random.Generator(np.random.Philox(c)) for c in children)


def sample(model: EllipticalModel, n: int, seed: int) -> np.ndarray:
    """Draw n coefficient rows ``mu + Z * (sqrt(lambda) * xi)``, built in place in one (n, d) buffer.

    Deterministic in ``seed``; Z comes from stream 0 and xi from stream 1
    of the seed's Philox streams, so the two sources never interleave.
    """
    if n < 1:
        raise UsageError(f"sample size must be >= 1, got {n}")
    rng_z, rng_xi = _streams(seed)
    draws = rng_xi.standard_normal((n, model.d))
    draws *= np.sqrt(model.lam)
    draws *= model.mixture.sample_z(n, rng_z)[:, None]
    return np.add(draws, model.mu, out=draws)


def covariance_operator(model: EllipticalModel) -> np.ndarray:
    """Covariance operator E(Z^2) * diag(lambda) in the model basis."""
    return model.mixture.second_moment() * np.diag(model.lam)


def _inverse_spd(mat: np.ndarray, what: str) -> np.ndarray:
    w, q = np.linalg.eigh(0.5 * (mat + mat.T))
    cutoff = 1e-12 * max(w.max(), 0.0)
    if w.min() <= cutoff:
        j = int(np.argmin(w))
        direction = np.array2string(q[:, j], precision=4, suppress_small=True)
        raise SingularityError(
            f"{what} is numerically singular: eigenvalue {w.min():.3e} at or below "
            f"cutoff {cutoff:.3e}; offending subspace direction {direction}"
        )
    return (q / w) @ q.T


def conditional_slope(model: EllipticalModel, s: SubspaceSplit) -> np.ndarray:
    """Regression operator of the complement block on the subspace block.

    Returns ``Gamma_21 Sigma_11^{-1}`` where Sigma_11 is the covariance of
    the subspace coordinates and Gamma_21 the cross-covariance block.
    """
    if s.d != model.d:
        raise ShapeError(f"split dimension {s.d} does not match model dimension {model.d}")
    gamma = covariance_operator(model)
    sigma11 = s.u_basis @ gamma @ s.u_basis.T
    gamma21 = s.complement @ gamma @ s.u_basis.T
    return gamma21 @ _inverse_spd(sigma11, "covariance of the conditioning block")


def conditional_mean(model: EllipticalModel, s: SubspaceSplit, w1: np.ndarray) -> np.ndarray:
    """E(complement coordinates | subspace coordinates = w1).

    Linear in w1 with slope :func:`conditional_slope`; reduces to the
    complement mean when the split is aligned with the eigen-coordinates
    (zero cross-covariance) or when w1 equals the subspace mean.
    """
    w1 = np.asarray(w1, dtype=float)
    if w1.shape != (s.q,):
        raise ShapeError(f"w1 must have shape ({s.q},), got {w1.shape}")
    mu1 = s.u_basis @ model.mu
    mu2 = s.complement @ model.mu
    return mu2 + conditional_slope(model, s) @ (w1 - mu1)


def model_from_dict(payload: dict) -> EllipticalModel:
    """Build a model from the JSON model-spec schema, with path-anchored errors."""
    if not isinstance(payload, dict):
        raise ConfigError("model: expected an object")
    fields = ("d", "mu", "lambda", "mixture")
    for key in fields:
        if key not in payload:
            raise ConfigError(f"model.{key}: missing required field")
    for key in payload:
        if key not in fields:
            raise ConfigError(f"model.{key}: unknown field; a model has only d, mu, lambda and mixture")
    d = payload["d"]
    if type(d) is not int or d < 1:
        raise ConfigError(f"model.d: must be a positive integer, got {d!r}")
    for key in ("mu", "lambda"):
        value = payload[key]
        if not (isinstance(value, (list, tuple)) and len(value) == d and all(map(is_finite_number, value))):
            raise ConfigError(f"model.{key}: expected a list of {d} finite numbers, got {value!r}")
    mu = np.asarray(payload["mu"], dtype=float)
    lam = np.asarray(payload["lambda"], dtype=float)
    try:
        return EllipticalModel(mu=mu, lam=lam, mixture=ScaleMixture.from_dict(payload["mixture"]))
    except ConfigError as exc:
        raise ConfigError(f"model: {exc}") from exc


def write_samples_csv(path, samples: np.ndarray) -> None:
    """Export draws as CSV (header c1..cd, 12 significant digits) a row at a time: no (n, d) buffer, no text copy."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ShapeError(f"samples must be a 2-d matrix, got shape {samples.shape}")
    header = ",".join(f"c{i + 1}" for i in range(samples.shape[1])) + "\n"
    rows = (",".join(map(fmt12, row)) + "\n" for row in samples)
    atomic_write(path, (line for part in ((header,), rows) for line in part))
