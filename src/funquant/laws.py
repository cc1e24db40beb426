"""Univariate laws with exact cell moments for one-dimensional quantization.

A law exposes its density and its partial moments about its mean:
``cell_moments(a, b)`` returns the arrays E[(Y - mean)^r; a < Y <= b] for
r = 0, 1, 2, one entry per cell of the bounds ``a`` and ``b``.  Principal
points move with the location, so these are all a quantizer needs, and
they keep full precision however far the law lies from 0.  Cell moments,
with the density for Newton's Hessian, are what the one-dimensional solver
needs: its start merges the cells of a fixed grid into the best k runs,
its steps take conditional means over cells, and the expected squared
distance to a finite point set is a sum over cells.

Gaussian and Student components use closed-form antiderivatives instead of
numeric quadrature, so the solver's cell means carry no integration error.
Masses stay exact in both tails: a cell above the center takes its mass
from the complementary CDF, so a far upper cell does not round to
``1 - 1 = 0``.  The laws of one-dimensional projections of the centred
elements ``X - mu`` of the elliptical models in this package are always
of one of these forms, centred at 0: a finite mixture of normals
(gaussian / two-point scale mixtures) or a scaled Student t.  The special
functions they need are small ports here, so the laws use no part of
scipy: the normal CDF from ``math.erfc`` and the Student t CDF from the
continued fraction of the incomplete beta function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UsageError

_SQRT2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)
_LOG_SQRT_PI = 0.5 * math.log(math.pi)
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _gauss(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * np.square(np.minimum(np.abs(z), 40.0)))  # 0 from |z| = 38.6 on; z^2 stays finite


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    return _gauss(z) / _SQRT2PI


def _z_phi(z: np.ndarray) -> np.ndarray:
    """z * standard normal pdf, with the correct 0 limit at +-inf (taken as 0 * pdf(0))."""
    z = np.where(np.isfinite(z), z, 0.0)
    return z * _norm_pdf(z)


def _cell_mass(cdf, xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """cdf(xb) - cdf(xa) for a law symmetric about 0.

    A cell above 0 uses the upper tail, 1 - cdf(x) = cdf(-x), so its mass
    keeps full relative precision however far out it lies.  Both bounds
    go to cdf in one call, so a CDF that takes each distinct |x| once
    evaluates a bound shared by two cells once.
    """
    flip = np.where(xa > 0, -1.0, 1.0)
    upper, lower = cdf(np.stack(np.broadcast_arrays(flip * xb, flip * xa)))
    return flip * (upper - lower)


def _ndtr(z) -> np.ndarray:
    """Standard normal CDF, erfc(-z / sqrt 2) / 2, element by element.

    ``math.erfc`` keeps full relative precision in the lower tail; rounding
    the argument adds a relative error that grows like z^2 eps there.
    """
    return 0.5 * np.asarray(_erfc(np.asarray(z, dtype=float) * -_SQRT_HALF), dtype=float)


def _log_gamma_ratio(a: float) -> float:
    """log Gamma(a + 1/2) - log Gamma(a).

    From a = 16 on, the two log-gammas are large and nearly equal, so their
    difference is taken from its asymptotic series instead (DLMF 5.11.8,
    with B_k(1/2) - B_k = (2^(1-k) - 2) B_k); the first term left out is
    below 3e-16 there.
    """
    if a < 16.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    u = (1.0 / a) ** 2
    return 0.5 * math.log(a) - (1 / 8 - u * (1 / 192 - u * (1 / 640 - u * (17 / 14336 - u * 31 / 18432)))) / a


def _beta_cf(a: float, b: float, x: float, y: float) -> float:
    """Continued fraction of the incomplete beta function I_x(a, b), with y = 1 - x.

    I_x(a, b) = x^a y^b / (a B(a, b)) times this fraction, which converges
    fast for x < (a + 1) / (a + b + 2) (Press et al., Numerical Recipes,
    section 6.4).  The modified Lentz steps are taken in pairs, even then
    odd, so each pair multiplies the fraction by (e + q) / (e + p), where e
    is 1 plus the odd coefficient.  For x near 1 and a large, e nearly
    cancels, so there it is formed from y (every term is positive for
    b <= 1, as when the t CDF takes this branch).
    """
    # factors are ordered so that nothing overflows or underflows, however large a is
    r = (a + b) / (a + 1.0)
    h = d = 1.0 / (1.0 - r * x if x < 0.5 else (1.0 - b) / (a + 1.0) + r * y)
    c = 1.0
    for m in range(1, 301):
        n = a + 2 * m
        r = (a + m) / n * ((a + b + m) / (n + 1.0))
        if x < 0.5:
            e = 1.0 - r * x
        else:
            e = (2 * m + 1 - b + m * (3 * m + 2 - b) / a) / (n * (1.0 + (2 * m + 1) / a)) + r * y
        even = m * x * (b - m) / (n - 1.0)  # the even coefficient times n
        p, q = even * (d / n), even / (c * n)
        d, c = (1.0 + p) / (e + p), (e + q) / (1.0 + q)
        step = (e + q) / (e + p)
        h *= step
        if abs(step - 1.0) <= 2.3e-16:
            return h
    raise RuntimeError(f"incomplete beta continued fraction did not converge at a={a}, b={b}, x={x}")


def _t_tail(nu: float, x: float) -> float:
    """P(T > |x|) for a Student t with nu degrees of freedom.

    That is I_z(nu/2, 1/2) / 2 with z = nu / (nu + x^2).  Past the fraction's
    switch point, I_z(a, b) = 1 - I_w(b, a) with w = 1 - z.  Both z and w
    are formed from r = x^2 / nu, and the prefactor is taken in logs with
    log z = -log1p(r), so neither tail cancels, however large nu is.
    """
    if math.isnan(x):
        return math.nan
    r = math.inf if abs(x) > 1.34e154 else x * x / nu  # x^2 overflows just past; the tail there is below 3e-309
    if r == 0.0:  # x = 0, or x^2 negligible beside nu
        return 0.5
    if r == math.inf:
        return 0.0
    a = 0.5 * nu
    z, w = 1.0 / (1.0 + r), r / (1.0 + r)
    front = math.exp(_log_gamma_ratio(a) - _LOG_SQRT_PI + 0.5 * math.log(w) - a * math.log1p(r))
    if w > 1.5 / (a + 2.5):  # z < (a + 1) / (a + b + 2), tested on w, which keeps its precision
        return 0.5 * front * _beta_cf(a, 0.5, z, w) / a
    return 0.5 - front * _beta_cf(0.5, a, w, z)


_t_tails = np.frompyfunc(_t_tail, 2, 1)


def _stdtr(nu: float, x) -> np.ndarray:
    """Student t CDF with nu degrees of freedom, element by element, taking the tail once per distinct |x|."""
    x = np.asarray(x, dtype=float)
    distinct, at = np.unique(np.abs(x), return_inverse=True)
    tail = np.asarray(_t_tails(nu, distinct), dtype=float)[at].reshape(x.shape)
    return np.where(x > 0, 1.0 - tail, tail)


class UnivariateLaw:
    """Interface shared by the concrete laws below.

    The one-dimensional solver reads ``mean``, ``variance``, ``support``,
    ``pdf`` and ``cell_moments`` only: the moments of its start's grid, whose
    bounds reach 40 sd or the ends of the support, in one call, and of its
    k cells in one call a step, every moment about ``mean``.
    """

    mean: float
    variance: float
    support: tuple[float, float] = (-math.inf, math.inf)

    def pdf(self, y):
        raise NotImplementedError

    def cell_moments(self, a, b):
        """E[(Y - mean)^r; a < Y <= b] for r = 0, 1, 2: mass, first and second moment about the mean.

        ``a`` and ``b`` are broadcastable arrays of bounds (each may be
        +-inf); each moment has one entry per cell.  A cell whose lower
        bound lies above the law's center takes its mass from the upper
        tail, so the mass of a far upper cell is exact rather than a
        difference of two CDF values near 1.
        """
        raise NotImplementedError

    def scaled(self, rho: float) -> "UnivariateLaw":
        """The law of rho * Y."""
        raise NotImplementedError

    def expected_sq_distance(self, points) -> float:
        """E[min_j (Y - y_j)^2] for a finite point set.

        Cells are delimited by midpoints of adjacent (sorted) points; the
        integral over each cell expands into the partial moments about the
        mean, all taken in one array call, with x = y_j - mean.
        """
        pts = np.sort(np.asarray(points, dtype=float))
        if pts.ndim != 1 or pts.size == 0:
            raise UsageError("need a non-empty 1-d point set")
        if not np.isfinite(pts).all():
            raise UsageError("points must be finite; found NaN or infinite entries")
        mid = (pts[1:] + pts[:-1]) / 2.0
        m0, m1, m2 = self.cell_moments(np.concatenate(([-np.inf], mid)), np.concatenate((mid, [np.inf])))
        x = np.where(m0 > 0, pts - self.mean, 0.0)  # a zero-mass cell adds 0; x * x cannot overflow
        return float(np.sum(np.where(m0 > 0, m2 - 2.0 * x * m1 + x * x * m0, 0.0)))


@dataclass(frozen=True)
class NormalMixtureLaw(UnivariateLaw):
    """Finite mixture of normals centred at 0.

    This is the law of ``S * xi`` with xi standard normal and S a positive
    random scale taking value ``scales[i]`` with probability ``weights[i]``.
    """

    weights: tuple[float, ...]
    scales: tuple[float, ...]
    mean = 0.0

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        s = tuple(float(x) for x in self.scales)
        if len(w) != len(s) or not w:
            raise ConfigError("weights and scales must be non-empty and of equal length")
        if not all(0 <= x <= 1 for x in w) or abs(sum(w) - 1.0) > 1e-12:  # NaN fails every comparison
            raise ConfigError("weights must be nonnegative and sum to 1")
        if not all(0 < x < math.inf for x in s):
            raise ConfigError("component scales must be positive and finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "scales", s)

    @property
    def variance(self) -> float:
        return sum(w * s * s for w, s in zip(self.weights, self.scales))

    def pdf(self, y):
        z = np.asarray(y, dtype=float)
        return sum(w * _gauss(z / s) / (_SQRT2PI * s) for w, s in zip(self.weights, self.scales))

    def cell_moments(self, a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        m0 = m1 = m2 = 0.0
        for w, s in zip(self.weights, self.scales):
            za, zb = a / s, b / s
            p = _cell_mass(_ndtr, za, zb)
            m0 += w * p
            m1 += w * (s * (_norm_pdf(za) - _norm_pdf(zb)))
            m2 += w * (s * s * (p + _z_phi(za) - _z_phi(zb)))
        return m0, m1, m2

    def scaled(self, rho: float) -> "NormalMixtureLaw":
        if rho == 0.0:
            raise UsageError("scale factor must be nonzero")
        return NormalMixtureLaw(weights=self.weights, scales=tuple(abs(rho) * s for s in self.scales))


@dataclass(frozen=True)
class StudentTLaw(UnivariateLaw):
    """Student t centred at 0, scaled by ``scale``, with ``nu > 2`` degrees of freedom.

    Equals the law of ``scale * Z * xi`` for the inverse-chi scale variable
    Z = sqrt(nu / chi2_nu) and independent standard normal xi.  Partial
    moments use the closed-form antiderivatives of y f(y) and y^2 f(y) for
    the t density.
    """

    nu: float
    scale: float = 1.0
    mean = 0.0

    def __post_init__(self):
        if not 2 < self.nu < math.inf:
            raise ConfigError(f"degrees of freedom must be finite and exceed 2, got {self.nu}")
        if not 0 < self.scale < math.inf:
            raise ConfigError(f"scale must be positive and finite, got {self.scale}")

    @property
    def variance(self) -> float:
        return self.scale**2 * self.nu / (self.nu - 2.0)

    def _std_pdf(self, x):
        nu = self.nu
        logc = _log_gamma_ratio(nu / 2) - 0.5 * math.log(nu * math.pi)
        x = np.minimum(np.abs(np.asarray(x, dtype=float)), 1e154)  # x^2 stays finite; the density is 0 there
        return np.exp(logc - 0.5 * (nu + 1) * np.log1p(np.square(x) / nu))

    def pdf(self, y):
        return self._std_pdf(np.asarray(y, dtype=float) / self.scale) / self.scale

    def _part(self, x, odd):
        """-(nu + x^2) f(x) / (nu - 1), the antiderivative of t f(t), or if ``odd`` x (nu + x^2) f(x) / (2 - nu),
        a piece of that of t^2 f(t); 0 at +-inf.  Past |x| = 1e100, short of where x (nu + x^2) overflows (5.6e102),
        and wherever f(x) is below the normal floats, (nu + x^2) f(x) is c nu exp(-(nu - 1)/2 log1p(x^2/nu)),
        with log1p(x^2/nu) = 2 log|x| - log nu + log1p(nu/x^2)."""
        nu, finite, big = self.nu, np.isfinite(x), np.abs(x) > 1e100
        near = np.where(big, 0.0, x)
        pdf = self._std_pdf(near)
        far = big | (pdf < np.finfo(float).tiny)
        ax = np.where(far & finite, np.abs(x), 1.0)
        lead, div = (np.where(finite, x, 0.0), 2.0 - nu) if odd else (1.0, nu - 1.0)
        log1p = 2.0 * np.log(ax) - math.log(nu) + np.log1p(nu / ax / ax)
        tail = nu * np.exp(_log_gamma_ratio(nu / 2) - 0.5 * math.log(nu * math.pi) - 0.5 * (nu - 1.0) * log1p)
        return np.where(finite, np.where(far, lead * tail, lead * (nu + near * near) * pdf) / div, 0.0)

    def cell_moments(self, a, b):
        nu, s = self.nu, self.scale
        xa, xb = np.asarray(a, dtype=float) / s, np.asarray(b, dtype=float) / s
        i0 = _cell_mass(lambda x: _stdtr(nu, x), xa, xb)
        i1 = self._part(xa, False) - self._part(xb, False)
        i2 = self._part(xb, True) - self._part(xa, True) - nu / (2.0 - nu) * i0
        return i0, s * i1, s * s * i2

    def scaled(self, rho: float) -> "StudentTLaw":
        if rho == 0.0:
            raise UsageError("scale factor must be nonzero")
        return StudentTLaw(nu=self.nu, scale=abs(rho) * self.scale)


@dataclass(frozen=True)
class UniformLaw(UnivariateLaw):
    """Uniform law on the interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not -math.inf < self.lo < self.hi < math.inf:
            raise ConfigError(f"need finite lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def variance(self) -> float:
        return (self.hi - self.lo) ** 2 / 12.0

    @property
    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def pdf(self, y):
        y = np.asarray(y, dtype=float)
        return ((y >= self.lo) & (y <= self.hi)) / (self.hi - self.lo)

    def cell_moments(self, a, b):
        # about the midpoint, each moment the mass times a sum that does not cancel
        a = np.clip(np.asarray(a, dtype=float), self.lo, self.hi) - self.mean
        b = np.maximum(np.clip(np.asarray(b, dtype=float), self.lo, self.hi) - self.mean, a)  # empty cells have b == a
        m0 = (b - a) / (self.hi - self.lo)
        return m0, m0 * (a + b) / 2.0, m0 * (a * a + a * b + b * b) / 3.0

    def scaled(self, rho: float) -> "UniformLaw":
        if rho == 0.0:
            raise UsageError("scale factor must be nonzero")
        ends = sorted((rho * self.lo, rho * self.hi))
        return UniformLaw(lo=ends[0], hi=ends[1])

