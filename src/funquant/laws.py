"""Univariate laws with exact cell moments for one-dimensional quantization.

A law exposes its density, CDF, quantile function, a sampler, and partial
moments over an interval: ``cell_moments(a, b)`` returns
(P(a < Y <= b), E[Y; a < Y <= b], E[Y^2; a < Y <= b]).  Cell moments are
what the one-dimensional solver needs: conditional means over cells and the
expected squared distance to a finite point set.  ``a`` and ``b`` may be
arrays of bounds, so one call gives the moments of every cell.

Gaussian and Student components use closed-form antiderivatives instead of
numeric quadrature, so the solver's cell means carry no integration error.
Masses stay exact in both tails: a cell above the center takes its mass
from the complementary CDF, so a far upper cell does not round to
``1 - 1 = 0``.  The laws of one-dimensional projections of the elliptical
models in this package are always of one of these forms: a finite mixture
of centered normals (gaussian / two-point scale mixtures) or a scaled
Student t.  ``scipy.special`` is imported inside the methods that call
it, so importing this module loads numpy only; it is the one part of scipy
the laws use.  The mixture quantile finds its root with ``_brentq``, a port
of scipy's ``brentq``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UsageError

_SQRT2PI = math.sqrt(2.0 * math.pi)


def _finite_part(term, x: np.ndarray) -> np.ndarray:
    """term(x) at finite x, and 0 at +-inf: the limit of every antiderivative term used here."""
    finite = np.isfinite(x)
    return np.where(finite, term(np.where(finite, x, 0.0)), 0.0)


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z * z) / _SQRT2PI


def _z_phi(z: np.ndarray) -> np.ndarray:
    """z * standard normal pdf, with the correct 0 limit at +-inf."""
    return _finite_part(lambda z: z * _norm_pdf(z), z)


def _cell_mass(cdf, xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """cdf(xb) - cdf(xa) for a law symmetric about 0.

    A cell above 0 uses the upper tail, 1 - cdf(x) = cdf(-x), so its mass
    keeps full relative precision however far out it lies.
    """
    flip = np.where(xa > 0, -1.0, 1.0)
    return flip * (cdf(flip * xb) - cdf(flip * xa))


def _brentq(f, xpre: float, xcur: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """A root of f between xpre and xcur by Brent's method (Brent 1973, ch. 4).

    A port of scipy's ``brentq`` (its C ``Zeros/brentq.c``) that makes the
    same steps in the same order, so it returns the same float.  It stops
    once the bracket is narrower than xtol + rtol |x|.  f must change sign
    on the bracket (ValueError otherwise); RuntimeError if maxiter steps do
    not reach the tolerance.
    """
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"Brent's method did not converge in {maxiter} steps")


def _moments(m0, m1, m2):
    """Cell moments as Python floats for scalar bounds, as arrays otherwise."""
    if np.ndim(m0) == 0:
        return float(m0), float(m1), float(m2)
    return m0, m1, m2


class UnivariateLaw:
    """Interface shared by the concrete laws below."""

    mean: float
    variance: float
    support: tuple[float, float]

    def pdf(self, y):
        raise NotImplementedError

    def cdf(self, y):
        raise NotImplementedError

    def quantile(self, p: float) -> float:
        raise NotImplementedError

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def cell_moments(self, a, b):
        """Mass, first and second moment of Y restricted to (a, b].

        ``a`` and ``b`` are scalars or broadcastable arrays of bounds (each
        may be +-inf).  Scalar bounds give a tuple of three Python floats;
        array bounds give three arrays, one entry per cell.  A cell whose
        lower bound lies above the law's center takes its mass from the
        upper tail, so the mass of a far upper cell is exact rather than a
        difference of two CDF values near 1.
        """
        raise NotImplementedError

    def scaled(self, rho: float) -> "UnivariateLaw":
        """The law of rho * Y."""
        raise NotImplementedError

    def expected_sq_distance(self, points) -> float:
        """E[min_j (Y - y_j)^2] for a finite point set.

        Cells are delimited by midpoints of adjacent (sorted) points; the
        integral over each cell expands into the stored partial moments,
        all taken in one array call.
        """
        pts = np.sort(np.asarray(points, dtype=float))
        if pts.ndim != 1 or pts.size == 0:
            raise UsageError("need a non-empty 1-d point set")
        mid = (pts[1:] + pts[:-1]) / 2.0
        m0, m1, m2 = self.cell_moments(np.concatenate(([-np.inf], mid)), np.concatenate((mid, [np.inf])))
        return float(np.sum(m2 - 2.0 * pts * m1 + pts * pts * m0))


@dataclass(frozen=True)
class NormalMixtureLaw(UnivariateLaw):
    """Finite mixture of normals sharing a common center.

    This is the law of ``loc + S * xi`` with xi standard normal and S a
    positive random scale taking value ``scales[i]`` with probability
    ``weights[i]``.
    """

    weights: tuple[float, ...]
    scales: tuple[float, ...]
    loc: float = 0.0

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        s = tuple(float(x) for x in self.scales)
        if len(w) != len(s) or not w:
            raise ConfigError("weights and scales must be non-empty and of equal length")
        if any(x < 0 for x in w) or abs(sum(w) - 1.0) > 1e-12:
            raise ConfigError("weights must be nonnegative and sum to 1")
        if any(x <= 0 for x in s):
            raise ConfigError("component scales must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "scales", s)
        object.__setattr__(self, "loc", float(self.loc))

    @property
    def mean(self) -> float:
        return self.loc

    @property
    def variance(self) -> float:
        return sum(w * s * s for w, s in zip(self.weights, self.scales))

    @property
    def support(self) -> tuple[float, float]:
        return (-math.inf, math.inf)

    def pdf(self, y):
        z = (np.asarray(y, dtype=float) - self.loc)
        out = sum(
            w * np.exp(-0.5 * (z / s) ** 2) / (_SQRT2PI * s)
            for w, s in zip(self.weights, self.scales)
        )
        return out if np.ndim(y) else float(out)

    def cdf(self, y):
        from scipy import special

        z = (np.asarray(y, dtype=float) - self.loc)
        out = sum(w * special.ndtr(z / s) for w, s in zip(self.weights, self.scales))
        return out if np.ndim(y) else float(out)

    def quantile(self, p: float) -> float:
        from scipy import special

        if not 0.0 < p < 1.0:
            raise UsageError(f"quantile level must be in (0, 1), got {p}")
        p = float(p)
        qs = [self.loc + s * float(special.ndtri(p)) for s in self.scales]
        lo, hi = min(qs), max(qs)
        if hi - lo < 1e-300:
            return lo
        return _brentq(lambda y: self.cdf(y) - p, lo, hi, xtol=1e-13, rtol=1e-14)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        idx = rng.choice(len(self.weights), size=n, p=np.asarray(self.weights))
        s = np.asarray(self.scales)[idx]
        return self.loc + s * rng.standard_normal(n)

    def cell_moments(self, a, b):
        from scipy import special

        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        m0 = m1c = m2c = 0.0
        for w, s in zip(self.weights, self.scales):
            za, zb = (a - self.loc) / s, (b - self.loc) / s
            p = _cell_mass(special.ndtr, za, zb)
            c1 = s * (_norm_pdf(za) - _norm_pdf(zb))
            c2 = s * s * (p + _z_phi(za) - _z_phi(zb))
            m0 += w * p
            m1c += w * c1
            m2c += w * c2
        return _moments(m0, self.loc * m0 + m1c, self.loc**2 * m0 + 2.0 * self.loc * m1c + m2c)

    def scaled(self, rho: float) -> "NormalMixtureLaw":
        if rho == 0.0:
            raise UsageError("scale factor must be nonzero")
        return NormalMixtureLaw(
            weights=self.weights,
            scales=tuple(abs(rho) * s for s in self.scales),
            loc=rho * self.loc,
        )


@dataclass(frozen=True)
class StudentTLaw(UnivariateLaw):
    """Scaled and shifted Student t with ``nu > 2`` degrees of freedom.

    Equals the law of ``loc + scale * Z * xi`` for the inverse-chi scale
    variable Z = sqrt(nu / chi2_nu) and independent standard normal xi.
    Partial moments use the closed-form antiderivatives of y f(y) and
    y^2 f(y) for the t density.
    """

    nu: float
    scale: float = 1.0
    loc: float = 0.0

    def __post_init__(self):
        if not self.nu > 2:
            raise ConfigError(f"degrees of freedom must exceed 2, got {self.nu}")
        if not self.scale > 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")

    @property
    def mean(self) -> float:
        return self.loc

    @property
    def variance(self) -> float:
        return self.scale**2 * self.nu / (self.nu - 2.0)

    @property
    def support(self) -> tuple[float, float]:
        return (-math.inf, math.inf)

    def _std_pdf(self, x):
        from scipy import special

        nu = self.nu
        logc = special.gammaln((nu + 1) / 2) - special.gammaln(nu / 2) - 0.5 * math.log(nu * math.pi)
        return np.exp(logc - 0.5 * (nu + 1) * np.log1p(np.asarray(x, dtype=float) ** 2 / nu))

    def pdf(self, y):
        x = (np.asarray(y, dtype=float) - self.loc) / self.scale
        out = self._std_pdf(x) / self.scale
        return out if np.ndim(y) else float(out)

    def cdf(self, y):
        from scipy import special

        x = (np.asarray(y, dtype=float) - self.loc) / self.scale
        out = special.stdtr(self.nu, x)
        return out if np.ndim(y) else float(out)

    def quantile(self, p: float) -> float:
        from scipy import special

        if not 0.0 < p < 1.0:
            raise UsageError(f"quantile level must be in (0, 1), got {p}")
        return self.loc + self.scale * float(special.stdtrit(self.nu, p))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.loc + self.scale * rng.standard_t(self.nu, size=n)

    def _g1(self, x):
        # antiderivative of t f(t): -(nu + x^2) f(x) / (nu - 1)
        return _finite_part(lambda x: (self.nu + x * x) * self._std_pdf(x) / (self.nu - 1.0), x)

    def _h2(self, x):
        # antiderivative piece for t^2 f(t): x (nu + x^2) f(x) / (2 - nu)
        return _finite_part(lambda x: x * (self.nu + x * x) * self._std_pdf(x) / (2.0 - self.nu), x)

    def cell_moments(self, a, b):
        from scipy import special

        nu, s, loc = self.nu, self.scale, self.loc
        xa = (np.asarray(a, dtype=float) - loc) / s
        xb = (np.asarray(b, dtype=float) - loc) / s
        i0 = _cell_mass(lambda x: special.stdtr(nu, x), xa, xb)
        i1 = self._g1(xa) - self._g1(xb)
        i2 = self._h2(xb) - self._h2(xa) - nu / (2.0 - nu) * i0
        return _moments(i0, loc * i0 + s * i1, loc**2 * i0 + 2.0 * loc * s * i1 + s * s * i2)

    def scaled(self, rho: float) -> "StudentTLaw":
        if rho == 0.0:
            raise UsageError("scale factor must be nonzero")
        return StudentTLaw(nu=self.nu, scale=abs(rho) * self.scale, loc=rho * self.loc)


@dataclass(frozen=True)
class UniformLaw(UnivariateLaw):
    """Uniform law on the interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ConfigError(f"need lo < hi, got [{self.lo}, {self.hi}]")

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
        out = np.where((y >= self.lo) & (y <= self.hi), 1.0 / (self.hi - self.lo), 0.0)
        return out if out.ndim else float(out)

    def cdf(self, y):
        y = np.asarray(y, dtype=float)
        out = np.clip((y - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        return out if out.ndim else float(out)

    def quantile(self, p: float) -> float:
        if not 0.0 <= p <= 1.0:
            raise UsageError(f"quantile level must be in [0, 1], got {p}")
        return self.lo + p * (self.hi - self.lo)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=n)

    def cell_moments(self, a, b):
        a = np.maximum(np.asarray(a, dtype=float), self.lo)
        b = np.maximum(np.minimum(np.asarray(b, dtype=float), self.hi), a)  # empty cells have b == a
        length = self.hi - self.lo
        return _moments((b - a) / length, (b * b - a * a) / (2.0 * length), (b**3 - a**3) / (3.0 * length))

    def scaled(self, rho: float) -> "UniformLaw":
        if rho == 0.0:
            raise UsageError("scale factor must be nonzero")
        ends = sorted((rho * self.lo, rho * self.hi))
        return UniformLaw(lo=ends[0], hi=ends[1])


def normal_law(mean: float = 0.0, sd: float = 1.0) -> NormalMixtureLaw:
    """Convenience constructor for a single normal component."""
    return NormalMixtureLaw(weights=(1.0,), scales=(sd,), loc=mean)
