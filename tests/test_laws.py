import math
import warnings

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad, trapezoid

from funquant import ConfigError, NormalMixtureLaw, StudentTLaw, UniformLaw, UsageError
from funquant.laws import _log_gamma_ratio, _ndtr, _stdtr

from oracles import normal_law, quantization_objective

LAWS = {
    "normal": normal_law(),
    "two_scale_mixture": NormalMixtureLaw(weights=(0.3, 0.7), scales=(1.0, 3.0)),
    "t5": StudentTLaw(nu=5.0),
    "t5_scaled": StudentTLaw(nu=5.0, scale=2.0),
    "uniform": UniformLaw(0.0, 1.0),
}


# Finite windows carrying all but ~1e-10 of each law's mass: at least 10 sd and the
# 1e-10 quantiles on both sides of the mean, or the support of a bounded law.
WINDOWS = {
    "normal": (-10.0, 10.0),
    "two_scale_mixture": (-26.0, 26.0),
    "t5": (-157.0, 157.0),
    "t5_scaled": (-314.0, 314.0),
    "uniform": (0.0, 1.0),
}


@pytest.mark.parametrize("name", LAWS)
def test_density_integrates_to_one_on_quadrature_grid(name):
    law = LAWS[name]
    grid = np.linspace(*WINDOWS[name], 4001)
    assert abs(trapezoid(law.pdf(grid), grid) - 1.0) < 1e-6


@pytest.mark.parametrize("name", LAWS)
def test_cell_moments_match_adaptive_quadrature(name):
    law = LAWS[name]
    sd = np.sqrt(law.variance)
    intervals = [(-np.inf, np.inf), (-0.3 * sd, np.inf), (-np.inf, 0.8 * sd), (-1.2 * sd, 2.1 * sd)]
    support_lo, support_hi = WINDOWS[name] if name == "uniform" else (-np.inf, np.inf)
    for a, b in intervals:
        qa, qb = max(a, support_lo), min(b, support_hi)
        expected = [
            quad(lambda y, p=p: (y - law.mean) ** p * law.pdf(y), qa, qb, limit=400)[0] for p in (0, 1, 2)
        ]
        np.testing.assert_allclose(law.cell_moments(a, b), expected, rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("name", LAWS)
def test_array_cell_moments_match_scalar_calls(name):
    law = LAWS[name]
    sd = np.sqrt(law.variance)
    cuts = law.mean + sd * np.array([-9.0, -2.5, -0.4, 0.0, 0.3, 1.1, 4.0, 12.0])
    a = np.concatenate(([-np.inf], cuts, [-np.inf, 0.5 * sd]))
    b = np.concatenate((cuts, [np.inf, np.inf, 0.6 * sd]))
    moments = law.cell_moments(a, b)
    assert all(isinstance(m, np.ndarray) and m.shape == a.shape for m in moments)
    scalar = np.array([law.cell_moments(lo, hi) for lo, hi in zip(a, b)]).T
    assert all(isinstance(m, float) for m in law.cell_moments(a[1], b[1]))
    np.testing.assert_allclose(moments, scalar, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize(
    "law, x, upper_tail",
    [
        (normal_law(), 8.5, special.ndtr(-8.5)),
        (StudentTLaw(nu=5.0), 200.0, special.stdtr(5.0, -200.0)),
        (NormalMixtureLaw(weights=(0.3, 0.7), scales=(1.0, 3.0)), 30.0,
         0.3 * special.ndtr(-30.0) + 0.7 * special.ndtr(-10.0)),
    ],
    ids=["normal", "t5", "two_scale_mixture"],
)
def test_upper_tail_masses_are_exact(law, x, upper_tail):
    m0, m1, m2 = law.cell_moments(x, np.inf)
    assert m0 > 0.0 and m0 == pytest.approx(upper_tail, rel=1e-12, abs=0.0)
    # the law is symmetric, so the mirrored lower cell has the same mass
    lo0, lo1, lo2 = law.cell_moments(-np.inf, -x)
    assert lo0 == pytest.approx(m0, rel=1e-12, abs=0.0)
    assert lo1 == pytest.approx(-m1, rel=1e-12, abs=0.0)
    assert lo2 == pytest.approx(m2, rel=1e-12, abs=0.0)
    # a finite cell in the far upper tail also keeps its mass
    inner = law.cell_moments(x, 2.0 * x)[0]
    assert inner == pytest.approx(m0 - law.cell_moments(2.0 * x, np.inf)[0], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", LAWS)
def test_full_line_moments(name):
    law = LAWS[name]
    m0, m1, m2 = law.cell_moments(-np.inf, np.inf)
    assert m0 == pytest.approx(1.0, abs=1e-12)
    assert m1 == pytest.approx(0.0, abs=1e-12)
    assert m2 == pytest.approx(law.variance, rel=1e-12)


def test_normal_cdf_port_matches_scipy():
    # erfc of a rounded argument: the relative error grows like z^2 eps in the lower tail, as scipy's does
    z = np.linspace(-37.0, 8.0, 4501)
    np.testing.assert_allclose(_ndtr(z), special.ndtr(z), rtol=1e-12, atol=0.0)


_T_ARGS = np.concatenate((-np.geomspace(1e4, 1e-8, 600), [0.0], np.geomspace(1e-8, 1e4, 600)))


@pytest.mark.parametrize(
    "nu, rtol",
    [(nu, 2e-13) for nu in (2.05, 3.0, 4.0, 5.0, 7.3, 10.0, 30.0, 100.0, 1e3)]
    # large nu: the bound reached there (about 3e-13 on finer grids), because the prefactor and the
    # odd terms of the continued fraction come from x^2 / nu, never from the rounded nu / (nu + x^2)
    + [(1e4, 4e-13), (1e6, 4e-13), (1e9, 4e-13)],
)
def test_student_t_cdf_port_matches_scipy_in_both_tails(nu, rtol):
    # atol: the far lower tail underflows below 1e-300, where no value keeps its relative precision
    np.testing.assert_allclose(_stdtr(nu, _T_ARGS), special.stdtr(nu, _T_ARGS), rtol=rtol, atol=1e-300)


def test_special_function_ports_at_nan_and_infinities():
    args = np.array([np.nan, -np.inf, np.inf])
    np.testing.assert_array_equal(_ndtr(args), [np.nan, 0.0, 1.0])
    for nu in (2.05, 5.0, 1e9):
        np.testing.assert_array_equal(_stdtr(nu, args), [np.nan, 0.0, 1.0])


@pytest.mark.parametrize("name", LAWS)
@pytest.mark.parametrize("rho", [0.5, -2.0, 10.0])
def test_scaled_law_moments(name, rho):
    law = LAWS[name]
    scaled = law.scaled(rho)
    assert scaled.mean == pytest.approx(rho * law.mean, abs=1e-12)
    assert scaled.variance == pytest.approx(rho**2 * law.variance, rel=1e-12)


def test_scaled_by_zero_rejected():
    with pytest.raises(UsageError):
        normal_law().scaled(0.0)


@pytest.mark.parametrize("name", ["normal", "two_scale_mixture", "t5", "uniform"])
def test_expected_sq_distance_matches_quadrature_oracle(name):
    law = LAWS[name]
    lo, hi = WINDOWS[name]
    inf_tails = name.startswith("t")
    core = (-30.0, 30.0) if inf_tails else (lo, hi)
    for points in ([0.0], [-1.0, 0.5], [-2.0, -0.1, 1.7]):
        expected = quantization_objective(
            law.pdf, points, core[0], core[1], inf_tails=inf_tails,
            max_panel=0.2 if name == "uniform" else 1.0,
        )
        assert law.expected_sq_distance(points) == pytest.approx(expected, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize(
    "law, points, expected",
    [(normal_law(), [0.0, 1e200], 1.0), (UniformLaw(0.0, 1.0), [0.5, 1e160], 1.0 / 12.0)],
    ids=["normal", "uniform"],
)
def test_expected_sq_distance_zero_mass_cell_adds_exactly_zero(law, points, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the far point's x * x must not overflow against its cell's zero mass
        value = law.expected_sq_distance(points)
    assert value == law.expected_sq_distance(points[:1])
    assert value == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("nu", [2.01, 5.0])
@pytest.mark.parametrize("x", [1e103, -1e103, 1e155, -1e155, 1e300, -1e300])
def test_t_moments_stay_finite_past_the_overflow_of_their_antiderivatives(nu, x):
    # x (nu + x^2) overflows from about 5.6e102 and x * x from 1.3e154, where the pdf has underflowed
    law = StudentTLaw(nu)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m0, m1, m2 = law.cell_moments(np.array([-np.inf, x]), np.array([x, np.inf]))
    assert np.isfinite([m0, m1, m2]).all()
    assert m0.sum() == pytest.approx(1.0, rel=1e-15)
    assert m2.sum() == pytest.approx(law.variance, rel=1e-12)
    # E[T; T > |x|] = (nu + x^2) f(x) / (nu - 1), with log f from the log-gammas
    logf = math.lgamma((nu + 1) / 2) - math.lgamma(nu / 2) - 0.5 * math.log(nu * math.pi) - (nu + 1) / 2 * (
        2 * math.log(abs(x)) - math.log(nu) + math.log1p(nu / x / x))
    upper = math.exp(2 * math.log(abs(x)) + math.log1p(nu / x / x) + logf) / (nu - 1)
    assert abs(m1[1 if x > 0 else 0]) == pytest.approx(upper, rel=1e-12, abs=0.0)


def _first_float_with_subnormal_density(law):
    """The least x > 1 at which ``law.pdf`` is below the normal floats, by bisection on the float grid."""
    lo, hi = map(int, np.array([1.0, 1e100]).view(np.int64))  # Python ints: the midpoint's sum must not overflow
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if law.pdf(np.int64(mid).view(float)) < np.finfo(float).tiny else (mid, hi)
    return np.int64(hi).view(float)


def test_t_moments_are_continuous_where_they_switch_to_logs():
    law = StudentTLaw(2.01)
    below, above = (np.stack(law.cell_moments([x], [np.inf])) for x in (1e100, np.nextafter(1e100, np.inf)))
    np.testing.assert_allclose(above, below, rtol=1e-12, atol=0.0)
    for nu in (3.0, 5.0):  # and where the density leaves the normal floats
        law = StudentTLaw(nu)
        switch = _first_float_with_subnormal_density(law)
        below, above = (np.stack(law.cell_moments([x], [np.inf])) for x in (np.nextafter(switch, 0.0), switch))
        np.testing.assert_allclose(above, below, rtol=1e-12, atol=0.0)


def _far_t_front(nu, a):
    """(nu + a^2) f(a) = nu exp(log c - (nu - 1)/2 log1p(a^2 / nu)), with c from the log-gammas; f(a) itself is 0."""
    log_c = math.lgamma((nu + 1) / 2) - math.lgamma(nu / 2) - 0.5 * math.log(nu * math.pi)
    return nu * math.exp(log_c - 0.5 * (nu - 1) * math.log1p(a * a / nu))


FAR_T_CELLS = [(3.0, 1e99), (5.0, 1e60), (2.5, 1e99), (4.0, 1e80)]


@pytest.mark.parametrize("nu, a", FAR_T_CELLS)
def test_far_t_cells_keep_their_digits_where_the_density_underflows(nu, a):
    m0, m1, m2 = StudentTLaw(nu).cell_moments([a], [np.inf])
    front = _far_t_front(nu, a)
    assert m1[0] == pytest.approx(front / (nu - 1), rel=1e-12, abs=0.0)
    assert m2[0] == pytest.approx((a * front + nu * special.stdtr(nu, -a)) / (nu - 2), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("nu, a", FAR_T_CELLS[:2])
def test_far_lower_t_cells_mirror_the_upper_ones(nu, a):
    m0, m1, m2 = StudentTLaw(nu).cell_moments([-np.inf], [-a])
    front = _far_t_front(nu, a)
    assert m1[0] == pytest.approx(-front / (nu - 1), rel=1e-12, abs=0.0)
    assert m2[0] == pytest.approx((a * front + nu * special.stdtr(nu, -a)) / (nu - 2), rel=1e-12, abs=0.0)


FAR = [1e155, -1e155, 1e200, -1e200, 1e300, -1e300]
DENSITY_LAWS = [StudentTLaw(5.0), StudentTLaw(2.5, scale=0.5), normal_law(),
                NormalMixtureLaw(weights=(0.3, 0.7), scales=(1.0, 3.0))]


@pytest.mark.parametrize("law", DENSITY_LAWS, ids=["t5", "t2.5-scaled", "normal", "two_scale_mixture"])
def test_densities_are_zero_far_out_without_a_warning(law):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert law.pdf(FAR).tolist() == [0.0] * len(FAR)


@pytest.mark.parametrize("law", DENSITY_LAWS, ids=["t5", "t2.5-scaled", "normal", "two_scale_mixture"])
def test_densities_keep_the_bits_of_their_unclamped_expressions(law):
    core = np.linspace(-60.0, 60.0, 200_001)
    wide = np.logspace(-300.0, 300.0, 20_001)
    y = law.mean + np.concatenate([core, wide, -wide, [0.0, -0.0, 38.6, -38.6, 40.0, -40.0, 1e150, -1e150]])
    with np.errstate(over="ignore"):
        if isinstance(law, StudentTLaw):
            x = y / law.scale
            logc = _log_gamma_ratio(law.nu / 2) - 0.5 * math.log(law.nu * math.pi)
            old = np.exp(logc - 0.5 * (law.nu + 1) * np.log1p(x ** 2 / law.nu)) / law.scale
        else:
            old = sum(w * np.exp(-0.5 * (y / s) ** 2) / (math.sqrt(2.0 * math.pi) * s)
                      for w, s in zip(law.weights, law.scales))
    assert law.pdf(y).tobytes() == old.tobytes()


def test_t_expected_sq_distance_with_a_far_point_is_the_variance():
    law = StudentTLaw(5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = law.expected_sq_distance([0.0, 1e200])
    assert value == pytest.approx(law.variance, rel=1e-12)


def test_expected_sq_distance_far_from_zero_keeps_full_precision():
    # moments about the mean: raw moments about 0 cancel to -1.0 at a mean of 1e8
    far = UniformLaw(1e8 - 1.0, 1e8 + 1.0).expected_sq_distance([1e8 - 0.75, 1e8 + 0.75])
    assert far == pytest.approx(UniformLaw(-1.0, 1.0).expected_sq_distance([-0.75, 0.75]), rel=1e-10, abs=0.0)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: StudentTLaw(nu=2.0),
        lambda: StudentTLaw(nu=5.0, scale=0.0),
        lambda: NormalMixtureLaw(weights=(0.5, 0.6), scales=(1.0, 2.0)),
        lambda: NormalMixtureLaw(weights=(1.0,), scales=(0.0,)),
        lambda: UniformLaw(1.0, 1.0),
    ],
)
def test_invalid_laws_rejected(factory):
    with pytest.raises(ConfigError):
        factory()
