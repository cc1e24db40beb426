import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from funquant import (
    ConfigError,
    DegenerateDirectionError,
    EllipticalModel,
    NormalMixtureLaw,
    ScaleMixture,
    SingularityError,
    StudentTLaw,
    SubspaceSplit,
    UniformLaw,
    UsageError,
    conditional_mean,
    conditional_slope,
    covariance_operator,
    model_from_dict,
    random_orthogonal,
    sample,
    write_samples_csv,
)
from funquant.models import _streams


def model(lam, mixture=None, mu=None):
    lam = np.asarray(lam, dtype=float)
    return EllipticalModel(
        mu=np.zeros(lam.size) if mu is None else np.asarray(mu, dtype=float),
        lam=lam,
        mixture=mixture or ScaleMixture.gaussian(),
    )


def batched_se(values: np.ndarray, batches: int = 20) -> np.ndarray:
    """Standard error of the mean of `values` rows, estimated by batching."""
    parts = np.array_split(values, batches)
    means = np.stack([p.mean(axis=0) for p in parts])
    return means.std(axis=0, ddof=1) / np.sqrt(batches)


class TestScaleMixture:
    def test_second_moments(self):
        assert ScaleMixture.gaussian().second_moment() == 1.0
        assert ScaleMixture.student_t(4.0).second_moment() == pytest.approx(2.0)
        assert ScaleMixture.two_point(1.0, 3.0, 0.5).second_moment() == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ScaleMixture.student_t(2.0)
        with pytest.raises(ConfigError):
            ScaleMixture.two_point(-1.0, 1.0, 0.5)
        with pytest.raises(ConfigError):
            ScaleMixture.two_point(1.0, 1.0, 1.5)

    def test_projection_laws(self):
        assert ScaleMixture.gaussian().projection_law(2.0) == NormalMixtureLaw(
            weights=(1.0,), scales=(2.0,)
        )
        assert ScaleMixture.student_t(5.0).projection_law(1.5) == StudentTLaw(nu=5.0, scale=1.5)
        law = ScaleMixture.two_point(1.0, 3.0, 0.25).projection_law(1.0)
        assert law.variance == pytest.approx(0.25 + 0.75 * 9.0)

    @pytest.mark.parametrize(
        "mixture, payload",
        [
            (ScaleMixture.gaussian(), {"kind": "gaussian"}),
            (ScaleMixture.student_t(5), {"kind": "student_t", "nu": 5.0}),
            (ScaleMixture.two_point(1, 3, 0.25), {"kind": "two_point", "z1": 1.0, "z2": 3.0, "p": 0.25}),
        ],
    )
    def test_json_round_trip(self, mixture, payload):
        assert mixture.to_dict() == payload
        assert list(mixture.to_dict()) == list(payload)
        assert ScaleMixture.from_dict(mixture.to_dict()) == mixture

    @pytest.mark.parametrize(
        "fields, fragment",
        [
            ({"kind": "student_t"}, "student_t mixture needs nu"),
            ({"kind": "two_point", "z2": 1.0, "p": 0.5}, "two_point mixture needs z1"),
            ({"kind": "two_point", "z1": 1.0, "p": 0.5}, "two_point mixture needs z2"),
            ({"kind": "two_point", "z1": 1.0, "z2": 1.0}, "two_point mixture needs p"),
            ({"kind": "cauchy"}, "unknown mixture kind 'cauchy'"),
            ({"kind": ["gaussian"]}, "unknown mixture kind"),
            ({"kind": {"name": "gaussian"}}, "unknown mixture kind"),
        ],
    )
    def test_constructor_rejects_missing_fields_and_unknown_kinds(self, fields, fragment):
        with pytest.raises(ConfigError, match=fragment):
            ScaleMixture(**fields)

    @pytest.mark.parametrize("kind", [["gaussian"], {"name": "gaussian"}, None, 1])
    def test_from_dict_rejects_non_string_kinds(self, kind):
        with pytest.raises(ConfigError, match="mixture.kind: unknown value"):
            ScaleMixture.from_dict({"kind": kind})

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"kind": "gaussian", "nu": 5, "z1": 3}, "nu"),
            ({"kind": "gaussian", "p": 0.5}, "p"),
            ({"kind": "student_t", "nu": 5.0, "z2": 1.0}, "z2"),
            ({"kind": "two_point", "z1": 1.0, "z2": 3.0, "p": 0.5, "nu": 5.0}, "nu"),
        ],
    )
    def test_from_dict_rejects_fields_of_another_kind(self, payload, key):
        with pytest.raises(ConfigError, match=rf"mixture\.{key}: not a parameter of a {payload['kind']} mixture"):
            ScaleMixture.from_dict(payload)

    def test_degenerate_two_point_has_no_density(self):
        with pytest.raises(UsageError):
            ScaleMixture.two_point(0.0, 1.0, 0.5).projection_law(1.0)


NON_FINITE = {
    "model_lambda_nan": lambda: model([np.nan, 1.0]),
    "model_mu_inf": lambda: model([1.0, 1.0], mu=[np.inf, 0.0]),
    "student_t_nu_inf": lambda: ScaleMixture.student_t(np.inf),
    "two_point_z1_nan": lambda: ScaleMixture.two_point(np.nan, 1.0, 0.5),
    "two_point_z2_inf": lambda: ScaleMixture.two_point(1.0, np.inf, 0.5),
    "mixture_law_weight_nan": lambda: NormalMixtureLaw(weights=(np.nan, 1.0), scales=(1.0, 2.0)),
    "mixture_law_scale_nan": lambda: NormalMixtureLaw(weights=(1.0,), scales=(np.nan,)),
    "mixture_law_scale_inf": lambda: NormalMixtureLaw(weights=(1.0,), scales=(np.inf,)),
    "student_law_nu_inf": lambda: StudentTLaw(nu=np.inf),
    "student_law_scale_inf": lambda: StudentTLaw(nu=5.0, scale=np.inf),
    "uniform_law_hi_inf": lambda: UniformLaw(0.0, np.inf),
}


@pytest.mark.parametrize("name", NON_FINITE)
def test_library_constructors_reject_non_finite_parameters(name):
    # built, each would sample NaN rows or report a NaN or infinite moment
    with pytest.raises(ConfigError):
        NON_FINITE[name]()


class TestCovarianceOperator:
    def test_gaussian(self):
        np.testing.assert_array_equal(
            covariance_operator(model([4.0, 1.0])), np.diag([4.0, 1.0])
        )

    def test_student_t4(self):
        np.testing.assert_allclose(
            covariance_operator(model([1.0, 1.0], ScaleMixture.student_t(4.0))),
            2.0 * np.eye(2),
        )

    def test_two_point(self):
        np.testing.assert_allclose(
            covariance_operator(model([1.0], ScaleMixture.two_point(1.0, 3.0, 0.5))),
            [[5.0]],
        )


class TestSampling:
    def test_degenerate_two_point_rows_equal_mu(self):
        m = model([1.0, 0.5], ScaleMixture.two_point(0.0, 0.0, 0.5), mu=[2.0, -1.0])
        draws = sample(m, 20, seed=3)
        np.testing.assert_array_equal(draws, np.tile(m.mu, (20, 1)))

    def test_zero_eigenvalue_column_is_exactly_zero(self):
        draws = sample(model([1.0, 0.0]), 1000, seed=4)
        assert np.all(draws[:, 1] == 0.0)

    def test_deterministic_given_seed(self):
        m = model([2.0, 1.0], ScaleMixture.student_t(5.0))
        np.testing.assert_array_equal(sample(m, 100, seed=9), sample(m, 100, seed=9))
        assert not np.array_equal(sample(m, 100, seed=9), sample(m, 100, seed=10))

    def test_scale_stream_is_separate_from_gaussian_stream(self):
        # two_point(1, 1, p) has Z == 1 like the gaussian mixture; with the
        # same seed both must consume identical xi draws.
        lam = [2.0, 1.0]
        a = sample(model(lam), 50, seed=21)
        b = sample(model(lam, ScaleMixture.two_point(1.0, 1.0, 0.3)), 50, seed=21)
        np.testing.assert_array_equal(a, b)

    def test_n_must_be_positive(self):
        with pytest.raises(UsageError):
            sample(model([1.0]), 0, seed=0)

    def test_sample_covariance_matches_model(self):
        m = model([2.0, 1.0])
        draws = sample(m, 50_000, seed=12)
        cov = np.cov(draws, rowvar=False, ddof=0)
        prod = draws[:, 0] * draws[:, 1]
        se00 = batched_se((draws[:, 0] ** 2)[:, None])[0]
        se11 = batched_se((draws[:, 1] ** 2)[:, None])[0]
        se01 = batched_se(prod[:, None])[0]
        assert abs(cov[0, 0] - 2.0) < 3 * se00
        assert abs(cov[1, 1] - 1.0) < 3 * se11
        assert abs(cov[0, 1]) < 3 * se01

    def test_empirical_covariance_matches_mixture_scaling(self):
        for mixture in (ScaleMixture.student_t(5.0), ScaleMixture.two_point(0.5, 2.0, 0.5)):
            m = model([4.0, 1.0, 0.25], mixture)
            draws = sample(m, 100_000, seed=31)
            expected = covariance_operator(m)
            centered = draws - draws.mean(axis=0)
            for i in range(3):
                for j in range(3):
                    prods = centered[:, i] * centered[:, j]
                    se = batched_se(prods[:, None])[0]
                    assert abs(prods.mean() - expected[i, j]) < 4 * se

    def test_mean_converges_at_root_n_rate(self):
        m = model([4.0, 1.0, 0.25], mu=[1.0, -2.0, 0.5])
        n = 20_000
        bound = 4.0 * np.sqrt(np.trace(covariance_operator(m)) / n)
        for seed in range(20):
            draws = sample(m, n, seed=seed)
            assert np.linalg.norm(draws.mean(axis=0) - m.mu) < bound


def three_array_sample(m, n, seed):
    """The sampler's law as one expression with three live (n, d) arrays: the in-place sampler's bitwise reference."""
    rng_z, rng_xi = _streams(seed)
    z = m.mixture.sample_z(n, rng_z)
    xi = rng_xi.standard_normal((n, m.d))
    return m.mu + z[:, None] * (np.sqrt(m.lam) * xi)


IN_PLACE_MIXTURES = [ScaleMixture.gaussian(), ScaleMixture.student_t(5.0), ScaleMixture.two_point(0.0, 3.0, 0.3)]


@pytest.mark.parametrize("mixture", IN_PLACE_MIXTURES, ids=lambda m: m.label())
@pytest.mark.parametrize("n", [1, 5000])
@pytest.mark.parametrize("shift", [0.0, 1e8])
class TestInPlaceSamplersKeepEveryBit:
    def test_sample(self, mixture, n, shift):
        m = model([4.0, 1.0, 0.25, 0.0], mixture, mu=[shift, -shift, 0.5, shift])
        for seed in (0, 7):
            draws = sample(m, n, seed)
            assert draws.shape == (n, 4) and draws.flags.c_contiguous
            assert draws.tobytes() == three_array_sample(m, n, seed).tobytes()


@pytest.mark.parametrize("mixture", IN_PLACE_MIXTURES, ids=lambda m: m.label())
def test_sample_stays_within_one_buffer(mixture):
    n, d = 100_000, 16
    m = model(1.0 / np.arange(1, d + 1), mixture)
    tracemalloc.start()
    try:
        draws = sample(m, n, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draws.nbytes == n * d * 8
    assert peak < 1.25 * n * d * 8  # the three-array expression peaked near 3 n d 8


class TestConditionalMean:
    def test_eigen_aligned_split_returns_complement_mean(self):
        m = model([4.0, 1.0, 0.25], mu=[1.0, -1.0, 2.0])
        s = SubspaceSplit(u_basis=np.eye(3)[:1])
        mu2 = s.complement @ m.mu
        for w1 in ([0.0], [3.0], [-2.5]):
            np.testing.assert_allclose(conditional_mean(m, s, np.asarray(w1)), mu2, atol=1e-12)

    def test_centered_input_returns_complement_mean(self):
        m = model([2.0, 1.0], mu=[0.7, -0.3], mixture=ScaleMixture.student_t(5.0))
        s = SubspaceSplit(u_basis=random_orthogonal(2, seed=3)[:1])
        mu1 = s.u_basis @ m.mu
        np.testing.assert_allclose(
            conditional_mean(m, s, mu1), s.complement @ m.mu, atol=1e-12
        )

    def test_rotated_split_binned_means_match_formula(self):
        m = model([2.0, 1.0])
        s = SubspaceSplit(u_basis=random_orthogonal(2, seed=8)[:1])
        draws = sample(m, 200_000, seed=17)
        w1 = draws @ s.u_basis.T
        w2 = draws @ s.complement.T
        edges = np.quantile(w1[:, 0], np.linspace(0, 1, 9))
        for lo, hi in zip(edges[:-1], edges[1:]):
            mask = (w1[:, 0] >= lo) & (w1[:, 0] < hi)
            if mask.sum() < 100:
                continue
            predicted = conditional_mean(m, s, w1[mask].mean(axis=0))
            observed = w2[mask].mean(axis=0)
            se = w2[mask].std(axis=0, ddof=1) / np.sqrt(mask.sum())
            assert np.all(np.abs(observed - predicted) < 3 * se)

    def test_singular_block_raises_with_subspace_in_message(self):
        m = model([1.0, 0.0])
        s = SubspaceSplit(u_basis=np.eye(2)[1:])
        with pytest.raises(SingularityError, match="direction"):
            conditional_mean(m, s, np.zeros(1))

    def test_slope_shape(self):
        m = model([4.0, 1.0, 0.25, 0.1])
        s = SubspaceSplit(u_basis=random_orthogonal(4, seed=1)[:2])
        assert conditional_slope(m, s).shape == (2, 2)


class TestStandardizedProjection:
    def test_gaussian_gives_standard_normal(self):
        law = ScaleMixture.gaussian().standardized_law()
        assert law == NormalMixtureLaw(weights=(1.0,), scales=(1.0,))
        assert law.variance == pytest.approx(1.0)

    def test_direction_independent(self):
        # the projection on a has scale sqrt(a . Lambda a); brought to unit variance, every direction gives one law
        m = model([4.0, 1.0], ScaleMixture.student_t(7.0))
        target = m.mixture.standardized_law()
        for a in (np.array([1.0, 0.0]), np.array([0.6, 0.8])):
            law = m.mixture.projection_law(np.sqrt(a @ (m.lam * a)))
            law = law.scaled(1.0 / np.sqrt(law.variance))
            assert law.nu == target.nu
            assert law.scale == pytest.approx(target.scale, rel=1e-15)

    def test_zero_variance_direction_rejected(self):
        m = model([1.0, 0.0])
        a = np.array([0.0, 1.0])
        with pytest.raises(DegenerateDirectionError):
            m.mixture.projection_law(np.sqrt(a @ (m.lam * a)))

    def test_t5_sample_kurtosis(self):
        m = model([1.0], ScaleMixture.student_t(5.0))
        law = m.mixture.standardized_law()
        draws = sample(m, 1_000_000, 10)[:, 0] / np.sqrt(m.mixture.second_moment())
        # a t5 has no 8th moment, so the raw sample kurtosis has no standard
        # error (at this n it reads a median 8.0 over seeds, against 9): the
        # fourth moment is judged on |x| <= 10, and the mass beyond on its own
        cut = 10.0
        inner = np.where(np.abs(draws) <= cut, draws**4, 0.0)
        expected = quad(lambda y: y**4 * law.pdf(y), -cut, cut, points=[0.0], limit=200)[0]
        assert abs(inner.mean() - expected) < 4.0 * inner.std() / np.sqrt(draws.size)
        tail = 2.0 * law.cell_moments(-np.inf, -cut)[0]
        assert abs(np.mean(np.abs(draws) > cut) - tail) < 4.0 * np.sqrt(tail * (1.0 - tail) / draws.size)


class TestModelSchema:
    def test_round_trip(self):
        m = model([4.0, 1.0], ScaleMixture.two_point(1.0, 3.0, 0.25), mu=[0.5, -0.5])
        payload = {
            "d": 2,
            "mu": [0.5, -0.5],
            "lambda": [4.0, 1.0],
            "mixture": {"kind": "two_point", "z1": 1.0, "z2": 3.0, "p": 0.25},
        }
        clone = model_from_dict(payload)
        np.testing.assert_array_equal(clone.mu, m.mu)
        np.testing.assert_array_equal(clone.lam, m.lam)
        assert clone.mixture == m.mixture

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({"d": 2, "mu": [0, 0], "lambda": [1, 2], "mixture": {"kind": "gaussian"}}, "non-increasing"),
            ({"d": 2, "mu": [0], "lambda": [1, 1], "mixture": {"kind": "gaussian"}}, "model.mu"),
            ({"d": 2, "mu": [0, 0], "lambda": [1, 1]}, "model.mixture"),
            ({"d": 2, "mu": [0, 0], "lambda": [1, 1], "mixture": {"kind": "cauchy"}}, "kind"),
            ({"d": 0, "mu": [], "lambda": [], "mixture": {"kind": "gaussian"}}, "model.d"),
            ({"d": True, "mu": [0], "lambda": [1], "mixture": {"kind": "gaussian"}}, "model.d"),
            ({"d": 2, "mu": [0, float("nan")], "lambda": [1, 1], "mixture": {"kind": "gaussian"}}, "model.mu"),
            ({"d": 2, "mu": [0, 0], "lambda": ["1", 1], "mixture": {"kind": "gaussian"}}, "model.lambda"),
            ({"d": 2, "mu": [0, 0], "lambda": [1, 10**400], "mixture": {"kind": "gaussian"}}, "model.lambda"),
            ({"d": 2, "mu": [0, 0], "lambda": [1, 1], "mixture": {"kind": "student_t", "nu": "5"}}, "mixture.nu"),
            ({"d": 2, "mu": [0, 0], "lambda": [1, 1],
              "mixture": {"kind": "two_point", "z1": 1.0, "z2": float("inf"), "p": 0.5}}, "mixture.z2"),
            ({"d": 2, "mu": [0, 0], "lambda": [1, 1], "mixture": {"kind": "gaussian", "nu": 5}},
             "model: mixture.nu: not a parameter"),
            ({"d": 1, "mu": [0], "lambda": [1], "mixture": {"kind": "gaussian"}, "seed": 5},
             "model.seed: unknown field"),
            ({"d": 1, "mu": [0], "lambda": [1], "mixture": {"kind": "gaussian"}, "sigma": 3},
             "model.sigma: unknown field"),
        ],
    )
    def test_schema_violations(self, payload, fragment):
        with pytest.raises(ConfigError, match=fragment):
            model_from_dict(payload)

    def test_model_validation(self):
        with pytest.raises(ConfigError):
            model([1.0, 2.0])
        with pytest.raises(ConfigError):
            model([1.0, -0.5])


def test_samples_csv_format(tmp_path):
    draws = sample(model([1.0, 0.5]), 5, seed=0)
    path = tmp_path / "samples.csv"
    write_samples_csv(path, draws)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "c1,c2"
    assert len(lines) == 6
    parsed = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    np.testing.assert_allclose(parsed, draws, rtol=1e-11)


def test_samples_csv_is_the_joined_text_and_streams(tmp_path):
    draws = sample(model([4.0, 1.0, 0.25], ScaleMixture.student_t(5.0), mu=[1e8, 0.5, -1.0]), 10_000, seed=9)
    path = tmp_path / "samples.csv"
    tracemalloc.start()
    try:
        write_samples_csv(path, draws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = ["c1,c2,c3"] + [",".join(format(x, ".12g") for x in row) for row in draws]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert peak < draws.nbytes  # the list of row strings and its joined copy came to about 8 draws.nbytes
