import json
import tracemalloc
import warnings

import numpy as np
import pytest

from funquant import (
    CovarianceEstimate,
    EllipticalModel,
    InsufficientDataError,
    ScaleMixture,
    ShapeError,
    UsageError,
    estimate,
    principal_angles,
    sample,
    trace_tail,
    write_estimate_json,
)
from funquant.basis import fix_signs
from funquant.cli import main


def test_hand_computed_two_sample_estimate():
    est = estimate(np.array([[0.0, 0.0], [2.0, 0.0]]))
    np.testing.assert_array_equal(est.mean_hat, [1.0, 0.0])
    np.testing.assert_array_equal(est.cov_hat, np.diag([1.0, 0.0]))
    np.testing.assert_array_equal(est.eigvals, [1.0, 0.0])


def test_constant_sample_gives_zero_covariance():
    est = estimate(np.tile([1.0, -2.0, 3.0], (50, 1)))
    np.testing.assert_array_equal(est.cov_hat, np.zeros((3, 3)))
    np.testing.assert_array_equal(est.eigvals, np.zeros(3))


def test_insufficient_data():
    with pytest.raises(InsufficientDataError):
        estimate(np.ones((1, 3)))


@pytest.mark.parametrize(
    "mixture", [ScaleMixture.gaussian(), ScaleMixture.student_t(5.0)]
)
def test_eigvals_consistent_with_model(mixture):
    model = EllipticalModel(mu=np.zeros(3), lam=np.array([4.0, 1.0, 0.25]), mixture=mixture)
    est = estimate(sample(model, 100_000, seed=5))
    expected = mixture.second_moment() * model.lam
    np.testing.assert_allclose(est.eigvals, expected, rtol=0.05)


def test_estimate_structural_invariants():
    model = EllipticalModel(
        mu=np.array([1.0, 0.0, -1.0, 2.0]),
        lam=np.array([3.0, 2.0, 1.0, 0.5]),
        mixture=ScaleMixture.gaussian(),
    )
    est = estimate(sample(model, 5000, seed=8))
    assert np.abs(est.cov_hat - est.cov_hat.T).max() < 1e-12
    assert np.all(np.diff(est.eigvals) <= 0)
    assert np.all(est.eigvals >= 0)
    np.testing.assert_allclose(est.eigvecs.T @ est.eigvecs, np.eye(4), atol=1e-10)
    recon = (est.eigvecs * est.eigvals) @ est.eigvecs.T
    assert np.linalg.norm(recon - est.cov_hat) < 1e-8 * np.linalg.norm(est.cov_hat)
    for vec, val in zip(est.eigvecs.T, est.eigvals):
        assert np.linalg.norm(est.cov_hat @ vec - val * vec) < 1e-8 * est.eigvals[0]
    # sign convention: first sizable coefficient positive
    for vec in est.eigvecs.T:
        lead = vec[np.abs(vec) > 1e-12][0]
        assert lead > 0


def test_mean_squared_deviation_equals_trace():
    rng = np.random.default_rng(0)
    draws = rng.standard_normal((500, 3)) * [2.0, 1.0, 0.5]
    est = estimate(draws)  # consumes the draws: they are centred in place
    msd = (draws**2).sum(axis=1).mean()
    assert msd == pytest.approx(np.trace(est.cov_hat), rel=1e-12)


def test_top_eigenvalue_error_shrinks_with_n():
    model = EllipticalModel(
        mu=np.zeros(3), lam=np.array([4.0, 1.0, 0.25]), mixture=ScaleMixture.gaussian()
    )
    medians = []
    for n in (1000, 10_000, 100_000):
        errors = [
            abs(estimate(sample(model, n, seed=seed)).eigvals[0] / 4.0 - 1.0)
            for seed in range(20)
        ]
        medians.append(np.median(errors))
    assert medians[0] > medians[1] > medians[2]


class TestPrincipalAngles:
    def test_identical_spans(self):
        u = np.linalg.qr(np.random.default_rng(1).standard_normal((5, 2)))[0]
        assert principal_angles(u, u).max() < 1e-10

    def test_orthogonal_spans(self):
        u = np.eye(4)[:, :2]
        w = np.eye(4)[:, 2:]
        np.testing.assert_allclose(principal_angles(u, w), [np.pi / 2] * 2, atol=1e-10)

    def test_planar_angle(self):
        u = np.eye(2)[:, :1]
        w = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        assert principal_angles(u, w)[0] == pytest.approx(np.pi / 4, abs=1e-12)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ShapeError):
            principal_angles(np.ones((3, 2)), np.eye(3)[:, :1])


class TestTraceTail:
    def test_model_tail(self):
        model = EllipticalModel(
            mu=np.zeros(3), lam=np.array([4.0, 1.0, 0.25]), mixture=ScaleMixture.gaussian()
        )
        assert trace_tail(model, 1) == pytest.approx(5.25)
        assert trace_tail(model, 2) == pytest.approx(1.25)
        assert trace_tail(model, 4) == 0.0

    def test_out_of_range(self):
        model = EllipticalModel(mu=np.zeros(2), lam=np.array([1.0, 0.5]), mixture=ScaleMixture.gaussian())
        for from_index in (0, 4):
            with pytest.raises(ShapeError):
                trace_tail(model, from_index)


def test_estimate_json_round_trip(tmp_path):
    model = EllipticalModel(
        mu=np.zeros(2), lam=np.array([2.0, 1.0]), mixture=ScaleMixture.gaussian()
    )
    est = estimate(sample(model, 100, seed=3))
    path = tmp_path / "estimate.json"
    write_estimate_json(path, est)
    payload = json.loads(path.read_text())
    assert payload["n"] == 100
    np.testing.assert_allclose(payload["mean"], est.mean_hat, rtol=1e-11)
    np.testing.assert_allclose(payload["eigvals"], est.eigvals, rtol=1e-11)
    # writing the parsed payload again is byte-stable
    first = path.read_bytes()
    clone = CovarianceEstimate(
        mean_hat=np.array(payload["mean"]),
        cov_hat=est.cov_hat,
        eigvals=np.array(payload["eigvals"]),
        eigvecs=np.array(payload["eigvecs"]),
        n=payload["n"],
    )
    write_estimate_json(path, clone)
    assert path.read_bytes() == first


def test_estimate_makes_no_copy_of_the_draws():
    n, d = 100_000, 16
    model = EllipticalModel(np.zeros(d), 1.0 / np.arange(1, d + 1), ScaleMixture.student_t(5.0))
    draws = sample(model, n, seed=0)
    tracemalloc.start()
    try:
        est = estimate(draws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.n == n
    assert peak < 0.02 * n * d * 8  # on top of the draws: the (d,) mean and the (d, d) matrices


def test_cli_estimate_holds_one_copy_of_the_draws(tmp_path):
    # the fpca-d64 benchmark's estimate size: the draws themselves are n * d * 8 bytes
    n, d = 50_000, 64
    model = {"d": d, "mu": [0.0] * d, "lambda": [1.0 / (i * i) for i in range(1, d + 1)],
             "mixture": {"kind": "student_t", "nu": 5.0}}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"task": "estimate", "model": model, "n": n, "seed": 123}))
    tracemalloc.start()
    try:
        code = main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1.25 * n * d * 8


def two_copy_estimate(samples):
    """The moments and eigenpairs as ``estimate`` computed them from a centred copy of its input."""
    samples = np.asarray(samples, dtype=float)
    mean_hat = samples.mean(axis=0)
    centered = samples - mean_hat
    cov_hat = (centered.T @ centered) / samples.shape[0]
    cov_hat = 0.5 * (cov_hat + cov_hat.T)
    w, v = np.linalg.eigh(cov_hat)
    order = np.argsort(w)[::-1]
    return mean_hat, cov_hat, np.clip(w[order], 0.0, None), fix_signs(v[:, order])


def assert_same_bits(est, expected):
    for got, want in zip((est.mean_hat, est.cov_hat, est.eigvals, est.eigvecs), expected):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestConsumedSamples:
    @pytest.mark.parametrize(
        "model, n",
        [
            (EllipticalModel(np.zeros(64), 1.0 / np.arange(1, 65) ** 2, ScaleMixture.student_t(5.0)), 50_000),
            (EllipticalModel(np.full(3, 1e8), np.array([4.0, 1.0, 0.25]), ScaleMixture.gaussian()), 20_000),
            (EllipticalModel(np.zeros(4), np.array([3.0, 2.0, 1.0, 0.5]), ScaleMixture.two_point(1.0, 3.0, 0.3)),
             20_000),
        ],
        ids=["t5-d64", "gaussian-mu1e8", "two-point-d4"],
    )
    def test_estimate_keeps_the_bits_of_a_centred_copy(self, model, n):
        draws = sample(model, n, seed=123)
        x0 = draws.copy()
        est = estimate(draws)
        assert_same_bits(est, two_copy_estimate(x0))
        assert draws.tobytes() == (x0 - est.mean_hat).tobytes()

    @pytest.mark.parametrize("kind", ["read-only", "list", "int"])
    def test_inputs_it_cannot_write_are_copied_and_kept(self, kind):
        rng = np.random.default_rng(4)
        if kind == "int":
            x = rng.integers(-1000, 1000, size=(500, 3))
        else:
            x = rng.standard_normal((500, 3)) * [2.0, 1.0, 0.5] + 7.0
        if kind == "read-only":
            x.setflags(write=False)
        x0 = x.copy()
        given = x.tolist() if kind == "list" else x
        est = estimate(given)
        assert_same_bits(est, two_copy_estimate(x0))
        if kind == "list":
            assert given == x0.tolist()
        else:
            assert x.dtype == x0.dtype and x.tobytes() == x0.tobytes()

    def test_second_moments_beyond_float64_raise(self):
        draws = np.zeros((1000, 2))
        draws[::2, 0], draws[1::2, 0] = 1.5e153, -1.5e153  # finite draws whose Gram sum overflows
        with np.errstate(over="ignore"), pytest.raises(UsageError, match="overflow"):
            estimate(draws)

    @pytest.mark.parametrize(
        "pair, message",
        [((np.nan, 1.0), "must be finite"), ((np.inf, -np.inf), "must be finite"),
         ((1.7e308, 1.7e308), "second moments overflow")],  # the last: finite entries whose column sum overflows
        ids=["nan", "inf-and-minus-inf", "sum-overflow"],
    )
    def test_a_non_finite_mean_raises_the_message_that_fits_without_a_warning(self, pair, message):
        draws = np.ones((10, 2))
        draws[:2, 1] = pair
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UsageError, match=message):
                estimate(draws)
