import json
import tracemalloc

import numpy as np
import pytest

from funquant import (
    CovarianceEstimate,
    EllipticalModel,
    InsufficientDataError,
    ScaleMixture,
    ShapeError,
    estimate,
    principal_angles,
    sample,
    trace_tail,
    write_estimate_json,
)


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
    est = estimate(draws)
    msd = ((draws - est.mean_hat) ** 2).sum(axis=1).mean()
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

    def test_estimate_tail(self):
        est = estimate(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert trace_tail(est, 1) == pytest.approx(1.0)

    def test_out_of_range(self):
        with pytest.raises(ShapeError):
            trace_tail(np.array([1.0, 0.5]), 4)


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


def test_estimate_stays_within_one_centered_copy():
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
    assert peak < 1.25 * n * d * 8  # on top of the draws: the centered copy and (d, d) matrices
