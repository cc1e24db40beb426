import itertools
import json
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import LinAlgError, solveh_banded

from funquant import (
    DegenerateDirectionError,
    EllipticalModel,
    InsufficientDataError,
    PointSet,
    ScaleMixture,
    ShapeError,
    StudentTLaw,
    UniformLaw,
    UsageError,
    assign,
    closed_form_two_points,
    empirical_mse,
    estimate,
    g_constant,
    lloyd,
    min_distance,
    quantizer_variable,
    sample,
    self_consistency_residual,
    univariate_principal_points,
    write_pointset_json,
)

import oracles
from oracles import normal_law
from funquant import quantize


def gaussian_model(lam, mu=None):
    lam = np.asarray(lam, dtype=float)
    return EllipticalModel(
        mu=np.zeros(lam.size) if mu is None else np.asarray(mu, dtype=float),
        lam=lam,
        mixture=ScaleMixture.gaussian(),
    )


class TestMinDistance:
    def test_self(self):
        w = PointSet(np.array([[1.0, 2.0]]))
        assert min_distance([1.0, 2.0], w) == (0.0, 0)

    def test_tie_goes_to_lowest_index(self):
        w = PointSet(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        dist, idx = min_distance([0.0, 0.0], w)
        assert dist == 1.0
        assert idx == 0

    def test_hand_distance(self):
        w = PointSet(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        dist, idx = min_distance([3.0, 0.0], w)
        assert dist == 2.0
        assert idx == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            min_distance([1.0], PointSet(np.array([[1.0, 0.0]])))


class TestAssign:
    def test_single_point_takes_all(self):
        samples = np.random.default_rng(0).standard_normal((100, 2))
        a = assign(samples, PointSet(samples.mean(axis=0, keepdims=True)))
        assert np.all(a.labels == 0)
        assert a.counts.tolist() == [100]

    def test_boundary_sample_goes_to_lowest_index(self):
        w = PointSet(np.array([[1.0], [-1.0]]))
        a = assign(np.array([[0.0]]), w)
        assert a.labels.tolist() == [0]

    def test_symmetric_counts_balance(self):
        n = 40_000
        draws = sample(gaussian_model([1.0, 0.5]), n, seed=2)
        w = PointSet(np.array([[0.8, 0.0], [-0.8, 0.0]]))
        a = assign(draws, w)
        assert abs(a.counts[0] - a.counts[1]) < 4 * np.sqrt(n)


class TestEmpiricalMse:
    def test_mean_point_gives_trace(self):
        draws = sample(gaussian_model([2.0, 1.0]), 5000, seed=3)
        est = estimate(draws.copy())
        mse = empirical_mse(draws, PointSet(est.mean_hat[None, :]))
        assert mse == pytest.approx(np.trace(est.cov_hat), rel=1e-12)

    def test_degenerate_zero(self):
        w = PointSet(np.array([[1.0, 1.0]]))
        assert empirical_mse(np.tile([1.0, 1.0], (10, 1)), w) == 0.0

    def test_univariate_two_point_value(self):
        draws = sample(gaussian_model([1.0]), 200_000, seed=4)
        mse = empirical_mse(draws, PointSet(np.array([[0.7978845608], [-0.7978845608]])))
        assert mse == pytest.approx(1.0 - 2.0 / np.pi, rel=0.02)


class TestLloyd:
    def test_k1_returns_sample_mean(self):
        draws = sample(gaussian_model([2.0, 1.0]), 1000, seed=5)
        points, report = lloyd(draws, 1, restarts=2, seed=0)
        np.testing.assert_allclose(points.points[0], draws.mean(axis=0), atol=1e-12)
        assert report.self_consistency_residual < 1e-12
        assert report.converged

    def test_k_equals_n_quantizes_perfectly(self):
        draws = sample(gaussian_model([1.0, 1.0]), 12, seed=6)
        points, report = lloyd(draws, 12, restarts=3, seed=1)
        assert report.final_mse == pytest.approx(0.0, abs=1e-20)
        np.testing.assert_allclose(
            np.sort(points.points, axis=0), np.sort(draws, axis=0), atol=1e-12
        )

    def test_fixed_point_residual(self):
        draws = sample(gaussian_model([4.0, 1.0]), 20_000, seed=8)
        _, report = lloyd(draws, 2, tol=1e-10, restarts=3, seed=3)
        assert report.self_consistency_residual < 1e-8
        assert report.converged

    def test_deterministic_and_jobs_independent(self):
        draws = sample(gaussian_model([4.0, 1.0]), 5000, seed=9)
        p1, r1 = lloyd(draws, 3, restarts=4, seed=11, jobs=1)
        p2, r2 = lloyd(draws, 3, restarts=4, seed=11, jobs=4)
        np.testing.assert_array_equal(p1.points, p2.points)
        assert r1.final_mse == r2.final_mse
        p3, _ = lloyd(draws, 3, restarts=4, seed=12)
        assert not np.array_equal(p1.points, p3.points)

    @pytest.mark.parametrize("init", ["kmeans++", "given"])
    def test_single_start_runs_inline_whatever_the_jobs(self, monkeypatch, init):
        draws = sample(gaussian_model([4.0, 1.0]), 5000, seed=9)
        start = "kmeans++" if init == "kmeans++" else draws[:3]
        p1, r1 = lloyd(draws, 3, init=start, restarts=1, seed=11, jobs=1)
        monkeypatch.setattr(quantize, "ThreadPoolExecutor", lambda *a, **kw: pytest.fail("started a thread pool"))
        p4, r4 = lloyd(draws, 3, init=start, restarts=1, seed=11, jobs=4)
        assert p4.points.tobytes() == p1.points.tobytes()
        assert r4 == r1 and r4.restarts_used == 1

    def test_user_supplied_init(self):
        draws = sample(gaussian_model([4.0, 1.0]), 10_000, seed=10)
        start = np.array([[2.0, 0.0], [-2.0, 0.0]])
        points, report = lloyd(draws, 2, init=start, tol=1e-10)
        assert report.restarts_used == 1
        assert report.self_consistency_residual < 1e-8
        assert points.points[0, 0] < 0 < points.points[1, 0] or points.points[1, 0] < 0 < points.points[0, 0]

    def test_empty_domain_reseeds_and_keeps_k(self):
        # second start point sits far outside the data and attracts nothing
        draws = sample(gaussian_model([1.0, 1.0]), 2000, seed=13)
        start = np.array([[0.0, 0.0], [500.0, 500.0]])
        points, report = lloyd(draws, 2, init=start, tol=1e-10, max_iter=200)
        assert points.k == 2
        assert report.self_consistency_residual < 1e-8

    def test_errors(self):
        draws = np.zeros((3, 2))
        with pytest.raises(InsufficientDataError):
            lloyd(draws, 4)
        with pytest.raises(UsageError):
            lloyd(draws, 0)
        with pytest.raises(UsageError):
            lloyd(draws, 2, tol=0.0)
        with pytest.raises(UsageError):
            lloyd(draws, 2, init="farthest")
        with pytest.raises(ShapeError):
            lloyd(draws, 2, init=np.zeros((3, 2)))


class TestSelfConsistencyResidual:
    def test_mean_is_self_consistent_for_k1(self):
        draws = sample(gaussian_model([1.0, 1.0]), 500, seed=14)
        w = PointSet(draws.mean(axis=0, keepdims=True))
        assert self_consistency_residual(draws, w) < 1e-12

    def test_empty_domain_reports_infinity(self):
        draws = np.zeros((5, 1))
        w = PointSet(np.array([[0.0], [100.0]]))
        assert self_consistency_residual(draws, w) == np.inf

    def test_shifted_set_has_residual_at_least_half_shift(self):
        draws = sample(gaussian_model([1.0]), 50_000, seed=15)
        points, _ = lloyd(draws, 2, tol=1e-12, restarts=3, seed=4)
        delta = 0.2
        shifted = points.points.copy()
        shifted[np.argmax(shifted[:, 0]), 0] += delta
        assert self_consistency_residual(draws, PointSet(shifted)) >= delta / 2


class TestQuantizerVariable:
    def test_k1_constant(self):
        draws = sample(gaussian_model([1.0, 1.0]), 50, seed=16)
        w = PointSet(np.array([[0.5, -0.5]]))
        out = quantizer_variable(draws, w)
        np.testing.assert_array_equal(out, np.tile([0.5, -0.5], (50, 1)))

    def test_pointwise_dominance_and_mse_equality(self):
        draws = sample(gaussian_model([4.0, 1.0]), 2000, seed=17)
        points, _ = lloyd(draws, 3, restarts=3, seed=5)
        out = quantizer_variable(draws, points)
        d_out = np.linalg.norm(draws - out, axis=1)
        for y in points.points:
            assert np.all(d_out <= np.linalg.norm(draws - y, axis=1) + 1e-12)
        assert np.mean(d_out**2) == pytest.approx(empirical_mse(draws, points), rel=1e-12)


# The laws of the frozen sweep in oracles.SWEEP_DISTORTIONS.  The two-point laws with z2 = 20 have
# local optima close to the best one at large k, so a start in the wrong basin shows; t2.5 has the
# heaviest tails here.
SWEEP_LAWS = {
    "normal": normal_law(),
    "uniform": UniformLaw(0.0, 1.0),
    **{f"t{nu:g}": StudentTLaw(nu=nu) for nu in (2.5, 3.0, 4.0, 5.0, 6.3, 10.0)},
    **{
        f"two-point-z{z2:g}-p{p:g}": ScaleMixture.two_point(1.0, z2, p).standardized_law()
        for z2 in (1.5, 2.2, 3.0, 20.0)
        for p in (0.1, 0.3, 0.5, 0.7, 0.9)
    },
    # symmetric laws whose k=2 optimum is not: the symmetric pair is a saddle
    **{f"two-point-z{z2:g}-p0.05": ScaleMixture.two_point(1.0, z2, 0.05).standardized_law() for z2 in (30.0, 50.0)},
    # scaled laws: both distortions are taken on the law less its mean, so they hold wherever it sits
    "normal-sd0.7": normal_law(sd=0.7),
    "t5-scaled": StudentTLaw(nu=5.0, scale=2.0),
}


def brute_force_cuts(m0, m1, m2, k):
    """The least-cost cuts of the cells into k runs with mass, over every set of k - 1 inner cuts."""
    best, best_cuts = np.inf, None
    for inner in itertools.combinations(range(1, m0.size), k - 1):
        cuts = (0, *inner, m0.size)
        total = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            s0, s1, s2 = m0[lo:hi].sum(), m1[lo:hi].sum(), m2[lo:hi].sum()
            total += s2 - s1 * s1 / s0 if s0 > 0 else np.inf
        if total < best:
            best, best_cuts = total, cuts
    return best_cuts


class TestUnivariateSolver:
    @pytest.mark.parametrize(
        "law, k, expected, expected_mse",
        [
            (normal_law(), 2, oracles.NORMAL_K2, oracles.NORMAL_K2_MSE),
            (normal_law(), 3, oracles.NORMAL_K3, oracles.NORMAL_K3_MSE),
            (UniformLaw(0.0, 1.0), 2, oracles.UNIFORM01_K2, oracles.UNIFORM01_K2_MSE),
            (UniformLaw(0.0, 1.0), 3, oracles.UNIFORM01_K3, oracles.UNIFORM01_K3_MSE),
            (StudentTLaw(nu=5.0), 2, oracles.T5_K2, oracles.T5_K2_MSE),
            (StudentTLaw(nu=5.0), 3, oracles.T5_K3, oracles.T5_K3_MSE),
        ],
        ids=["normal-k2", "normal-k3", "uniform-k2", "uniform-k3", "t5-k2", "t5-k3"],
    )
    def test_against_frozen_oracle_values(self, law, k, expected, expected_mse):
        points = univariate_principal_points(law, k)
        np.testing.assert_allclose(points, expected, atol=1e-4)
        assert law.expected_sq_distance(points) == pytest.approx(expected_mse, abs=1e-8)

    def test_k1_is_the_mean(self):
        assert univariate_principal_points(UniformLaw(1.5, 2.5), 1).tolist() == [2.0]
        assert univariate_principal_points(UniformLaw(0.0, 1.0), 1).tolist() == [0.5]

    def test_invalid_k(self):
        with pytest.raises(UsageError):
            univariate_principal_points(normal_law(), 0)

    def test_oracle_reproduces_frozen_values(self):
        # re-derive two frozen rows with the brute-force grid oracle
        pts, val = oracles.brute_force_principal_points(
            oracles.normal_pdf, 2, -13, 13, search_span=(-4, 4)
        )
        np.testing.assert_allclose(pts, oracles.NORMAL_K2, atol=1e-6)
        assert val == pytest.approx(oracles.NORMAL_K2_MSE, abs=1e-9)

        pts, val = oracles.brute_force_principal_points(
            oracles.student_t_pdf(5.0), 2, -30, 30, inf_tails=True,
            max_panel=2.0, search_span=(-5, 5),
        )
        np.testing.assert_allclose(pts, oracles.T5_K2, atol=1e-6)
        assert val == pytest.approx(oracles.T5_K2_MSE, abs=1e-9)

    @pytest.mark.parametrize(
        "law",
        [normal_law(), StudentTLaw(nu=4.0), ScaleMixture.two_point(1.0, 3.0, 0.3).standardized_law()],
        ids=["normal", "t4", "two-point"],
    )
    def test_k20_points_are_their_cell_means(self, law):
        points = univariate_principal_points(law, 20)
        mid = (points[1:] + points[:-1]) / 2.0
        m0, m1, _ = law.cell_moments(np.concatenate(([-np.inf], mid)), np.concatenate((mid, [np.inf])))
        assert np.all(np.diff(points) > 0)
        assert np.abs(points - m1 / m0).max() <= 1e-10 * np.sqrt(law.variance)

    @pytest.mark.parametrize("name", SWEEP_LAWS)
    def test_distortion_is_never_above_the_frozen_sweep(self, name):
        law = SWEEP_LAWS[name]
        for k, frozen in zip(oracles.SWEEP_KS, oracles.SWEEP_DISTORTIONS[name]):
            assert law.expected_sq_distance(univariate_principal_points(law, k)) <= frozen * (1.0 + 1e-13), k

    @pytest.mark.parametrize("block", [4096, 6])  # 6: blocks of one or two columns, most of them short of rows
    @pytest.mark.parametrize(
        "law, cells, k, seed",
        [
            (normal_law(), 8, 3, 0),
            (StudentTLaw(nu=2.5), 8, 3, 1),
            (ScaleMixture.two_point(1.0, 20.0, 0.1).standardized_law(), 10, 4, 2),
            (UniformLaw(0.0, 1.0), 12, 3, 3),
        ],
        ids=["normal", "t2.5", "two-point-z20", "uniform"],
    )
    def test_grid_cuts_match_brute_force(self, monkeypatch, law, cells, k, seed, block):
        monkeypatch.setattr(quantize, "_GRID_BLOCK", block)
        # bounds drawn like the solver's grid but jittered, so no two cut sets tie by symmetry
        reach = np.arcsinh(40.0)
        t = np.sort(np.random.default_rng(seed).uniform(-reach, reach, cells - 1))
        bounds = law.mean + np.sqrt(law.variance) * np.sinh(t)
        m0, m1, m2 = law.cell_moments(np.concatenate(([-np.inf], bounds)), np.concatenate((bounds, [np.inf])))
        if isinstance(law, UniformLaw):
            assert k <= np.count_nonzero(m0) < cells / 2  # most cells have no mass
        cuts = quantize._grid_cuts(m0, m1, m2, k)
        assert tuple(cuts) == brute_force_cuts(m0, m1, m2, k)
        assert np.all(np.add.reduceat(m0, cuts[:-1]) > 0.0)

    @pytest.mark.parametrize("k", [3, 20, 50])
    @pytest.mark.parametrize("law", [normal_law(), StudentTLaw(nu=2.5), UniformLaw(0.0, 1.0),
                                     ScaleMixture.two_point(1.0, 20.0, 0.1).standardized_law()],
                             ids=["normal", "t2.5", "uniform", "two-point-z20"])
    def test_grid_cuts_match_the_plain_dynamic_program(self, law, k):
        # the solver's own grid: blocks of up to 4,096 elements, and rows cut by the monotone best cut
        m0, m1, m2 = quantize._grid_moments(law, k)
        assert tuple(quantize._grid_cuts(m0, m1, m2, k)) == oracles.reference_grid_cuts(m0, m1, m2, k)

    @pytest.mark.parametrize("k", [2, 5, 20])
    def test_uniform_start_is_inside_the_support(self, monkeypatch, k):
        # the grid's two infinite end cells have no mass, so a run of them alone would start at NaN
        law, starts = UniformLaw(0.0, 1.0), []
        step = quantize._solver_step

        def recording_step(law, y):
            starts.append(y)
            return step(law, y)

        monkeypatch.setattr(quantize, "_solver_step", recording_step)
        points = univariate_principal_points(law, k)
        assert np.count_nonzero(quantize._grid_moments(law, k)[0]) == 20 * k - 2
        assert np.all(np.isfinite(starts[0])) and np.all(np.diff(starts[0]) > 0)
        assert 0.0 < starts[0][0] and starts[0][-1] < 1.0
        np.testing.assert_allclose(points, (np.arange(k) + 0.5) / k, rtol=0.0, atol=1e-12)

    def test_uniform_takes_as_many_points_as_the_grid_cap(self):
        # the grid spans the support, so all but its two end cells have mass
        points = univariate_principal_points(UniformLaw(0.0, 1.0), 400)
        np.testing.assert_allclose(points, (np.arange(400) + 0.5) / 400, rtol=0.0, atol=1e-12)

    def test_uniform_far_from_zero_keeps_full_precision(self):
        # moments about the mean: raw moments about 0 cancel in (b^3 - a^3) / 3 at 1e6
        law = UniformLaw(1e6, 1e6 + 1.0)
        points = univariate_principal_points(law, 20)
        np.testing.assert_allclose(points, 1e6 + (np.arange(20) + 0.5) / 20, rtol=0.0, atol=1e-8)
        assert law.expected_sq_distance(points) == pytest.approx(1.0 / 4800, rel=1e-9, abs=0.0)

    def test_more_points_than_cells_with_mass_rejected(self):
        m0 = np.array([0.0, 0.5, 0.0, 0.5, 0.0])
        with pytest.raises(UsageError, match="k=3"):
            quantize._grid_cuts(m0, m0, m0, 3)

    def test_k100_start_stays_within_its_memory_bound(self):
        law = normal_law()
        tracemalloc.start()
        try:
            points = univariate_principal_points(law, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6  # a (1001, 1001) cost matrix alone would be 8.0 MB
        mid = (points[1:] + points[:-1]) / 2.0
        m0, m1, _ = law.cell_moments(np.concatenate(([-np.inf], mid)), np.concatenate((mid, [np.inf])))
        assert np.all(np.diff(points) > 0)
        assert np.abs(points - m1 / m0).max() <= 1e-10 * np.sqrt(law.variance)

    def test_k_beyond_the_grid_cap_rejected(self):
        with pytest.raises(UsageError, match="k=501"):
            univariate_principal_points(normal_law(), 501)

    @pytest.mark.parametrize("z2", [30.0, 50.0])
    def test_symmetric_saddle_is_left_for_the_asymmetric_optimum(self, z2):
        law = ScaleMixture.two_point(1.0, z2, 0.05).standardized_law()
        points = univariate_principal_points(law, 2)
        saddle = np.array([-1.0, 1.0]) * (law.cell_moments(0.0, np.inf)[1] / 0.5)  # each half's mean
        lower = quantize._escape(law, saddle)
        assert lower is not None and law.expected_sq_distance(lower) < law.expected_sq_distance(saddle)
        assert quantize._escape(law, points) is None  # a minimum: no negative eigenvalue
        assert points[0] + points[1] > 0.1  # the mirror image whose points' sum is positive
        assert law.expected_sq_distance(points) < law.expected_sq_distance(saddle) * (1 - 3e-3)

    def test_tridiagonal_solve_is_scipys_to_the_bit(self):
        rng = np.random.default_rng(14)
        solved = 0
        for _ in range(3000):
            n = int(rng.integers(2, 25))
            off = rng.normal(size=n - 1) * rng.uniform(0.1, 2.0)
            # half the diagonals dominate (positive definite), half are drawn small (mostly not)
            diagonal = rng.uniform(0.0, 3.0, size=n)
            if rng.random() < 0.5:
                diagonal += np.abs(np.append(off, 0.0)) + np.abs(np.append(0.0, off))
            rhs = rng.normal(size=n)
            bands = np.zeros((2, n))
            bands[0, 1:], bands[1] = off, diagonal
            try:
                expected = solveh_banded(bands, rhs)
            except LinAlgError:
                with pytest.raises(np.linalg.LinAlgError):
                    quantize._solve_tridiagonal(diagonal, off, rhs)
                continue
            assert quantize._solve_tridiagonal(diagonal, off, rhs).tobytes() == expected.tobytes()
            solved += 1
        assert 1000 < solved < 3000

    @pytest.mark.parametrize("failure", ["not-positive-definite", "disordered"])
    @pytest.mark.parametrize(
        "law, k", [(normal_law(), 5), (StudentTLaw(nu=5.0), 3)], ids=["normal-k5", "t5-k3"]
    )
    def test_lloyd_max_fallback_reaches_the_same_points(self, monkeypatch, law, k, failure):
        newton = univariate_principal_points(law, k)
        calls = []

        def broken_solve(diagonal, off, rhs):
            calls.append(rhs.size)
            if failure == "not-positive-definite":
                raise np.linalg.LinAlgError("not positive definite")
            return -10.0 * np.arange(rhs.size)  # a step that reverses the points' order

        monkeypatch.setattr(quantize, "_solve_tridiagonal", broken_solve)
        lloyd_max = univariate_principal_points(law, k)
        assert calls
        np.testing.assert_allclose(lloyd_max, newton, rtol=0.0, atol=1e-10 * np.sqrt(law.variance))

    def test_gauss_hermite_cross_check(self):
        # GH quadrature of the kinked integrand is only coarsely accurate,
        # but anchors the panel oracle at the percent level
        gh = oracles.gauss_hermite_objective(oracles.NORMAL_K2)
        assert gh == pytest.approx(oracles.NORMAL_K2_MSE, rel=0.02)


class TestClosedFormTwoPoints:
    def test_gaussian_41(self):
        points = closed_form_two_points(gaussian_model([4.0, 1.0]))
        expected = 2.0 * 0.797884560803
        np.testing.assert_allclose(
            np.sort(points.points[:, 0]), [-expected, expected], atol=1e-4
        )
        np.testing.assert_allclose(points.points[:, 1], 0.0, atol=1e-12)

    def test_mean_shift_moves_points_exactly(self):
        shift = np.array([1.5, -2.0])
        base = closed_form_two_points(gaussian_model([4.0, 1.0]))
        moved = closed_form_two_points(gaussian_model([4.0, 1.0], mu=shift))
        np.testing.assert_allclose(moved.points, base.points + shift, atol=1e-12)

    def test_t5_matches_univariate_oracle(self):
        points = closed_form_two_points(
            EllipticalModel(mu=np.zeros(1), lam=np.ones(1), mixture=ScaleMixture.student_t(5.0))
        )
        np.testing.assert_allclose(points.points[:, 0], oracles.T5_K2, atol=1e-4)

    def test_t_with_huge_nu_matches_gaussian(self):
        # the t points differ from the gaussian ones by O(1/nu); a density constant or CDF that
        # loses precision as nu grows would show here
        t_model = EllipticalModel(mu=np.zeros(2), lam=np.array([4.0, 1.0]), mixture=ScaleMixture.student_t(1e9))
        np.testing.assert_allclose(
            closed_form_two_points(t_model).points, closed_form_two_points(gaussian_model([4.0, 1.0])).points,
            rtol=0.0, atol=1e-8,
        )

    def test_degenerate_model_rejected(self):
        with pytest.raises(DegenerateDirectionError):
            closed_form_two_points(gaussian_model([0.0, 0.0]))

    def test_tied_leading_eigenvalues_warn(self):
        with pytest.warns(RuntimeWarning, match="not unique"):
            points = closed_form_two_points(gaussian_model([1.0, 1.0]))
        assert np.all(points.points[:, 1] == 0.0)


class TestGConstant:
    def test_gaussian_value(self):
        g = g_constant(gaussian_model([4.0, 1.0]))
        assert g == pytest.approx(1.0 - 2.0 / np.pi, abs=1e-9)

    def test_direction_independent(self):
        # each direction a has its own projection law, of scale sqrt(a . Lambda a); D / Var must not move
        for mixture in (ScaleMixture.student_t(5.0), ScaleMixture.gaussian(), ScaleMixture.two_point(1.0, 3.0, 0.3)):
            model = EllipticalModel(mu=np.zeros(3), lam=np.array([4.0, 1.0, 0.25]), mixture=mixture)
            rng = np.random.default_rng(18)
            values = []
            for _ in range(10):
                a = rng.standard_normal(3)
                a /= np.linalg.norm(a)
                law = mixture.projection_law(np.sqrt(a @ (model.lam * a)))
                pts = univariate_principal_points(law, 2)
                values.append(law.expected_sq_distance(pts) / law.variance)
            assert max(values) - min(values) < 1e-12
            assert values[0] == pytest.approx(g_constant(model), abs=1e-9)

    def test_unit_two_point_mixture_matches_gaussian(self):
        g_two = g_constant(
            EllipticalModel(
                mu=np.zeros(1), lam=np.ones(1), mixture=ScaleMixture.two_point(1.0, 1.0, 0.5)
            )
        )
        assert g_two == pytest.approx(1.0 - 2.0 / np.pi, abs=1e-12)

    def test_frozen_values(self):
        assert g_constant(gaussian_model([1.0])) == pytest.approx(oracles.G_GAUSSIAN, abs=1e-9)
        g_t5 = g_constant(
            EllipticalModel(mu=np.zeros(1), lam=np.ones(1), mixture=ScaleMixture.student_t(5.0))
        )
        assert g_t5 == pytest.approx(oracles.G_T5, abs=1e-9)


@pytest.mark.parametrize(
    "mixture", [ScaleMixture.gaussian(), ScaleMixture.student_t(5.0)], ids=["gaussian", "t5"]
)
def test_lloyd_matches_closed_form_for_gapped_models(mixture):
    # spectrum gap of 4x; the sample route must land on the analytic pair
    model = EllipticalModel(mu=np.zeros(2), lam=np.array([4.0, 1.0]), mixture=mixture)
    draws = sample(model, 100_000, seed=77)
    points, _ = lloyd(draws, 2, tol=1e-10, restarts=10, seed=77)
    closed = closed_form_two_points(model)

    direction = points.points[1] - points.points[0]
    direction /= np.linalg.norm(direction)
    angle = min(
        np.arccos(np.clip(abs(direction[0]), 0.0, 1.0)),
        np.arccos(np.clip(abs(direction[1]), 0.0, 1.0)),
    )
    assert angle < 0.1

    gamma_hat = np.linalg.norm(points.points - draws.mean(axis=0), axis=1)
    gamma = np.abs(closed.points[:, 0])
    np.testing.assert_allclose(np.sort(gamma_hat), np.sort(gamma), rtol=0.03)


class TestPointSet:
    def test_json_round_trip(self, tmp_path):
        w = PointSet(np.array([[1.59577, 0.0], [-1.59577, 0.0]]))
        path = tmp_path / "pointset.json"
        write_pointset_json(path, w, mse=2.4535, residual=1e-9)
        payload = json.loads(path.read_text())
        assert payload["k"] == 2
        np.testing.assert_allclose(payload["points"], w.points, rtol=1e-11)
        assert payload["mse"] == pytest.approx(2.4535)
        # idempotent second write
        first = path.read_bytes()
        write_pointset_json(path, PointSet(np.array(payload["points"])), payload["mse"], payload["residual"])
        assert path.read_bytes() == first


def t5_model(lam):
    lam = np.asarray(lam, dtype=float)
    return EllipticalModel(mu=np.zeros(lam.size), lam=lam, mixture=ScaleMixture.student_t(5.0))


# (draws, k, lloyd keyword arguments): every case has d >= 2.
LLOYD_CASES = {
    "d3-k8-capped": (lambda: sample(t5_model([4.0, 1.0, 0.25]), 3000, seed=21), 8,
                     {"max_iter": 10, "restarts": 2, "seed": 1}),
    "d64-k16": (lambda: sample(t5_model(1.0 / np.arange(1, 65) ** 2), 600, seed=22), 16,
                {"max_iter": 8, "restarts": 2, "seed": 2}),
    "isotropic-k3": (lambda: sample(gaussian_model([1.0, 1.0, 1.0]), 2000, seed=23), 3,
                     {"tol": 1e-10, "restarts": 2, "seed": 3}),
    "empty-domain-reseed": (lambda: sample(gaussian_model([1.0, 1.0]), 2000, seed=24), 3,
                            {"init": np.array([[0.0, 0.0], [500.0, 500.0], [-500.0, 500.0]]), "tol": 1e-10}),
    "k-equals-n": (lambda: sample(gaussian_model([1.0, 1.0]), 10, seed=25), 10, {"restarts": 3, "seed": 4}),
    "jobs-4": (lambda: sample(gaussian_model([4.0, 1.0]), 3000, seed=26), 3,
               {"restarts": 4, "seed": 5, "jobs": 4}),
    # |mu| = 1e8 and two start points 1e-3 apart
    "offset-1e8-close-pair": (lambda: sample(gaussian_model([1.0, 0.25], mu=[6e7, 8e7]), 2000, seed=27), 2,
                              {"init": np.array([[6e7, 8e7], [6e7 + 1e-3, 8e7]]), "tol": 1e-10}),
}


def record_repairs(monkeypatch) -> list:
    """Collect every block of rows that ``_nearest`` ranks again by the difference formula."""
    seen = []
    repair = quantize._repair

    def recording(samples, points):
        seen.append(samples.copy())
        return repair(samples, points)

    monkeypatch.setattr(quantize, "_repair", recording)
    return seen


def labels_and_distances(samples, points):
    """Labels from ``_nearest``, then each row's squared distance from ``_sq_distances``."""
    labels = quantize._nearest(samples, points)
    return labels, quantize._sq_distances(samples, points, labels)


class TestNearestKernel:
    @pytest.mark.parametrize("block_bytes", [quantize._BLOCK_BYTES, 1000], ids=["default-block", "tiny-block"])
    @pytest.mark.parametrize("case", sorted(LLOYD_CASES))
    def test_lloyd_matches_reference_bit_for_bit(self, case, block_bytes, monkeypatch):
        monkeypatch.setattr(quantize, "_BLOCK_BYTES", block_bytes)
        make, k, kwargs = LLOYD_CASES[case]
        draws = make()
        points, report = lloyd(draws, k, **kwargs)
        ref = {key: value for key, value in kwargs.items() if key != "jobs"}
        ref_points, ref_mse, ref_iterations, ref_converged, _, ref_residual = oracles.reference_lloyd(draws, k, **ref)
        np.testing.assert_array_equal(points.points, ref_points)
        assert report.final_mse == ref_mse
        assert report.iterations == ref_iterations
        assert report.converged == ref_converged
        assert report.self_consistency_residual == ref_residual

    @pytest.mark.parametrize("block_bytes", [quantize._BLOCK_BYTES, 1000], ids=["default-block", "tiny-block"])
    @pytest.mark.parametrize("case", ["empty-domain-reseed", "offset-1e8-close-pair", "d3-k8-capped"])
    def test_each_step_count_gives_the_reference_mse(self, case, block_bytes, monkeypatch):
        # a solve capped at t steps ends with the mse after step t: the reference history, step by step
        monkeypatch.setattr(quantize, "_BLOCK_BYTES", block_bytes)
        make, k, kwargs = LLOYD_CASES[case]
        draws = make()
        tol, max_iter = kwargs.get("tol", 1e-8), kwargs.get("max_iter", 300)
        if "init" in kwargs:
            start = kwargs["init"]
        else:  # the case's first k-means++ start
            stream = np.random.SeedSequence([kwargs["seed"], 1]).spawn(1)[0]
            start = oracles.reference_kmeanspp_init(draws, k, np.random.Generator(np.random.Philox(stream)))
        _, _, steps, _, history = oracles.reference_lloyd_once(draws, k, tol, max_iter, start)
        ladder = [lloyd(draws, k, init=start, tol=tol, max_iter=t)[1].final_mse for t in range(1, steps + 1)]
        assert steps >= 10
        assert ladder == list(history[1:])
        assert np.all(np.diff([history[0], *ladder]) <= 0.0)

    @pytest.mark.parametrize("n", [1, 15, 16, 17])
    def test_blocks_match_full_tensor(self, n, monkeypatch):
        points = np.random.default_rng(30).standard_normal((5, 3))
        monkeypatch.setattr(quantize, "_BLOCK_BYTES", 16 * 5 * 3 * 8)  # 16 rows per block
        draws = np.random.default_rng(31).standard_normal((n, 3)) * 2.0
        labels, d2min = labels_and_distances(draws, points)
        d2 = oracles.reference_sq_distances(draws, points)
        np.testing.assert_array_equal(labels, d2.argmin(axis=1))
        np.testing.assert_array_equal(d2min, d2.min(axis=1))

    def test_exact_lattice_ties_go_to_lowest_index(self, monkeypatch):
        monkeypatch.setattr(quantize, "_BLOCK_BYTES", 7 * 5 * 2 * 8)  # 7 rows per block
        grid = np.arange(-3, 4)
        lattice = np.array([(x, y) for x in grid for y in grid])
        # index 4 duplicates index 0 and must never win
        points = np.array([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 0]])
        exact = ((lattice[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        expected = np.array([int(np.flatnonzero(row == row.min())[0]) for row in exact])
        assert (exact == exact.min(axis=1, keepdims=True)).sum(axis=1).max() >= 3
        a = assign(lattice.astype(float), PointSet(points.astype(float)))
        np.testing.assert_array_equal(a.labels, expected)
        assert a.counts[4] == 0

    def test_offset_samples_keep_reference_labels(self, monkeypatch):
        # at |mu| = 1e8 an uncentered expansion rounds |x|^2 to about 2 units,
        # far more than the 4e-3 |x_1 - mu_1| between the two points' distances
        mu = np.array([6e7, 8e7])
        draws = mu + np.random.default_rng(36).standard_normal((5000, 2))
        points = mu + np.array([[0.0, 0.0], [1e-3, 0.0]])
        d2 = oracles.reference_sq_distances(draws, points)
        uncentered = ((points**2).sum(axis=1) - 2.0 * draws @ points.T).argmin(axis=1)
        assert (uncentered != d2.argmin(axis=1)).sum() > 100
        seen = record_repairs(monkeypatch)
        labels, d2min = labels_and_distances(draws, points)
        np.testing.assert_array_equal(labels, d2.argmin(axis=1))
        np.testing.assert_array_equal(d2min, d2.min(axis=1))
        # centered, the rounding scale is |x - mu|^2, not |mu|^2, so no row is a near tie
        assert not seen

    @pytest.mark.parametrize("offset", [1 / 3, 1e6], ids=["third", "1e6"])
    def test_shifted_lattice_ties_take_the_repair_path(self, offset, monkeypatch):
        monkeypatch.setattr(quantize, "_BLOCK_BYTES", 7 * 5 * 8)  # 7 rows per block
        seen = record_repairs(monkeypatch)
        lattice = np.array([(x, y) for x in range(-3, 4) for y in range(-3, 4)]) + offset
        points = np.array([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 0]]) + offset
        d2 = oracles.reference_sq_distances(lattice, points)
        tied = (d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) > 1
        assert tied.sum() == 22  # the shift keeps every tie of the unshifted lattice exact
        labels, d2min = labels_and_distances(lattice, points)
        np.testing.assert_array_equal(labels, d2.argmin(axis=1))
        np.testing.assert_array_equal(d2min, d2.min(axis=1))
        assert not (labels == 4).any()
        repaired = np.concatenate(seen)
        assert all((repaired == row).all(axis=1).any() for row in lattice[tied])

    def test_rows_take_the_repair_path_only_at_near_ties(self, monkeypatch):
        rng = np.random.default_rng(37)
        points = 2.0 * rng.standard_normal((8, 3))
        points[:2] = [[0.75, 0.0, 0.0], [0.25, 0.0, 0.0]]
        # 10^4 t5 draws, then 200 rows at most 20 ulps off the plane x_1 = 0.5 between points 0 and 1
        offplane = rng.integers(-20, 21, 200) * np.spacing(0.5)
        offplane[:100] = 0.0
        plane = np.column_stack([0.5 + offplane, 0.1 * rng.standard_normal((200, 2))])
        draws = np.vstack([sample(t5_model([4.0, 1.0, 0.25]), 10_000, seed=38), plane])
        seen = record_repairs(monkeypatch)
        labels, d2min = labels_and_distances(draws, points)
        d2 = oracles.reference_sq_distances(draws, points)
        np.testing.assert_array_equal(labels, d2.argmin(axis=1))
        np.testing.assert_array_equal(d2min, d2.min(axis=1))
        repaired = np.concatenate(seen)
        tied = (d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) > 1
        # within twice the kernel's bound (2d + 8) eps R^2 of a tie
        shift = draws.mean(axis=0)
        reach = np.linalg.norm(draws - shift, axis=1) + np.linalg.norm(points - shift, axis=1).max()
        ranked = np.sort(d2, axis=1)
        near = ranked[:, 1] - ranked[:, 0] <= 2 * (2 * 3 + 8) * np.finfo(float).eps * reach**2
        # every exact tie is repaired, every repaired row is a near tie, and no plain draw is one
        assert tied.sum() >= 50
        assert all((repaired == row).all(axis=1).any() for row in draws[tied])
        assert all((draws[near] == row).all(axis=1).any() for row in repaired)
        assert not near[:10_000].any()

    @pytest.mark.parametrize(
        "scale, spread, d, k",
        [(1.0, 1e-14, 2, 6), (1.0, 1e-14, 5, 16), (1e-150, 1e-3, 4, 5), (1e140, 1e-6, 2, 4),
         (1.0, 1e-12, 130, 7), (1.0, 1.0, 5, 1)],
        ids=["near-duplicates-d2", "near-duplicates-d5", "tiny-scale", "huge-scale", "d130", "k1"],
    )
    def test_clustered_points_match_the_reference(self, scale, spread, d, k):
        # points about spread * scale apart, in a cloud of size scale centered at 5 * scale:
        # distances differ by a few ulps, so these rows test the repair bound itself
        rng = np.random.default_rng(39)
        draws = scale * (5.0 + rng.standard_normal((400, d)))
        points = scale * (5.0 + spread * rng.standard_normal((k, d)))
        labels, d2min = labels_and_distances(draws, points)
        d2 = oracles.reference_sq_distances(draws, points)
        np.testing.assert_array_equal(labels, d2.argmin(axis=1))
        np.testing.assert_array_equal(d2min, d2.min(axis=1))

    def test_assign_memory_stays_well_under_the_full_tensor(self):
        import tracemalloc

        draws = np.random.default_rng(32).standard_normal((100_000, 8))
        w = PointSet(np.random.default_rng(33).standard_normal((32, 8)))
        tracemalloc.start()
        try:
            assign(draws, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the full (n, k, d) float64 tensor would take 205 MB
        assert peak < 32 * 2**20


def repaired_rows(seen) -> list:
    """Every row ``record_repairs`` saw, as sorted bytes, so threads' order does not matter."""
    return sorted(row.tobytes() for block in seen for row in block)


def poison(work, keep=None):
    """Fill every buffer of a ``_Workspace`` but ``keep`` with values no kernel result can take."""
    for buf in vars(work).values():
        if isinstance(buf, np.ndarray) and buf is not keep:
            buf.fill(np.nan if buf.dtype.kind == "f" else True if buf.dtype == bool else -1)


class TestWorkspace:
    @pytest.mark.parametrize("block_bytes", [quantize._BLOCK_BYTES, 16 * 5 * 8], ids=["default-block", "tiny-block"])
    def test_poisoned_workspace_matches_a_fresh_call(self, block_bytes, monkeypatch):
        monkeypatch.setattr(quantize, "_BLOCK_BYTES", block_bytes)  # tiny: 16 rows a block, the last has 9
        rng = np.random.default_rng(40)
        # lattice rows with exact ties take the repair path, found through the reused ``close`` row
        lattice = np.array([(x, y, 0.0) for x in range(-3, 4) for y in range(-3, 4)])
        draws = np.vstack([2.0 * rng.standard_normal((1000, 3)), lattice])
        work = quantize._Workspace(len(draws), 5, 3)
        seen = record_repairs(monkeypatch)
        tie_points = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [1, 0, 0]], dtype=float)
        for points in (rng.standard_normal((5, 3)), tie_points, 3.0 * rng.standard_normal((5, 3))):
            first = len(seen)
            expected = labels_and_distances(draws, points)
            fresh = len(seen)
            poison(work)
            labels = quantize._nearest(draws, points, quantize._centered(draws), work)
            poison(work, keep=labels)  # the labels are the distance pass's input
            d2min = quantize._sq_distances(draws, points, labels, work)
            assert labels is work.labels and d2min is work.d2min
            np.testing.assert_array_equal(labels, expected[0])
            np.testing.assert_array_equal(d2min, expected[1])
            # a stale count only sends rows to the repair path, whose labels are exact
            assert repaired_rows(seen[fresh:]) == repaired_rows(seen[first:fresh])
        assert seen

    @pytest.mark.parametrize("block_bytes", [quantize._BLOCK_BYTES, 1000], ids=["default-block", "tiny-block"])
    @pytest.mark.parametrize("case", sorted(LLOYD_CASES))
    def test_poisoning_before_every_kernel_call_changes_no_bit(self, case, block_bytes, monkeypatch):
        monkeypatch.setattr(quantize, "_BLOCK_BYTES", block_bytes)
        make, k, kwargs = LLOYD_CASES[case]
        draws = make()
        seen = record_repairs(monkeypatch)
        expected_points, expected_report = lloyd(draws, k, **kwargs)
        expected_repairs = repaired_rows(seen)
        seen.clear()
        calls = []

        def poisoned(kernel):
            # ``arg`` is the centering for ``_nearest`` and the labels, kept, for ``_sq_distances``
            def call(samples, points, arg, work=None):
                assert work is not None  # every kernel call of a solve goes through its workspace
                poison(work, keep=arg)
                calls.append(kernel.__name__)
                return kernel(samples, points, arg, work)

            return call

        for name in ("_nearest", "_sq_distances"):
            monkeypatch.setattr(quantize, name, poisoned(getattr(quantize, name)))
        points, report = lloyd(draws, k, **kwargs)
        assert calls.count("_nearest") > report.iterations and "_sq_distances" in calls
        np.testing.assert_array_equal(points.points, expected_points.points)
        assert report == expected_report
        assert repaired_rows(seen) == expected_repairs

    @pytest.mark.parametrize("max_iter", [1, 3, 300])
    @pytest.mark.parametrize(
        "case, reseeds", [("d3-k8-capped", 0), ("empty-domain-reseed", 2), ("isotropic-k3", 0), ("k-equals-n", 0)]
    )
    def test_distances_are_computed_once_per_run_and_reseed(self, case, reseeds, max_iter, monkeypatch):
        # Lloyd steps read only labels, so no step count may add a distance pass
        make, k, kwargs = LLOYD_CASES[case]
        draws = make()
        calls, iterations = [], []

        def counting(kernel):
            return lambda *args: calls.append(kernel.__name__) or kernel(*args)

        for name in ("_nearest", "_sq_distances"):
            monkeypatch.setattr(quantize, name, counting(getattr(quantize, name)))
        lloyd_once = quantize._lloyd_once

        def recording(*args):
            result = lloyd_once(*args)
            iterations.append(result[1].iterations)
            return result

        monkeypatch.setattr(quantize, "_lloyd_once", recording)
        lloyd(draws, k, **{**kwargs, "max_iter": max_iter})
        runs = 1 if "init" in kwargs else kwargs["restarts"]
        assert len(iterations) == runs
        # each run labels once at its start and once a step; each re-seed labels and measures once
        assert calls.count("_nearest") == runs + sum(iterations) + reseeds
        assert calls.count("_sq_distances") == runs + reseeds

    def test_one_workspace_per_worker_thread(self, monkeypatch):
        made = []
        workspace = quantize._Workspace

        def counting(*args):
            made.append(args)
            return workspace(*args)

        monkeypatch.setattr(quantize, "_Workspace", counting)
        draws = sample(gaussian_model([4.0, 1.0, 0.25]), 2000, seed=41)
        lloyd(draws, 3, restarts=10, seed=1, jobs=1)
        assert made == [(2000, 3, 3)]
        made.clear()
        lloyd(draws, 3, restarts=10, seed=1, jobs=2)
        assert 1 <= len(made) <= 2
        made.clear()
        lloyd(draws, 3, init=draws[:3], jobs=4)
        assert len(made) == 1

    @pytest.mark.parametrize("case", sorted(LLOYD_CASES))
    def test_jobs_change_no_bit(self, case):
        make, k, kwargs = LLOYD_CASES[case]
        draws = make()
        kwargs = {key: value for key, value in kwargs.items() if key != "jobs"}
        (points, report), *others = [lloyd(draws, k, jobs=jobs, **kwargs) for jobs in (1, 2, 4)]
        for other_points, other_report in others:
            np.testing.assert_array_equal(other_points.points, points.points)
            assert other_report == report


class RecordingGenerator:
    """A Philox generator whose ``choice`` calls keep a copy of their ``p``."""

    def __init__(self, seed):
        self.rng, self.p = np.random.Generator(np.random.Philox(seed)), []

    def integers(self, n):
        return self.rng.integers(n)

    def choice(self, n, p):
        self.p.append(p.copy())
        return self.rng.choice(n, p=p)


def kmeanspp_both(draws, k, seed):
    """Starts and per-pick probabilities from the package and from the row-formula reference."""
    package, reference = RecordingGenerator(seed), RecordingGenerator(seed)
    starts = quantize._kmeanspp_init(draws, np.ascontiguousarray(draws.T), k, package)
    return (starts, package.p), (oracles.reference_kmeanspp_init(draws, k, reference), reference.p)


def seeding_draws(d, n=3000, seed=50):
    return sample(t5_model(1.0 / np.arange(1, d + 1) ** 2), n, seed=seed + d) + 10.0


class TestKmeansppSeeding:
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 9, 64])
    def test_starts_match_the_row_formula(self, d):
        draws = seeding_draws(d)
        for seed, k in [(0, 2), (1, 8), (2, 16), (3, 40)]:
            (starts, p), (expected, _) = kmeanspp_both(draws, k, seed)
            assert len(p) == k - 1
            np.testing.assert_array_equal(starts, expected)

    @pytest.mark.parametrize("d", [1, 2, 3, 7])
    def test_pick_distances_match_the_row_formula_bit_for_bit(self, d):
        # numpy sums rows shorter than 8 in order, as the columns are summed
        (_, p), (_, expected) = kmeanspp_both(seeding_draws(d), 16, seed=d)
        assert len(p) == len(expected) == 15
        for got, want in zip(p, expected):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("d", [8, 9, 64])
    def test_long_rows_differ_from_the_row_formula_only_in_rounding(self, d):
        # numpy sums rows of 8 or more pairwise, so the order, and the last bits, can differ
        (_, p), (_, expected) = kmeanspp_both(seeding_draws(d), 16, seed=d)
        assert len(p) == len(expected) == 15
        for got, want in zip(p, expected):
            np.testing.assert_allclose(got, want, rtol=2 * d * np.finfo(float).eps, atol=0.0)

    @pytest.mark.parametrize("d", [1, 3, 9])
    def test_zero_distances_fall_back_without_a_draw(self, d):
        # two distinct rows: one draw finds the other, then every distance is zero
        draws = np.repeat([[2.5] * d, [-1.0] * d], 15, axis=0)
        (starts, p), (expected, expected_p) = kmeanspp_both(draws, 5, seed=4)
        np.testing.assert_array_equal(starts, expected)
        assert len(p) == len(expected_p) == 1
        np.testing.assert_array_equal(p[0], expected_p[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: assign(x, PointSet(np.zeros((2, 2)))),
        lambda x: empirical_mse(x, PointSet(np.zeros((2, 2)))),
        lambda x: self_consistency_residual(x, PointSet(np.zeros((2, 2)))),
        lambda x: quantizer_variable(x, PointSet(np.zeros((2, 2)))),
        lambda x: min_distance(x[0], PointSet(np.zeros((2, 2)))),
        lambda x: lloyd(x, 2, restarts=1),
        estimate,
    ],
    ids=["assign", "empirical_mse", "self_consistency_residual", "quantizer_variable", "min_distance",
         "lloyd", "estimate"],
)
def test_non_finite_samples_rejected(call, bad):
    draws = np.random.default_rng(34).standard_normal((20, 2))
    draws[0, 1] = bad
    with pytest.raises(UsageError, match="finite"):
        call(draws)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "call",
    [
        lambda x, p: assign(x, PointSet(p)),
        lambda x, p: empirical_mse(x, PointSet(p)),
        lambda x, p: self_consistency_residual(x, PointSet(p)),
        lambda x, p: quantizer_variable(x, PointSet(p)),
        lambda x, p: min_distance(x[0], PointSet(p)),
        lambda x, p: lloyd(x, 2, init=p, max_iter=5),
        lambda x, p: normal_law().expected_sq_distance(p[:, 0]),
    ],
    ids=["assign", "empirical_mse", "self_consistency_residual", "quantizer_variable", "min_distance",
         "lloyd_start", "expected_sq_distance"],
)
def test_non_finite_points_rejected(call, bad):
    draws = np.random.default_rng(35).standard_normal((200, 2))
    with pytest.raises(UsageError, match="finite"):
        call(draws, np.array([[bad, 0.0], [1.0, 0.0]]))


def test_kmeanspp_squared_distances_beyond_float64_raise():
    draws = np.zeros((1000, 2))
    draws[::2, 0], draws[1::2, 0] = 1.5e153, -1.5e153  # finite draws whose squared distances sum past float64
    with np.errstate(over="ignore"), pytest.raises(UsageError, match="overflow"):
        lloyd(draws, 3, restarts=1)
