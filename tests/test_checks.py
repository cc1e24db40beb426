import time

import numpy as np
import pytest

from funquant import (
    ALL_CHECKS,
    EllipticalModel,
    NormalMixtureLaw,
    ScaleMixture,
    ShapeError,
    SubspaceSplit,
    UniformLaw,
    UsageError,
    check_conditional_linearity,
    check_convex_hull,
    check_dimension_bound,
    check_eigen_span,
    check_kernel_orthogonality,
    check_mse_identity,
    check_projection_self_consistency,
    check_ratio_invariance,
    check_unitary_equivariance,
    lloyd,
    random_orthogonal,
    reference_models,
    reference_suite,
    sample,
    univariate_principal_points,
)


def gaussian_model(lam, mu=None):
    lam = np.asarray(lam, dtype=float)
    return EllipticalModel(
        mu=np.zeros(lam.size) if mu is None else np.asarray(mu, dtype=float),
        lam=lam,
        mixture=ScaleMixture.gaussian(),
    )


def fixed_point(model, k, n, seed, tol=1e-10, restarts=5):
    draws = sample(model, n, seed)
    points, _ = lloyd(draws, k, tol=tol, restarts=restarts, seed=seed)
    return draws, points


class TestConvexHull:
    def test_k1_residual_zero(self):
        draws, points = fixed_point(gaussian_model([2.0, 1.0]), 1, 5000, seed=1)
        report = check_convex_hull(draws, points)
        assert report.passed
        assert report.residuals["simplex_residual"] < 1e-10

    def test_symmetric_pair_weights(self):
        from funquant.checks import simplex_fit

        alpha, residual = simplex_fit(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros(2))
        np.testing.assert_allclose(alpha, [0.5, 0.5], atol=1e-8)
        assert residual < 1e-10

    def test_gaussian_k3(self):
        draws, points = fixed_point(gaussian_model([4.0, 1.0]), 3, 50_000, seed=2)
        report = check_convex_hull(draws, points)
        assert report.passed
        assert report.tolerance_class == "monte-carlo"


class TestUnitaryEquivariance:
    def test_identity_transform(self):
        draws, points = fixed_point(gaussian_model([4.0, 1.0]), 2, 20_000, seed=3)
        report = check_unitary_equivariance(draws, points, np.zeros(2), 1.0, np.eye(2))
        assert report.passed
        assert report.residuals["mse_scaling"] < 1e-12

    def test_scaling_by_two(self):
        draws, points = fixed_point(gaussian_model([4.0, 1.0]), 2, 20_000, seed=4)
        report = check_unitary_equivariance(draws, points, np.zeros(2), 2.0, np.eye(2))
        assert report.passed
        assert report.residuals["mse_scaling"] < 1e-10

    def test_random_rotation_with_shift(self):
        draws, points = fixed_point(gaussian_model([4.0, 1.0, 0.25]), 2, 20_000, seed=5)
        u = random_orthogonal(3, seed=7)
        report = check_unitary_equivariance(draws, points, np.array([1.0, -2.0, 0.5]), 2.0, u)
        assert report.passed

    def test_rho_zero_rejected(self):
        draws, points = fixed_point(gaussian_model([1.0, 1.0]), 2, 1000, seed=6)
        with pytest.raises(UsageError):
            check_unitary_equivariance(draws, points, np.zeros(2), 0.0, np.eye(2))

    def test_non_orthogonal_rejected(self):
        draws, points = fixed_point(gaussian_model([1.0, 1.0]), 2, 1000, seed=6)
        with pytest.raises(ShapeError):
            check_unitary_equivariance(draws, points, np.zeros(2), 1.0, np.ones((2, 2)))


class TestKernelOrthogonality:
    def test_single_kernel_direction_exact_zero(self):
        model = gaussian_model([1.0, 0.0])
        report = check_kernel_orthogonality(*fixed_point(model, 2, 20_000, seed=8), model)
        assert report.passed
        assert report.residuals["kernel_magnitude"] == 0.0

    def test_two_kernel_directions(self):
        model = gaussian_model([2.0, 1.0, 0.0, 0.0])
        report = check_kernel_orthogonality(*fixed_point(model, 3, 20_000, seed=9), model, tol_kernel=1e-12)
        assert report.passed

    def test_requires_a_kernel(self):
        model = gaussian_model([2.0, 1.0])
        with pytest.raises(UsageError):
            check_kernel_orthogonality(*fixed_point(model, 2, 100, seed=0), model)

    def test_domain_means_stay_kernel_orthogonal_after_perturbation(self):
        model = gaussian_model([1.0, 0.0])
        draws = sample(model, 20_000, seed=10)
        points, _ = lloyd(draws, 2, tol=1e-10, restarts=3, seed=10)
        perturbed = points.points.copy()
        perturbed[:, 0] += 0.05  # perturb only along the non-kernel coordinate
        labels = np.argmin(
            ((draws[:, None, :] - perturbed[None, :, :]) ** 2).sum(axis=2), axis=1
        )
        for j in range(2):
            domain_mean = draws[labels == j].mean(axis=0)
            assert domain_mean[1] == 0.0


class TestEigenSpan:
    def test_gaussian_leading_direction(self):
        model = gaussian_model([4.0, 1.0, 0.25])
        report = check_eigen_span(*fixed_point(model, 2, 50_000, seed=11, restarts=10), model, 1)
        assert report.passed
        assert report.residuals["max_angle"] < 0.1
        assert report.residuals["rank_deviation"] == 0.0

    def test_rotated_model_measured_against_rotated_axes(self):
        model = gaussian_model([4.0, 1.0, 0.25])
        q = random_orthogonal(3, seed=12)
        draws = sample(model, 50_000, seed=12) @ q.T
        points, _ = lloyd(draws, 2, tol=1e-10, restarts=10, seed=12)
        report = check_eigen_span(draws, points, model, 1, rotation=q)
        assert report.passed

    def test_t5_wide_gap(self):
        model = EllipticalModel(
            mu=np.zeros(2), lam=np.array([9.0, 1.0]), mixture=ScaleMixture.student_t(5.0)
        )
        report = check_eigen_span(*fixed_point(model, 2, 200_000, seed=13, restarts=10), model, 1)
        assert report.passed

    def test_flat_spectrum_flagged_not_failed(self):
        model = gaussian_model([1.0, 1.0, 1.0])
        report = check_eigen_span(*fixed_point(model, 2, 5000, seed=14, restarts=10), model, 1)
        assert report.flags == ("degenerate-spectrum",)
        assert report.passed  # vacuously: no residuals measured

    def test_failing_configuration_returns_report(self):
        # an absurd angle tolerance fails the check without raising
        model = gaussian_model([4.0, 1.0, 0.25])
        report = check_eigen_span(
            *fixed_point(model, 2, 20_000, seed=15, restarts=10), model, 1, angle_tol=1e-12
        )
        assert not report.passed
        assert report.flags == ()


class TestDimensionBound:
    def test_k1_rank_zero(self):
        report = check_dimension_bound(*fixed_point(gaussian_model([2.0, 1.0]), 1, 5000, seed=16, restarts=10))
        assert report.passed

    @pytest.mark.parametrize("k", [2, 3])
    def test_rank_at_most_k_minus_one(self, k):
        report = check_dimension_bound(*fixed_point(gaussian_model([4.0, 1.0]), k, 30_000, seed=17, restarts=10))
        assert report.passed
        assert report.residuals["rank_excess"] == 0.0


class TestProjectionSelfConsistency:
    def test_coordinate_span(self):
        # points lie in the span of the first two coordinates
        model = gaussian_model([4.0, 1.0, 0.0])
        draws, points = fixed_point(model, 2, 20_000, seed=18)
        report = check_projection_self_consistency(draws, points)
        assert report.passed
        assert report.params["span_dim"] <= 2

    def test_projected_set_matches_univariate_fixed_point(self):
        draws, points = fixed_point(gaussian_model([4.0, 1.0]), 2, 50_000, seed=19, tol=1e-12)
        _, svals, vt = np.linalg.svd(points.points)
        basis = vt[: (svals > 1e-9 * svals[0]).sum()]
        proj_draws = draws @ basis.T
        proj_points = points.points @ basis.T
        refined, _ = lloyd(proj_draws, 2, init=proj_points, tol=1e-12, max_iter=300)
        np.testing.assert_allclose(refined.points, proj_points, atol=1e-6)

    def test_residual_change_tiny_for_tight_fixed_point(self):
        draws, points = fixed_point(gaussian_model([4.0, 1.0]), 2, 20_000, seed=20, tol=1e-13)
        report = check_projection_self_consistency(draws, points)
        assert report.passed
        assert report.residuals["projected_residual"] < 1e-10


class TestConditionalLinearity:
    def test_eigen_aligned_slope_is_noise(self):
        model = gaussian_model([4.0, 1.0, 0.25])
        split = SubspaceSplit(u_basis=np.eye(3)[:1])
        report = check_conditional_linearity(sample(model, 100_000, 21), model, split)
        assert report.passed
        assert "slope_max_z" in report.residuals

    @pytest.mark.parametrize("mixture", [ScaleMixture.gaussian(), ScaleMixture.student_t(5.0)])
    def test_rotated_split(self, mixture):
        model = EllipticalModel(mu=np.zeros(2), lam=np.array([2.0, 1.0]), mixture=mixture)
        split = SubspaceSplit(u_basis=random_orthogonal(2, seed=22)[:1])
        report = check_conditional_linearity(sample(model, 200_000, 22), model, split)
        assert report.passed
        assert report.residuals["slope_rel_frobenius"] < 0.05


class TestRatioInvariance:
    def test_normal_matches_gaussian_constant(self):
        law = NormalMixtureLaw(weights=(1.0,), scales=(1.0,))
        report = check_ratio_invariance(law, [0.5, 2.0, 10.0], 2)
        assert report.passed
        assert report.residuals["ratio_spread"] < 1e-6
        pts = univariate_principal_points(law, 2)
        assert law.expected_sq_distance(pts) / law.variance == pytest.approx(
            1.0 - 2.0 / np.pi, abs=1e-9
        )

    def test_uniform_k3(self):
        report = check_ratio_invariance(UniformLaw(0.0, 1.0), [0.5, 2.0, 10.0], 3)
        assert report.passed

    def test_zero_rho_rejected(self):
        with pytest.raises(UsageError):
            check_ratio_invariance(UniformLaw(0.0, 1.0), [0.0], 2)


class TestMseIdentity:
    def test_unit_variance_single_direction(self):
        model = gaussian_model([1.0, 0.0])
        report = check_mse_identity(sample(model, 100_000, 23), model, [np.array([1.0, 0.0])])
        assert report.passed
        # identity value reduces to g itself
        assert report.params["g"] == pytest.approx(1.0 - 2.0 / np.pi, abs=1e-9)

    @pytest.mark.parametrize("mixture", [ScaleMixture.gaussian(), ScaleMixture.student_t(5.0)])
    def test_directions_and_argmin(self, mixture):
        model = EllipticalModel(mu=np.zeros(2), lam=np.array([4.0, 1.0]), mixture=mixture)
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        mix = np.array([1.0, 1.0]) / np.sqrt(2.0)
        report = check_mse_identity(sample(model, 200_000, 24), model, [e1, e2, mix])
        assert report.passed
        assert report.residuals["argmin_mismatch"] == 0.0

    def test_gaussian_predictions_match_hand_values(self):
        model = gaussian_model([4.0, 1.0])
        g = 1.0 - 2.0 / np.pi
        assert 5.0 - (1.0 - g) * 4.0 == pytest.approx(2.45352, abs=1e-4)
        assert 5.0 - (1.0 - g) * 1.0 == pytest.approx(4.36338, abs=1e-4)
        report = check_mse_identity(
            sample(model, 200_000, 25), model, [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        )
        assert report.passed

    def test_non_unit_direction_rejected(self):
        model = gaussian_model([1.0])
        with pytest.raises(UsageError):
            check_mse_identity(sample(model, 100, 0), model, [np.array([2.0])])


# (name, model or law label, params seed) of reference_suite(seed=3, n=2000): the
# report order and seeds are part of verification.json, so they must not drift
class TestRecordedTolerances:
    """Each check's tolerances are fixed constants; pin the values its report records."""

    def test_conditional_linearity(self):
        model = gaussian_model([4.0, 1.0, 0.25])
        aligned = check_conditional_linearity(sample(model, 2000, 40), model, SubspaceSplit(u_basis=np.eye(3)[:1]))
        assert aligned.tolerances == {"slope_max_z": 4.0, "binned_mean_max_z": 4.0}
        rotated = SubspaceSplit(u_basis=random_orthogonal(3, seed=40)[:1])
        report = check_conditional_linearity(sample(model, 2000, 40), model, rotated)
        assert report.tolerances == {"slope_rel_frobenius": 0.05, "binned_mean_max_z": 4.0}

    def test_mse_identity(self):
        model = gaussian_model([4.0, 1.0])
        report = check_mse_identity(sample(model, 2000, 41), model, list(np.eye(2)))
        assert report.tolerances == {
            "identity_rel_error_0": 0.02, "identity_rel_error_1": 0.02, "argmin_mismatch": 0.0,
        }

    def test_ratio_invariance(self):
        report = check_ratio_invariance(UniformLaw(0.0, 1.0), [2.0], 2)
        assert report.tolerances == {"ratio_spread": 1e-6}

    def test_eigen_span(self):
        model = gaussian_model([4.0, 1.0, 0.25])
        report = check_eigen_span(*fixed_point(model, 2, 5000, seed=42, restarts=10), model, 1)
        assert report.flags == ()
        assert report.tolerances == {"max_angle": 0.1, "rank_deviation": 0.0}

    @pytest.mark.parametrize("drop, flagged", [(0.9e-3, True), (1.1e-3, False)])
    def test_eigen_span_gap_threshold_is_1e_3_of_the_top_eigenvalue(self, drop, flagged):
        model = gaussian_model([1.0, 1.0 - drop])
        report = check_eigen_span(*fixed_point(model, 2, 2000, seed=42, restarts=10), model, 1)
        assert (report.flags == ("degenerate-spectrum",)) == flagged

    def test_kernel_orthogonality(self):
        model = gaussian_model([1.0, 0.0])
        report = check_kernel_orthogonality(*fixed_point(model, 2, 2000, seed=43), model)
        assert report.tolerances == {"kernel_magnitude": 1e-8}

    def test_dimension_bound(self):
        report = check_dimension_bound(*fixed_point(gaussian_model([2.0, 1.0]), 2, 2000, seed=44, restarts=10))
        assert report.tolerances == {"rank_excess": 0.0}

    def test_unitary_equivariance(self):
        draws, points = fixed_point(gaussian_model([4.0, 1.0]), 2, 2000, seed=45)
        report = check_unitary_equivariance(draws, points, np.zeros(2), 2.0, random_orthogonal(2, seed=45))
        assert report.tolerances["mse_scaling"] == 1e-10
        assert report.tolerances["residual_scaling"] == 1e-10
        assert report.tolerances["lloyd_movement"] >= 1e-8

    def test_projection_self_consistency(self):
        draws, points = fixed_point(gaussian_model([4.0, 1.0]), 2, 2000, seed=46, tol=1e-13)
        report = check_projection_self_consistency(draws, points)
        assert report.tolerances["projected_residual"] >= 1e-8


SUITE_SEQUENCE_SEED3 = [
    ("convex_hull", "gaussian|lam=(4,1,0.25)", 4),
    ("dimension_bound", "gaussian|lam=(4,1,0.25)", 4),
    ("eigen_span", "gaussian|lam=(4,1,0.25)", 7),
    ("projection_self_consistency", "gaussian|lam=(4,1,0.25)", 8),
    ("unitary_equivariance", "gaussian|lam=(4,1,0.25)", 8),
    ("conditional_linearity", "gaussian|lam=(4,1,0.25)", 11),
    ("mse_identity", "gaussian|lam=(4,1,0.25)", 12),
    ("convex_hull", "t5|lam=(4,1,0.25)", 1004),
    ("dimension_bound", "t5|lam=(4,1,0.25)", 1004),
    ("eigen_span", "t5|lam=(4,1,0.25)", 1007),
    ("projection_self_consistency", "t5|lam=(4,1,0.25)", 1008),
    ("unitary_equivariance", "t5|lam=(4,1,0.25)", 1008),
    ("conditional_linearity", "t5|lam=(4,1,0.25)", 1011),
    ("mse_identity", "t5|lam=(4,1,0.25)", 1012),
    ("convex_hull", "gaussian|lam=(1,1,1)", 2004),
    ("dimension_bound", "gaussian|lam=(1,1,1)", 2004),
    ("eigen_span", "gaussian|lam=(1,1,1)", 2007),
    ("conditional_linearity", "gaussian|lam=(1,1,1)", 2011),
    ("convex_hull", "t5|lam=(1,1,1)", 3004),
    ("dimension_bound", "t5|lam=(1,1,1)", 3004),
    ("eigen_span", "t5|lam=(1,1,1)", 3007),
    ("conditional_linearity", "t5|lam=(1,1,1)", 3011),
    ("convex_hull", "gaussian|lam=(1,0)", 4004),
    ("dimension_bound", "gaussian|lam=(1,0)", 4004),
    ("kernel_orthogonality", "gaussian|lam=(1,0)", 4008),
    ("eigen_span", "gaussian|lam=(1,0)", 4007),
    ("projection_self_consistency", "gaussian|lam=(1,0)", 4008),
    ("unitary_equivariance", "gaussian|lam=(1,0)", 4008),
    ("convex_hull", "t5|lam=(1,0)", 5004),
    ("dimension_bound", "t5|lam=(1,0)", 5004),
    ("kernel_orthogonality", "t5|lam=(1,0)", 5008),
    ("eigen_span", "t5|lam=(1,0)", 5007),
    ("projection_self_consistency", "t5|lam=(1,0)", 5008),
    ("unitary_equivariance", "t5|lam=(1,0)", 5008),
    ("ratio_invariance", "normal", None),
    ("ratio_invariance", "uniform(0,1)", None),
]


def _solve(k, seed):
    return (2000, k, "kmeans++", 1e-10, 5, seed)


_REFIT = (2000, 2, "given", 1e-8, 10, 0)  # unitary_equivariance's single run from given points

# (n, k, init, tol, restarts, seed) of every lloyd call of reference_suite(seed=3, n=2000),
# in call order: one k=3 fixture (offset 1) and one k=2 fixture (offset 5) per model, each
# solved when a check first needs it, plus eigen_span's own (offset 4), which the isotropic
# (1,1,1) models do not get; on the (1,0) models kernel_orthogonality needs the k=2 fixture
# before eigen_span runs
SUITE_SOLVES_SEED3 = [
    _solve(3, 4), _solve(2, 7), _solve(2, 8), _REFIT,
    _solve(3, 1004), _solve(2, 1007), _solve(2, 1008), _REFIT,
    _solve(3, 2004),
    _solve(3, 3004),
    _solve(3, 4004), _solve(2, 4008), _solve(2, 4007), _REFIT,
    _solve(3, 5004), _solve(2, 5008), _solve(2, 5007), _REFIT,
]


def _draws(label, seeds):
    return [(label, 2000, seed) for seed in seeds]


# (model label, n, seed) of every sample call of reference_suite(seed=3, n=2000), in
# call order: the fixtures' draws and the Monte Carlo checks' draws at offsets 8 and 9
SUITE_DRAWS_SEED3 = [
    *_draws("gaussian|lam=(4,1,0.25)", [4, 7, 8, 11, 12]),
    *_draws("t5|lam=(4,1,0.25)", [1004, 1007, 1008, 1011, 1012]),
    *_draws("gaussian|lam=(1,1,1)", [2004, 2011]),
    *_draws("t5|lam=(1,1,1)", [3004, 3011]),
    *_draws("gaussian|lam=(1,0)", [4004, 4008, 4007]),
    *_draws("t5|lam=(1,0)", [5004, 5008, 5007]),
]


def suite_keys(reports):
    return [(r.name, r.params.get("model", r.params.get("law")), r.params.get("seed")) for r in reports]


@pytest.fixture(scope="module")
def small_suite():
    started = time.perf_counter()
    reports = reference_suite(seed=3, n=2000)
    return reports, time.perf_counter() - started


class TestReferenceSuite:
    def test_models_cover_reference_grid(self):
        models = reference_models()
        assert len(models) == 6
        labels = {m.label() for m in models}
        assert any("t5" in lab for lab in labels)
        assert any("lam=(1,0)" in lab for lab in labels)

    def test_all_non_flagged_checks_pass(self):
        reports = reference_suite(seed=0, n=100_000)
        assert reports, "suite produced no reports"
        failures = [r for r in reports if not r.flags and not r.passed]
        assert not failures, [
            (r.name, r.params, r.residuals, r.tolerances) for r in failures
        ]
        flagged = [r for r in reports if r.flags]
        assert any("degenerate-spectrum" in r.flags for r in flagged)

    def test_report_sequence_is_pinned(self, small_suite):
        reports, _ = small_suite
        assert suite_keys(reports) == SUITE_SEQUENCE_SEED3
        assert sorted(ALL_CHECKS) == sorted({key[0] for key in SUITE_SEQUENCE_SEED3})

    def test_check_subset_keeps_the_suite_order(self):
        subset = ["ratio_invariance", "kernel_orthogonality", "unitary_equivariance", "dimension_bound"]
        reports = reference_suite(seed=3, n=2000, checks=subset)
        assert suite_keys(reports) == [key for key in SUITE_SEQUENCE_SEED3 if key[0] in subset]

    def test_checks_on_one_k_share_their_models_fixture(self, small_suite):
        reports, _ = small_suite
        fixtures = {}
        for r in reports:
            if "model" in r.params and "k" in r.params and r.name != "eigen_span":  # eigen_span has its own
                fixtures.setdefault((r.params["model"], r.params["k"]), set()).add((r.params["seed"], r.params["n"]))
        assert len(fixtures) == 10  # k=3 on all six models, k=2 on the four with a gap
        assert all(len(drawn) == 1 for drawn in fixtures.values()), fixtures
        # a subset run judges the same fixture as a full run
        for name in ["convex_hull", "dimension_bound", "kernel_orthogonality", "eigen_span",
                     "projection_self_consistency", "unitary_equivariance"]:
            alone = reference_suite(seed=3, n=2000, checks=[name])
            assert [r.to_dict() for r in alone] == [r.to_dict() for r in reports if r.name == name], name

    def test_report_runtimes_cover_the_suite_wall_time(self, small_suite):
        # each fixture's build time is in the runtime of the first report on it
        reports, wall = small_suite
        assert sum(r.runtime for r in reports) >= 0.95 * wall

    def test_every_fixture_solve_takes_jobs(self, monkeypatch):
        import funquant.checks

        real, calls = funquant.checks.lloyd, []

        def recorder(samples, k, init="kmeans++", tol=1e-8, max_iter=300, restarts=10, seed=0, jobs=1):
            given = not isinstance(init, str)
            calls.append(((len(samples), k, "given" if given else init, tol, restarts, seed), jobs))
            return real(samples, k, init=init, tol=tol, max_iter=max_iter, restarts=restarts, seed=seed, jobs=jobs)

        monkeypatch.setattr(funquant.checks, "lloyd", recorder)
        reference_suite(seed=3, n=2000, jobs=2)
        assert [call for call, _ in calls] == SUITE_SOLVES_SEED3
        assert all(jobs == 2 for call, jobs in calls if call[2] == "kmeans++")

    def test_every_suite_draw_is_pinned(self, monkeypatch):
        import funquant.checks

        real, calls = funquant.checks.sample, []

        def recorder(model, n, seed):
            calls.append((model.label(), n, seed))
            return real(model, n, seed)

        monkeypatch.setattr(funquant.checks, "sample", recorder)
        reference_suite(seed=3, n=2000)
        assert calls == SUITE_DRAWS_SEED3

    def test_unknown_check_rejected(self):
        with pytest.raises(UsageError):
            reference_suite(checks=["nonexistent"])

    @pytest.mark.parametrize("n, checks", [(1, ["conditional_linearity"]), (2, ["convex_hull"])])
    def test_too_few_draws_rejected_before_any_draw(self, monkeypatch, n, checks):
        import funquant.checks

        monkeypatch.setattr(funquant.checks, "sample", lambda *args: pytest.fail("drew samples"))
        with pytest.raises(UsageError, match=f"n must be >= 3 .*, got {n}"):
            reference_suite(n=n, checks=checks)

    def test_report_export_omits_runtime(self):
        report = check_dimension_bound(*fixed_point(gaussian_model([2.0, 1.0]), 2, 500, seed=1, restarts=2))
        payload = report.to_dict()
        assert "runtime" not in payload
        assert report.runtime == 0.0
        assert set(payload) == {
            "name", "params", "residuals", "tolerances", "passed", "tolerance_class", "flags",
        }


class TestSpanRank:
    def test_clear_ranks(self):
        from funquant.checks import span_rank

        assert span_rank(np.array([1.0, 0.5, 1e-12])) == (2, False)
        assert span_rank(np.array([3.0])) == (1, False)
        assert span_rank(np.array([0.0, 0.0])) == (0, False)

    def test_near_cutoff_is_ambiguous(self):
        from funquant.checks import span_rank

        rank, ambiguous = span_rank(np.array([1.0, 5e-7]))
        assert ambiguous
        rank, ambiguous = span_rank(np.array([1.0, 2e-5]))
        assert not ambiguous and rank == 2


def test_convex_hull_residual_tiny_even_for_shifted_mean():
    model = gaussian_model([4.0, 1.0], mu=[3.0, -2.0])
    draws = sample(model, 30_000, seed=31)
    points, _ = lloyd(draws, 3, tol=1e-12, restarts=5, seed=31)
    report = check_convex_hull(draws, points)
    mean_norm = np.linalg.norm(draws.mean(axis=0))
    assert report.residuals["simplex_residual"] < 1e-6 * mean_norm + 1e-10


def test_monte_carlo_residuals_shrink_with_n():
    # doubling the sample size must not worsen any Monte Carlo check's
    # median residual over 10 seeds
    model = gaussian_model([2.0, 1.0])
    split = SubspaceSplit(u_basis=random_orthogonal(2, seed=30)[:1])

    def linearity_median(n):
        return np.median([
            check_conditional_linearity(sample(model, n, 100 + s), model, split).residuals[
                "slope_rel_frobenius"
            ]
            for s in range(10)
        ])

    def span_median(n):
        wide = gaussian_model([4.0, 1.0])
        return np.median([
            check_eigen_span(*fixed_point(wide, 2, n, seed=200 + s, restarts=3), wide, 1).residuals["max_angle"]
            for s in range(10)
        ])

    def identity_median(n):
        wide = gaussian_model([4.0, 1.0])
        directions = [np.array([1.0, 0.0])]
        return np.median([
            max(
                v
                for key, v in check_mse_identity(sample(wide, n, 300 + s), wide, directions).residuals.items()
                if key.startswith("identity")
            )
            for s in range(10)
        ])

    assert linearity_median(8000) <= linearity_median(4000)
    assert span_median(8000) <= span_median(4000)
    assert identity_median(8000) <= identity_median(4000)


@pytest.mark.parametrize(
    "residual, passed",
    [(0.5, True), (1.0, True), (1.5, False), (float("nan"), False), (float("inf"), False)],
    ids=["below", "at", "above", "nan", "inf"],
)
def test_a_residual_passes_only_at_or_below_its_tolerance(residual, passed):
    from funquant import checks

    report = checks._finish("x", {}, {"r": residual, "zero": 0.0}, {"r": 1.0, "zero": 0.0}, checks.EXACT, ())
    assert report.passed is passed
