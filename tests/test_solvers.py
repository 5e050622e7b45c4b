"""Drift estimators: closed-form baseline and proximal-gradient solvers."""

import dataclasses

import numpy as np
import pytest

from oracles import cd_lasso, lasso_objective, random_spd_stats
from sparse_ou import (
    DriftMatrix,
    ExperimentPlan,
    InitialLaw,
    NumericalError,
    SolverConfig,
    SuffStats,
    WeightVector,
    compute_suffstats,
    cross_validate,
    generate_drift,
    loss,
    mix_seed,
    model_select,
    prox_l1,
    prox_sorted_l1,
    simulate_euler,
    simulate_exact,
    slope_weights,
    solve_lasso,
    solve_mle,
    solve_slope,
    solvers,
    sorted_l1_norm,
    split_paths,
)
from sparse_ou.experiments import holdout_stats
from sparse_ou.solvers import check_level
from sparse_ou.suffstats import quadratic


def _sweep_fits(monkeypatch, dim, penalty):
    """Training statistics and every (level, fit) of the default plan's
    warm-started hold-out sweep at ``dim``, replicate 0."""
    plan = ExperimentPlan()
    train, valid = holdout_stats(plan.drift(dim), plan, plan.n_paths, plan.n_train,
                                 mix_seed(plan.master_seed, 2, dim, 0))
    name = {"l1": "solve_lasso", "sorted_l1": "solve_slope"}[penalty]
    solve = getattr(model_select, name)
    fits = []

    def recording(stats, lam, **options):
        fits.append((lam, solve(stats, lam, **options)))
        return fits[-1][1]

    with monkeypatch.context() as patch:
        patch.setattr(model_select, name, recording)
        cross_validate(train, valid, plan.grid, penalty=penalty, config=plan.solver)
    assert len(fits) == len(plan.grid.values())
    return train, fits


def _identity_stats(dim, b_hat, n_paths=10):
    return SuffStats(dim, np.eye(dim), np.asarray(b_hat, dtype=float), n_paths, 1.0, 0.01)


class TestMle:
    def test_identity_second_moment(self):
        rng = np.random.default_rng(0)
        b = rng.normal(size=(3, 3))
        result = solve_mle(_identity_stats(3, b))
        assert np.allclose(result.estimate.entries, b, atol=1e-10)
        assert result.converged

    def test_exact_recovery_from_population_stats(self):
        rng = np.random.default_rng(1)
        truth = rng.normal(size=(4, 4))
        stats = random_spd_stats(rng, 4)
        exact = SuffStats(4, stats.c_hat, truth @ stats.c_hat, 10, 1.0, 0.01)
        result = solve_mle(exact)
        assert np.allclose(result.estimate.entries, truth, atol=1e-8)

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(2)
        stats = random_spd_stats(rng, 6)
        result = solve_mle(stats)
        residual = result.estimate.entries @ stats.c_hat - stats.b_hat
        assert np.max(np.abs(residual)) <= 1e-8 * max(np.max(np.abs(stats.b_hat)), 1.0)

    def test_error_shrinks_with_more_paths(self):
        drift = DriftMatrix(2, np.array([[-1.0, 0.5], [0.0, -0.8]]))

        def error_at(n, seed):
            bundle = simulate_exact(drift, InitialLaw(), n, 1.0, 0.01, seed=seed)
            est = solve_mle(compute_suffstats(bundle)).estimate.entries
            return np.linalg.norm(est - drift.entries)

        coarse = np.mean([error_at(500, 100 + r) for r in range(8)])
        fine = np.mean([error_at(8000, 200 + r) for r in range(8)])
        ratio = coarse / fine
        assert 2.0 <= ratio <= 8.0  # expect about 4 = sqrt(8000 / 500)

    def test_singular_second_moment_raises(self):
        stats = SuffStats(2, np.zeros((2, 2)), np.eye(2), 1, 1.0, 0.01)
        with pytest.raises(NumericalError):
            solve_mle(stats)

    def test_near_singular_raises(self):
        c = np.diag([1.0, 1e-15])
        stats = SuffStats(2, c, np.eye(2), 1, 1.0, 0.01)
        with pytest.raises(NumericalError):
            solve_mle(stats)


class TestLasso:
    def test_zero_penalty_matches_mle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            stats = random_spd_stats(rng, 5)
            mle = solve_mle(stats).estimate.entries
            lasso = solve_lasso(stats, 0.0).estimate.entries
            assert np.linalg.norm(lasso - mle) <= 1e-6 * (1.0 + np.linalg.norm(mle))

    def test_huge_penalty_gives_exact_zero(self):
        rng = np.random.default_rng(4)
        stats = random_spd_stats(rng, 4)
        lam = 2.0 * float(np.max(np.abs(stats.b_hat)))
        result = solve_lasso(stats, lam)
        assert np.array_equal(result.estimate.entries, np.zeros((4, 4)))
        assert result.converged

    def test_matches_coordinate_descent(self):
        rng = np.random.default_rng(5)
        for dim in (2, 3, 4):
            stats = random_spd_stats(rng, dim)
            lam = 0.3
            ours = solve_lasso(stats, lam).estimate.entries
            reference = cd_lasso(stats.c_hat, stats.b_hat, lam)
            f_ours = lasso_objective(stats.c_hat, stats.b_hat, lam, ours)
            f_ref = lasso_objective(stats.c_hat, stats.b_hat, lam, reference)
            assert f_ours <= f_ref + 1e-6 * max(1.0, abs(f_ref))
            assert np.allclose(ours, reference, atol=1e-5)

    def test_kkt_conditions(self):
        rng = np.random.default_rng(6)
        stats = random_spd_stats(rng, 5)
        lam = 0.2
        estimate = solve_lasso(stats, lam).estimate.entries
        gradient = estimate @ stats.c_hat - stats.b_hat
        active = np.abs(estimate) > 1e-12
        # Active coordinates: gradient equals -lam * sign; inactive: within lam.
        assert np.all(
            np.abs(gradient[active] + lam * np.sign(estimate[active])) <= 1e-6
        )
        assert np.all(np.abs(gradient[~active]) <= lam + 1e-6)

    def test_objective_history_monotone(self):
        rng = np.random.default_rng(7)
        stats = random_spd_stats(rng, 6)
        result = solve_lasso(stats, 0.1)
        history = np.asarray(result.objective_history)
        assert history.size >= 1
        assert np.all(np.diff(history) <= 1e-12)

    def test_fixed_point_residual_at_solution(self):
        rng = np.random.default_rng(8)
        stats = random_spd_stats(rng, 5)
        config = SolverConfig()
        result = solve_lasso(stats, 0.15, config=config)
        a = result.estimate.entries
        lip = loss(stats, a).lipschitz
        stepped = prox_l1(a - (a @ stats.c_hat - stats.b_hat) / lip, 0.15 / lip)
        gap = np.max(np.abs(stepped - a))
        assert gap <= 10 * config.rel_tol * (1.0 + np.max(np.abs(a)))

    def test_warm_start_converges_faster(self):
        rng = np.random.default_rng(9)
        stats = random_spd_stats(rng, 6)
        cold = solve_lasso(stats, 0.05)
        warm = solve_lasso(stats, 0.05, warm_start=cold.estimate.entries)
        assert warm.iterations <= cold.iterations
        assert np.allclose(warm.estimate.entries, cold.estimate.entries, atol=1e-6)

    def test_support_recovery_on_population_stats(self):
        # Noiseless statistics from a sparse truth: a small penalty keeps the
        # estimate near the truth, and thresholding recovers the support.
        rng = np.random.default_rng(10)
        truth = np.array(
            [
                [-1.0, 0.0, 0.4, 0.0],
                [0.0, -0.7, 0.0, 0.0],
                [0.0, 0.0, -1.2, 0.3],
                [0.2, 0.0, 0.0, -0.9],
            ]
        )
        base = random_spd_stats(rng, 4)
        stats = SuffStats(4, base.c_hat, truth @ base.c_hat, 10, 1.0, 0.01)
        estimate = solve_lasso(stats, 1e-4).estimate.entries
        assert np.max(np.abs(estimate - truth)) <= 0.01
        found = set(zip(*np.nonzero(np.abs(estimate) > 0.05)))
        expected = set(zip(*np.nonzero(truth)))
        assert found == expected

    def test_negative_penalty_rejected(self):
        stats = _identity_stats(2, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            solve_lasso(stats, -0.1)

    def test_bad_warm_start_shape_rejected(self):
        stats = _identity_stats(2, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            solve_lasso(stats, 0.1, warm_start=np.zeros((3, 3)))


class TestSlope:
    def test_zero_penalty_matches_mle(self):
        rng = np.random.default_rng(11)
        stats = random_spd_stats(rng, 4)
        mle = solve_mle(stats).estimate.entries
        estimate = solve_slope(stats, 0.0).estimate.entries
        assert np.linalg.norm(estimate - mle) <= 1e-6 * (1.0 + np.linalg.norm(mle))

    def test_constant_weights_match_lasso(self):
        rng = np.random.default_rng(12)
        stats = random_spd_stats(rng, 3)
        level = 0.8
        lam = 0.25
        flat = WeightVector(np.full(9, level))
        slope = solve_slope(stats, lam, weights=flat).estimate.entries
        lasso = solve_lasso(stats, lam * level).estimate.entries
        assert np.allclose(slope, lasso, atol=1e-7)

    def test_default_weights_are_slope_weights(self):
        rng = np.random.default_rng(13)
        stats = random_spd_stats(rng, 3)
        explicit = solve_slope(stats, 0.2, weights=slope_weights(9)).estimate.entries
        default = solve_slope(stats, 0.2).estimate.entries
        assert np.array_equal(explicit, default)

    def test_perturbation_optimality(self):
        rng = np.random.default_rng(14)
        stats = random_spd_stats(rng, 3)
        lam = 0.3
        w = slope_weights(9)
        result = solve_slope(stats, lam)

        def objective(a):
            value = 0.5 * float(np.einsum("ij,ij->", a @ stats.c_hat, a))
            value -= float(np.einsum("ij,ij->", a, stats.b_hat))
            mags = np.sort(np.abs(a.ravel()))[::-1]
            return value + lam * float(mags @ w.weights)

        best = objective(result.estimate.entries)
        for _ in range(800):
            probe = result.estimate.entries + rng.normal(size=(3, 3)) * 1e-3
            assert objective(probe) >= best - 1e-9

    def test_huge_penalty_gives_zero(self):
        rng = np.random.default_rng(15)
        stats = random_spd_stats(rng, 4)
        lam = 10.0 * float(np.max(np.abs(stats.b_hat)))
        result = solve_slope(stats, lam)
        assert np.array_equal(result.estimate.entries, np.zeros((4, 4)))

    def test_weight_length_must_match(self):
        stats = _identity_stats(2, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            solve_slope(stats, 0.1, weights=slope_weights(3))


class TestConfigAndResult:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(rel_tol=0.0)

    def test_infinite_level_rejected(self):
        stats = _identity_stats(2, np.zeros((2, 2)))
        for call in (lambda: check_level(np.inf), lambda: solve_lasso(stats, np.inf),
                     lambda: solve_slope(stats, np.inf)):
            with pytest.raises(ValueError, match="lam must be nonnegative and finite"):
                call()

    @pytest.mark.parametrize(
        "solve, dim, replicate, log10_lam",
        [(solve_slope, 7, 0, -2.25), (solve_lasso, 8, 1, -1.75)],
        ids=["slope", "lasso"],
    )
    def test_restart_at_rounding_floor_converges(self, solve, dim, replicate, log10_lam):
        # Benchmark cells where, near the optimum, the plain restart step
        # raises the objective by rounding. The step must still be taken:
        # keeping the current iterate instead stalls at `max_iters`.
        plan = ExperimentPlan(master_seed=20260817)
        drift = generate_drift(dim, plan.scheme, mix_seed(plan.master_seed, 1, dim))
        paths = simulate_euler(
            drift, plan.initial_law, plan.n_paths, plan.terminal, plan.step,
            mix_seed(plan.master_seed, 2, dim, replicate),
        )
        train, _ = split_paths(paths, plan.n_train)
        result = solve(compute_suffstats(train), 10.0 ** log10_lam)
        assert result.converged
        assert result.iterations < 100

    @pytest.mark.parametrize("dim", [5, 10, 15, 20, 25])
    @pytest.mark.parametrize("penalty", ["l1", "sorted_l1"])
    def test_converged_means_a_small_fixed_point_residual(self, monkeypatch, penalty, dim):
        # The solver stops on the step it just took; a converged fit must
        # still pass the residual test at the iterate it returns.
        stats, fits = _sweep_fits(monkeypatch, dim, penalty)
        lipschitz = stats.curvature_bound
        rel_tol = SolverConfig().rel_tol
        for lam, fit in fits:
            a = fit.estimate.entries
            stepped = a - (a @ stats.c_hat - stats.b_hat) / lipschitz
            if penalty == "l1":
                target = prox_l1(stepped, lam / lipschitz)
            else:
                target = prox_sorted_l1(stepped, slope_weights(dim * dim), lam / lipschitz)
            assert fit.converged, lam
            assert np.max(np.abs(a - target)) <= rel_tol * (1.0 + np.max(np.abs(a))), lam

    @pytest.mark.parametrize("penalty", ["l1", "sorted_l1"])
    def test_about_one_prox_per_iteration(self, monkeypatch, penalty):
        calls = []

        def counting(prox):
            def counted(*args):
                calls.append(prox.__name__)
                return prox(*args)
            return counted

        # The loop looks these up on the module at each call, so the tracer's
        # wrappers there count every call.
        for name in ("prox_l1", "prox_sorted_l1", "sorted_l1_norm"):
            monkeypatch.setattr(solvers, name, counting(getattr(solvers, name)))
        _, fits = _sweep_fits(monkeypatch, 15, penalty)
        iterations = sum(fit.iterations for _, fit in fits)
        proxes = [name for name in calls if name.startswith("prox_")]
        assert set(proxes) == {"prox_" + penalty}
        assert len(proxes) <= 1.05 * iterations, (len(proxes), iterations)
        # Each prox hands back its penalty, so a SLOPE fit evaluates the norm
        # once, at its start, and a lasso fit never.
        norms = calls.count("sorted_l1_norm")
        assert norms == (len(fits) if penalty == "sorted_l1" else 0), (norms, len(fits))

    @pytest.mark.parametrize("dim", [15, 50])
    def test_last_objective_is_the_objective_of_the_estimate(self, dim):
        # The loop takes each penalty from its prox; it must be the penalty of
        # the public definitions, bit for bit.
        plan = ExperimentPlan()
        train, _ = holdout_stats(plan.drift(dim), plan, plan.n_paths, plan.n_train,
                                 mix_seed(plan.master_seed, 2, dim, 0))
        weights = slope_weights(dim * dim)
        for solve, penalty in ((solve_lasso, lambda a: np.sum(np.abs(a))),
                               (solve_slope, lambda a: sorted_l1_norm(a, weights))):
            for lam in (1e-3, 1e-2, 1e-1):
                fit = solve(train, lam)
                estimate = fit.estimate.entries
                objective = quadratic(train, estimate)[0] + lam * float(penalty(estimate))
                assert fit.objective_history[-1] == objective, (solve.__name__, lam)
                assert np.count_nonzero(estimate) > 0

    @pytest.mark.parametrize("solve", [solve_lasso, solve_slope], ids=["lasso", "slope"])
    def test_objective_test_stops_a_small_scale_fit_near_its_optimum(self, solve):
        # On a 1e-6-scale problem the step test's floor ``rel_tol * (1 + max|A|)``
        # is loose, so the relative objective test is the one that keeps the
        # fit going: the step test alone stops it about 9e-3 off the reference.
        plan = ExperimentPlan()
        train, _ = holdout_stats(plan.drift(10), plan, plan.n_paths, plan.n_train,
                                 mix_seed(plan.master_seed, 2, 10, 0))
        small = dataclasses.replace(train, b_hat=train.b_hat * 1e-6)
        fit = solve(small, 1e-8)
        reference = solve(small, 1e-8, config=SolverConfig(rel_tol=1e-15)).estimate.entries
        assert fit.converged
        error = np.max(np.abs(fit.estimate.entries - reference)) / np.max(np.abs(reference))
        assert error <= 1e-3, error

    @pytest.mark.parametrize("solve", [solve_lasso, solve_slope], ids=["lasso", "slope"])
    def test_rank_deficient_c_hat_leaves_the_momentum_uncapped(self, solve):
        # c_hat of rank 2 in dimension 4: the loss is not strongly convex, its
        # smallest eigenvalue reads zero up to rounding, and the cap is 1. A
        # spectrum whose bottom is exactly zero gives the same iterates, bit
        # for bit; b_hat lies in c_hat's range, so the problem has a minimizer.
        rng = np.random.default_rng(2)
        factor = rng.normal(size=(2, 4))
        c_hat = factor.T @ factor
        stats = SuffStats(4, c_hat, rng.normal(size=(4, 4)) @ c_hat, 10, 1.0, 0.01)
        assert abs(stats.spectrum[0]) <= 1e-12 * stats.spectrum[1]
        zero = SuffStats(4, c_hat, stats.b_hat, 10, 1.0, 0.01)
        zero.__dict__["spectrum"] = (0.0, stats.spectrum[1])
        fit = solve(stats, 0.05)
        assert fit.converged
        assert np.all(np.diff(fit.objective_history) <= 1e-12 * abs(fit.objective_history[-1]))
        same = solve(zero, 0.05)
        assert same.iterations == fit.iterations
        assert np.array_equal(same.estimate.entries, fit.estimate.entries)

    def test_iteration_cap_reported(self):
        rng = np.random.default_rng(17)
        stats = random_spd_stats(rng, 6)
        config = SolverConfig(max_iters=2)
        result = solve_lasso(stats, 1e-6, config=config)
        assert not result.converged
        assert result.iterations == 2

