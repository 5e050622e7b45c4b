"""Population quantities, concentration checks, and path-law divergences."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import expm

import sparse_ou.experiments
from oracles import looped_rate_points, lyapunov_c_infty, stable_random_drift
from sparse_ou import (
    DriftMatrix,
    ExperimentPlan,
    InitialLaw,
    NumericalError,
    UnsupportedInputError,
    check_concentration,
    compute_c_infty,
    compute_suffstats,
    kappa_envelope,
    kl_between,
    minimax_family,
    mix_seed,
    noise_gramian,
    rate_sweep,
    simulate_euler,
    simulate_exact,
)

SCALAR_ANCHOR = (1.0 + math.exp(-2.0)) / 4.0  # = 0.28383382...


class TestCInfty:
    def test_scalar_anchor(self):
        drift = DriftMatrix(1, np.array([[-1.0]]))
        value = compute_c_infty(drift).c_infty[0, 0]
        assert value == pytest.approx(SCALAR_ANCHOR, abs=1e-8)
        assert abs(value - 0.28383) <= 1e-5

    def test_zero_drift_identity_start(self):
        # A = 0 with unit initial covariance: integrand is (1 + t) I, so the
        # average over [0, 1] is 1.5 I.
        drift = DriftMatrix(2, np.zeros((2, 2)))
        value = compute_c_infty(drift, sigma=np.eye(2)).c_infty
        assert np.allclose(value, 1.5 * np.eye(2), atol=1e-8)

    def test_zero_drift_zero_start(self):
        drift = DriftMatrix(3, np.zeros((3, 3)))
        value = compute_c_infty(drift).c_infty
        assert np.allclose(value, 0.5 * np.eye(3), atol=1e-8)

    def test_horizon_scaling(self):
        # Scalar zero drift over [0, T]: the integral of t is T^2 / 2.
        drift = DriftMatrix(1, np.zeros((1, 1)))
        value = compute_c_infty(drift, terminal=2.0).c_infty[0, 0]
        assert value == pytest.approx(2.0, abs=1e-8)

    def test_matches_direct_quadrature(self):
        rng = np.random.default_rng(0)
        drift = DriftMatrix(3, stable_random_drift(rng, 3))
        sigma = np.diag([0.5, 1.0, 0.2])
        value = compute_c_infty(drift, sigma=sigma).c_infty

        def integrand(t):
            from sparse_ou import transition_matrix

            e = transition_matrix(drift.entries, t)
            return e @ sigma @ e.T + noise_gramian(drift.entries, t)

        total, _ = integrate.quad_vec(lambda t: integrand(t).ravel(), 0.0, 1.0, epsabs=1e-11)
        assert np.allclose(value, total.reshape(3, 3), atol=1e-7)

    def test_lyapunov_identity_on_random_drifts(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            dim = int(rng.integers(2, 8))
            entries = stable_random_drift(rng, dim)
            root = rng.normal(size=(dim, dim))
            sigma = root @ root.T / dim
            terminal = float(rng.uniform(0.5, 1.5))
            value = compute_c_infty(DriftMatrix(dim, entries), sigma=sigma,
                                    terminal=terminal).c_infty
            expected = lyapunov_c_infty(entries, sigma, terminal)
            assert np.linalg.norm(value - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_stiff_scalar_closed_form(self):
        # A = -20 over T = 10: C = T / (2a) - (1 - e^{-2aT}) / (4a^2) with a = 20.
        value = compute_c_infty(DriftMatrix(1, np.array([[-20.0]])), terminal=10.0)
        expected = 10.0 / 40.0 - (1.0 - math.exp(-400.0)) / 1600.0
        assert value.c_infty[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_stiff_non_normal_against_quadrature(self):
        # Eigenvalues -10..-2 on a triangular core with unit-scale coupling,
        # rotated, over T = 5: e^{-TA} grows like e^{50}, so any form that
        # multiplies it back by e^{TA} loses every digit.
        rng = np.random.default_rng(7)
        core = np.triu(rng.normal(size=(5, 5)), k=1) + np.diag(np.linspace(-10.0, -2.0, 5))
        basis, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        entries = basis @ core @ basis.T
        value = compute_c_infty(DriftMatrix(5, entries), terminal=5.0).c_infty

        def integrand(s):
            flow = expm(s * entries)
            return (5.0 - s) * (flow @ flow.T).ravel()

        total, _ = integrate.quad_vec(integrand, 0.0, 5.0, epsabs=0.0, epsrel=1e-14, limit=2000)
        expected = total.reshape(5, 5)
        assert np.linalg.norm(value - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_overflow_raises(self):
        with pytest.raises(NumericalError):
            compute_c_infty(DriftMatrix(1, np.array([[400.0]])), terminal=2.0)

    @pytest.mark.parametrize("a", [-1.0, -2.0])
    def test_horizon_near_the_float_range(self, a):
        # T ||A||_1 reaches or passes the float range: 1024 or more doublings.
        value = compute_c_infty(DriftMatrix(1, np.array([[a]])), terminal=1e308)
        assert value.c_infty[0, 0] == pytest.approx(1e308 / (2.0 * -a), rel=1e-12)
        with pytest.raises(NumericalError):
            compute_c_infty(DriftMatrix(1, np.array([[-a]])), terminal=1e308)

    @pytest.mark.parametrize("terminal", [math.inf, math.nan, 0.0])
    def test_horizon_must_be_positive_and_finite(self, terminal):
        with pytest.raises(ValueError, match="terminal must be positive and finite"):
            compute_c_infty(DriftMatrix(1, np.array([[-1.0]])), terminal=terminal)

    def test_spectral_summaries(self):
        rng = np.random.default_rng(1)
        entries = stable_random_drift(rng, 4)
        drift = DriftMatrix(4, entries)
        quantities = compute_c_infty(drift)
        eigvals = np.linalg.eigvalsh(quantities.c_infty)
        assert quantities.kappa_min == pytest.approx(float(eigvals[0]), rel=1e-10)
        assert quantities.kappa_max == pytest.approx(float(eigvals[-1]), rel=1e-10)
        assert quantities.kappa_star == pytest.approx(
            quantities.kappa_max + 0.5 * quantities.kappa_min, rel=1e-12
        )
        assert quantities.spectral_abscissa_abs == pytest.approx(
            float(np.max(np.abs(np.linalg.eigvals(entries).real))), rel=1e-10
        )

    def test_defective_drift_rejected(self):
        jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(UnsupportedInputError):
            compute_c_infty(DriftMatrix(2, jordan))

    def test_non_psd_sigma_rejected(self):
        drift = DriftMatrix(2, -np.eye(2))
        with pytest.raises(ValueError):
            compute_c_infty(drift, sigma=np.array([[1.0, 3.0], [3.0, 1.0]]))


class TestKappaEnvelope:
    def test_sandwich_holds_on_random_drifts(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            dim = int(rng.integers(2, 6))
            drift = DriftMatrix(dim, stable_random_drift(rng, dim))
            quantities = compute_c_infty(drift)
            lower, upper = kappa_envelope(quantities)
            assert lower <= quantities.kappa_min + 1e-12
            assert quantities.kappa_max <= upper + 1e-12

    def test_sigma_enlarges_upper_bound(self):
        drift = DriftMatrix(2, -np.eye(2))
        quantities = compute_c_infty(drift, sigma=2.0 * np.eye(2))
        _, plain = kappa_envelope(quantities)
        _, enlarged = kappa_envelope(quantities, sigma=2.0 * np.eye(2))
        assert enlarged > plain
        assert quantities.kappa_max <= enlarged + 1e-12


class TestConcentration:
    def test_points_structure_and_monotone_deviation(self):
        rng = np.random.default_rng(3)
        drift = DriftMatrix(3, stable_random_drift(rng, 3))
        points = check_concentration(
            drift, InitialLaw(), n_list=(100, 400, 1600), reps=6, seed=12
        )
        assert [point.n_paths for point in points] == [100, 400, 1600]
        for point in points:
            assert point.mean_deviation > 0.0
            assert 0.0 <= point.sandwich_frequency <= 1.0
        deviations = [point.mean_deviation for point in points]
        assert deviations[0] > deviations[-1]

    def test_frequency_reaches_one_for_large_samples(self):
        rng = np.random.default_rng(4)
        drift = DriftMatrix(2, stable_random_drift(rng, 2))
        points = check_concentration(drift, InitialLaw(), n_list=(3000,), reps=5, seed=7)
        assert points[0].sandwich_frequency >= 0.8

    @pytest.mark.parametrize("sampler", ["exact", "euler"])
    def test_matches_the_bundle_computation(self, sampler):
        simulate = simulate_exact if sampler == "exact" else simulate_euler
        drift = DriftMatrix(3, stable_random_drift(np.random.default_rng(5), 3))
        law = InitialLaw(kind="gaussian", covariance=0.3 * np.eye(3))
        n_list, reps, seed = (150, 700), 2, 21
        points = check_concentration(drift, law, n_list=n_list, reps=reps, seed=seed,
                                     terminal=0.5, sampler=sampler)
        quantities = compute_c_infty(drift, sigma=law.covariance, terminal=0.5)
        for point, n_paths in zip(points, n_list):
            deviations, hits = [], 0
            for replicate in range(reps):
                bundle = simulate(drift, law, n_paths, 0.5, 0.01,
                                  mix_seed(seed, 4, n_paths, replicate))
                c_hat = compute_suffstats(bundle).c_hat
                deviations.append(np.linalg.norm(c_hat - quantities.c_infty, 2))
                spectrum = np.linalg.eigvalsh(c_hat)
                hits += (spectrum[0] >= 0.5 * quantities.kappa_min
                         and spectrum[-1] <= quantities.kappa_star)
            assert point.n_paths == n_paths
            assert point.mean_deviation == pytest.approx(np.mean(deviations), rel=1e-9, abs=0)
            assert point.sandwich_frequency == hits / reps

    def test_memory_stays_far_below_the_path_array(self):
        # d = 25, N = 3000 on 101 grid points: the path array would take 60.6 MB.
        drift = DriftMatrix(25, stable_random_drift(np.random.default_rng(6), 25))
        path_array_bytes = 3000 * 101 * 25 * 8
        tracemalloc.start()
        try:
            check_concentration(drift, InitialLaw(), n_list=(3000,), reps=1, seed=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path_array_bytes / 4

    def test_invalid_args(self):
        drift = DriftMatrix(2, -np.eye(2))
        with pytest.raises(ValueError):
            check_concentration(drift, InitialLaw(), n_list=(), reps=3, seed=0)
        with pytest.raises(ValueError):
            check_concentration(drift, InitialLaw(), n_list=(10,), reps=0, seed=0)
        with pytest.raises(ValueError):
            check_concentration(
                drift, InitialLaw(), n_list=(10,), reps=1, seed=0, sampler="heun"
            )
        # Sample sizes are counts: no truncation of fractions, no strings
        # or booleans read as numbers.
        for n_list in ((20.7, 30), (20, "30"), (True, 30)):
            with pytest.raises(ValueError, match="n_list must contain integers"):
                check_concentration(drift, InitialLaw(), n_list=n_list, reps=1, seed=0)


class TestMinimaxFamily:
    def test_member_structure(self):
        members = minimax_family(dim=4, sparsity=8, w=0.25, count=5, seed=0)
        assert len(members) == 5
        for member in members:
            entries = member.entries
            b = -(entries + 0.5 * np.eye(4)) / 0.25
            assert np.allclose(b, -b.T, atol=1e-12)
            values = np.unique(np.abs(b[np.abs(b) > 0]))
            assert values.size == 1 and values[0] == pytest.approx(1.0)
            # r = (8 - 4) / 2 = 2 nonzero entries in the antisymmetric part.
            assert int(np.sum(np.abs(b) > 0)) == 2
            assert len(member.support) <= 8

    def test_members_distinct(self):
        members = minimax_family(dim=5, sparsity=14, w=0.1, count=8, seed=1)
        flattened = {tuple(np.round(m.entries.ravel(), 12)) for m in members}
        assert len(flattened) == 8

    def test_deterministic(self):
        first = minimax_family(dim=4, sparsity=10, w=0.2, count=4, seed=9)
        second = minimax_family(dim=4, sparsity=10, w=0.2, count=4, seed=9)
        for a, b in zip(first, second):
            assert np.array_equal(a.entries, b.entries)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            minimax_family(dim=3, sparsity=8, w=0.1, count=2, seed=0)
        with pytest.raises(ValueError):
            minimax_family(dim=4, sparsity=7, w=0.1, count=2, seed=0)
        with pytest.raises(ValueError):
            minimax_family(dim=4, sparsity=8, w=-0.1, count=2, seed=0)
        with pytest.raises(ValueError):
            minimax_family(dim=4, sparsity=8, w=0.1, count=0, seed=0)


class TestFamilyCovarianceIdentity:
    def test_gramian_is_scalar_multiple_of_identity(self):
        # For A = -(alpha I + antisymmetric) the accumulated noise covariance
        # is exactly (1 - e^{-2 alpha t}) / (2 alpha) I.
        rng = np.random.default_rng(5)
        for _ in range(10):
            dim = int(rng.integers(2, 6))
            raw = rng.normal(size=(dim, dim))
            b = raw - raw.T
            alpha = float(rng.uniform(0.2, 2.0))
            t = float(rng.uniform(0.1, 1.5))
            entries = -(alpha * np.eye(dim) + b)
            expected = (1.0 - math.exp(-2.0 * alpha * t)) / (2.0 * alpha)
            gram = noise_gramian(entries, t)
            assert np.allclose(gram, expected * np.eye(dim), atol=1e-8)


class TestKl:
    def _pair(self, w=0.1):
        b1 = np.array(
            [
                [0.0, 1.0, 0.0, 0.0],
                [-1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, -1.0, 0.0],
            ]
        )
        b2 = -b1
        a1 = -(0.5 * np.eye(4) + w * b1)
        a2 = -(0.5 * np.eye(4) + w * b2)
        return a1, a2

    def test_zero_for_equal_drifts(self):
        a1, _ = self._pair()
        assert kl_between(a1, a1, 100) == 0.0

    def test_symmetric_in_arguments(self):
        a1, a2 = self._pair()
        assert kl_between(a1, a2, 50) == pytest.approx(kl_between(a2, a1, 50), rel=1e-14)

    def test_linear_in_path_count(self):
        a1, a2 = self._pair()
        assert kl_between(a1, a2, 200) == pytest.approx(
            2.0 * kl_between(a1, a2, 100), rel=1e-14
        )

    def test_value_against_quadrature(self):
        a1, a2 = self._pair(w=0.2)
        alpha = 0.5
        constant, _ = integrate.quad(
            lambda t: (1.0 - math.exp(-2.0 * alpha * t)) / (2.0 * alpha), 0.0, 1.0
        )
        gap = a1 - a2
        expected = 0.5 * 30 * float(np.sum(gap * gap)) * constant
        assert kl_between(a1, a2, 30) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("alpha_t", [1e-300, 1e-162, 1e-20, 1e-9, 1e-4, 0.1, 0.2499, 0.25, 0.3,
                                         1.0, 5.0, 50.0])
    def test_small_alpha_against_quadrature(self, alpha_t):
        # The closed form cancels as alpha T -> 0: at alpha = 1e-9, T = 1 it gave
        # 14.14 for an integral of about 0.5, and below about 1e-162 it divided by zero.
        terminal = 2.0
        alpha = alpha_t / terminal
        b = np.array([[0.0, 1.0], [-1.0, 0.0]])
        a1 = -(alpha * np.eye(2) + 0.1 * b)
        a2 = -(alpha * np.eye(2) - 0.1 * b)
        constant, _ = integrate.quad(lambda t: -math.expm1(-2.0 * alpha * t) / (2.0 * alpha),
                                     0.0, terminal, epsabs=0.0, epsrel=1e-13, limit=200)
        expected = 0.5 * 3 * float(np.sum((a1 - a2) ** 2)) * constant
        assert kl_between(a1, a2, 3, terminal) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_unit_alpha_reference_constant(self):
        # With symmetric part -I the time integral equals the same constant
        # as the scalar averaged moment: (1 + e^{-2}) / 4.
        b = np.array([[0.0, 1.0], [-1.0, 0.0]])
        a1 = -np.eye(2) - 0.1 * b
        a2 = -np.eye(2) + 0.1 * b
        gap_sq = float(np.sum((a1 - a2) ** 2))
        expected = 0.5 * 1 * gap_sq * SCALAR_ANCHOR
        assert kl_between(a1, a2, 1) == pytest.approx(expected, rel=1e-10)
        assert abs(kl_between(a1, a2, 1) / (0.5 * gap_sq) - 0.28383) <= 1e-5

    def test_family_members_accepted(self):
        members = minimax_family(dim=4, sparsity=28, w=0.1, count=6, seed=3)
        value = kl_between(members[0], members[1], 100)
        assert value >= 0.0

    def test_non_family_drift_rejected(self):
        bad = np.diag([-1.0, -2.0])
        with pytest.raises(UnsupportedInputError):
            kl_between(bad, bad, 10)

    def test_mismatched_alpha_rejected(self):
        b = np.array([[0.0, 1.0], [-1.0, 0.0]])
        a1 = -(0.5 * np.eye(2) + 0.1 * b)
        a2 = -(1.0 * np.eye(2) + 0.1 * b)
        with pytest.raises(UnsupportedInputError):
            kl_between(a1, a2, 10)

    def test_invalid_args(self):
        a1, a2 = self._pair()
        with pytest.raises(ValueError):
            kl_between(a1, a2, 0)
        for terminal in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                kl_between(a1, a2, 10, terminal=terminal)

    def test_monte_carlo_cross_check(self):
        # Small-scale Girsanov check; the acceptance suite runs the full one.
        from oracles import girsanov_llr
        from sparse_ou import simulate_exact

        members = minimax_family(dim=4, sparsity=28, w=0.1, count=8, seed=11)
        best = max(
            ((m1, m2) for m1 in members for m2 in members),
            key=lambda pair: float(np.sum((pair[0].entries - pair[1].entries) ** 2)),
        )
        a1, a2 = best
        n_paths = 20
        theory = kl_between(a1, a2, n_paths)
        m = 3000
        bundle = simulate_exact(a1, InitialLaw(), m, 1.0, 0.01, seed=202)
        llr = girsanov_llr(bundle, a1.entries, a2.entries)
        estimate = float(np.mean(llr)) * n_paths
        spread = float(np.std(llr, ddof=1)) * n_paths / math.sqrt(m)
        assert abs(estimate - theory) <= max(4.0 * spread, 0.25 * theory)


class TestRateSweep:
    def test_report_structure(self):
        plan = ExperimentPlan(dims=(5,), replicates=1, n_paths=50, n_train=40)
        report = rate_sweep("N", plan, points=(40, 80, 160), reps=2)
        assert report.sweep_axis == "N"
        assert [n for n, _ in report.points] == [40, 80, 160]
        assert all(err > 0 for _, err in report.points)
        assert np.isfinite(report.fitted_exponent)
        assert report.expected_exponent == -0.5
        assert len(report.psi) == 3
        # psi = s^{1/p} sqrt(log(e d^2 / s) / N) decreases in N.
        assert report.psi[0] > report.psi[1] > report.psi[2]

    def test_psi_formula(self):
        plan = ExperimentPlan(dims=(5,), replicates=1, n_paths=50, n_train=40)
        report = rate_sweep("N", plan, points=(40, 80), reps=1, p=2)
        from sparse_ou.experiments import generate_drift
        from sparse_ou.process import mix_seed

        drift = generate_drift(5, plan.scheme, mix_seed(plan.master_seed, 1, 5))
        s = len(drift.support)
        expected = math.sqrt(s) * math.sqrt(math.log(math.e * 25.0 / s) / 40.0)
        assert report.psi[0] == pytest.approx(expected, rel=1e-12)

    def test_unsupported_axis(self):
        plan = ExperimentPlan(dims=(5,), replicates=1, n_paths=50, n_train=40)
        with pytest.raises(ValueError):
            rate_sweep("T", plan, points=(40, 80), reps=1)

    def test_bad_points(self):
        plan = ExperimentPlan(dims=(5,), replicates=1, n_paths=50, n_train=40)
        with pytest.raises(ValueError):
            rate_sweep("N", plan, points=(40,), reps=1)
        # One distinct abscissa leaves the fitted slope undetermined.
        with pytest.raises(ValueError, match="two distinct sample sizes"):
            rate_sweep("N", plan, points=(40, 40), reps=1)
        with pytest.raises(ValueError):
            rate_sweep("N", plan, points=(4, 40), reps=1)
        for points in ((40.9, 80), (40, "80"), (40, True)):
            with pytest.raises(ValueError, match="points must contain integers"):
                rate_sweep("N", plan, points=points, reps=1)
        with pytest.raises(ValueError, match="p must be 1 or 2"):
            rate_sweep("N", plan, points=(40, 80), reps=1, p=3)
        with pytest.raises(ValueError, match="reps must be positive"):
            rate_sweep("N", plan, points=(40, 80), reps=0)

    def test_plan_needs_exactly_one_dimension(self, monkeypatch):
        def no_paths(*args, **kwargs):
            raise AssertionError("paths drawn before the dimensions were checked")

        monkeypatch.setattr(sparse_ou.experiments, "path_blocks", no_paths)
        plan = ExperimentPlan(dims=(4, 5), replicates=1, n_paths=50, n_train=40)
        with pytest.raises(ValueError, match="plan must have exactly one dimension"):
            rate_sweep("N", plan, points=(40, 80), reps=1)

    @pytest.mark.parametrize("penalty", ["l1", "sorted_l1"])
    def test_points_match_the_looped_oracle(self, penalty):
        plan = ExperimentPlan(dims=(4,), replicates=1, n_paths=50, n_train=40)
        report = rate_sweep("N", plan, points=(40, 80), reps=2, penalty=penalty)
        assert report.points == looped_rate_points(plan, (40, 80), 2, penalty)

    def test_unknown_penalty_rejected_before_any_path_is_drawn(self, monkeypatch):
        def no_paths(*args, **kwargs):
            raise AssertionError("paths drawn before the penalty was checked")

        monkeypatch.setattr(sparse_ou.experiments, "path_blocks", no_paths)
        plan = ExperimentPlan(dims=(4,), replicates=1, n_paths=50, n_train=40)
        with pytest.raises(ValueError, match="penalty must be"):
            rate_sweep("N", plan, points=(40, 80), reps=1, penalty="l2")

    def test_failed_fit_names_the_point(self, monkeypatch):
        calls = []
        cross_validate = sparse_ou.experiments.cross_validate

        def failing(*args, **kwargs):
            # The third fit is (N=80, replicate 0).
            calls.append(None)
            if len(calls) == 3:
                raise NumericalError("solver diverged")
            return cross_validate(*args, **kwargs)

        monkeypatch.setattr(sparse_ou.experiments, "cross_validate", failing)
        plan = ExperimentPlan(dims=(4,), replicates=1, n_paths=50, n_train=40)
        with pytest.raises(NumericalError, match=r"N=80, replicate 0 failed: solver diverged"):
            rate_sweep("N", plan, points=(40, 80), reps=2)
