"""Sufficient statistics, the quadratic loss, and its derivatives."""

import numpy as np
import pytest

from oracles import einsum_suffstats
from sparse_ou import (
    DriftMatrix,
    InitialLaw,
    PathBundle,
    SuffStats,
    compute_c_infty,
    compute_suffstats,
    loss,
    martingale_term,
    simulate_euler,
    simulate_exact,
    solve_lasso,
    solve_slope,
)
from sparse_ou.experiments import DriftScheme, ExperimentPlan, generate_drift, holdout_stats
from sparse_ou.model_select import split_paths
from sparse_ou.process import block_rows
from sparse_ou.suffstats import block_stats


def _bundle_from_array(values, step):
    values = np.asarray(values, dtype=float)
    n, m, d = values.shape
    return PathBundle(
        n_paths=n,
        dim=d,
        terminal=(m - 1) * step,
        step=step,
        grid_len=m,
        seed=0,
        values=values,
    )


class TestComputation:
    def test_hand_summed_single_path(self):
        # One scalar path 0 -> 1 -> 2 on step 0.5:
        # c = 0.5 * (0^2 + 1^2) = 0.5, b = (1 * 0 + 1 * 1) = 1.
        bundle = _bundle_from_array([[[0.0], [1.0], [2.0]]], step=0.5)
        stats = compute_suffstats(bundle)
        assert stats.c_hat[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert stats.b_hat[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert stats.n_paths == 1

    def test_hand_summed_two_dimensional(self):
        values = np.array([[[1.0, 0.0], [0.0, 2.0]]])
        bundle = _bundle_from_array(values, step=1.0)
        stats = compute_suffstats(bundle)
        # Left point x = (1, 0): c = 1 * outer(x, x).
        assert np.allclose(stats.c_hat, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)
        # Increment (-1, 2): b = outer(increment, x).
        assert np.allclose(stats.b_hat, [[-1.0, 0.0], [2.0, 0.0]], atol=1e-15)

    def test_zero_paths_give_zero_stats(self):
        bundle = _bundle_from_array(np.zeros((4, 11, 2)), step=0.1)
        stats = compute_suffstats(bundle)
        assert np.array_equal(stats.c_hat, np.zeros((2, 2)))
        assert np.array_equal(stats.b_hat, np.zeros((2, 2)))

    def test_averaging_over_paths(self):
        values = np.zeros((2, 2, 1))
        values[0] = [[1.0], [1.0]]
        values[1] = [[3.0], [3.0]]
        bundle = _bundle_from_array(values, step=1.0)
        stats = compute_suffstats(bundle)
        assert stats.c_hat[0, 0] == pytest.approx((1.0 + 9.0) / 2.0)
        assert stats.b_hat[0, 0] == pytest.approx(0.0)

    def test_duplicating_paths_preserves_stats(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(3, 21, 2))
        doubled = np.concatenate([values, values], axis=0)
        s1 = compute_suffstats(_bundle_from_array(values, 0.05))
        s2 = compute_suffstats(_bundle_from_array(doubled, 0.05))
        assert np.allclose(s1.c_hat, s2.c_hat, atol=1e-12)
        assert np.allclose(s1.b_hat, s2.b_hat, atol=1e-12)

    @pytest.mark.parametrize("grid_len, dim", [(101, 25), (21, 3)])
    def test_matches_einsum_oracle(self, grid_len, dim):
        # One and a half blocks of paths, so the last block is a partial one.
        n_paths = block_rows(grid_len, dim) * 3 // 2 + 1
        rng = np.random.default_rng(4)
        values = np.cumsum(rng.normal(size=(n_paths, grid_len, dim)), axis=1)
        bundle = _bundle_from_array(values, 0.01)
        stats = compute_suffstats(bundle)
        c_hat, b_hat = einsum_suffstats(bundle)
        for got, want in ((stats.c_hat, c_hat), (stats.b_hat, b_hat)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_c_hat_symmetric_psd(self):
        rng = np.random.default_rng(1)
        bundle = _bundle_from_array(rng.normal(size=(10, 51, 3)), 0.02)
        stats = compute_suffstats(bundle)
        assert np.array_equal(stats.c_hat, stats.c_hat.T)
        assert np.min(np.linalg.eigvalsh(stats.c_hat)) >= -1e-12


class TestStreamedStatistics:
    # d = 25 on the plan's 101 grid points: 207 paths to a block.
    @pytest.mark.parametrize("where", ["inside_a_block", "on_a_block_edge"])
    def test_holdout_matches_the_split_bundle(self, where):
        plan = ExperimentPlan()
        drift = generate_drift(25, DriftScheme(), seed=3)
        rows = block_rows(101, 25)
        n_paths = 2 * rows + 40
        n_train = rows + 50 if where == "inside_a_block" else rows
        streamed = holdout_stats(drift, plan, n_paths, n_train, seed=9)
        bundle = simulate_euler(drift, plan.initial_law, n_paths, plan.terminal, plan.step, seed=9)
        for got, part in zip(streamed, split_paths(bundle, n_train)):
            want = compute_suffstats(part)
            assert (got.n_paths, got.terminal, got.step) == (want.n_paths, 1.0, 0.01)
            for a, b in ((got.c_hat, want.c_hat), (got.b_hat, want.b_hat)):
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_holdout_rejects_an_empty_half(self):
        drift = generate_drift(3, DriftScheme(), seed=3)
        for n_train in (0, 20):
            with pytest.raises(ValueError, match="n_train"):
                holdout_stats(drift, ExperimentPlan(), 20, n_train, seed=9)

    @pytest.mark.parametrize("n_train", [0, 30])
    def test_block_stats_rejects_an_empty_half(self, n_train):
        rng = np.random.default_rng(2)
        blocks = [(0, rng.normal(size=(20, 11, 2))), (20, rng.normal(size=(10, 11, 2)))]
        with pytest.raises(ValueError, match=r"n_train must be in \[1, n_paths - 1\], got %d" % n_train):
            block_stats(blocks, 2, 0.1, 0.01, n_train)

    @pytest.mark.parametrize("n_train", [None, 1])
    def test_block_stats_rejects_no_blocks(self, n_train):
        with pytest.raises(ValueError, match="blocks must hold at least one path"):
            block_stats([], 2, 0.1, 0.01, n_train)


class TestLoss:
    def test_quadratic_identity_against_direct_sum(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(6, 26, 3)) * 0.7
        bundle = _bundle_from_array(values, 0.04)
        stats = compute_suffstats(bundle)
        a = rng.normal(size=(3, 3))
        report = loss(stats, a)
        # Direct per-path evaluation of the continuous-observation likelihood
        # contrast: 0.5 int ||A x||^2 dt - int (A x)^T dx, averaged.
        total = 0.0
        for i in range(6):
            left = values[i, :-1, :]
            inc = values[i, 1:, :] - left
            ax = left @ a.T
            total += 0.5 * 0.04 * np.sum(ax * ax) - np.sum(ax * inc)
        assert report.value == pytest.approx(total / 6.0, abs=1e-10)

    def test_loss_at_zero(self):
        rng = np.random.default_rng(3)
        stats = compute_suffstats(_bundle_from_array(rng.normal(size=(4, 11, 2)), 0.1))
        report = loss(stats, np.zeros((2, 2)))
        assert report.value == 0.0
        assert np.allclose(report.gradient, -stats.b_hat, atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            values = rng.normal(size=(5, 11, 3))
            stats = compute_suffstats(_bundle_from_array(values, 0.1))
            a = rng.normal(size=(3, 3))
            report = loss(stats, a)
            h = 1e-6
            for i in range(3):
                for j in range(3):
                    probe = np.zeros((3, 3))
                    probe[i, j] = h
                    up = loss(stats, a + probe).value
                    down = loss(stats, a - probe).value
                    fd = (up - down) / (2 * h)
                    assert fd == pytest.approx(report.gradient[i, j], abs=1e-6)

    def test_lipschitz_matches_eigvalsh(self):
        rng = np.random.default_rng(5)
        basis, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        c_hat = basis @ np.diag([4.0, 2.0, 1.0, 0.5, 0.25, 0.1]) @ basis.T
        stats = SuffStats(6, 0.5 * (c_hat + c_hat.T), np.zeros((6, 6)), 10, 1.0, 0.01)
        top = float(np.max(np.linalg.eigvalsh(stats.c_hat)))
        assert stats.curvature_bound == pytest.approx(top, rel=1e-7)
        assert loss(stats, np.zeros((6, 6))).lipschitz == pytest.approx(top, rel=1e-7)

    def test_one_eigvalsh_gives_both_ends_of_the_spectrum(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda c: calls.append(1) or eigvalsh(c))
        rng = np.random.default_rng(7)
        basis, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        c_hat = basis @ np.diag([3.0, 2.0, 1.0, 0.5, 0.2]) @ basis.T
        stats = SuffStats(5, 0.5 * (c_hat + c_hat.T), rng.normal(size=(5, 5)), 10, 1.0, 0.01)
        bottom, top = stats.spectrum
        assert (bottom, top) == pytest.approx((0.2, 3.0), rel=1e-12)
        assert stats.curvature_bound == top
        assert loss(stats, np.zeros((5, 5))).lipschitz == top
        solve_lasso(stats, 0.1)
        solve_slope(stats, 0.1)
        assert len(calls) == 1

    def test_lipschitz_on_simulated_stats(self):
        drift = DriftMatrix(3, np.array([[-1.0, 0.4, 0.0], [0.0, -0.6, 0.2], [0.1, 0.0, -0.9]]))
        bundle = simulate_euler(drift, InitialLaw(), 200, 1.0, 0.01, seed=21)
        stats = compute_suffstats(bundle)
        top = float(np.max(np.linalg.eigvalsh(stats.c_hat)))
        assert stats.curvature_bound == pytest.approx(top, rel=1e-4)

    def test_dimension_mismatch(self):
        stats = SuffStats(2, np.eye(2), np.zeros((2, 2)), 1, 1.0, 0.01)
        with pytest.raises(ValueError):
            loss(stats, np.zeros((3, 3)))


class TestMartingale:
    def test_zero_at_truth_in_expectation(self):
        drift = DriftMatrix(1, np.array([[-1.0]]))
        terms = []
        for rep in range(50):
            bundle = simulate_exact(drift, InitialLaw(), 10_000, 1.0, 0.01, seed=1000 + rep)
            stats = compute_suffstats(bundle)
            terms.append(martingale_term(stats, drift.entries)[0, 0])
        terms = np.asarray(terms)
        spread = terms.std(ddof=1)
        assert abs(terms.mean()) <= 4.0 * spread / np.sqrt(len(terms))

    def test_root_n_scaling(self):
        drift = DriftMatrix(1, np.array([[-1.0]]))

        def spread_at(n, base):
            vals = [
                martingale_term(
                    compute_suffstats(
                        simulate_exact(drift, InitialLaw(), n, 1.0, 0.01, seed=base + r)
                    ),
                    drift.entries,
                )[0, 0]
                for r in range(50)
            ]
            return np.std(vals, ddof=1)

        ratio = spread_at(1000, 5000) / spread_at(4000, 9000)
        assert 2.0 / 1.3 <= ratio <= 2.0 * 1.3

    def test_exact_identity(self):
        rng = np.random.default_rng(6)
        stats = compute_suffstats(_bundle_from_array(rng.normal(size=(3, 6, 2)), 0.2))
        a = rng.normal(size=(2, 2))
        expected = stats.b_hat - a @ stats.c_hat
        assert np.allclose(martingale_term(stats, a), expected, atol=1e-14)


class TestEmpiricalSecondMoment:
    def test_mean_concentrates_near_population_value(self):
        # Benchmark-sized instance (d = 15, batches of 400 paths): the
        # expected Gram matrix, estimated by averaging seeded batches, lands
        # within 15 percent of the population value in operator norm.
        from sparse_ou.experiments import DriftScheme, generate_drift

        drift = generate_drift(15, DriftScheme(), seed=1)
        target = compute_c_infty(drift).c_infty
        mean_c = np.zeros((15, 15))
        reps = 10
        for rep in range(reps):
            bundle = simulate_euler(drift, InitialLaw(), 400, 1.0, 0.01, seed=70 + rep)
            mean_c += compute_suffstats(bundle).c_hat / reps
        gap = np.linalg.norm(mean_c - target, 2)
        assert gap <= 0.15 * np.linalg.norm(target, 2)


class TestSerialization:
    def test_asymmetric_c_hat_rejected(self):
        with pytest.raises(ValueError):
            SuffStats(2, np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros((2, 2)), 1, 1.0, 0.01)
