"""Penalty-level grids, hold-out splits, and validation scoring."""

import json

import numpy as np
import pytest

from oracles import random_spd_stats
from sparse_ou import (
    CvGrid,
    CvReport,
    DriftMatrix,
    InitialLaw,
    SuffStats,
    compute_suffstats,
    cross_validate,
    loss,
    report_to_csv,
    simulate_euler,
    solve_lasso,
    split_paths,
)
from sparse_ou.experiments import DriftScheme, generate_drift
from sparse_ou.files import write_json


def _cv_instance(dim=5, n_paths=120, seed=3):
    drift = generate_drift(dim, DriftScheme(), seed=seed)
    bundle = simulate_euler(drift, InitialLaw(), n_paths, 1.0, 0.01, seed=seed + 100)
    train, valid = split_paths(bundle, int(n_paths * 0.8))
    return drift, compute_suffstats(train), compute_suffstats(valid), valid


class TestGrid:
    def test_benchmark_grid(self):
        values = CvGrid.default().values()
        assert len(values) == 9
        assert values[0] == pytest.approx(1e-8, rel=1e-12)
        assert values[-1] == pytest.approx(1e-6, rel=1e-12)
        ratios = np.diff(np.log10(values))
        assert np.allclose(ratios, 0.25, atol=1e-12)

    def test_values_ascending(self):
        grid = CvGrid(-3.0, 0.0, 0.25)
        values = grid.values()
        assert len(values) == 13
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_degenerate_grid(self):
        assert CvGrid(-2.0, -2.0, 0.5).values() == [pytest.approx(0.01)]

    def test_step_that_overshoots_the_top_is_cut(self):
        # round(1 / 0.6) + 1 = 3 levels would reach 10**1.2, above the top.
        grid = CvGrid(0.0, 1.0, 0.6)
        values = grid.values()
        assert values == [1.0, 10.0 ** 0.6]
        assert max(values) <= 10.0 ** grid.log10_max

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            CvGrid(-1.0, -2.0, 0.5)
        with pytest.raises(ValueError):
            CvGrid(-2.0, -1.0, 0.0)

    def test_at_most_a_thousand_levels(self, monkeypatch):
        assert len(CvGrid(-249.75, 0.0, 0.25).values()) == 1000

        def unreachable(grid):
            raise AssertionError("values() called")

        monkeypatch.setattr(CvGrid, "values", unreachable)
        # 3,000,000,001 levels: about 24 GB if ``values()`` ran.
        for bounds in ((-3.0, 0.0, 1e-9), (0.0, 1000.0, 1.0), (-1e308, 1e308, 1.0)):
            with pytest.raises(ValueError, match="at most 1000 levels"):
                CvGrid(*bounds)

    def test_every_level_is_a_normal_float(self):
        # 10**400 overflows to inf and 10**-400 underflows to 0.0.
        for bounds in ((0.0, 400.0, 1.0), (-400.0, -300.0, 10.0), (-307.5, -307.0, 0.5),
                       (308.0, 308.5, 0.5)):
            with pytest.raises(ValueError, match=r"grid exponents must lie in \[-307, 308\]"):
                CvGrid(*bounds)
        levels = CvGrid(-307.0, 308.0, 5.0).values()
        assert levels[0] >= np.finfo(float).tiny and np.isfinite(levels[-1])

    def test_levels_rise_strictly_as_floats(self):
        # 11 exponents, but 10**(k * 1e-17) rounds to only 2 distinct floats:
        # a sweep would fit and score the repeats, and the extrapolated warm
        # start would divide by a zero level gap.
        for bounds in ((0.0, 1e-16, 1e-17), (300.0, 300.0 + 1e-13, 1e-14)):
            with pytest.raises(ValueError, match="grid levels must be strictly increasing as floats"):
                CvGrid(*bounds)


class TestSplit:
    def test_shapes_and_content(self):
        drift = DriftMatrix(2, np.array([[-1.0, 0.0], [0.3, -0.5]]))
        bundle = simulate_euler(drift, InitialLaw(), 50, 1.0, 0.01, seed=5)
        train, valid = split_paths(bundle, 40)
        assert train.n_paths == 40
        assert valid.n_paths == 10
        assert np.array_equal(train.values, bundle.values[:40])
        assert np.array_equal(valid.values, bundle.values[40:])
        recombined = np.concatenate([train.values, valid.values], axis=0)
        assert np.array_equal(recombined, bundle.values)
        # The halves are read-only views: splitting copies no path.
        for half in (train, valid):
            assert np.shares_memory(half.values, bundle.values)
            assert not half.values.flags.writeable

    @pytest.mark.parametrize("bad", [0, 50, 51, -1])
    def test_invalid_split_rejected(self, bad):
        drift = DriftMatrix(1, np.array([[-1.0]]))
        bundle = simulate_euler(drift, InitialLaw(), 50, 0.1, 0.01, seed=5)
        with pytest.raises(ValueError):
            split_paths(bundle, bad)


class TestCrossValidate:
    def test_scores_match_direct_validation_loss(self):
        _, train_stats, valid_stats, valid_bundle = _cv_instance()
        grid = CvGrid(-3.0, -1.0, 0.5)
        report = cross_validate(train_stats, valid_stats, grid, penalty="l1")
        assert len(report.scores) == len(grid.values())

        # Chosen level: the stored fit must reproduce its score exactly when
        # the validation loss is re-derived path by path.
        a = report.result.estimate.entries
        total = 0.0
        for i in range(valid_bundle.n_paths):
            left = valid_bundle.values[i, :-1, :]
            inc = valid_bundle.values[i, 1:, :] - left
            ax = left @ a.T
            total += 0.5 * valid_bundle.step * np.sum(ax * ax) - np.sum(ax * inc)
        direct = total / valid_bundle.n_paths
        assert dict(report.scores)[report.chosen_lambda] == pytest.approx(
            direct, abs=1e-10
        )

        # Every level: a cold refit agrees up to solver tolerance.
        for lam, score in report.scores:
            refit = solve_lasso(train_stats, lam)
            value = loss(valid_stats, refit.estimate.entries).value
            assert score == pytest.approx(value, abs=1e-6)

    def test_chosen_lambda_minimizes_scores(self):
        _, train_stats, valid_stats, _ = _cv_instance(seed=4)
        report = cross_validate(
            train_stats, valid_stats, CvGrid(-4.0, 0.0, 0.5), penalty="sorted_l1"
        )
        scores = dict(report.scores)
        assert report.chosen_lambda in scores
        assert scores[report.chosen_lambda] == min(scores.values())
        assert report.result.lambda_used == report.chosen_lambda

    def test_truth_scores_better_than_inflated_truth(self):
        drift, _, valid_stats, _ = _cv_instance(seed=6)
        value_truth = loss(valid_stats, drift.entries).value
        value_doubled = loss(valid_stats, 2.0 * drift.entries).value
        assert value_truth <= value_doubled

    def test_tie_breaks_toward_larger_lambda(self):
        # Two levels both far above ||b||_inf produce the exact zero matrix
        # and identical scores; the larger level must win.
        _, train_stats, valid_stats, _ = _cv_instance(seed=7)
        floor = float(np.max(np.abs(train_stats.b_hat)))
        lo = 10.0 ** np.ceil(np.log10(floor) + 1)
        grid = CvGrid(np.log10(lo), np.log10(lo) + 1.0, 1.0)
        report = cross_validate(train_stats, valid_stats, grid, penalty="l1")
        assert np.array_equal(report.result.estimate.entries, np.zeros((5, 5)))
        assert report.chosen_lambda == pytest.approx(grid.values()[-1])

    def test_extrapolated_start_is_exact_while_the_support_holds(self, monkeypatch):
        # With a diagonal c_hat each lasso entry is (b - lam sign(b)) / c_jj,
        # linear in lam while every |b| exceeds the level. Each fit after the
        # second starts on that line, so it stops at its first step.
        rng = np.random.default_rng(0)
        b_hat = rng.choice([-1.0, 1.0], (3, 3)) * rng.uniform(1.0, 2.0, (3, 3))
        train = SuffStats(3, np.diag([1.0, 2.0, 3.0]), b_hat, 10, 1.0, 0.01)
        fits = []

        def recording(*args, **options):
            fits.append(solve_lasso(*args, **options))
            return fits[-1]

        monkeypatch.setattr("sparse_ou.model_select.solve_lasso", recording)
        report = cross_validate(train, train, CvGrid(-3.0, -0.5, 0.25), penalty="l1")
        assert len(fits) == 11 and min(fit.iterations for fit in fits[:2]) > 10
        assert [fit.iterations for fit in fits[2:]] == [1] * 9
        for fit in fits:
            lam = fit.lambda_used
            exact = (b_hat - lam * np.sign(b_hat)) / np.array([1.0, 2.0, 3.0])
            assert np.allclose(fit.estimate.entries, exact, rtol=1e-6, atol=0.0), lam
        assert report.chosen_lambda == 1e-3

    def test_deterministic_across_runs(self):
        _, train_stats, valid_stats, _ = _cv_instance(seed=8)
        grid = CvGrid(-3.0, -1.0, 0.25)
        first = cross_validate(train_stats, valid_stats, grid, penalty="sorted_l1")
        second = cross_validate(train_stats, valid_stats, grid, penalty="sorted_l1")
        assert first.chosen_lambda == second.chosen_lambda
        assert np.array_equal(
            first.result.estimate.entries, second.result.estimate.entries
        )
        assert first.scores == second.scores

    def test_single_level_grid(self):
        _, train_stats, valid_stats, _ = _cv_instance(seed=9)
        report = cross_validate(
            train_stats, valid_stats, CvGrid(-2.0, -2.0, 0.25), penalty="l1"
        )
        assert report.chosen_lambda == pytest.approx(0.01)
        assert len(report.scores) == 1

    def test_unknown_penalty_rejected(self):
        _, train_stats, valid_stats, _ = _cv_instance(seed=10)
        with pytest.raises(ValueError):
            cross_validate(train_stats, valid_stats, CvGrid(-2.0, -1.0, 0.5), penalty="ridge")

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            cross_validate(
                random_spd_stats(rng, 3),
                random_spd_stats(rng, 4),
                CvGrid(-2.0, -1.0, 0.5),
            )

    def test_solver_failure_names_level(self):
        # A zero training Gram matrix cannot be fit at any level; the
        # re-raised error should carry the offending lambda.
        from sparse_ou import NumericalError, SuffStats

        bad = SuffStats(2, np.zeros((2, 2)), np.eye(2), 1, 1.0, 0.01)
        rng = np.random.default_rng(1)
        with pytest.raises(NumericalError, match="lambda"):
            cross_validate(bad, random_spd_stats(rng, 2), CvGrid(-2.0, -1.0, 0.5))


    def test_failure_with_two_argument_constructor_keeps_type(self, monkeypatch):
        class CodedError(Exception):
            def __init__(self, code, detail):
                super().__init__(code, detail)
                self.code = code

        def failing_fit(*args, **kwargs):
            raise CodedError(7, "no fit")

        monkeypatch.setattr("sparse_ou.model_select.solve_lasso", failing_fit)
        _, train_stats, valid_stats, _ = _cv_instance(seed=12)
        with pytest.raises(CodedError, match="lambda=0.1") as caught:
            cross_validate(train_stats, valid_stats, CvGrid(-2.0, -1.0, 0.5))
        assert caught.value.code == 7
        assert isinstance(caught.value.__cause__, CodedError)
        assert caught.value.__cause__.args == (7, "no fit")


class TestReportSerialization:
    def test_json_and_csv(self, tmp_path):
        _, train_stats, valid_stats, _ = _cv_instance(seed=11)
        grid = CvGrid(-3.0, -2.0, 0.5)
        report = cross_validate(train_stats, valid_stats, grid, penalty="l1")
        json_path = tmp_path / "report.json"
        write_json(report, json_path)
        payload = json.loads(json_path.read_text())
        assert payload["chosen_lambda"] == report.chosen_lambda
        assert len(payload["scores"]) == 3

        csv_path = tmp_path / "report.csv"
        report_to_csv(report, csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "lambda,validation_loss"
        assert len(lines) == 4
        levels = [float(line.split(",")[0]) for line in lines[1:]]
        assert levels == sorted(levels)
