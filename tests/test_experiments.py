"""Benchmark orchestration: drift sampling, cells, exports, determinism."""

import numpy as np
import pytest

from sparse_ou import (
    DriftMatrix,
    DriftScheme,
    ExperimentPlan,
    NumericalError,
    display_transform,
    export_figure_data,
    generate_drift,
    plan_from_dict,
    run_experiment,
    summarize,
    support_f1,
)
from sparse_ou.experiments import read_arguments, read_value

TINY = dict(dims=(3, 4), replicates=2, n_paths=40, n_train=32, heatmap_dims=(3,))


def _tiny_plan(**overrides):
    settings = dict(TINY)
    settings.update(overrides)
    return ExperimentPlan(**settings)


class TestDriftGeneration:
    def test_deterministic(self):
        plan = ExperimentPlan()
        a = generate_drift(12, plan.scheme, seed=5)
        b = generate_drift(12, plan.scheme, seed=5)
        assert np.array_equal(a.entries, b.entries)
        assert a.true_support == b.true_support

    def test_seed_sensitivity(self):
        plan = ExperimentPlan()
        a = generate_drift(12, plan.scheme, seed=5)
        b = generate_drift(12, plan.scheme, seed=6)
        assert not np.array_equal(a.entries, b.entries)

    def test_entry_ranges(self):
        plan = ExperimentPlan()
        drift = generate_drift(30, plan.scheme, seed=0)
        diag = np.diag(drift.entries)
        assert np.all(diag >= -1.0) and np.all(diag <= 1.0)
        off = drift.entries[~np.eye(30, dtype=bool)]
        nonzero = off[off != 0.0]
        assert np.all(np.abs(nonzero) <= 0.5)

    def test_offdiagonal_sparsity_level(self):
        # 0.8 zero probability: with 1560 off-diagonal slots the zero count
        # concentrates tightly around 1248.
        plan = ExperimentPlan()
        drift = generate_drift(40, plan.scheme, seed=1)
        off = drift.entries[~np.eye(40, dtype=bool)]
        zero_fraction = np.mean(off == 0.0)
        assert 0.75 <= zero_fraction <= 0.85

    def test_support_recorded(self):
        drift = generate_drift(10, DriftScheme(), seed=2)
        expected = set(zip(*np.nonzero(drift.entries)))
        assert drift.true_support == expected


class TestSupportF1:
    def test_perfect_recovery(self):
        truth = frozenset({(0, 0), (1, 2)})
        estimate = np.zeros((3, 3))
        estimate[0, 0] = -1.0
        estimate[1, 2] = 0.5
        assert support_f1(estimate, truth, 1e-6) == 1.0

    def test_nothing_found(self):
        truth = frozenset({(0, 0)})
        assert support_f1(np.zeros((2, 2)), truth, 1e-6) == 0.0

    def test_both_empty(self):
        assert support_f1(np.zeros((2, 2)), frozenset(), 1e-6) == 1.0

    def test_half_precision(self):
        truth = frozenset({(0, 0)})
        estimate = np.array([[1.0, 1.0], [0.0, 0.0]])
        # precision 0.5, recall 1.0 -> f1 = 2/3
        assert support_f1(estimate, truth, 1e-6) == pytest.approx(2.0 / 3.0)

    def test_threshold_applied(self):
        truth = frozenset({(0, 0)})
        estimate = np.array([[1.0, 1e-9], [0.0, 0.0]])
        assert support_f1(estimate, truth, 1e-6) == 1.0


class TestRunExperiment:
    def test_row_inventory(self):
        report = run_experiment(_tiny_plan())
        assert len(report.rows) == 2 * 2 * 3
        names = {row.estimator for row in report.rows}
        assert names == {"mle", "lasso", "slope"}
        for row in report.rows:
            assert row.status == "ok"
            assert np.isfinite(row.scaled_l2sq)
            assert np.isfinite(row.scaled_l1)
            assert 0.0 <= row.support_f1 <= 1.0
            assert row.runtime_seconds >= 0.0
            if row.estimator == "mle":
                assert np.isnan(row.lambda_used)
            else:
                assert row.lambda_used > 0.0

    def test_same_drift_across_replicates(self):
        report = run_experiment(_tiny_plan())
        assert set(report.drifts.keys()) == {3, 4}

    def test_heatmaps_only_for_requested_dims(self):
        report = run_experiment(_tiny_plan())
        assert {record.dim for record in report.heatmaps} == {3}
        names = {record.name for record in report.heatmaps}
        assert names == {"truth", "mle", "lasso", "slope"}
        # 2 replicates times 4 matrices.
        assert len(report.heatmaps) == 8

    def test_metrics_recomputable_from_heatmaps(self):
        report = run_experiment(_tiny_plan())
        truth = {rec.replicate: rec.matrix for rec in report.heatmaps if rec.name == "truth"}
        for record in report.heatmaps:
            if record.name == "mle":
                delta = record.matrix - truth[record.replicate]
                expected = float(np.sum(delta * delta)) / record.dim
                row = next(
                    r
                    for r in report.rows
                    if r.dim == 3 and r.replicate == record.replicate and r.estimator == "mle"
                )
                assert row.scaled_l2sq == pytest.approx(expected, rel=1e-12)

    def test_threads_do_not_change_results(self):
        plan = _tiny_plan()
        serial = run_experiment(plan, threads=1)
        parallel = run_experiment(plan, threads=2)
        for a, b in zip(serial.rows, parallel.rows):
            assert (a.dim, a.replicate, a.estimator) == (b.dim, b.replicate, b.estimator)
            assert a.scaled_l2sq == b.scaled_l2sq
            assert a.scaled_l1 == b.scaled_l1
            assert a.support_f1 == b.support_f1
            assert repr(a.lambda_used) == repr(b.lambda_used)
        for ha, hb in zip(serial.heatmaps, parallel.heatmaps):
            assert np.array_equal(ha.matrix, hb.matrix)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match="threads must be a positive integer"):
            run_experiment(_tiny_plan(), threads=threads)

    def test_failed_cell_is_marked_not_fatal(self, monkeypatch):
        import sparse_ou.experiments as experiments

        original = experiments.solve_mle

        def flaky(stats):
            if stats.dim == 4:
                raise NumericalError("synthetic failure")
            return original(stats)

        monkeypatch.setattr(experiments, "solve_mle", flaky)
        report = run_experiment(_tiny_plan())
        failed = [row for row in report.rows if row.status != "ok"]
        assert failed
        assert all(row.dim == 4 and row.estimator == "mle" for row in failed)
        assert all("synthetic failure" in row.status for row in failed)
        ok_dims = {row.dim for row in report.rows if row.status == "ok"}
        assert ok_dims == {3, 4}

    def test_failed_rows_carry_nan_metrics(self, monkeypatch):
        import sparse_ou.experiments as experiments

        def broken(stats):
            raise NumericalError("boom")

        monkeypatch.setattr(experiments, "solve_mle", broken)
        report = run_experiment(_tiny_plan(dims=(3,), replicates=1))
        row = next(r for r in report.rows if r.estimator == "mle")
        assert np.isnan(row.scaled_l2sq)
        assert np.isnan(row.scaled_l1)


class TestExports:
    def test_file_inventory_and_shapes(self, tmp_path):
        report = run_experiment(_tiny_plan())
        written = export_figure_data(report, tmp_path / "figures")
        names = sorted(p.split("/")[-1] for p in map(str, written))
        assert "rows.csv" in names
        curves = [n for n in names if n.startswith("curve_")]
        assert len(curves) == 6
        heatmaps = [n for n in names if n.startswith("heatmap_")]
        assert len(heatmaps) == 16  # 8 records, raw + display
        rows_lines = (tmp_path / "figures" / "rows.csv").read_text().splitlines()
        assert rows_lines[0] == "d,replicate,estimator,scaled_l2sq,scaled_l1,support_f1,lambda,status"
        assert len(rows_lines) == 1 + 12
        curve_lines = (tmp_path / "figures" / "curve_scaled_l2sq_mle.csv").read_text().splitlines()
        assert curve_lines[0] == "d,mean,std"
        assert len(curve_lines) == 3

    def test_curve_values_recompute(self, tmp_path):
        report = run_experiment(_tiny_plan())
        export_figure_data(report, tmp_path / "figures")
        lines = (tmp_path / "figures" / "curve_scaled_l1_lasso.csv").read_text().splitlines()[1:]
        for line in lines:
            d, mean, std = line.split(",")
            values = [
                row.scaled_l1
                for row in report.rows
                if row.dim == int(d) and row.estimator == "lasso" and row.status == "ok"
            ]
            assert float(mean) == pytest.approx(np.mean(values), rel=1e-12)
            assert float(std) == pytest.approx(np.std(values), rel=1e-12)

    def test_export_is_byte_deterministic(self, tmp_path):
        plan = _tiny_plan()
        first = export_figure_data(run_experiment(plan, threads=1), tmp_path / "a")
        second = export_figure_data(run_experiment(plan, threads=2), tmp_path / "b")
        assert len(first) == len(second)
        for pa, pb in zip(first, second):
            assert open(pa, "rb").read() == open(pb, "rb").read()

    def test_summarize_mentions_every_dim(self):
        report = run_experiment(_tiny_plan())
        lines = summarize(report)
        for dim in (3, 4):
            assert any(line.strip().startswith(str(dim)) for line in lines)


class TestDisplayTransform:
    def test_zero_maps_to_zero(self):
        assert display_transform(np.zeros((2, 2)))[0, 0] == 0.0

    def test_odd_function(self):
        values = np.array([[0.5, -0.5]])
        out = display_transform(values)
        assert out[0, 0] == -out[0, 1]

    def test_monotone(self):
        grid = np.linspace(-3, 3, 101)
        out = display_transform(grid.reshape(1, -1)).ravel()
        assert np.all(np.diff(out) > 0)

    def test_reference_point(self):
        # At x = 0.01 the compression gives log(2).
        out = display_transform(np.array([[0.01]]))
        assert out[0, 0] == pytest.approx(np.log(2.0), abs=1e-12)


class TestPlanParsing:
    def test_defaults_fill_missing_fields(self):
        plan = plan_from_dict({})
        assert plan.dims == tuple(range(5, 26))
        assert plan.replicates == 10
        assert plan.n_paths == 500
        assert plan.n_train == 400
        assert plan.master_seed == 20260815

    def test_round_trip(self):
        plan = _tiny_plan()
        document = plan.to_dict()
        clone = plan_from_dict(document)
        assert clone.dims == plan.dims
        assert clone.replicates == plan.replicates
        assert clone.grid.log10_min == plan.grid.log10_min
        assert clone.solver.rel_tol == plan.solver.rel_tol
        assert clone.initial_law.kind == plan.initial_law.kind
        assert clone.to_dict() == document
        assert document["dims"] == [3, 4]
        assert document["grid"] == {"log10_min": -3.0, "log10_max": 0.0, "log10_step": 0.25}
        assert document["initial_law"] == {"kind": "zero", "covariance": None}
        assert document["solver"] == {"max_iters": 5000, "rel_tol": 1e-8}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            plan_from_dict({"dimension_list": [5]})
        with pytest.raises(ValueError, match="unknown solver fields: max_itres"):
            plan_from_dict({"solver": {"max_itres": 10}})
        for removed in ("step_rule", "backtracking_factor"):
            with pytest.raises(ValueError, match="unknown solver fields: %s" % removed):
                plan_from_dict({"solver": {removed: "backtracking"}})
        with pytest.raises(ValueError, match="unknown initial_law fields: subgaussian_factor"):
            plan_from_dict({"initial_law": {"kind": "zero", "subgaussian_factor": 2.0}})
        with pytest.raises(ValueError, match="unknown grid fields: log10_stride"):
            plan_from_dict({"grid": {"log10_min": -3, "log10_max": 0, "log10_step": 0.5,
                                     "log10_stride": 0.5}})
        # The drift scheme is one nested object; its fields are not plan keys.
        with pytest.raises(ValueError, match="unknown plan fields: diag_low"):
            plan_from_dict({"diag_low": -2.0})
        with pytest.raises(ValueError, match="unknown scheme fields: diag_lo"):
            plan_from_dict({"scheme": {"diag_lo": -2.0}})

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            plan_from_dict({"replicates": 0})
        with pytest.raises(ValueError):
            plan_from_dict({"n_paths": 10, "n_train": 10})
        with pytest.raises(ValueError):
            ExperimentPlan(dims=())
        with pytest.raises(ValueError, match="missing grid fields: log10_max, log10_step"):
            plan_from_dict({"grid": {"log10_min": -3}})
        with pytest.raises(ValueError, match="solver must be a JSON object"):
            plan_from_dict({"solver": [5000]})
        # No silent coercion: a string is not a list of dims, a fraction or a
        # boolean is not a count or a seed, a string is not a number.
        for document, message in (
            ({"dims": "25"}, "dims must be a JSON array"),
            ({"heatmap_dims": 15}, "heatmap_dims must be a JSON array"),
            ({"dims": [2.5, 3]}, "dims must be a nonempty collection of integers"),
            ({"heatmap_dims": ["15"]}, "heatmap_dims must be integers"),
            ({"heatmap_dims": [True]}, "heatmap_dims must be integers"),
            ({"replicates": 2.7}, "replicates must be an integer"),
            ({"master_seed": True}, "master_seed must be a number"),
            ({"terminal": "1.0"}, "terminal must be a number"),
            ({"step": False}, "step must be a number"),
            ({"solver": {"max_iters": "5000"}}, "max_iters must be a number"),
            ({"grid": {"log10_min": -3, "log10_max": 0, "log10_step": None}},
             "log10_step must be a number"),
        ):
            with pytest.raises(ValueError, match=message):
                plan_from_dict(document)

    def test_scheme_object(self):
        plan = plan_from_dict({"scheme": {"offdiag_zero_prob": 0.9}})
        assert plan.scheme == DriftScheme(offdiag_zero_prob=0.9)
        assert plan.to_dict()["scheme"]["offdiag_zero_prob"] == 0.9
        with pytest.raises(ValueError, match="interval bounds are reversed"):
            plan_from_dict({"scheme": {"diag_low": 1.0, "diag_high": -1.0}})
        with pytest.raises(ValueError, match="offdiag_zero_prob must be in"):
            DriftScheme(offdiag_zero_prob=1.5)

    def test_drift_matrix_from_square_list(self):
        drift = read_value(DriftMatrix, [[-1, 0.5], [0.0, -2.0]], "drift")
        assert drift.dim == 2 and drift.entries[0, 1] == 0.5
        for value, message in (
            ([[-1.0, 0.0]], "drift must be a square matrix"),
            ([-1.0], "drift must be a square matrix"),
            ([["-1"]], "drift must be an array of numbers"),
            ([[True]], "drift must be an array of numbers"),
            ([[-1.0], [0.0, -2.0]], "drift must be an array of numbers"),
            ({"matrix": [[-1.0]]}, "drift must be an array of numbers"),
        ):
            with pytest.raises(ValueError, match=message):
                read_value(DriftMatrix, value, "drift")

    def test_arguments_follow_the_signature(self):
        def target(count: int, scale: float = 1.0):
            return count * scale

        assert read_arguments(target, {"count": 3.0}, "t") == {"count": 3}
        with pytest.raises(ValueError, match="unknown t fields: scael"):
            read_arguments(target, {"count": 3, "scael": 2.0}, "t")
        with pytest.raises(ValueError, match="missing t field 'count'"):
            read_arguments(target, {"scale": 2.0}, "t")
        with pytest.raises(ValueError, match="count must be an integer"):
            read_arguments(target, {"count": 2.5}, "t")

    def test_integral_float_accepted_as_int(self):
        plan = plan_from_dict({"replicates": 10.0, "solver": {"max_iters": 200.0}})
        assert plan.replicates == 10 and isinstance(plan.replicates, int)
        assert plan.solver.max_iters == 200 and isinstance(plan.solver.max_iters, int)

    def test_gaussian_initial_law_parsed(self):
        document = {"initial_law": {"kind": "gaussian", "covariance": [[2.0]]}}
        plan = plan_from_dict(document)
        assert plan.initial_law.kind == "gaussian"
        assert plan.initial_law.covariance[0, 0] == 2.0
