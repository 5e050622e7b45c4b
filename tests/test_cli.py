"""End-to-end command line behavior and exit codes."""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from sparse_ou import (
    DriftMatrix, InitialLaw, bundle_to_csv, cli, experiments, load_bundle, plan_from_dict,
    save_bundle, simulate_exact,
)
from sparse_ou.cli import main
from sparse_ou.experiments import DriftScheme, generate_drift
from sparse_ou.files import read_bundle, to_plain


def _write_config(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def _simulate_config(**overrides):
    document = {
        "drift": {"matrix": [[-1.0, 0.3], [0.0, -0.5]]},
        "n_paths": 10,
        "terminal": 1.0,
        "step": 0.01,
        "seed": 7,
    }
    document.update(overrides)
    return document


def _make_bundle(tmp_path, name="paths.bin", **overrides):
    config = _write_config(tmp_path, "sim.json", _simulate_config(**overrides))
    out = str(tmp_path / name)
    assert main(["simulate", "--config", config, "--out", out]) == 0
    return out


class TestSimulate:
    def test_minimal_run(self, tmp_path, capsys):
        config = _write_config(tmp_path, "sim.json", _simulate_config())
        out = str(tmp_path / "paths.bin")
        assert main(["simulate", "--config", config, "--out", out]) == 0
        bundle = load_bundle(out)
        assert bundle.values.shape == (10, 101, 2)
        assert "wrote 10 paths" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "paths.bin.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 7
        assert out in manifest["outputs"]

    def test_exact_method_and_csv(self, tmp_path):
        config = _write_config(
            tmp_path, "sim.json", _simulate_config(method="exact", n_paths=4)
        )
        out = str(tmp_path / "paths.bin")
        csv = str(tmp_path / "paths.csv")
        assert main(["simulate", "--config", config, "--out", out, "--csv", csv]) == 0
        lines = (tmp_path / "paths.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 * 101

    def test_generator_drift(self, tmp_path):
        document = _simulate_config()
        document["drift"] = {"generator": {"dim": 5, "seed": 3}}
        config = _write_config(tmp_path, "sim.json", document)
        out = str(tmp_path / "paths.bin")
        assert main(["simulate", "--config", config, "--out", out]) == 0
        assert load_bundle(out).dim == 5

    def test_manifest_records_the_drawn_drift_and_the_resolved_law(self, tmp_path):
        document = _simulate_config()
        document["drift"] = {"generator": {"dim": 3, "seed": 1}}
        config = _write_config(tmp_path, "sim.json", document)
        out = str(tmp_path / "paths.bin")
        assert main(["simulate", "--config", config, "--out", out]) == 0
        manifest = json.loads((tmp_path / "paths.bin.manifest.json").read_text())
        assert manifest["resolved_config"] == {
            "method": "euler", "drift": generate_drift(3, DriftScheme(), 1).entries.tolist(),
            "law": {"kind": "zero", "covariance": None}, "n_paths": 10, "terminal": 1.0,
            "step": 0.01, "seed": 7,
        }

    def test_missing_field_names_it(self, tmp_path, capsys):
        document = _simulate_config()
        del document["step"]
        config = _write_config(tmp_path, "sim.json", document)
        rc = main(["simulate", "--config", config, "--out", str(tmp_path / "x.bin")])
        assert rc == 2
        assert "'step'" in capsys.readouterr().err

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"drift": ')
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "x.bin")])
        assert rc == 2
        assert "line" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(
            ["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.bin")]
        )
        assert rc == 3

    def test_bad_method_rejected(self, tmp_path):
        config = _write_config(tmp_path, "sim.json", _simulate_config(method="heun"))
        rc = main(["simulate", "--config", config, "--out", str(tmp_path / "x.bin")])
        assert rc == 2

    @pytest.mark.parametrize("edit, name", [
        (lambda doc: doc.update(methd="exact"), "methd"),
        (lambda doc: doc["drift"].update(matirx=[[-1.0]]), "matirx"),
        (lambda doc: doc.update(drift={"generator": {"dim": 3, "seed": 1, "diag_lo": -2.0}}),
         "diag_lo"),
        (lambda doc: doc.update(law={"kind": "zero", "subgaussian_factor": 2.0}),
         "subgaussian_factor"),
        (lambda doc: doc.update(drift={"generator": {"dim": 3, "seed": 1, "diag_low": -2.0}}),
         "diag_low"),
        (lambda doc: doc.update(drift={"generator": {"dim": 3, "seed": 1,
                                                     "scheme": {"diag_lo": -2.0}}}),
         "diag_lo"),
    ], ids=["top", "drift", "generator", "law", "generator_flat_scheme", "scheme"])
    def test_unknown_field_rejected(self, tmp_path, capsys, edit, name):
        document = _simulate_config()
        edit(document)
        config = _write_config(tmp_path, "sim.json", document)
        rc = main(["simulate", "--config", config, "--out", str(tmp_path / "x.bin")])
        assert rc == 2
        assert name in capsys.readouterr().err
        assert not (tmp_path / "x.bin").exists()

    @pytest.mark.parametrize("edit, name", [
        (lambda doc: doc.update(n_paths=2.7), "n_paths"),
        (lambda doc: doc.update(seed="7"), "seed"),
        (lambda doc: doc.update(drift={"generator": {"dim": 3.7, "seed": 1}}), "dim"),
        (lambda doc: doc.update(drift={"generator": {"dim": 3, "seed": True}}), "seed"),
    ], ids=["n_paths", "seed", "generator_dim", "generator_seed"])
    def test_coerced_value_rejected(self, tmp_path, capsys, edit, name):
        document = _simulate_config()
        edit(document)
        config = _write_config(tmp_path, "sim.json", document)
        rc = main(["simulate", "--config", config, "--out", str(tmp_path / "x.bin")])
        assert rc == 2
        assert name + " must be" in capsys.readouterr().err
        assert not (tmp_path / "x.bin").exists()

    def test_generator_scheme(self, tmp_path):
        document = _simulate_config(n_paths=2)
        document["drift"] = {"generator": {"dim": 4, "seed": 3,
                                           "scheme": {"offdiag_zero_prob": 1.0}}}
        config = _write_config(tmp_path, "sim.json", document)
        out = str(tmp_path / "paths.bin")
        assert main(["simulate", "--config", config, "--out", out]) == 0
        assert load_bundle(out).dim == 4

    @pytest.mark.parametrize("method", ["euler", "exact"])
    def test_overflow_leaves_no_bundle(self, tmp_path, capsys, method):
        # The paths pass float64's range part-way, after the header is written.
        config = _write_config(tmp_path, "sim.json", _simulate_config(
            method=method, drift={"matrix": [[30.0]]}, terminal=30.0))
        out = tmp_path / "x.bin"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["simulate", "--config", config, "--out", str(out)]) == 4
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_reruns_byte_identical(self, tmp_path):
        config = _write_config(tmp_path, "sim.json", _simulate_config())
        first = str(tmp_path / "a.bin")
        second = str(tmp_path / "b.bin")
        assert main(["simulate", "--config", config, "--out", first]) == 0
        assert main(["simulate", "--config", config, "--out", second]) == 0
        assert open(first, "rb").read() == open(second, "rb").read()


class TestEstimate:
    def test_mle(self, tmp_path, capsys):
        bundle = _make_bundle(tmp_path, n_paths=60)
        out = str(tmp_path / "fit.json")
        assert main(["estimate", "--bundle", bundle, "--method", "mle", "--out", out]) == 0
        document = json.loads((tmp_path / "fit.json").read_text())
        assert document["cv_report"] is None
        result = document["estimator_result"]
        assert result["penalty_kind"] == "none"
        assert result["converged"] is True
        assert np.array(result["estimate"]).shape == (2, 2)
        assert "estimate written" in capsys.readouterr().out

    def test_mle_rejects_lambda_flags(self, tmp_path, capsys):
        bundle = _make_bundle(tmp_path)
        out = str(tmp_path / "fit.json")
        rc = main(
            ["estimate", "--bundle", bundle, "--method", "mle", "--lambda", "0.1", "--out", out]
        )
        assert rc == 2
        rc = main(
            ["estimate", "--bundle", bundle, "--method", "mle", "--grid", "default", "--out", out]
        )
        assert rc == 2

    def test_penalized_needs_exactly_one_selector(self, tmp_path):
        bundle = _make_bundle(tmp_path)
        out = str(tmp_path / "fit.json")
        assert main(["estimate", "--bundle", bundle, "--method", "lasso", "--out", out]) == 2
        rc = main(
            [
                "estimate", "--bundle", bundle, "--method", "lasso",
                "--lambda", "0.1", "--grid", "default", "--out", out,
            ]
        )
        assert rc == 2

    def test_fixed_lambda_lasso(self, tmp_path):
        bundle = _make_bundle(tmp_path, n_paths=60)
        out = str(tmp_path / "fit.json")
        rc = main(
            ["estimate", "--bundle", bundle, "--method", "lasso", "--lambda", "0.05", "--out", out]
        )
        assert rc == 0
        document = json.loads((tmp_path / "fit.json").read_text())
        assert document["estimator_result"]["penalty_kind"] == "l1"
        assert document["estimator_result"]["lambda_used"] == 0.05

    def test_fixed_lambda_slope(self, tmp_path):
        bundle = _make_bundle(tmp_path, n_paths=60)
        out = str(tmp_path / "fit.json")
        rc = main(
            ["estimate", "--bundle", bundle, "--method", "slope", "--lambda", "0.05", "--out", out]
        )
        assert rc == 0
        document = json.loads((tmp_path / "fit.json").read_text())
        assert document["estimator_result"]["penalty_kind"] == "sorted_l1"
        assert document["estimator_result"]["lambda_used"] == 0.05

    # The library's own checks reject these, before the bundle is opened; the command line
    # maps them to 2.
    @pytest.mark.parametrize("selector, message", [
        (["--lambda", "-1"], "lam must be nonnegative"),
        (["--lambda", "nan"], "lam must be nonnegative"),
        (["--lambda", "inf"], "lam must be nonnegative and finite"),
        (["--grid=0:-1:1"], "log10_min must not exceed log10_max"),
        (["--grid=a:b:c"], "--grid components must be numbers"),
        (["--grid=-3:inf:1"], "grid bounds and step must be finite"),
        (["--grid=-3:0:1e-9"], "the grid must have at most 1000 levels"),
        (["--grid=0:400:1"], "grid exponents must lie in [-307, 308]"),
        (["--grid=0:1e-16:1e-17"], "grid levels must be strictly increasing as floats"),
    ], ids=["negative_lambda", "nan_lambda", "infinite_lambda", "reversed_grid", "non_numeric_grid",
            "infinite_grid", "oversized_grid", "overflowing_grid", "repeating_grid"])
    def test_invalid_selector_value(self, tmp_path, capsys, monkeypatch, selector, message):
        bundle = _make_bundle(tmp_path)
        opened = []
        monkeypatch.setattr(cli, "read_bundle", lambda path: opened.append(path) or read_bundle(path))
        out = str(tmp_path / "fit.json")
        rc = main(["estimate", "--bundle", bundle, "--method", "lasso", *selector, "--out", out])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert opened == []
        assert not (tmp_path / "fit.json").exists()

    def test_grid_selection_writes_cv_outputs(self, tmp_path, capsys):
        document = _simulate_config(n_paths=120)
        document["drift"] = {"generator": {"dim": 6, "seed": 4}}
        config = _write_config(tmp_path, "sim.json", document)
        bundle = str(tmp_path / "paths.bin")
        assert main(["simulate", "--config", config, "--out", bundle]) == 0

        out = str(tmp_path / "fit.json")
        rc = main(
            [
                "estimate", "--bundle", bundle, "--method", "slope",
                "--grid", "default", "--out", out,
            ]
        )
        assert rc == 0
        document = json.loads((tmp_path / "fit.json").read_text())
        report = document["cv_report"]
        assert len(report["scores"]) == 9
        assert 1e-8 <= report["chosen_lambda"] <= 1e-6
        lines = (tmp_path / "fit.json.cv.csv").read_text().splitlines()
        assert lines[0] == "lambda,validation_loss"
        assert len(lines) == 10
        assert "chosen lambda" in capsys.readouterr().out

    def test_custom_grid_and_train_count(self, tmp_path):
        bundle = _make_bundle(tmp_path, n_paths=50)
        out = str(tmp_path / "fit.json")
        rc = main(
            [
                "estimate", "--bundle", bundle, "--method", "lasso",
                "--grid=-3:-1:1", "--n-train", "40", "--out", out,
            ]
        )
        assert rc == 0
        document = json.loads((tmp_path / "fit.json").read_text())
        assert len(document["cv_report"]["scores"]) == 3

    @pytest.mark.parametrize("selector, n_train", [(["--method", "lasso", "--grid=-3:-1:1"], 40),
                                                   (["--method", "lasso", "--grid=-3:-1:1",
                                                     "--n-train", "30"], 30),
                                                   (["--method", "mle"], None)],
                             ids=["grid_default", "grid_given", "mle"])
    def test_manifest_records_the_train_count_used(self, tmp_path, selector, n_train):
        bundle = _make_bundle(tmp_path, n_paths=50)
        out = str(tmp_path / "fit.json")
        assert main(["estimate", "--bundle", bundle, *selector, "--out", out]) == 0
        manifest = json.loads((tmp_path / "fit.json.manifest.json").read_text())
        assert manifest["resolved_config"]["n_train"] == n_train

    def test_invalid_train_count(self, tmp_path):
        bundle = _make_bundle(tmp_path, n_paths=50)
        out = str(tmp_path / "fit.json")
        rc = main(
            [
                "estimate", "--bundle", bundle, "--method", "lasso",
                "--grid", "default", "--n-train", "50", "--out", out,
            ]
        )
        assert rc == 2

    def test_malformed_grid(self, tmp_path):
        bundle = _make_bundle(tmp_path)
        out = str(tmp_path / "fit.json")
        rc = main(
            ["estimate", "--bundle", bundle, "--method", "lasso", "--grid", "oops", "--out", out]
        )
        assert rc == 2

    @pytest.mark.parametrize("selector", [["--method", "mle", "--lambda", "0.1"],
                                          ["--method", "lasso", "--grid", "oops"],
                                          ["--method", "slope", "--lambda", "-1"],
                                          ["--method", "lasso", "--lambda", "0.1", "--n-train", "500"],
                                          ["--method", "mle", "--n-train", "5"]],
                             ids=["mle_with_lambda", "malformed_grid", "negative_lambda",
                                  "train_count_with_lambda", "train_count_with_mle"])
    def test_flags_are_checked_before_the_bundle_is_opened(self, tmp_path, capsys, selector):
        missing = str(tmp_path / "missing.bin")
        out = tmp_path / "fit.json"
        assert main(["estimate", "--bundle", missing, *selector, "--out", str(out)]) == 2
        assert "missing.bin" not in capsys.readouterr().err
        assert not out.exists()

    def test_corrupt_bundle(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"garbage")
        rc = main(
            ["estimate", "--bundle", str(bad), "--method", "mle", "--out", str(tmp_path / "f.json")]
        )
        assert rc == 3


class TestStreamedMemory:
    """``simulate`` and ``estimate`` hold one block of paths, never the bundle."""

    # d = 25 on 101 grid points: 207 paths to a block, 20 blocks, an 80.8 MB payload.
    N_PATHS, DIM = 4000, 25
    PAYLOAD_BYTES = N_PATHS * 101 * DIM * 8

    @pytest.fixture(scope="class")
    def simulated(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("streamed")
        document = _simulate_config(n_paths=self.N_PATHS)
        document["drift"] = {"generator": {"dim": self.DIM, "seed": 3}}
        config = _write_config(tmp_path, "sim.json", document)
        bundle = str(tmp_path / "paths.bin")
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", config, "--out", bundle]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return bundle, peak

    def test_simulate_peak_stays_far_below_the_payload(self, simulated):
        bundle, peak = simulated
        assert os.path.getsize(bundle) > self.PAYLOAD_BYTES
        assert peak < self.PAYLOAD_BYTES / 4

    @pytest.mark.parametrize("selector", [["--method", "mle"],
                                          ["--method", "lasso", "--grid=-3:0:0.25"]],
                             ids=["mle", "lasso_grid"])
    def test_estimate_peak_stays_far_below_the_payload(self, simulated, tmp_path, selector):
        bundle, _ = simulated
        tracemalloc.start()
        try:
            rc = main(["estimate", "--bundle", bundle, *selector, "--out", str(tmp_path / "f.json")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < self.PAYLOAD_BYTES / 4

    def test_simulate_csv_peak_stays_far_below_the_payload(self, tmp_path, monkeypatch):
        # Blocks of 128 paths (the fewest) keep the run short: at d = 10 and 21
        # grid points a block is 215 kB, and 3,000 paths are a 5 MB payload.
        monkeypatch.setattr("sparse_ou.process.BLOCK_BYTES", 1 << 16)
        n_paths = 3000
        payload = n_paths * 21 * 10 * 8
        document = _simulate_config(n_paths=n_paths, terminal=0.2)
        document["drift"] = {"generator": {"dim": 10, "seed": 3}}
        config = _write_config(tmp_path, "sim.json", document)
        bundle = str(tmp_path / "paths.bin")
        csv = tmp_path / "paths.csv"
        # A first, untraced run makes the allocations a process makes only once
        # (imports on first use), so the traced run measures the command itself.
        assert main(["simulate", "--config", config, "--out", bundle]) == 0
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", config, "--out", bundle, "--csv", str(csv)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < payload / 4
        expected = tmp_path / "expected.csv"
        bundle_to_csv(load_bundle(bundle), expected)
        assert csv.read_bytes() == expected.read_bytes()


class TestReproduce:
    PLAN = {
        "dims": [3, 4],
        "replicates": 2,
        "n_paths": 40,
        "n_train": 32,
        "heatmap_dims": [3],
    }

    def test_tiny_benchmark(self, tmp_path, capsys):
        plan = _write_config(tmp_path, "plan.json", self.PLAN)
        out_dir = tmp_path / "study"
        rc = main(["reproduce", "--plan", plan, "--out-dir", str(out_dir), "--threads", "1"])
        assert rc == 0
        rows = (out_dir / "rows.csv").read_text().splitlines()
        assert len(rows) == 1 + 12
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "reproduce"
        assert manifest["seed"] == 20260815
        for output in manifest["outputs"]:
            assert (tmp_path / output).exists() or (out_dir / output.split("/")[-1]).exists()
        timings = json.loads((out_dir / "timings.json").read_text())
        assert len(timings) == 12
        assert all(t["runtime_seconds"] >= 0 for t in timings)
        stdout = capsys.readouterr().out
        assert any(line.strip().startswith("3") for line in stdout.splitlines())

    def test_thread_count_does_not_change_outputs(self, tmp_path, monkeypatch):
        plan = _write_config(tmp_path, "plan.json", self.PLAN)
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert main(["reproduce", "--plan", plan, "--out-dir", str(first), "--threads", "1"]) == 0
        monkeypatch.setenv("SPARSE_OU_THREADS", "2")
        assert main(["reproduce", "--plan", plan, "--out-dir", str(second)]) == 0
        for name in ("rows.csv", "curve_scaled_l2sq_lasso.csv", "heatmap_d3_rep0_truth.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    # A one-level grid always picks its edge: both penalized fits of each of
    # the 4 cells. One iteration from zero cannot reach the tolerance there.
    @pytest.mark.parametrize("solver, nonconverged", [({}, 0), ({"max_iters": 1}, 8)])
    def test_edge_picks_and_nonconverged_fits_are_reported(self, tmp_path, capsys, solver,
                                                          nonconverged):
        one_level = {"log10_min": -3.0, "log10_max": -3.0, "log10_step": 0.25}
        plan = _write_config(tmp_path, "plan.json",
                             dict(self.PLAN, grid=one_level, solver=solver))
        out_dir = tmp_path / "study"
        rc = main(["reproduce", "--plan", plan, "--out-dir", str(out_dir), "--threads", "1"])
        assert rc == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert warnings == ["warning: 8 hold-out picks on the edge of the grid, "
                            "%d fits not converged" % nonconverged]
        header = (out_dir / "rows.csv").read_text().splitlines()[0]
        assert header == "d,replicate,estimator,scaled_l2sq,scaled_l1,support_f1,lambda,status"

    def test_default_plan_fields_used_when_missing(self, tmp_path):
        plan = _write_config(
            tmp_path, "plan.json", {"dims": [3], "replicates": 1, "n_paths": 20, "n_train": 16}
        )
        out_dir = tmp_path / "study"
        rc = main(["reproduce", "--plan", plan, "--out-dir", str(out_dir), "--threads", "1"])
        assert rc == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["resolved_config"]["master_seed"] == 20260815
        assert manifest["resolved_config"]["step"] == 0.01

    def test_unknown_plan_key(self, tmp_path, capsys):
        plan = _write_config(tmp_path, "plan.json", {"dimensions": [3]})
        rc = main(["reproduce", "--plan", plan, "--out-dir", str(tmp_path / "s")])
        assert rc == 2

    def test_partial_grid_rejected(self, tmp_path, capsys):
        plan = _write_config(tmp_path, "plan.json", {"grid": {"log10_min": -3}})
        rc = main(["reproduce", "--plan", plan, "--out-dir", str(tmp_path / "s")])
        assert rc == 2
        assert "invalid plan: missing grid fields" in capsys.readouterr().err

    @pytest.mark.parametrize("horizon", [{"terminal": 1e308, "step": 1e-10}, {"step": 0.3}],
                             ids=["ratio_overflows", "step_off_the_horizon"])
    def test_plan_without_a_time_grid_leaves_no_out_dir(self, tmp_path, capsys, horizon):
        plan = _write_config(tmp_path, "plan.json", {**self.PLAN, **horizon})
        out_dir = tmp_path / "s"
        rc = main(["reproduce", "--plan", plan, "--out-dir", str(out_dir), "--threads", "1"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: invalid plan: ")
        assert not out_dir.exists()

    def test_unwritable_out_dir(self, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("a file, not a directory")
        plan = _write_config(tmp_path, "plan.json", self.PLAN)
        rc = main(["reproduce", "--plan", plan, "--out-dir", str(blocker), "--threads", "1"])
        assert rc == 3

    def test_partial_failure_exit_code(self, tmp_path, monkeypatch):
        import sparse_ou.cli as cli
        from sparse_ou.experiments import ExperimentReport, ExperimentRow

        def stub(plan, threads=1, verbose=False):
            rows = []
            for dim in plan.dims:
                for replicate in range(plan.replicates):
                    status = "ok" if dim == 3 and replicate == 0 else "failed: synthetic"
                    value = 0.1 if status == "ok" else float("nan")
                    for name in ("mle", "lasso", "slope"):
                        rows.append(
                            ExperimentRow(
                                dim=dim, replicate=replicate, estimator=name,
                                scaled_l2sq=value, scaled_l1=value,
                                support_f1=0.0 if status != "ok" else 1.0,
                                lambda_used=float("nan"), runtime_seconds=0.0,
                                status=status,
                            )
                        )
            return ExperimentReport(plan, rows)

        monkeypatch.setattr(cli, "run_experiment", stub)
        plan = _write_config(tmp_path, "plan.json", self.PLAN)
        rc = main(["reproduce", "--plan", plan, "--out-dir", str(tmp_path / "s"), "--threads", "1"])
        assert rc == 5

    def test_bad_thread_values(self, tmp_path, monkeypatch):
        plan = _write_config(tmp_path, "plan.json", self.PLAN)
        rc = main(["reproduce", "--plan", plan, "--out-dir", str(tmp_path / "s"), "--threads", "0"])
        assert rc == 2
        monkeypatch.setenv("SPARSE_OU_THREADS", "many")
        rc = main(["reproduce", "--plan", plan, "--out-dir", str(tmp_path / "s")])
        assert rc == 2
        monkeypatch.setenv("SPARSE_OU_THREADS", "0")
        rc = main(["reproduce", "--plan", plan, "--out-dir", str(tmp_path / "s")])
        assert rc == 2
        assert not (tmp_path / "s" / "rows.csv").exists()

    @pytest.mark.parametrize("argv, env", [(["--threads", "0"], None), (["--threads", "-3"], None),
                                           ([], "0")])
    def test_rejected_worker_count_creates_no_directory(self, tmp_path, monkeypatch, argv, env):
        if env is not None:
            monkeypatch.setenv("SPARSE_OU_THREADS", env)
        plan = _write_config(tmp_path, "plan.json", self.PLAN)
        rc = main(["reproduce", "--plan", plan, "--out-dir", str(tmp_path / "t0"), *argv])
        assert rc == 2
        assert not (tmp_path / "t0").exists()


class TestTheory:
    def test_cinfty_scalar_anchor(self, tmp_path, capsys):
        config = _write_config(tmp_path, "c.json", {"drift": [[-1.0]]})
        out = str(tmp_path / "c_out.json")
        assert main(["theory", "cinfty", "--config", config, "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "0.28383" in stdout
        document = json.loads((tmp_path / "c_out.json").read_text())
        assert document["c_infty"][0][0] == pytest.approx(0.2838338, abs=1e-6)
        assert document["kappa_star"] == pytest.approx(
            document["kappa_max"] + 0.5 * document["kappa_min"], rel=1e-12
        )

    def test_cinfty_defective_drift(self, tmp_path, capsys):
        config = _write_config(tmp_path, "c.json", {"drift": [[0.0, 1.0], [0.0, 0.0]]})
        rc = main(["theory", "cinfty", "--config", config, "--out", str(tmp_path / "o.json")])
        assert rc == 2
        assert "unsupported" in capsys.readouterr().err.lower()

    def test_concentration_outputs(self, tmp_path):
        config = _write_config(
            tmp_path,
            "c.json",
            {"drift": [[-1.0, 0.2], [0.0, -0.7]], "n_list": [50, 200], "reps": 3, "seed": 5},
        )
        out = str(tmp_path / "conc.json")
        assert main(["theory", "concentration", "--config", config, "--out", out]) == 0
        document = json.loads((tmp_path / "conc.json").read_text())
        assert [p["n_paths"] for p in document] == [50, 200]
        lines = (tmp_path / "conc.json.csv").read_text().splitlines()
        assert lines[0] == "n_paths,mean_deviation,sandwich_frequency"
        assert len(lines) == 3

    def test_manifest_records_every_argument(self, tmp_path):
        document = {"drift": [[-1.0, 0.2], [0.0, -0.7]], "n_list": [50], "reps": 1, "seed": 5}
        config = _write_config(tmp_path, "c.json", document)
        out = str(tmp_path / "conc.json")
        assert main(["theory", "concentration", "--config", config, "--out", out]) == 0
        manifest = json.loads((tmp_path / "conc.json.manifest.json").read_text())
        assert manifest["resolved_config"] == {
            **document, "law": {"kind": "zero", "covariance": None},
            "sampler": "exact", "terminal": 1.0, "step": 0.01,
        }
        assert manifest["seed"] == 5

    RATE = {
        "plan": {"dims": [4], "replicates": 1, "n_paths": 50, "n_train": 40},
        "points": [40, 80],
        "reps": 1,
    }

    def test_rate_sweep(self, tmp_path, capsys):
        config = _write_config(tmp_path, "r.json", self.RATE)
        out = str(tmp_path / "rate.json")
        assert main(["theory", "rate", "--config", config, "--out", out]) == 0
        assert "fitted exponent" in capsys.readouterr().out
        document = json.loads((tmp_path / "rate.json").read_text())
        assert np.isfinite(document["fitted_exponent"])
        assert document["expected_exponent"] == -0.5
        # The sweep sizes each point itself, so the manifest keeps none of the plan's sizes.
        manifest = json.loads((tmp_path / "rate.json.manifest.json").read_text())
        plan = to_plain(plan_from_dict(self.RATE["plan"]))
        for unused in ("n_paths", "n_train", "replicates", "heatmap_dims"):
            del plan[unused]
        assert manifest["resolved_config"] == {
            "axis": "N", "plan": plan, "points": [40, 80], "reps": 1, "p": 2, "penalty": "l1",
        }
        assert manifest["seed"] == plan["master_seed"]

    def test_rate_needs_two_distinct_sample_sizes(self, tmp_path, capsys):
        config = _write_config(tmp_path, "r.json", {**self.RATE, "points": [40, 40]})
        out = tmp_path / "rate.json"
        assert main(["theory", "rate", "--config", config, "--out", str(out)]) == 2
        assert "two distinct sample sizes" in capsys.readouterr().err
        assert not out.exists()

    def test_rate_default_plan_has_too_many_dimensions(self, tmp_path, capsys):
        # The default plan's dims are 5..25; a sweep runs at one dimension only.
        config = _write_config(tmp_path, "r.json", {"points": [40, 80], "reps": 1})
        out = tmp_path / "rate.json"
        assert main(["theory", "rate", "--config", config, "--out", str(out)]) == 2
        assert "plan must have exactly one dimension" in capsys.readouterr().err
        assert not out.exists()

    def test_rate_failed_fit_exit_code(self, tmp_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise FloatingPointError("solver diverged")

        monkeypatch.setattr(experiments, "cross_validate", failing)
        config = _write_config(tmp_path, "r.json", self.RATE)
        out = tmp_path / "rate.json"
        assert main(["theory", "rate", "--config", config, "--out", str(out)]) == 4
        assert "N=40, replicate 0 failed: solver diverged" in capsys.readouterr().err
        assert not out.exists()

    def test_kl_family_pair(self, tmp_path, capsys):
        b = [[0.0, 1.0], [-1.0, 0.0]]
        a1 = (-(0.5 * np.eye(2) + 0.1 * np.array(b))).tolist()
        a2 = (-(0.5 * np.eye(2) - 0.1 * np.array(b))).tolist()
        config = _write_config(tmp_path, "k.json", {"a1": a1, "a2": a2, "n_paths": 100})
        out = str(tmp_path / "kl.json")
        assert main(["theory", "kl", "--config", config, "--out", out]) == 0
        document = json.loads((tmp_path / "kl.json").read_text())
        assert document["kl"] > 0
        assert "kl = " in capsys.readouterr().out

    def test_kl_rejects_general_drift(self, tmp_path, capsys):
        config = _write_config(
            tmp_path,
            "k.json",
            {"a1": [[-1.0, 0.0], [0.0, -2.0]], "a2": [[-1.0, 0.0], [0.0, -2.0]], "n_paths": 10},
        )
        rc = main(["theory", "kl", "--config", config, "--out", str(tmp_path / "kl.json")])
        assert rc == 2
        assert "unsupported" in capsys.readouterr().err.lower()


    @pytest.mark.parametrize("operation, document, name", [
        ("cinfty", {"drift": [[-1.0]], "terminl": 2.0}, "terminl"),
        ("concentration", {"drift": [[-1.0]], "n_list": [50], "reps": 1, "seed": 5,
                           "smapler": "euler"}, "smapler"),
        ("rate", {"points": [40, 80], "reps": 1, "axes": "N"}, "axes"),
        ("kl", {"a1": [[-1.0]], "a2": [[-1.0]], "n_paths": 10, "n_path": 5}, "n_path"),
    ], ids=["cinfty", "concentration", "rate", "kl"])
    def test_unknown_field_rejected(self, tmp_path, capsys, operation, document, name):
        config = _write_config(tmp_path, "t.json", document)
        out = tmp_path / "t_out.json"
        rc = main(["theory", operation, "--config", config, "--out", str(out)])
        assert rc == 2
        assert "fields: %s" % (name,) in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "t_out.json.manifest.json").exists()

    @pytest.mark.parametrize("operation, document, name", [
        ("concentration", {"drift": [[-1.0]], "n_list": [20.7], "reps": 1, "seed": 5},
         "n_list"),
        ("concentration", {"drift": [[-1.0]], "n_list": [20], "reps": 1.9, "seed": 5}, "reps"),
        ("concentration", {"drift": [[-1.0]], "n_list": [20], "reps": 1, "seed": "5"}, "seed"),
        ("rate", {"points": [40.9, 80], "reps": 1}, "points"),
        ("kl", {"a1": [[-1.0]], "a2": [[-1.0]], "n_paths": 2.5}, "n_paths"),
    ], ids=["n_list", "reps", "seed", "points", "kl_n_paths"])
    def test_coerced_value_rejected(self, tmp_path, capsys, operation, document, name):
        config = _write_config(tmp_path, "t.json", document)
        out = tmp_path / "t_out.json"
        rc = main(["theory", operation, "--config", config, "--out", str(out)])
        assert rc == 2
        assert name + " must" in capsys.readouterr().err
        assert not out.exists()

    def test_cinfty_overflow_exit_code(self, tmp_path, capsys):
        config = _write_config(tmp_path, "c.json", {"drift": [[400.0]], "terminal": 2.0})
        rc = main(["theory", "cinfty", "--config", config, "--out", str(tmp_path / "o.json")])
        assert rc == 4
        assert "numerical failure" in capsys.readouterr().err


class TestNonFiniteInputs:
    """A horizon past the float range, a non-finite horizon, a NaN threshold
    or a drift whose 1-norm overflows ends in an exit code and an ``error:``
    line, never in a traceback."""

    PLAN = {**TestReproduce.PLAN, "dims": [3], "heatmap_dims": [3]}
    HUGE = {"terminal": 1e308, "step": 1e-10}
    NORM_OVERFLOWS = [[1e308, 0.0], [1e308, 0.0]]

    @staticmethod
    def _bundle_with_header(tmp_path, **fields):
        # A valid bundle whose header line is rewritten to hold ``fields``.
        path = Path(_make_bundle(tmp_path))
        line, paths = path.read_bytes().split(b"\n", 1)
        header = {**json.loads(line), **fields}
        path.write_bytes(json.dumps(header).encode("ascii") + b"\n" + paths)
        return str(path)

    @pytest.mark.parametrize("command, document, code", [
        ("simulate", _simulate_config(**HUGE), 2),
        ("simulate", _simulate_config(terminal=float("inf")), 2),
        ("simulate", _simulate_config(drift={"matrix": NORM_OVERFLOWS}, method="exact", step=1.0), 4),
        ("reproduce", {**PLAN, **HUGE}, 2),
        ("reproduce", {**PLAN, "support_threshold": float("nan")}, 2),
        ("concentration", {"drift": [[-1.0]], "n_list": [20], "reps": 1, "seed": 5, **HUGE}, 2),
        ("cinfty", {"drift": [[-1.0]], "terminal": float("inf")}, 2),
        ("cinfty", {"drift": [[1.0]], "terminal": 1e308}, 4),
        ("cinfty", {"drift": NORM_OVERFLOWS}, 4),
        # A scaled Jordan block, defective at any scale, and a drift whose
        # Frobenius norm overflows though its 1-norm does not.
        ("cinfty", {"drift": [[-1e300, 1e300], [0.0, -1e300]]}, 2),
        ("cinfty", {"drift": [[1e200, 0.0], [1e200, 0.0]]}, 4),
        ("kl", {"a1": [[-1.0]], "a2": [[-1.0]], "n_paths": 10, "terminal": float("nan")}, 2),
        ("estimate", HUGE, 3),
    ], ids=["simulate_huge", "simulate_inf", "simulate_norm_overflow", "reproduce_huge",
            "reproduce_nan_threshold", "concentration_huge", "cinfty_inf", "cinfty_huge",
            "cinfty_norm_overflow", "cinfty_huge_defective", "cinfty_frobenius_overflow",
            "kl_nan", "estimate_huge_header"])
    def test_exit_code_and_error_line(self, tmp_path, capsys, command, document, code):
        out = str(tmp_path / "out")
        if command == "estimate":
            bundle = self._bundle_with_header(tmp_path, **document)
            argv = ["estimate", "--bundle", bundle, "--method", "mle", "--out", out]
        else:
            config = _write_config(tmp_path, "config.json", document)
            argv = {
                "simulate": ["simulate", "--config", config, "--out", out],
                "reproduce": ["reproduce", "--plan", config, "--out-dir", out, "--threads", "1"],
            }.get(command, ["theory", command, "--config", config, "--out", out])
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: numerical failure: " if code == 4 else "error: ")
        # The error line is all that reaches stderr: no numpy warning before it.
        assert err.count("\n") == 1 and [str(w.message) for w in caught] == []


class TestEntryPoint:
    def test_version_via_subprocess(self):
        import sparse_ou

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(sparse_ou.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", "from sparse_ou.cli import entry; entry()", "--version"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "sparse-ou" in proc.stdout

    @staticmethod
    def _module_env():
        import sparse_ou

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(sparse_ou.__file__).resolve().parents[1])
        return env

    def test_python_m_package(self):
        import sparse_ou

        proc = subprocess.run([sys.executable, "-m", "sparse_ou", "--version"],
                              capture_output=True, text=True, env=self._module_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "sparse-ou " + sparse_ou.__version__

    def test_python_m_cli_runs_the_command(self, tmp_path):
        plan = _write_config(tmp_path, "plan.json", TestReproduce.PLAN)
        out_dir = tmp_path / "study"
        proc = subprocess.run(
            [sys.executable, "-m", "sparse_ou.cli", "reproduce", "--plan", plan,
             "--out-dir", str(out_dir), "--threads", "1"],
            capture_output=True, text=True, env=self._module_env())
        assert proc.returncode == 0, proc.stderr
        assert len((out_dir / "rows.csv").read_text().splitlines()) == 1 + 12

    def test_console_script(self, tmp_path):
        """The ``sparse-ou`` script declared in pyproject.toml runs by name.

        The wrapper an installer would generate is written into ``tmp_path``
        and made to import the same ``sparse_ou`` this process imports, so
        the check holds for the checkout without installing the package.
        """
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        import sparse_ou

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert "sparse-ou" in scripts
        module, attr = scripts["sparse-ou"].split(":")

        wrapper = tmp_path / "sparse-ou"
        wrapper.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n"
        )
        wrapper.chmod(0o755)

        env = dict(os.environ)
        env["PATH"] = os.pathsep.join([str(tmp_path), env.get("PATH", "")])
        env["PYTHONPATH"] = str(Path(sparse_ou.__file__).resolve().parents[1])
        proc = subprocess.run(
            ["sparse-ou", "--version"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "sparse-ou " + sparse_ou.__version__, proc.stderr


class TestScipyImport:
    """No command loads scipy: the package runs on numpy alone."""

    # Runs each argument list of the JSON in argv[1] through ``main`` in a fresh interpreter,
    # then prints the exit codes and the scipy modules loaded.
    SCRIPT = (
        "import json, sys\n"
        "import sparse_ou\n"
        "from sparse_ou.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "loaded = sorted(name for name in sys.modules if name.split('.')[0] == 'scipy')\n"
        "print(json.dumps({'codes': codes, 'scipy': loaded}))\n"
    )

    def _run(self, commands):
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, json.dumps(commands)],
                              capture_output=True, text=True, env=TestEntryPoint._module_env())
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["codes"] == [0] * len(commands), proc.stderr
        return report["scipy"]

    def test_euler_commands_never_load_scipy(self, tmp_path):
        plan = _write_config(tmp_path, "plan.json", TestReproduce.PLAN)
        config = _write_config(tmp_path, "sim.json", _simulate_config(n_paths=40))
        bundle = str(tmp_path / "paths.bin")
        loaded = self._run([
            ["--help"],
            ["reproduce", "--plan", plan, "--out-dir", str(tmp_path / "study"), "--threads", "1"],
            ["simulate", "--config", config, "--out", bundle, "--csv", str(tmp_path / "paths.csv")],
            ["estimate", "--bundle", bundle, "--method", "mle", "--out", str(tmp_path / "mle.json")],
            ["estimate", "--bundle", bundle, "--method", "lasso", "--grid=-3:0:0.5",
             "--out", str(tmp_path / "lasso.json")],
        ])
        assert loaded == []

    def test_exact_and_theory_commands_never_load_scipy_and_write_the_same_bundle(self, tmp_path):
        config = _simulate_config(method="exact", n_paths=4)
        drift = {"drift": config["drift"]["matrix"]}
        kl = {"a1": [[-1.0, 0.1], [-0.1, -1.0]], "a2": [[-1.0, -0.1], [0.1, -1.0]], "n_paths": 10}
        bundle = str(tmp_path / "paths.bin")
        loaded = self._run([
            ["simulate", "--config", _write_config(tmp_path, "sim.json", config), "--out", bundle],
            ["theory", "cinfty", "--config", _write_config(tmp_path, "c.json", drift),
             "--out", str(tmp_path / "cinfty.json")],
            ["theory", "concentration", "--config",
             _write_config(tmp_path, "conc.json", {**drift, "n_list": [20], "reps": 1, "seed": 5}),
             "--out", str(tmp_path / "conc.json")],
            ["theory", "rate", "--config", _write_config(tmp_path, "rate.json", TestTheory.RATE),
             "--out", str(tmp_path / "rate.json")],
            ["theory", "kl", "--config", _write_config(tmp_path, "kl.json", kl),
             "--out", str(tmp_path / "kl.json")],
        ])
        assert loaded == []
        expected = tmp_path / "expected.bin"
        save_bundle(simulate_exact(DriftMatrix(2, np.array(config["drift"]["matrix"])), InitialLaw(),
                                   4, 1.0, 0.01, seed=7), expected)
        assert Path(bundle).read_bytes() == expected.read_bytes()
