"""End-to-end command line behavior and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sparse_ou import load_bundle
from sparse_ou.cli import main


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

    # The library's own checks reject these; the command line maps them to 2.
    @pytest.mark.parametrize("selector, message", [
        (["--lambda", "-1"], "lam must be nonnegative"),
        (["--grid=0:-1:1"], "log10_min must not exceed log10_max"),
        (["--grid=a:b:c"], "--grid components must be numbers"),
        (["--grid=-3:inf:1"], "grid bounds and step must be finite"),
    ], ids=["negative_lambda", "reversed_grid", "non_numeric_grid", "infinite_grid"])
    def test_invalid_selector_value(self, tmp_path, capsys, selector, message):
        bundle = _make_bundle(tmp_path)
        out = str(tmp_path / "fit.json")
        rc = main(["estimate", "--bundle", bundle, "--method", "lasso", *selector, "--out", out])
        assert rc == 2
        assert message in capsys.readouterr().err
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

    def test_corrupt_bundle(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"garbage")
        rc = main(
            ["estimate", "--bundle", str(bad), "--method", "mle", "--out", str(tmp_path / "f.json")]
        )
        assert rc == 3


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
            return ExperimentReport(plan=plan, rows=rows, heatmaps=[], drifts={})

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

    def test_rate_sweep(self, tmp_path, capsys):
        config = _write_config(
            tmp_path,
            "r.json",
            {
                "plan": {"dims": [4], "replicates": 1, "n_paths": 50, "n_train": 40},
                "points": [40, 80],
                "reps": 1,
            },
        )
        out = str(tmp_path / "rate.json")
        assert main(["theory", "rate", "--config", config, "--out", out]) == 0
        assert "fitted exponent" in capsys.readouterr().out
        document = json.loads((tmp_path / "rate.json").read_text())
        assert np.isfinite(document["fitted_exponent"])
        assert document["expected_exponent"] == -0.5

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
