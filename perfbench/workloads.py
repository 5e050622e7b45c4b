"""The benchmark workloads: input generation, one pass, output summary and checks.

Each workload draws its inputs from a member of a fixed input family chosen by
the benchmark seed (``member = seed % MEMBERS``), so that every input the
benchmark can run has a reference summary recorded at commit df98f17 in
``reference.json``. The program only ever receives the generated inputs.
The members of one workload cost the same work, so that the spread between
seeds shows the machine, not the inputs: ``study`` averages 42 problems per
pass, ``concentration`` varies only the sampled paths of one drift, and
``wide_fit`` relabels the coordinates of one problem.

* ``study``: the paper's estimator comparison through ``sparse_ou.cli.main``
  (``reproduce``) on the default drift scheme, grid and 500/400 paths, with
  every dimension 5..25 and two replicates. The only workload with the
  process pool, the CSV exports and many small warm-started hold-out sweeps.
* ``concentration``: ``theory.check_concentration`` with the exact sampler at
  d = 25, N = 2750 (one path array of 55.6 MB, inside the 105 MiB L3 cache)
  and N = 22000 (444 MB, over 4x that cache). Simulation, statistics and
  theory only; it runs no solver and no prox.
* ``wide_fit``: lasso then SLOPE hold-out sweeps plus the MLE on one d = 50
  problem whose statistics are built in setup. The sorted-l1 prox does most
  of the work; simulation and statistics appear in set-up only.
"""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import shutil
import tempfile

import numpy as np

import sparse_ou.cli
import sparse_ou.model_select
import sparse_ou.solvers
import sparse_ou.theory
from sparse_ou.model_select import CvGrid, split_paths
from sparse_ou.process import DriftMatrix, InitialLaw, simulate_euler
from sparse_ou.suffstats import compute_suffstats

MEMBERS = 16
BASE_SEED = 20260815

# Relative tolerance against the seed-commit reference. Measured on mutated
# copies of commit df98f17: the compiled PAVA, an exact curvature bound and
# GEMM statistics (ROADMAP directions 2 to 4) move outputs by at most 2.4e-7;
# soft thresholds 0.1% too large move them by 1e-4 and more.
RTOL = 1e-5

# The hold-out grid of the default experiment plan.
GRID = CvGrid(log10_min=-3.0, log10_max=0.0, log10_step=0.25)


def sparse_drift(dim, rng):
    """Draw a drift from the default plan's scheme with the given generator.

    The diagonal is uniform in [-1, 1]; each off-diagonal entry is zero with
    probability 0.8 and otherwise uniform in [-0.5, 0.5].
    """
    entries = np.where(rng.random((dim, dim)) < 0.8, 0.0, rng.uniform(-0.5, 0.5, (dim, dim)))
    entries[np.diag_indices(dim)] = rng.uniform(-1.0, 1.0, dim)
    return DriftMatrix(dim, entries)


def _relabel(stats, order):
    return dataclasses.replace(stats, c_hat=stats.c_hat[order], b_hat=stats.b_hat[order])


def _relative(value, reference):
    """Relative distance to a reference value; NaN matches only NaN."""
    if isinstance(reference, float) and math.isnan(reference):
        return 0.0 if math.isnan(value) else math.inf
    if value == reference:
        return 0.0
    return abs(value - reference) / abs(reference) if reference else math.inf


class Study:
    calibration = "interpreted"
    dims = tuple(range(5, 26))
    replicates = 2

    def setup(self, member, tmp_dir):
        workdir = tempfile.mkdtemp(prefix="study-", dir=tmp_dir)
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w", encoding="ascii") as handle:
            json.dump({"dims": list(self.dims), "replicates": self.replicates,
                       "master_seed": BASE_SEED + member}, handle)
        return {"plan": plan_path, "out": os.path.join(workdir, "out")}

    def run(self, inputs, workers, tracer):
        argv = ["reproduce", "--plan", inputs["plan"], "--out-dir", inputs["out"],
                "--threads", str(workers)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return tracer.call("cli.main", sparse_ou.cli.main, argv)

    def summary(self, inputs, exit_code):
        rows = []
        path = os.path.join(inputs["out"], "rows.csv")
        with open(path, newline="") if os.path.exists(path) else io.StringIO() as handle:
            for row in csv.DictReader(handle):
                rows.append([int(row["d"]), int(row["replicate"]), row["estimator"],
                             float(row["scaled_l2sq"]), float(row["scaled_l1"]),
                             float(row["support_f1"]), float(row["lambda"]), row["status"]])
        shutil.rmtree(inputs["out"], ignore_errors=True)
        return {"exit_code": exit_code, "rows": rows}

    def work(self, summary):
        return len({(row[0], row[1]) for row in summary["rows"]})

    def check(self, summary, reference):
        """One operation per row, plus the gate 01 ordering over the whole pass.

        The ordering is checked on means over every cell, not per dimension:
        with two replicates, 3 of the 16 input members have a dimension
        d <= 7 where hold-out noise puts one penalized mean above the MLE at
        commit df98f17. Any change to a row is caught by the reference.
        """
        failures = []
        worst = 0.0
        rows = summary["rows"]
        if summary["exit_code"] != 0:
            failures.append("reproduce exited with %r" % (summary["exit_code"],))
        if len(rows) != len(reference["rows"]):
            failures.append("%d rows, reference has %d" % (len(rows), len(reference["rows"])))
        for row, ref in zip(rows, reference["rows"]):
            if row[7] != "ok":
                failures.append("d=%d rep=%d %s: %s" % (row[0], row[1], row[2], row[7]))
                continue
            gap = max(_relative(a, b) for a, b in zip(row[3:7], ref[3:7]))
            worst = max(worst, gap)
            if row[:3] != ref[:3] or gap > RTOL:
                failures.append("d=%d rep=%d %s: %r != reference %r" % (
                    row[0], row[1], row[2], row[3:7], ref[3:7]))
        ratios = self.quality(summary)
        if not (ratios["l2_ratio_lasso"] < 1.0 and ratios["l2_ratio_slope"] < 1.0):
            failures.append("penalized fits not below the MLE on average: %r" % (ratios,))
        return max(len(rows), len(reference["rows"])) + 1, failures, worst

    def quality(self, summary):
        means = {name: np.mean([row[3] for row in summary["rows"]
                                if row[2] == name and row[7] == "ok"] or [math.nan])
                 for name in ("mle", "lasso", "slope")}
        return {"l2_ratio_lasso": float(means["lasso"] / means["mle"]),
                "l2_ratio_slope": float(means["slope"] / means["mle"])}


class Concentration:
    calibration = "streaming"
    dim = 25
    n_list = (2750, 22000)
    reps = 1
    terminal = 1.0
    step = 0.01

    def setup(self, member, tmp_dir):
        drift = sparse_drift(self.dim, np.random.default_rng([BASE_SEED, 1]))
        return {"drift": drift, "seed": BASE_SEED + member}

    def run(self, inputs, workers, tracer):
        return tracer.call("theory.check_concentration", sparse_ou.theory.check_concentration,
                           inputs["drift"], InitialLaw(), list(self.n_list), self.reps,
                           inputs["seed"], terminal=self.terminal, step=self.step,
                           sampler="exact")

    def summary(self, inputs, points):
        return {"points": [[p.n_paths, p.mean_deviation, p.sandwich_frequency] for p in points]}

    def work(self, summary):
        steps = round(self.terminal / self.step)
        return sum(n * self.reps * steps for n in self.n_list)

    def check(self, summary, reference):
        """One operation per sample size: deviation and sandwich frequency."""
        failures = []
        worst = 0.0
        points, expected = summary["points"], reference["points"]
        if len(points) != len(expected):
            failures.append("%d points, reference has %d" % (len(points), len(expected)))
        for point, ref in zip(points, expected):
            gap = _relative(point[1], ref[1])
            worst = max(worst, gap)
            if point[0] != ref[0] or gap > RTOL or point[2] != ref[2]:
                failures.append("N=%d: %r != reference %r" % (ref[0], point, ref))
        return max(len(points), len(expected)), failures, worst

    def quality(self, summary):
        return {}


class WideFit:
    calibration = "interpreted"
    dim = 50
    n_paths = 500
    n_train = 400
    projections = 8

    def setup(self, member, tmp_dir):
        drift = sparse_drift(self.dim, np.random.default_rng([BASE_SEED, 2]))
        paths = simulate_euler(drift, InitialLaw(), self.n_paths, 1.0, 0.01, BASE_SEED)
        train, valid = split_paths(paths, self.n_train)
        # The member relabels the coordinates: an equivalent problem with the
        # same work, whose answer is the relabelled answer.
        order = np.ix_(*[np.random.default_rng([BASE_SEED, 3, member]).permutation(self.dim)] * 2)
        return {
            "drift": DriftMatrix(self.dim, drift.entries[order]),
            "train": _relabel(compute_suffstats(train), order),
            "valid": _relabel(compute_suffstats(valid), order),
        }

    def run(self, inputs, workers, tracer):
        train, valid = inputs["train"], inputs["valid"]
        fits = {}
        for name, penalty in (("lasso", "l1"), ("slope", "sorted_l1")):
            fits[name] = tracer.call("model_select.cv", sparse_ou.model_select.cross_validate,
                                     train, valid, GRID, penalty=penalty)
        fits["mle"] = tracer.call("solvers.mle", sparse_ou.solvers.solve_mle, train)
        return fits

    def summary(self, inputs, fits):
        # A fixed Gaussian sketch stands in for the 2500 entries of each
        # estimate; its distance to the reference sketch tracks the
        # Frobenius distance within a small factor.
        sketch = np.random.default_rng(0).standard_normal((self.projections, self.dim ** 2))
        out = {}
        for name in ("mle", "lasso", "slope"):
            fit = fits[name] if name == "mle" else fits[name].result
            estimate = fit.estimate.entries
            delta = estimate - inputs["drift"].entries
            out[name] = {
                "lambda": math.nan if name == "mle" else float(fits[name].chosen_lambda),
                "converged": bool(fit.converged),
                "scaled_l2sq": float(np.sum(delta * delta)) / self.dim,
                "sketch": [float(v) for v in sketch @ estimate.ravel()],
            }
        return out

    def work(self, summary):
        return 2 * len(GRID.values())

    def check(self, summary, reference):
        """One operation per fit: converged, same level, estimate within RTOL."""
        failures = []
        worst = 0.0
        for name in ("mle", "lasso", "slope"):
            fit, ref = summary[name], reference[name]
            gap = float(np.linalg.norm(np.subtract(fit["sketch"], ref["sketch"]))
                        / np.linalg.norm(ref["sketch"]))
            worst = max(worst, gap)
            if not fit["converged"]:
                failures.append("%s fit did not converge" % name)
            elif _relative(fit["lambda"], ref["lambda"]) > 0 or gap > RTOL:
                failures.append("%s: level %r (reference %r), relative sketch distance %.3g"
                                % (name, fit["lambda"], ref["lambda"], gap))
        return 3, failures, worst

    def quality(self, summary):
        return {"l2_ratio_lasso": summary["lasso"]["scaled_l2sq"] / summary["mle"]["scaled_l2sq"],
                "l2_ratio_slope": summary["slope"]["scaled_l2sq"] / summary["mle"]["scaled_l2sq"]}


WORKLOADS = {"study": Study(), "concentration": Concentration(), "wide_fit": WideFit()}
