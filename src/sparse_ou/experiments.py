"""Benchmark protocol comparing the three estimators across dimensions.

For each dimension ``d`` the plan owns one sparse drift, ``plan.drift(d)``,
shared by all replicates. Each replicate is one ``run_cell``, the package's
only fit path (``theory.rate_sweep`` runs its cells too): it draws that
drift, simulates the plan's paths, splits them into a training prefix and
validation suffix, fits the unpenalized estimator on the training
statistics and the two penalized estimators with hold-out selection of the
level, and records one row per fit: the estimate, its scaled errors and its
support recovery.

Seeding is fully deterministic: the drift for dimension ``d`` uses
``mix_seed(master_seed, 1, d)`` and the paths of replicate ``r`` use
``mix_seed(master_seed, 2, d, r)``, so any subset of cells can be reproduced
in isolation and results do not depend on execution order or thread count.
"""

import concurrent.futures
import contextlib
import dataclasses
import functools
import os
import sys
import time

import numpy as np

from .files import from_plain, read_value, write_csv
from .model_select import PENALTIES, CvGrid, cross_validate
from .process import DriftMatrix, InitialLaw, _grid_length, mix_seed, path_blocks, path_stream
from .solvers import SolverConfig, solve_mle
from .suffstats import block_stats, check_split

# Not called here: the benchmark's tracer patches these names in this module
# (``tests/test_benchmark_contract.py`` checks that they resolve), and the
# streamed ``holdout_stats`` leaves their layers at zero.
from .model_select import split_paths  # noqa: F401
from .process import simulate_euler  # noqa: F401
from .suffstats import compute_suffstats  # noqa: F401

_ESTIMATORS = ("mle", *PENALTIES)


@dataclasses.dataclass(frozen=True)
class DriftScheme:
    """Law of the sparse drifts drawn by ``generate_drift``.

    Diagonal entries are uniform in ``[diag_low, diag_high]``; each
    off-diagonal entry is zero with probability ``offdiag_zero_prob`` and
    otherwise uniform in ``[offdiag_low, offdiag_high]``. Each interval's
    width must be a finite float, so its bounds are finite too.
    """

    diag_low: float = -1.0
    diag_high: float = 1.0
    offdiag_zero_prob: float = 0.8
    offdiag_low: float = -0.5
    offdiag_high: float = 0.5

    def __post_init__(self):
        for low, high in ((self.diag_low, self.diag_high), (self.offdiag_low, self.offdiag_high)):
            # A width past the float range (or NaN) makes the uniform draw raise.
            if not np.isfinite(float(high) - float(low)):
                raise ValueError("interval bounds must be finite and less than the float range "
                                 "apart, got [%r, %r]" % (low, high))
            if low > high:
                raise ValueError("interval bounds are reversed")
        if not (0.0 <= self.offdiag_zero_prob <= 1.0):
            raise ValueError("offdiag_zero_prob must be in [0, 1]")


@dataclasses.dataclass(frozen=True, eq=False)
class ExperimentPlan:
    """Configuration of one full benchmark run.

    Defaults give the full comparison: dimensions 5 through 25, ten
    replicates, 500 paths per replicate (400 training, 100 validation) on
    the unit horizon with spacing 0.01, and the default ``DriftScheme``.
    The selection grid spans the levels at which the penalties are actually
    active for these sample sizes.
    """

    dims: tuple = tuple(range(5, 26))
    replicates: int = 10
    n_paths: int = 500
    n_train: int = 400
    terminal: float = 1.0
    step: float = 0.01
    master_seed: int = 20260815
    grid: CvGrid = CvGrid(log10_min=-3.0, log10_max=0.0, log10_step=0.25)
    scheme: DriftScheme = DriftScheme()
    heatmap_dims: tuple = (15,)
    initial_law: InitialLaw = InitialLaw(kind="zero")
    support_threshold: float = 1e-6
    solver: SolverConfig = SolverConfig()

    def __post_init__(self):
        try:
            dims = tuple(read_value(int, d, "dims") for d in self.dims)
            if not dims or min(dims) < 2:
                raise ValueError
        except ValueError:
            raise ValueError("dims must be a nonempty collection of integers >= 2") from None
        try:
            heatmap_dims = tuple(read_value(int, d, "heatmap_dims") for d in self.heatmap_dims)
        except ValueError:
            raise ValueError("heatmap_dims must be integers, got %r" % (self.heatmap_dims,)) from None
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "heatmap_dims", heatmap_dims)
        if self.replicates < 1:
            raise ValueError("replicates must be positive")
        check_split(self.n_paths, self.n_train)
        _grid_length(self.terminal, self.step)
        if not self.support_threshold > 0:
            raise ValueError("support_threshold must be positive")

    def drift(self, dim):
        """The drift of dimension ``dim``: ``generate_drift`` seeded by
        ``mix_seed(master_seed, 1, dim)``."""
        return generate_drift(dim, self.scheme, mix_seed(self.master_seed, 1, dim))


def plan_from_dict(document):
    """Build a plan from a JSON-style dict, filling defaults for missing keys."""
    return from_plain(ExperimentPlan, document, "plan")


@dataclasses.dataclass(frozen=True, eq=False)
class ExperimentRow:
    """One estimator's fit in one (dimension, replicate) cell, and its metrics.

    ``status`` is ``"ok"`` or ``"failed: <error>"``; a failed fit keeps the
    NaN metrics and its ``estimate`` is ``None``. ``lambda_used`` is NaN for
    the unpenalized fit. ``grid_edge`` marks a hold-out pick at an end of
    the grid, ``converged`` whether the reported fit met its tolerance.
    """

    dim: int
    replicate: int
    estimator: str
    scaled_l2sq: float = np.nan
    scaled_l1: float = np.nan
    support_f1: float = np.nan
    lambda_used: float = np.nan
    runtime_seconds: float = 0.0
    status: str = "ok"
    grid_edge: bool = False
    converged: bool = True
    estimate: np.ndarray | None = None


@dataclasses.dataclass(frozen=True, eq=False)
class ExperimentReport:
    """The plan of a study and its rows, in cell order; every drift is ``plan.drift(d)``."""

    plan: ExperimentPlan
    rows: list

    @functools.cached_property
    def curves(self):
        """``{(metric, estimator): [(d, mean, std), ...]}`` of each scaled error over
        the successful replicates, by metric then estimator, in plan order of
        ``d``; NaN where no replicate succeeded. Computed once, on first use."""
        curves = {}
        for metric in ("scaled_l2sq", "scaled_l1"):
            for estimator in _ESTIMATORS:
                curve = []
                for dim in self.plan.dims:
                    values = [getattr(row, metric) for row in self.rows
                              if (row.dim, row.estimator, row.status) == (dim, estimator, "ok")]
                    values = values or [np.nan]
                    curve.append((dim, float(np.mean(values)), float(np.std(values))))
                curves[metric, estimator] = curve
        return curves


def generate_drift(dim: int, scheme: DriftScheme, seed: int):
    """Draw a ``dim`` x ``dim`` drift from ``scheme``.

    Deterministic for a fixed ``(scheme, dim, seed)``.
    """
    if dim < 2:
        raise ValueError("dim must be at least 2")
    gen = path_stream(seed, dim)
    entries = np.zeros((dim, dim))
    diag = gen.uniform(scheme.diag_low, scheme.diag_high, size=dim)
    keep = gen.random(size=(dim, dim)) >= scheme.offdiag_zero_prob
    values = gen.uniform(scheme.offdiag_low, scheme.offdiag_high, size=(dim, dim))
    off_mask = ~np.eye(dim, dtype=bool)
    entries[off_mask & keep] = values[off_mask & keep]
    entries[np.diag_indices(dim)] = diag
    return DriftMatrix(dim, entries)


def support_f1(estimate, true_support, threshold):
    """F1 score of the recovered support at a magnitude threshold."""
    found = {(int(i), int(j)) for i, j in zip(*np.nonzero(np.abs(estimate) > threshold))}
    truth = set(true_support)
    if not found and not truth:
        return 1.0
    return 2.0 * len(found & truth) / (len(found) + len(truth))


def holdout_stats(drift, plan, seed):
    """Statistics of the first ``plan.n_train`` of ``plan.n_paths`` Euler paths and of the rest.

    The paths stream from ``path_blocks`` into ``block_stats``, split at
    ``plan.n_train`` by path index; other sizes take ``dataclasses.replace(plan, ...)``.
    """
    blocks = path_blocks("euler", drift, plan.initial_law, plan.n_paths, plan.terminal, plan.step, seed)
    return block_stats(blocks, drift.dim, plan.terminal, plan.step, plan.n_train)


def run_cell(plan, dim, replicate, seed, estimators=_ESTIMATORS):
    """One ``ExperimentRow`` per estimator, fitted on ``holdout_stats`` of ``plan.n_paths``
    paths of ``plan.drift(dim)`` split at ``plan.n_train``; a failed fit's row has status
    ``"failed: <error>"``."""
    drift = plan.drift(dim)
    train_stats, valid_stats = holdout_stats(drift, plan, seed)
    rows = []
    for name in estimators:
        fields = {}
        begin = time.perf_counter()
        try:
            if name == "mle":
                fit = solve_mle(train_stats)
            else:
                report = cross_validate(
                    train_stats, valid_stats, plan.grid, penalty=PENALTIES[name], config=plan.solver
                )
                fit = report.result
                fields.update(lambda_used=report.chosen_lambda, grid_edge=report.grid_edge)
            estimate = fit.estimate.entries
            delta = estimate - drift.entries
            fields.update(estimate=estimate, converged=fit.converged,
                          scaled_l2sq=float(np.sum(delta * delta)) / dim,
                          scaled_l1=float(np.sum(np.abs(delta))) / dim,
                          support_f1=support_f1(estimate, drift.support, plan.support_threshold))
        except Exception as exc:  # keep the sweep alive, mark the cell
            fields["status"] = "failed: %s" % (exc,)
        fields["runtime_seconds"] = time.perf_counter() - begin
        rows.append(ExperimentRow(dim, replicate, name, **fields))
    return rows


def worker_count(threads):
    """Worker processes for ``threads``: ``None`` means one per CPU, below 1 raises ``ValueError``."""
    if threads is None:
        return os.cpu_count() or 1
    if threads < 1:
        raise ValueError("threads must be a positive integer, got %r" % (threads,))
    return int(threads)


def run_experiment(plan, threads=1, verbose=False):
    """Execute the benchmark described by ``plan``.

    Parameters
    ----------
    plan : ExperimentPlan
    threads : int
        Worker processes for independent (dimension, replicate) cells, at
        least 1; ``None`` means one per CPU. Results are assembled in a
        fixed order, so any value yields identical output.
    verbose : bool
        Print one progress line per dimension to stderr.

    Returns
    -------
    ExperimentReport
    """
    threads = worker_count(threads)
    cells = [(plan, dim, replicate, mix_seed(plan.master_seed, 2, dim, replicate))
             for dim in plan.dims for replicate in range(plan.replicates)]
    threads = min(threads, len(cells))
    rows = []
    # One worker runs the cells in this process, so a caller's patches and
    # profilers see them.
    with (concurrent.futures.ProcessPoolExecutor(max_workers=threads) if threads > 1
          else contextlib.nullcontext()) as pool:
        outcomes = (pool.map if pool else map)(run_cell, *zip(*cells))
        for (_, dim, replicate, _), cell_rows in zip(cells, outcomes):
            rows.extend(cell_rows)
            if verbose and replicate == plan.replicates - 1:
                print("dim %d done" % dim, file=sys.stderr)
    return ExperimentReport(plan, rows)


def display_transform(matrix):
    """Signed log compression ``sign(x) * log(1 + |x| / 0.01)`` for heatmaps."""
    values = np.asarray(matrix, dtype=float)
    return np.sign(values) * np.log1p(np.abs(values) / 0.01)


def export_figure_data(report, out_dir):
    """Write benchmark CSVs under ``out_dir`` and return the file list.

    Outputs: ``rows.csv`` with every per-cell metric, one
    ``curve_<metric>_<estimator>.csv`` per error metric and estimator with
    columns (d, mean, std) over successful replicates, and raw plus
    display-transformed heatmap matrices for each cell of ``plan.heatmap_dims``:
    ``plan.drift(d)`` as ``truth``, then each row's estimate in estimator
    order. All content is deterministic for a fixed report.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []

    rows_path = os.path.join(out_dir, "rows.csv")
    write_csv(rows_path, ["d", "replicate", "estimator", "scaled_l2sq", "scaled_l1", "support_f1",
                          "lambda", "status"],
              [(row.dim, row.replicate, row.estimator, float(row.scaled_l2sq), float(row.scaled_l1),
                float(row.support_f1), float(row.lambda_used),
                '"%s"' % row.status.replace('"', "'")) for row in report.rows])
    written.append(rows_path)

    for (metric, estimator), curve in report.curves.items():
        path = os.path.join(out_dir, "curve_%s_%s.csv" % (metric, estimator))
        write_csv(path, ["d", "mean", "std"], curve)
        written.append(path)

    cell = None
    for row in report.rows:
        if row.dim not in report.plan.heatmap_dims:
            continue
        heatmaps = [] if row.estimate is None else [(row.estimator, row.estimate)]
        if (row.dim, row.replicate) != cell:
            cell = row.dim, row.replicate
            heatmaps.insert(0, ("truth", report.plan.drift(row.dim).entries))
        for name, matrix in heatmaps:
            base = os.path.join(out_dir, "heatmap_d%d_rep%d_%s" % (row.dim, row.replicate, name))
            write_csv(base + ".csv", None, matrix.tolist())
            write_csv(base + "_display.csv", None, display_transform(matrix).tolist())
            written += [base + ".csv", base + "_display.csv"]

    return written


def summarize(report):
    """Per-dimension mean scaled errors (``report.curves``) as aligned text lines."""
    lines = ["  d   mle l2^2/d   lasso l2^2/d  slope l2^2/d    mle l1/d   lasso l1/d   slope l1/d"]
    for points in zip(*report.curves.values()):  # the (d, mean, std) of each curve at one d
        lines.append("%3d" % points[0][0] + "".join("   %10.5f" % mean for _, mean, _ in points))
    return lines
