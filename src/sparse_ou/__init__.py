"""Sparse drift estimation for linear diffusions observed as repeated paths.

The model is ``dx(t) = A x(t) dt + dw(t)`` on a fixed horizon with ``N``
independent paths. The package simulates such paths, reduces them to
sufficient statistics, fits the unpenalized, l1 and sorted-l1 penalized
drift estimators, selects regularization by hold-out validation, reproduces
the benchmark comparing the three across dimensions, and checks the
supporting concentration and rate statements empirically.
"""

__version__ = "0.1.0"

from .errors import NumericalError, UnsupportedInputError
from .process import (
    DriftMatrix,
    InitialLaw,
    PathBundle,
    matrix_exponential,
    mix_seed,
    noise_gramian,
    path_stream,
    simulate_euler,
    simulate_exact,
    transition_matrix,
)
from .suffstats import (
    LossReport,
    SuffStats,
    compute_suffstats,
    loss,
    martingale_term,
)
from .prox import WeightVector, prox_l1, prox_sorted_l1, slope_weights, sorted_l1_norm
from .solvers import (
    EstimatorResult,
    SolverConfig,
    solve_lasso,
    solve_mle,
    solve_slope,
)
from .model_select import CvGrid, CvReport, cross_validate, split_paths
from .files import bundle_to_csv, load_bundle, report_to_csv, save_bundle
from .experiments import (
    DriftScheme,
    ExperimentPlan,
    ExperimentReport,
    ExperimentRow,
    display_transform,
    export_figure_data,
    generate_drift,
    plan_from_dict,
    run_experiment,
    summarize,
    support_f1,
)
from .theory import (
    ConcentrationPoint,
    RateCheckReport,
    TheoryQuantities,
    check_concentration,
    compute_c_infty,
    kappa_envelope,
    kl_between,
    minimax_family,
    rate_sweep,
)

__all__ = [
    "__version__",
    "NumericalError",
    "UnsupportedInputError",
    "DriftMatrix",
    "InitialLaw",
    "PathBundle",
    "bundle_to_csv",
    "load_bundle",
    "matrix_exponential",
    "mix_seed",
    "noise_gramian",
    "path_stream",
    "save_bundle",
    "simulate_euler",
    "simulate_exact",
    "transition_matrix",
    "LossReport",
    "SuffStats",
    "compute_suffstats",
    "loss",
    "martingale_term",
    "WeightVector",
    "prox_l1",
    "prox_sorted_l1",
    "slope_weights",
    "sorted_l1_norm",
    "EstimatorResult",
    "SolverConfig",
    "solve_lasso",
    "solve_mle",
    "solve_slope",
    "CvGrid",
    "CvReport",
    "cross_validate",
    "report_to_csv",
    "split_paths",
    "DriftScheme",
    "ExperimentPlan",
    "ExperimentReport",
    "ExperimentRow",
    "display_transform",
    "export_figure_data",
    "generate_drift",
    "plan_from_dict",
    "run_experiment",
    "summarize",
    "support_f1",
    "ConcentrationPoint",
    "RateCheckReport",
    "TheoryQuantities",
    "check_concentration",
    "compute_c_infty",
    "kappa_envelope",
    "kl_between",
    "minimax_family",
    "rate_sweep",
]
