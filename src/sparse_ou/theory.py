"""Population quantities and empirical checks of the statistical theory.

The time-integrated second moment of a path started from a centered law with
covariance ``Sigma`` is

``C(T) = int_0^T ( e^{tA} Sigma e^{tA^T} + int_0^t e^{sA} e^{sA^T} ds ) dt``

whose extreme eigenvalues ``kappa_min``/``kappa_max`` govern the curvature
of the estimation problem. This module computes ``C(T)`` in closed form from
one Van Loan block exponential over a short step, doubled up to ``T``,
checks concentration of the empirical second-moment statistic around it,
reduces the rows of the study's cells (``experiments.run_cell``) to
error-rate sweeps, and provides the antisymmetric drift family whose
pairwise path-law divergence has a closed form.
"""

import dataclasses
import math

import numpy as np

from .errors import NumericalError, UnsupportedInputError
from .experiments import ExperimentPlan, run_cell
from .files import read_value
from .model_select import PENALTIES
from .process import DriftMatrix, InitialLaw, matrix_exponential, mix_seed, path_blocks, path_stream
from .suffstats import block_stats

# Not called here: the benchmark's tracer patches these names in this module
# (``tests/test_benchmark_contract.py`` checks that they resolve), and the
# streamed ``check_concentration`` leaves their layers at zero.
from .process import simulate_exact  # noqa: F401
from .suffstats import compute_suffstats  # noqa: F401


@dataclasses.dataclass(frozen=True, eq=False)
class TheoryQuantities:
    """Time-integrated second moment and its spectral summaries.

    ``kappa_star = kappa_max + kappa_min / 2`` is the upper edge of the
    eigenvalue band used by the concentration event;
    ``spectral_abscissa_abs`` is ``max_i |Re eig_i(A)|`` and
    ``eigvec_condition`` the condition number of the eigenvector matrix.
    """

    c_infty: np.ndarray
    kappa_min: float
    kappa_max: float
    kappa_star: float
    spectral_abscissa_abs: float
    eigvec_condition: float


@dataclasses.dataclass(frozen=True)
class ConcentrationPoint:
    n_paths: int
    mean_deviation: float
    sandwich_frequency: float


@dataclasses.dataclass(frozen=True, eq=False)
class RateCheckReport:
    """Outcome of an error-rate sweep along one axis."""

    sweep_axis: str
    points: list
    fitted_exponent: float
    expected_exponent: float
    psi: list
    p: int


def _spectral_summaries(a):
    eigvals, eigvecs = np.linalg.eig(a)
    try:
        inverse = np.linalg.inv(eigvecs)
    except np.linalg.LinAlgError:
        raise UnsupportedInputError("drift matrix is not diagonalizable") from None
    # On ``a`` scaled exactly by a power of two, no norm overflows; NaN fails.
    factor = 2.0 ** -max(int(np.frexp(np.max(np.abs(a)))[1]), 0)
    residual = eigvecs @ np.diag(eigvals * factor) @ inverse - a * factor
    if not float(np.linalg.norm(residual)) <= 1e-8 * max(float(np.linalg.norm(a * factor)), factor):
        raise UnsupportedInputError(
            "drift matrix is numerically defective (eigendecomposition residual too large)"
        )
    abscissa = float(np.max(np.abs(eigvals.real)))
    condition = float(np.linalg.norm(eigvecs, 2) * np.linalg.norm(inverse, 2))
    return abscissa, condition


def compute_c_infty(drift: DriftMatrix, sigma: np.ndarray | None = None, terminal: float = 1.0):
    """Time-integrated second moment of the path and spectral summaries.

    Uses ``C(T) = int_0^T e^{sA} (Sigma + (T - s) I) e^{sA^T} ds``. One block
    exponential (Van Loan, IEEE TAC 23(3), 1978) over the step
    ``h = T / 2^k``, with ``k`` the least integer making ``h ||A||_1 <= 1``,
    gives ``e^{hA}`` and the integrals of ``e^{sA} X e^{sA^T}`` and
    ``s e^{sA} e^{sA^T}`` over ``[0, h]``. Each doubling of ``h`` extends
    them by ``e^{hA} (.) e^{hA^T}``, a sum of positive semidefinite terms,
    so no accuracy is lost to cancellation on stiff or non-normal drifts.

    Parameters
    ----------
    drift : DriftMatrix
        Must be diagonalizable (checked through the eigendecomposition
        residual); otherwise ``UnsupportedInputError``.
    sigma : ndarray, optional
        Covariance of the initial state, default zero; checked as the
        covariance of a Gaussian ``InitialLaw``.
    terminal : float
        Integration horizon ``T``.

    Returns
    -------
    TheoryQuantities
        ``NumericalError`` is raised instead when the drift's 1-norm or the
        moment overflows.
    """
    if not 0 < terminal < math.inf:
        raise ValueError("terminal must be positive and finite")
    a = drift.entries
    dim = drift.dim
    sigma = np.zeros((dim, dim)) if sigma is None else InitialLaw("gaussian", sigma).covariance
    if sigma.shape != (dim, dim):
        raise ValueError("sigma must have shape (%d, %d)" % (dim, dim))
    with np.errstate(over="ignore"):
        a_norm = float(np.linalg.norm(a, 1))
    if not a_norm < math.inf:
        raise NumericalError("the drift's 1-norm overflows")
    abscissa, condition = _spectral_summaries(a)
    norm = terminal * a_norm
    # Past the float range log2 of the product is the sum of the logs, and
    # ldexp halves without forming 2 ** doublings, which overflows past 1023.
    doublings = 0 if not norm > 1.0 else math.ceil(
        math.log2(norm) if norm < math.inf else math.log2(terminal) + math.log2(a_norm))
    h = math.ldexp(terminal, -doublings)
    eye = np.eye(dim)
    zero = np.zeros((dim, dim))
    blocks = matrix_exponential(h * np.block([
        [-a, eye, zero, sigma],
        [zero, a.T, eye, zero],
        [zero, zero, a.T, zero],
        [zero, zero, zero, a.T],
    ]))
    flow = blocks[dim:2 * dim, dim:2 * dim].T
    # Over [0, h]: gram = int e^{sA} e^{sA^T}, ramp = int (h - s) e^{sA} e^{sA^T}
    # and start = int e^{sA} Sigma e^{sA^T}.
    gram = flow @ blocks[:dim, dim:2 * dim]
    ramp = h * gram - flow @ blocks[:dim, 2 * dim:3 * dim]
    start = flow @ blocks[:dim, 3 * dim:]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(doublings):
            start = start + flow @ start @ flow.T
            ramp = ramp + h * gram + flow @ ramp @ flow.T
            gram = gram + flow @ gram @ flow.T
            flow = flow @ flow
            h *= 2.0
        c_matrix = start + ramp
    if not np.all(np.isfinite(c_matrix)):
        raise NumericalError("integrated second moment overflows over the horizon")
    c_matrix = 0.5 * (c_matrix + c_matrix.T)
    eigvals = np.linalg.eigvalsh(c_matrix)
    kappa_min = float(eigvals[0])
    kappa_max = float(eigvals[-1])
    return TheoryQuantities(
        c_infty=c_matrix,
        kappa_min=kappa_min,
        kappa_max=kappa_max,
        kappa_star=kappa_max + 0.5 * kappa_min,
        spectral_abscissa_abs=abscissa,
        eigvec_condition=condition,
    )


def kappa_envelope(quantities, sigma=None, terminal=1.0):
    """A priori sandwich for the extreme eigenvalues of the integrated moment.

    Returns ``(lower, upper)`` with
    ``lower = 0.5 * p0^{-2} T^2 exp(-2 a0 T) <= kappa_min`` and
    ``kappa_max <= upper = p0^2 (T + ||sigma||_op) T exp(2 a0 T)`` where
    ``a0`` is the absolute spectral abscissa and ``p0`` the eigenvector
    condition number.
    """
    a0 = quantities.spectral_abscissa_abs
    p0 = quantities.eigvec_condition
    sigma_norm = 0.0 if sigma is None else float(np.linalg.norm(np.asarray(sigma, dtype=float), 2))
    lower = 0.5 * terminal * terminal * math.exp(-2.0 * a0 * terminal) / (p0 * p0)
    upper = p0 * p0 * (terminal + sigma_norm) * terminal * math.exp(2.0 * a0 * terminal)
    return lower, upper


def _sample_sizes(values, name):
    # Integral entries as ints; a string, a boolean or a fraction is an error.
    try:
        return [read_value(int, n, name) for n in values]
    except ValueError:
        raise ValueError("%s must contain integers, got %r" % (name, values)) from None


def check_concentration(drift: DriftMatrix, law: InitialLaw, n_list: tuple, reps: int, seed: int,
                        terminal: float = 1.0, step: float = 0.01, sampler: str = "exact"):
    """Measure how the empirical second-moment statistic concentrates.

    For each sample size ``N`` this simulates ``reps`` independent sets of
    paths, reduced to their statistics block by block as they are drawn,
    records the operator-norm deviation of the statistic from the population
    moment, and the frequency of the eigenvalue-sandwich event
    that every eigenvalue of ``c_hat`` lies within
    ``[kappa_min / 2, kappa_max + kappa_min / 2]``.

    Returns a list of ``ConcentrationPoint`` in the order of ``n_list``.
    """
    n_list = _sample_sizes(n_list, "n_list")
    if not n_list or min(n_list) < 1:
        raise ValueError("n_list must contain positive sample sizes")
    if reps < 1:
        raise ValueError("reps must be positive")
    if sampler not in ("exact", "euler"):
        raise ValueError("sampler must be 'exact' or 'euler'")
    sigma = law.covariance if law.kind == "gaussian" else None
    quantities = compute_c_infty(drift, sigma=sigma, terminal=terminal)
    band_low = 0.5 * quantities.kappa_min
    band_high = quantities.kappa_star
    points = []
    for n_paths in n_list:
        deviations = []
        hits = 0
        for replicate in range(reps):
            blocks = path_blocks(sampler, drift, law, n_paths, terminal, step,
                                 mix_seed(seed, 4, n_paths, replicate))
            stats = block_stats(blocks, drift.dim, terminal, step)
            deviations.append(float(np.linalg.norm(stats.c_hat - quantities.c_infty, 2)))
            spectrum = np.linalg.eigvalsh(stats.c_hat)
            if spectrum[0] >= band_low and spectrum[-1] <= band_high:
                hits += 1
        points.append(ConcentrationPoint(
            n_paths=n_paths,
            mean_deviation=float(np.mean(deviations)),
            sandwich_frequency=hits / reps,
        ))
    return points


def rate_sweep(axis: str, plan: ExperimentPlan, points: tuple, reps: int, p: int = 2,
               penalty: str = "l1"):
    """Fit the error-decay exponent of the hold-out-selected estimator.

    Parameters
    ----------
    axis : str
        Sweep axis; only ``"N"`` (number of training paths) is supported.
    plan : ExperimentPlan
        Supplies the one dimension (``dims`` must hold exactly one, or
        ``ValueError`` is raised), drift scheme, grid, horizon, step and
        master seed. The drift is drawn once and reused across all points.
    points : sequence of int
        At least two distinct training sample sizes ``N``, each at least 8;
        each (N, replicate) is one ``experiments.run_cell`` row, fitted in
        this process on ``N`` plus ``max(N // 4, 8)`` validation paths.
    reps : int
        Replicates per point.
    p : {1, 2}
        Exponent convention of the reference envelope
        ``psi = s^{1/p} sqrt(log(e d^2 / s) / N)``.
    penalty : {"l1", "sorted_l1"}

    Returns
    -------
    RateCheckReport
        ``points`` holds (N, mean l2 error), ``fitted_exponent`` the
        least-squares slope of log mean error against log N. A failed fit
        raises ``NumericalError`` naming N and the replicate.
    """
    if axis != "N":
        raise ValueError("only the 'N' sweep axis is supported")
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    if reps < 1:
        raise ValueError("reps must be positive")
    estimator = {kind: name for name, kind in PENALTIES.items()}.get(penalty)
    if estimator is None:
        raise ValueError("penalty must be 'l1' or 'sorted_l1'")
    sizes = _sample_sizes(points, "points")
    if len(set(sizes)) < 2 or any(n < 8 for n in sizes):
        raise ValueError("points must contain at least two distinct sample sizes >= 8")
    if len(plan.dims) != 1:
        raise ValueError("plan must have exactly one dimension, got dims %r" % (list(plan.dims),))
    (dim,) = plan.dims
    drift = plan.drift(dim)
    sparsity = drift.nnz
    means = []
    for n_train in sizes:
        cell_plan = dataclasses.replace(plan, n_paths=n_train + max(n_train // 4, 8), n_train=n_train)
        errors = []
        for replicate in range(reps):
            (row,) = run_cell(cell_plan, dim, replicate,
                              mix_seed(plan.master_seed, 3, n_train, replicate), (estimator,))
            if row.estimate is None:
                raise NumericalError("fit at N=%d, replicate %d %s" % (n_train, replicate, row.status))
            errors.append(float(np.linalg.norm(row.estimate - drift.entries)))
        means.append(float(np.mean(errors)))
    slope = float(np.polyfit(np.log(sizes), np.log(means), 1)[0])
    psi = [sparsity ** (1.0 / p) * math.sqrt(math.log(math.e * dim * dim / sparsity) / n)
           for n in sizes]
    return RateCheckReport(sweep_axis="N", points=list(zip(sizes, means)), fitted_exponent=slope,
                           expected_exponent=-0.5, psi=psi, p=p)


def minimax_family(dim, sparsity, w, count, seed):
    """Antisymmetric perturbation family used for divergence calculations.

    Members are ``A = -0.5 I - w B`` where ``B`` is antisymmetric with
    entries in ``{-1, 0, 1}`` and exactly ``r`` nonzeros, ``r`` the largest
    even integer at most ``(sparsity - dim) / 2``. Supports and signs are
    sampled uniformly without repetition across the returned members.

    Parameters
    ----------
    dim : int
        At least 4.
    sparsity : int
        Overall sparsity budget, at least ``2 * dim``.
    w : float
        Positive perturbation size.
    count : int
        Number of distinct members to draw.
    seed : int

    Returns
    -------
    list of DriftMatrix
    """
    if dim < 4:
        raise ValueError("dim must be at least 4")
    if sparsity < 2 * dim:
        raise ValueError("sparsity must be at least 2 * dim")
    if w <= 0:
        raise ValueError("w must be positive")
    if count < 1:
        raise ValueError("count must be positive")
    r = int((sparsity - dim) // 2)
    if r % 2:
        r -= 1
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    half = r // 2
    if half > len(pairs):
        raise ValueError("sparsity budget exceeds the available off-diagonal pairs")
    gen = path_stream(seed, 6)
    members = []
    seen = set()
    attempts = 0
    while len(members) < count:
        attempts += 1
        if attempts > 1000 * count:
            raise ValueError("cannot draw %d distinct members" % (count,))
        chosen = gen.choice(len(pairs), size=half, replace=False)
        signs = gen.choice([-1.0, 1.0], size=half)
        key = tuple(sorted((int(c), float(s)) for c, s in zip(chosen, signs)))
        if key in seen:
            continue
        seen.add(key)
        b = np.zeros((dim, dim))
        for index, sign in zip(chosen, signs):
            i, j = pairs[int(index)]
            b[i, j] = sign
            b[j, i] = -sign
        entries = -0.5 * np.eye(dim) - w * b
        members.append(DriftMatrix(dim, entries))
    return members


def _family_alpha(a):
    # The drift must be -(alpha I) plus an antisymmetric part.
    symmetric = 0.5 * (a + a.T)
    alpha = -float(np.mean(np.diag(symmetric)))
    if alpha <= 0:
        raise UnsupportedInputError("symmetric part must be a negative multiple of the identity")
    if float(np.max(np.abs(symmetric + alpha * np.eye(a.shape[0])))) > 1e-10:
        raise UnsupportedInputError(
            "drift is not of the antisymmetric-perturbation form -(alpha I + antisymmetric)"
        )
    return alpha


def kl_between(a1: DriftMatrix, a2: DriftMatrix, n_paths: int, terminal: float = 1.0):
    """Path-law divergence between two antisymmetric-perturbation drifts.

    For drifts ``A = -(alpha I + antisymmetric)`` started at the origin the
    state covariance is the explicit scalar multiple
    ``(1 - e^{-2 alpha t}) / (2 alpha) * I`` of the identity, so the
    divergence of the joint law of ``n_paths`` independent paths over
    ``[0, terminal]`` reduces to

    ``0.5 * n_paths * ||A1 - A2||_F^2 * int_0^T (1 - e^{-2 alpha t}) / (2 alpha) dt``.

    Both drifts must share the same ``alpha`` (each verified entrywise
    within 1e-10); otherwise ``UnsupportedInputError``.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    if not 0 < terminal < math.inf:
        raise ValueError("terminal must be positive and finite")
    first = np.asarray(a1.entries if hasattr(a1, "entries") else a1, dtype=float)
    second = np.asarray(a2.entries if hasattr(a2, "entries") else a2, dtype=float)
    if first.shape != second.shape or first.ndim != 2 or first.shape[0] != first.shape[1]:
        raise ValueError("drifts must be square matrices of equal shape")
    alpha1 = _family_alpha(first)
    alpha2 = _family_alpha(second)
    if abs(alpha1 - alpha2) > 1e-10:
        raise UnsupportedInputError("drifts must share the same symmetric part")
    alpha = 0.5 * (alpha1 + alpha2)
    # int_0^T (1 - e^{-2 a t}) / (2 a) dt in closed form.
    constant = terminal / (2.0 * alpha) - (1.0 - math.exp(-2.0 * alpha * terminal)) / (4.0 * alpha * alpha)
    gap = first - second
    return 0.5 * n_paths * float(np.sum(gap * gap)) * constant
