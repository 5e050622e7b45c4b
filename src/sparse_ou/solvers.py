"""Drift estimators built on the sufficient statistics.

Three estimators share the quadratic loss ``0.5 tr(A c_hat A^T) - <A, b_hat>``:

* ``solve_mle``: unpenalized minimizer ``b_hat c_hat^{-1}`` via a linear solve.
* ``solve_lasso``: adds ``lambda * ||A||_1`` (entrywise l1).
* ``solve_slope``: adds ``lambda * sorted-l1`` with nonincreasing weights.

Both penalized problems run one loop that takes the penalty as data, the pair
``(lambda, weights)``: sorted-l1 weights, or none for l1 (the flat-weight
case). The loop runs accelerated proximal gradient iterations with a fixed
step ``1/L``, ``L`` the top eigenvalue of ``c_hat`` (the exact Lipschitz
constant of the gradient), in a variant that is monotone up to rounding:
whenever the accelerated candidate raises the objective the momentum is
restarted and a plain proximal step from the current iterate is taken instead.
The momentum coefficient is capped at V-FISTA's ``(1 - q) / (1 + q)``, with
``q = sqrt(mu / L)`` and ``mu`` the bottom eigenvalue of ``c_hat`` (Beck,
First-Order Methods in Optimization, SIAM 2017, 10.7.7); a singular ``c_hat``
caps it at 1, plain FISTA.
A fit stops on the step it just took, the fixed-point residual at the point it
was taken from, so the stopping test costs no extra prox. The loop reads each
candidate's penalty from the magnitudes its prox hands back, so a fit
evaluates the norm once, at its start.
"""

import dataclasses
import math

import numpy as np

from .errors import NumericalError
from .process import DriftMatrix
from .prox import WeightVector, prox_l1, prox_sorted_l1, slope_weights, sorted_l1_norm
from .suffstats import quadratic


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    """Iteration budget and stopping tolerances for the proximal solvers.

    Convergence requires a relative objective decrease below ``rel_tol`` and
    a last step, the max-abs fixed-point residual at the point it was taken
    from, below ``rel_tol * (1 + ||A||_inf)``; ``max_iters`` caps the loop.
    """

    max_iters: int = 5000
    rel_tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if not (0 < self.rel_tol < 1):
            raise ValueError("rel_tol must be in (0, 1)")


@dataclasses.dataclass(frozen=True, eq=False)
class EstimatorResult:
    """Fitted drift plus the solve trace."""

    estimate: DriftMatrix
    objective_history: list
    iterations: int
    converged: bool
    lambda_used: float | None
    penalty_kind: str


def solve_mle(stats):
    """Unpenalized maximum likelihood drift ``b_hat c_hat^{-1}``.

    Uses a linear solve (never an explicit inverse) plus iterative
    refinement until ``||A c_hat - b_hat||_inf <= 1e-8 * ||b_hat||_inf``.
    Raises ``NumericalError`` when the condition number of ``c_hat`` is
    ``1e12`` or worse.
    """
    condition = float(np.linalg.cond(stats.c_hat))
    if not math.isfinite(condition) or condition >= 1e12:
        raise NumericalError(
            "c_hat is too ill conditioned for maximum likelihood (condition %.3e)" % condition
        )
    estimate = np.linalg.solve(stats.c_hat, stats.b_hat.T).T
    tolerance = 1e-8 * float(np.max(np.abs(stats.b_hat)))
    for _ in range(5):
        residual = estimate @ stats.c_hat - stats.b_hat
        if float(np.max(np.abs(residual))) <= tolerance:
            break
        estimate = estimate - np.linalg.solve(stats.c_hat, residual.T).T
    else:
        raise NumericalError("maximum likelihood solve could not reach its residual tolerance")
    value, _ = quadratic(stats, estimate)
    return EstimatorResult(
        estimate=DriftMatrix(stats.dim, estimate),
        objective_history=[value],
        iterations=0,
        converged=True,
        lambda_used=None,
        penalty_kind="none",
    )


def _proximal_path(stats, lam, weights, config, warm_start):
    # Monotone accelerated proximal gradient on ``lam * ||A||_1`` (``weights``
    # None) or ``lam * sorted_l1_norm(A, weights)``. The prox and the norm are
    # looked up as module globals per call, so wrappers set there see each one.
    # A candidate's penalty is the norm's own expression on the prox's sorted
    # magnitudes, so it has the norm's bits.
    config = config or SolverConfig()
    smallest, lipschitz = stats.spectrum
    if lipschitz <= 0:
        raise NumericalError("c_hat has zero curvature; the penalized problem is degenerate")
    if warm_start is None:
        current = np.zeros((stats.dim, stats.dim))
    else:
        current = np.array(warm_start, dtype=float)
        if current.shape != (stats.dim, stats.dim):
            raise ValueError("warm start must have shape (%d, %d)" % (stats.dim, stats.dim))
    # Dividing lam by the same curvature used for the gradient step keeps the
    # threshold and the stepped point rounding-consistent, so
    # lam == ||b_hat||_inf still maps a zero start to exactly zero.
    threshold = lam / lipschitz
    # Momentum past V-FISTA's for c_hat's smallest eigenvalue, the loss's strong
    # convexity, overshoots; a singular c_hat (<= 0 by rounding) caps it at 1.
    ratio = math.sqrt(max(smallest, 0.0) / lipschitz)
    momentum_cap = (1.0 - ratio) / (1.0 + ratio)
    momentum_point = current
    momentum = 1.0
    magnitudes = np.empty(current.shape if weights is None else current.size)

    def prox_step(point, gradient):
        # The candidate, its objective and its loss gradient, from one product.
        stepped = point - gradient / lipschitz
        if weights is None:
            candidate = prox_l1(stepped, threshold, magnitudes)
            penalty = np.sum(magnitudes)
        else:
            candidate = prox_sorted_l1(stepped, weights, threshold, magnitudes)
            penalty = magnitudes[::-1] @ weights.weights
        value, candidate_gradient = quadratic(stats, candidate)
        return candidate, value + lam * float(penalty), candidate_gradient

    value, gradient = quadratic(stats, current)
    penalty = np.sum(np.abs(current)) if weights is None else sorted_l1_norm(current, weights)
    objective = value + lam * float(penalty)
    history = [objective]
    converged = False
    for iterations in range(1, config.max_iters + 1):
        base = momentum_point
        candidate, candidate_value, candidate_gradient = prox_step(
            base, quadratic(stats, base, value=False)[1])
        if candidate_value > objective:
            # Momentum overshoot: restart and take a plain step from the
            # current iterate. With the exact 1/L step it cannot raise the
            # objective, up to rounding, so it is always accepted; keeping
            # the current iterate on an ulp-sized rise would stall the path
            # at the rounding floor.
            momentum = 1.0
            base = current
            candidate, candidate_value, candidate_gradient = prox_step(base, gradient)
        momentum_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum * momentum))
        coefficient = min((momentum - 1.0) / momentum_next, momentum_cap)
        momentum_point = candidate + coefficient * (candidate - current)
        stalled = objective - candidate_value <= config.rel_tol * max(abs(objective), 1e-300)
        current, objective, gradient = candidate, candidate_value, candidate_gradient
        momentum = momentum_next
        history.append(objective)
        if stalled and (float(np.max(np.abs(base - current)))
                        <= config.rel_tol * (1.0 + float(np.max(np.abs(current))))):
            converged = True
            break
    return EstimatorResult(DriftMatrix(stats.dim, current), history, iterations, converged,
                           lam, "l1" if weights is None else "sorted_l1")


def check_level(lam):
    """Return the level ``lam`` as a float; raise ``ValueError`` unless it is finite and nonnegative."""
    lam = float(lam)
    if not 0 <= lam < np.inf:
        raise ValueError("lam must be nonnegative and finite")
    return lam


def solve_lasso(stats, lam, config=None, warm_start=None):
    """Drift estimate with the entrywise l1 penalty ``lam * ||A||_1``.

    Parameters
    ----------
    stats : SuffStats
    lam : float
        Nonnegative regularization level. ``lam = 0`` recovers the
        unpenalized minimizer; ``lam >= ||b_hat||_inf`` yields exactly zero
        from a zero start.
    config : SolverConfig, optional
    warm_start : ndarray, optional
        Starting point, by default the zero matrix.

    Returns
    -------
    EstimatorResult
    """
    return _proximal_path(stats, check_level(lam), None, config, warm_start)


def solve_slope(stats, lam, weights=None, config=None, warm_start=None):
    """Drift estimate with the sorted-l1 penalty.

    Parameters
    ----------
    stats : SuffStats
    lam : float
        Nonnegative scale multiplying the weighted sorted-l1 norm.
    weights : WeightVector, optional
        Defaults to ``slope_weights(dim * dim)``, i.e.
        ``w_i = sqrt(log(2 d^2 / i))`` over flattened entries.
    config : SolverConfig, optional
    warm_start : ndarray, optional

    Returns
    -------
    EstimatorResult
    """
    lam = check_level(lam)
    if weights is None:
        weights = slope_weights(stats.dim * stats.dim)
    if not isinstance(weights, WeightVector):
        weights = WeightVector(np.asarray(weights, dtype=float))
    if len(weights) != stats.dim * stats.dim:
        raise ValueError("weights must have length dim * dim")
    return _proximal_path(stats, lam, weights, config, warm_start)
