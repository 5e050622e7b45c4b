"""Independent reference implementations used to cross-check the package.

Everything here is a second route to the same quantity: plain Taylor series
for the matrix exponential, Lyapunov equations for the integrated second
moment, whole-bundle einsum sums for the sufficient statistics, an
Euler recursion over all paths at once, exhaustive enumeration and a min-max formula for the sorted-l1
proximal map, cyclic coordinate descent for the l1 problem, a
discretized log likelihood ratio for path-law divergences, and small random
problem factories. None of it reuses package internals beyond public data
types, except ``looped_rate_points``: the rate sweep's own loop of hold-out
statistics, selection and error, on the package's ``holdout_stats`` and
``cross_validate``, as it ran before the sweep fitted through the study's
cell.
"""

import dataclasses
import itertools

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

from sparse_ou import SuffStats, cross_validate, mix_seed, path_stream
from sparse_ou.experiments import holdout_stats


def taylor_expm(matrix, terms=80):
    """Matrix exponential by the plain power series (fine for small norms)."""
    m = np.asarray(matrix, dtype=float)
    result = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, terms + 1):
        term = term @ m / k
        result = result + term
    return result


def lyapunov_c_infty(a, sigma, terminal):
    """Integrated second moment from the Lyapunov identity, for stable ``a``.

    With ``F = e^{TA}`` and ``G(T) = int_0^T e^{sA} e^{sA^T} ds``,
    integrating ``d/ds [e^{sA} (Sigma + (T - s) I) e^{sA^T}]`` over
    ``[0, T]`` gives ``A C + C A^T = F Sigma F^T - Sigma + G(T) - T I``, and
    ``G`` itself solves ``A G + G A^T = F F^T - I``. Both equations have
    unique solutions when no two eigenvalues of ``a`` sum to zero. ``F``
    comes from the Taylor series, so keep ``T ||a||`` small.
    """
    a = np.asarray(a, dtype=float)
    eye = np.eye(a.shape[0])
    flow = taylor_expm(terminal * a)
    gram = solve_continuous_lyapunov(a, flow @ flow.T - eye)
    rhs = flow @ sigma @ flow.T - sigma + gram - terminal * eye
    return solve_continuous_lyapunov(a, rhs)


def einsum_suffstats(bundle):
    """``(c_hat, b_hat)`` as two einsum contractions over the whole bundle."""
    left = bundle.values[:, :-1, :]
    increments = bundle.values[:, 1:, :] - left
    c_hat = np.einsum("nkd,nke->de", left, left) * (bundle.step / bundle.n_paths)
    b_hat = np.einsum("nkd,nke->de", increments, left) / bundle.n_paths
    return c_hat, b_hat


def unblocked_euler(a, n_paths, grid_len, step, seed):
    """Euler paths from the origin, every step one product over all paths.

    Path ``i`` draws ``path_stream(seed, i)``; the recursion is
    ``x[k+1] = x[k] + step * A x[k] + sqrt(step) * z[k]``.
    """
    dim = a.shape[0]
    normals = np.array([path_stream(seed, i).standard_normal((grid_len - 1, dim))
                        for i in range(n_paths)])
    values = np.zeros((n_paths, grid_len, dim))
    for k in range(grid_len - 1):
        state = values[:, k]
        values[:, k + 1] = state + step * (state @ a.T) + np.sqrt(step) * normals[:, k]
    return values


def soft_threshold(values, level):
    return np.sign(values) * np.maximum(np.abs(values) - level, 0.0)


def sorted_l1_value(vector, weights):
    return float(np.sort(np.abs(vector))[::-1] @ weights)


def brute_prox_sorted_l1(vector, weights, scale):
    """Exhaustive active-set solution of the sorted-l1 proximal problem.

    The minimizer keeps the signs of ``vector`` and the ordering of its
    magnitudes, and in the sorted domain is piecewise constant over
    consecutive blocks with values equal to clipped block means of
    ``sorted|v| - scale * weights``. Enumerating every consecutive-block
    partition (2^(p-1) of them) therefore covers the optimum; the candidate
    with the smallest objective value is returned.
    """
    v = np.asarray(vector, dtype=float)
    p = v.size
    magnitudes = np.abs(v)
    order = np.argsort(-magnitudes, kind="stable")
    shifted = magnitudes[order] - scale * weights
    best = None
    best_value = np.inf
    for cuts in itertools.product((False, True), repeat=p - 1):
        blocks = []
        start = 0
        for index, cut in enumerate(cuts, start=1):
            if cut:
                blocks.append((start, index))
                start = index
        blocks.append((start, p))
        y = np.empty(p)
        for lo, hi in blocks:
            y[lo:hi] = shifted[lo:hi].mean()
        if np.any(np.diff(y) > 1e-12):
            continue
        y = np.clip(y, 0.0, None)
        candidate = np.empty(p)
        candidate[order] = y
        candidate = np.sign(v) * candidate
        value = 0.5 * float(np.sum((candidate - v) ** 2))
        value += scale * sorted_l1_value(candidate, weights)
        if value < best_value:
            best_value = value
            best = candidate
    return best, best_value


def minmax_isotonic_nonincreasing(values):
    """Projection onto the nonincreasing cone by the min-max formula.

    ``x_i = min_{j <= i} max_{k >= i} mean(y_j .. y_k)``, from all O(p^2)
    block means at once: a reverse cumulative max over ``k`` in each row
    ``j``, then a cumulative min over ``j`` down each column, read on the
    diagonal. No pooling is involved.
    """
    y = np.asarray(values, dtype=float)
    p = y.size
    prefix = np.concatenate(([0.0], np.cumsum(y)))
    j = np.arange(p)[:, None]
    k = np.arange(p)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        means = np.where(k >= j, (prefix[1:][None, :] - prefix[:-1][:, None]) / (k - j + 1), -np.inf)
    tail_max = np.maximum.accumulate(means[:, ::-1], axis=1)[:, ::-1]
    return np.diagonal(np.minimum.accumulate(tail_max, axis=0)).copy()


def minmax_prox_sorted_l1(vector, weights, scale):
    """Sorted-l1 proximal map with the min-max projection, for any size."""
    v = np.asarray(vector, dtype=float)
    magnitudes = np.abs(v)
    order = np.argsort(-magnitudes, kind="stable")
    shifted = magnitudes[order] - scale * np.asarray(weights, dtype=float)
    out = np.empty(v.size)
    out[order] = np.clip(minmax_isotonic_nonincreasing(shifted), 0.0, None)
    return np.sign(v) * out


def cd_lasso(c_hat, b_hat, lam, sweeps=50000, tol=1e-14):
    """Cyclic coordinate descent for 0.5 tr(A C A^T) - <A, B> + lam ||A||_1."""
    d = c_hat.shape[0]
    a = np.zeros((d, d))
    for _ in range(sweeps):
        biggest = 0.0
        for i in range(d):
            for j in range(d):
                old = a[i, j]
                partial = float(a[i] @ c_hat[:, j]) - old * c_hat[j, j]
                updated = soft_threshold(b_hat[i, j] - partial, lam) / c_hat[j, j]
                a[i, j] = updated
                biggest = max(biggest, abs(updated - old))
        if biggest < tol:
            break
    return a


def lasso_objective(c_hat, b_hat, lam, a):
    value = 0.5 * float(np.einsum("ij,ij->", a @ c_hat, a))
    value -= float(np.einsum("ij,ij->", a, b_hat))
    return value + lam * float(np.sum(np.abs(a)))


def girsanov_llr(bundle, a1, a2):
    """Per-path discretized log likelihood ratio of drift a1 against a2.

    Left-point discretization of
    ``int ((a1 - a2) x)^T dx - 0.5 int (||a1 x||^2 - ||a2 x||^2) dt``.
    """
    left = bundle.values[:, :-1, :]
    increments = bundle.values[:, 1:, :] - left
    gap = a1 - a2
    drift_part = np.einsum("nkd,nkd->n", left @ gap.T, increments)
    sq1 = np.einsum("nkd,nkd->n", left @ a1.T, left @ a1.T)
    sq2 = np.einsum("nkd,nkd->n", left @ a2.T, left @ a2.T)
    return drift_part - 0.5 * bundle.step * (sq1 - sq2)


def random_spd_stats(rng, dim, spread=(0.5, 2.0), n_paths=100):
    """SuffStats with a controlled-condition SPD second moment."""
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eigvals = rng.uniform(spread[0], spread[1], size=dim)
    c_hat = basis @ np.diag(eigvals) @ basis.T
    c_hat = 0.5 * (c_hat + c_hat.T)
    b_hat = rng.normal(size=(dim, dim))
    return SuffStats(dim, c_hat, b_hat, n_paths, 1.0, 0.01)


def stable_random_drift(rng, dim, margin=0.5):
    """Random matrix shifted so that every eigenvalue has negative real part."""
    a = rng.normal(size=(dim, dim)) / np.sqrt(dim)
    shift = float(np.max(np.linalg.eigvals(a).real)) + margin
    return a - shift * np.eye(dim)


def looped_rate_points(plan, points, reps, penalty):
    """``rate_sweep``'s (N, mean l2 error) points from a plain loop over (N, replicate)."""
    drift = plan.drift(plan.dims[0])
    means = []
    for n_train in points:
        cell_plan = dataclasses.replace(plan, n_paths=n_train + max(n_train // 4, 8), n_train=n_train)
        errors = []
        for replicate in range(reps):
            train, valid = holdout_stats(drift, cell_plan, mix_seed(plan.master_seed, 3, n_train, replicate))
            report = cross_validate(train, valid, plan.grid, penalty=penalty, config=plan.solver)
            errors.append(float(np.linalg.norm(report.result.estimate.entries - drift.entries)))
        means.append(float(np.mean(errors)))
    return list(zip(points, means))
