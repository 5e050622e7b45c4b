"""Sufficient statistics of observed paths and the quadratic fitting loss.

For a bundle of ``N`` paths on a grid with spacing ``delta`` the two
statistics are left-point discretizations of the path integrals

* ``c_hat = (1/N) sum_i sum_k delta * x_i(t_k) x_i(t_k)^T``
* ``b_hat = (1/N) sum_i sum_k (x_i(t_{k+1}) - x_i(t_k)) x_i(t_k)^T``

with ``k`` ranging over left endpoints (the last grid point only enters
through increments). They are all an estimator needs: the average negative
log-likelihood of a candidate drift ``A``, up to an additive constant not
depending on ``A``, is ``0.5 * tr(A c_hat A^T) - <A, b_hat>``.

Both sums are additive over paths. ``block_stats`` reduces blocks of paths,
as ``process.path_blocks`` yields them, to running sums plus a path count,
so statistics never need the whole path array. A block adds, for each grid
step ``k``, the ``(rows, d)`` products ``x_k^T x_k`` and ``dx_k^T x_k``.
Products this small stay on one BLAS thread (measured with OpenBLAS up to
d = 50; at d = 100 they start to thread), so the reduction does not compete
with simulation or with other worker processes for the CPUs, as one product
over a whole block would.
"""

import dataclasses
import functools

import numpy as np

from .process import block_rows


@dataclasses.dataclass(frozen=True, eq=False)
class SuffStats:
    """Sufficient statistics of a path bundle.

    ``c_hat`` is symmetric positive semidefinite; ``b_hat`` is the increment
    cross moment. ``n_paths``, ``terminal`` and ``step`` record the data the
    statistics were computed from.
    """

    dim: int
    c_hat: np.ndarray
    b_hat: np.ndarray
    n_paths: int
    terminal: float
    step: float

    def __post_init__(self):
        if self.dim < 1 or self.n_paths < 1:
            raise ValueError("dim and n_paths must be positive")
        if self.terminal <= 0 or self.step <= 0:
            raise ValueError("terminal and step must be positive")
        c = np.array(self.c_hat, dtype=float)
        b = np.array(self.b_hat, dtype=float)
        if c.shape != (self.dim, self.dim) or b.shape != (self.dim, self.dim):
            raise ValueError("c_hat and b_hat must be (dim, dim)")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(b))):
            raise ValueError("statistics must be finite")
        if not np.allclose(c, c.T, atol=1e-10, rtol=0.0):
            raise ValueError("c_hat must be symmetric")
        c = 0.5 * (c + c.T)
        c.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "c_hat", c)
        object.__setattr__(self, "b_hat", b)

    @functools.cached_property
    def curvature_bound(self):
        """Largest eigenvalue of ``c_hat`` (cached)."""
        return float(np.linalg.eigvalsh(self.c_hat)[-1])


@dataclasses.dataclass(frozen=True, eq=False)
class LossReport:
    """Loss value, gradient and curvature bound at one candidate drift."""

    value: float
    gradient: np.ndarray
    lipschitz: float


def block_stats(blocks, dim, terminal, step, n_train=None):
    """Reduce blocks of paths on one grid to their sufficient statistics.

    ``blocks`` holds pairs ``(first path index, block)`` with ``block`` of
    shape ``(rows, grid_len, dim)``, as ``process.path_blocks`` yields them.
    Returns the ``SuffStats`` of every path, or with ``n_train`` the pair
    for the paths before index ``n_train`` and for the rest; a block that
    straddles ``n_train`` is split by rows. The sums, and so their bits,
    depend on how the paths were cut into blocks and in what order they
    came, never on anything else.
    """
    parts = 1 if n_train is None else 2
    c_sums = np.zeros((parts, dim, dim))
    b_sums = np.zeros((parts, dim, dim))
    counts = [0] * parts
    for start, block in blocks:
        cut = len(block) if n_train is None else min(max(n_train - start, 0), len(block))
        for part, rows in enumerate((block[:cut], block[cut:])[:parts]):
            if not len(rows):
                continue
            increment = np.empty((len(rows), dim))
            for k in range(block.shape[1] - 1):
                x = rows[:, k]
                np.subtract(rows[:, k + 1], x, out=increment)
                c_sums[part] += x.T @ x
                b_sums[part] += increment.T @ x
            counts[part] += len(rows)
    stats = tuple(SuffStats(dim, c_sums[part] * (step / counts[part]), b_sums[part] / counts[part],
                            counts[part], float(terminal), float(step)) for part in range(parts))
    return stats[0] if n_train is None else stats


def compute_suffstats(paths):
    """Reduce a ``PathBundle`` to its sufficient statistics.

    The bundle goes to ``block_stats`` in blocks of ``block_rows`` paths.

    Parameters
    ----------
    paths : PathBundle

    Returns
    -------
    SuffStats
    """
    rows = block_rows(paths.grid_len, paths.dim)
    return block_stats(((start, paths.values[start:start + rows])
                        for start in range(0, paths.n_paths, rows)),
                       paths.dim, paths.terminal, paths.step)


def loss(stats, candidate):
    """Quadratic loss of a candidate drift against the statistics.

    Parameters
    ----------
    stats : SuffStats
    candidate : ndarray, shape (dim, dim)
        Candidate drift matrix ``A``.

    Returns
    -------
    LossReport
        ``value = 0.5 * tr(A c_hat A^T) - <A, b_hat>`` (equal to the
        discretized average negative log-likelihood up to a constant in
        ``A``), ``gradient = A c_hat - b_hat``, and ``lipschitz`` the top
        eigenvalue of ``c_hat``, which bounds the gradient's Lipschitz
        constant exactly.
    """
    a = np.asarray(candidate, dtype=float)
    if a.shape != (stats.dim, stats.dim):
        raise ValueError("candidate must have shape (%d, %d)" % (stats.dim, stats.dim))
    value, gradient = quadratic(stats, a)
    return LossReport(value=value, gradient=gradient, lipschitz=stats.curvature_bound)


def quadratic(stats, a, value=True):
    """``loss`` without its checks: the value (``None`` if ``value`` is false)
    and the gradient at the array ``a``, both from one product ``a @ c_hat``."""
    product = a @ stats.c_hat
    if not value:
        return None, product - stats.b_hat
    value = 0.5 * float(np.einsum("ij,ij->", product, a)) - float(np.einsum("ij,ij->", a, stats.b_hat))
    return value, product - stats.b_hat


def martingale_term(stats, true_drift):
    """Empirical noise-times-state integral ``b_hat - A0 c_hat``.

    With the true drift ``A0`` plugged in, the increment cross moment splits
    into the drift part ``A0 c_hat`` plus a centered stochastic-integral
    term; this returns that remainder, which concentrates around zero.
    """
    a0 = np.asarray(true_drift.entries if hasattr(true_drift, "entries") else true_drift, dtype=float)
    if a0.shape != (stats.dim, stats.dim):
        raise ValueError("true drift must have shape (%d, %d)" % (stats.dim, stats.dim))
    return stats.b_hat - a0 @ stats.c_hat

