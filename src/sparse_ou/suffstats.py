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
d = 50; at d = 100 they start to thread), so the reduction takes one CPU:
it shares the host with ``path_blocks``' draw thread and with other worker
processes, where one threaded product over a whole block would contend
with both.
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
    statistics were computed from; ``spectrum`` caches both ends of ``c_hat``'s
    spectrum from one ``eigvalsh``, the package's only decomposition of ``c_hat``.
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
    def spectrum(self):
        """Smallest and largest eigenvalues of ``c_hat`` (cached)."""
        eigvals = np.linalg.eigvalsh(self.c_hat)
        return float(eigvals[0]), float(eigvals[-1])


@dataclasses.dataclass(frozen=True, eq=False)
class LossReport:
    """Loss value and gradient at one candidate drift."""

    value: float
    gradient: np.ndarray


def check_split(n_paths, n_train):
    """Raise ``ValueError`` unless a split at path ``n_train`` leaves paths on both sides."""
    if not (1 <= n_train < n_paths):
        raise ValueError("n_train must be in [1, n_paths - 1], got %r" % (n_train,))


def block_stats(blocks, dim, terminal, step, n_train=None):
    """Reduce blocks of paths on one grid to their sufficient statistics.

    ``blocks`` holds pairs ``(first path index, block)`` with ``block`` of
    shape ``(rows, grid_len, dim)``, as ``process.path_blocks`` yields them.
    Returns the ``SuffStats`` of every path, or with ``n_train`` the pair
    for the paths before index ``n_train`` and for the rest; a block that
    straddles ``n_train`` is split by rows, and ``check_split`` rejects an
    empty side; blocks with no paths at all raise ``ValueError``. The sums,
    and so their bits, depend on how the paths were cut into blocks and in
    what order they came, never on anything else.
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
    if not sum(counts):
        raise ValueError("blocks must hold at least one path, got none")
    if n_train is not None:
        check_split(sum(counts), n_train)
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
        ``A``) and ``gradient = A c_hat - b_hat``, whose Lipschitz constant
        is exactly ``stats.spectrum[1]``.
    """
    a = np.asarray(candidate, dtype=float)
    if a.shape != (stats.dim, stats.dim):
        raise ValueError("candidate must have shape (%d, %d)" % (stats.dim, stats.dim))
    value, gradient = quadratic(stats, a)
    return LossReport(value=value, gradient=gradient)


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

