"""Simulation of linear stochastic dynamics driven by Brownian noise.

The process follows ``dx(t) = A x(t) dt + dw(t)`` on ``[0, T]`` where ``A`` is
a fixed ``d x d`` drift matrix and ``w`` is a standard ``d``-dimensional
Brownian motion. Repeated independent paths are observed on the uniform grid
``t_k = k * step``. Two samplers are provided:

* ``simulate_euler``: Euler-Maruyama recursion, first-order weak accuracy in
  the step size.
* ``simulate_exact``: samples the exact Gaussian transition, i.e. the grid
  marginals have the true law for any step size.

Both samplers run on numpy alone: the exact transition's matrix exponential
is computed here by scaling and squaring (``matrix_exponential``).

Random numbers come from counter-based Philox streams keyed by
``(seed, path index)``, so the draws of path ``i`` do not depend on how many
paths are requested or on any batching or threading.

``path_blocks`` runs the paths in blocks of ``block_rows(grid_len, dim)``
consecutive paths, about ``BLOCK_BYTES`` of path values each, and yields
each block as a view of one reused, time-major buffer: step ``k`` of the
block is one contiguous ``(rows, dim)`` array. One helper thread draws the
next block's normals (the draws release the interpreter lock) while the
calling thread advances the current block, checks it for overflow and hands
it on. Every block of a run has the same number of rows, at least
``_MIN_BLOCK_ROWS``: the rows past the last path are zero padding, never
drawn and never yielded. Every matrix product thus has one shape, and a
path's values depend neither on which block it falls in nor on how many
paths are requested. The statistics (``suffstats``) are reduced from these
blocks as they come, and the command line writes them to bundle files and
reads them back block by block (``files``). Only ``collect_bundle``, behind
``simulate_euler``, ``simulate_exact`` and ``load_bundle``, holds them all.
"""

import concurrent.futures
import dataclasses
import functools
import math

import numpy as np

from .errors import NumericalError

_MASK64 = (1 << 64) - 1

# Bytes of path values in one block. A constant, never derived from the
# worker count or the number of paths, so that no result depends on either.
BLOCK_BYTES = 4 << 20
# Fewest rows in a block; a smaller run is padded with zero rows. A matrix
# product over fewer rows may take another BLAS kernel (matrix-vector at one
# row, small-matrix kernels below about a hundred rows at d >= 32), which
# rounds differently.
_MIN_BLOCK_ROWS = 128


def _splitmix64(value):
    # Finalizer of the splitmix64 generator: a full-avalanche 64-bit mixer.
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (value ^ (value >> 31)) & _MASK64


def mix_seed(*parts):
    """Mix integers into one 64-bit seed with avalanche behavior.

    Used to derive independent sub-seeds, for example per ``(master seed,
    dimension, replicate)``. Order matters: ``mix_seed(1, 2) != mix_seed(2, 1)``.
    """
    acc = 0x243F6A8885A308D3
    for part in parts:
        acc = _splitmix64(acc ^ (int(part) & _MASK64))
    return acc


def _path_key(seed, index):
    # The Philox key of one path: the 128-bit integer ``seed * 2**64 + index``
    # as two 64-bit words, low word first.
    return np.array([int(index) & _MASK64, int(seed) & _MASK64], dtype=np.uint64)


def path_stream(seed, index):
    """Return the random stream owned by one path.

    Philox keyed by the pair ``(seed, index)``. Streams for distinct pairs
    are independent, and growing the number of paths never alters the draws
    of existing paths, nor (since every block has the same rows) their
    values.
    """
    if index < 0:
        raise ValueError("path index must be nonnegative")
    return np.random.Generator(np.random.Philox(key=_path_key(seed, index)))


def _path_streams(seed):
    # ``stream(index)`` draws what ``path_stream(seed, index)`` draws. It
    # re-keys one generator, which costs a few microseconds less per path
    # than building a new Philox and Generator.
    bit_generator = np.random.Philox(key=_path_key(seed, 0))
    generator = np.random.Generator(bit_generator)
    fresh = bit_generator.state

    def stream(index):
        fresh["state"]["key"] = _path_key(seed, index)
        bit_generator.state = fresh
        return generator

    return stream


def block_rows(grid_len, dim):
    """Rows in a full block: ``BLOCK_BYTES`` of float64 path values, at least 128."""
    return max(BLOCK_BYTES // (8 * grid_len * dim), _MIN_BLOCK_ROWS)


@dataclasses.dataclass(frozen=True, eq=False)
class DriftMatrix:
    """Square drift matrix; ``support`` is derived from its nonzero entries.

    Parameters
    ----------
    dim : int
        State dimension ``d >= 1``.
    entries : ndarray, shape (dim, dim)
        The matrix itself. Stored read-only.
    """

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise ValueError("dim must be a positive integer")
        entries = np.array(self.entries, dtype=float)
        if entries.shape != (self.dim, self.dim):
            raise ValueError(
                "entries must have shape (%d, %d), got %r" % (self.dim, self.dim, entries.shape)
            )
        if not np.all(np.isfinite(entries)):
            raise ValueError("entries must be finite")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @functools.cached_property
    def support(self):
        """Frozen set of the ``(row, column)`` pairs of the nonzero entries, computed on
        first use; support metrics and the rate envelope's sparsity use it, fitting never does."""
        return frozenset((int(i), int(j)) for i, j in zip(*np.nonzero(self.entries)))


@dataclasses.dataclass(frozen=True, eq=False)
class InitialLaw:
    """Law of the state at time zero.

    ``kind`` is ``"zero"`` (start at the origin) or ``"gaussian"`` (centered
    Gaussian with the given covariance).
    """

    kind: str = "zero"
    covariance: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("zero", "gaussian"):
            raise ValueError("kind must be 'zero' or 'gaussian', got %r" % (self.kind,))
        if self.kind == "gaussian":
            if self.covariance is None:
                raise ValueError("gaussian initial law requires a covariance")
            cov = np.array(self.covariance, dtype=float)
            if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
                raise ValueError("covariance must be square")
            if not np.all(np.isfinite(cov)):
                raise ValueError("covariance must be finite")
            if not np.allclose(cov, cov.T, atol=1e-10, rtol=0.0):
                raise ValueError("covariance must be symmetric")
            eigvals = np.linalg.eigvalsh(0.5 * (cov + cov.T))
            floor = -1e-10 * max(eigvals.max(), 1.0) if eigvals.size else 0.0
            if eigvals.size and eigvals.min() < floor:
                raise ValueError("covariance must be positive semidefinite")
            cov.flags.writeable = False
            object.__setattr__(self, "covariance", cov)
        elif self.covariance is not None:
            raise ValueError("zero initial law takes no covariance")


@dataclasses.dataclass(frozen=True, eq=False)
class PathBundle:
    """A batch of simulated paths on a shared uniform time grid.

    ``values`` has shape ``(n_paths, grid_len, dim)`` with
    ``values[i, k]`` the state of path ``i`` at time ``k * step``. The array
    is read-only; a split (``split_paths``) holds read-only views of it.
    The experiments, the theory checks and the command line stream paths as
    blocks instead; a bundle's other fields are the header of such a stream
    (``bundle_blocks``, ``files.read_bundle``).
    """

    n_paths: int
    dim: int
    terminal: float
    step: float
    grid_len: int
    seed: int
    values: np.ndarray

    def __post_init__(self):
        if self.n_paths < 1 or self.dim < 1:
            raise ValueError("n_paths and dim must be positive")
        if self.step <= 0 or self.terminal <= 0:
            raise ValueError("step and terminal must be positive")
        if self.grid_len != _grid_length(self.terminal, self.step):
            raise ValueError("grid_len inconsistent with terminal and step")
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.n_paths, self.grid_len, self.dim):
            raise ValueError(
                "values must have shape (%d, %d, %d)" % (self.n_paths, self.grid_len, self.dim)
            )
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def times(self):
        """Grid times ``k * step`` for ``k = 0 .. grid_len - 1``."""
        return np.arange(self.grid_len) * self.step


def _grid_length(terminal, step):
    ratio = terminal / step
    if not abs(ratio) < math.inf:
        raise ValueError("terminal / step must be finite, got %r / %r" % (terminal, step))
    rounded = round(ratio)
    if rounded < 1 or abs(ratio - rounded) > 1e-9 * max(1.0, abs(ratio)):
        raise ValueError("terminal must be an integer multiple of step, got ratio %r" % (ratio,))
    return int(rounded) + 1


def _psd_factor(matrix):
    # Symmetric eigendecomposition based factor S with S S^T = matrix.
    # Tiny negative eigenvalues (roundoff of a PSD matrix) are clipped to 0.
    eigvals, eigvecs = np.linalg.eigh(0.5 * (matrix + matrix.T))
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


# Numerator coefficients of the [13/13] Pade approximant to e^x, divided by
# the constant term so that b[0] = 1 (the zero matrix then maps to exactly the
# identity; the denominator has the same coefficients with alternating signs),
# and the 1-norm up to which the approximant is accurate to double precision
# (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005, table 2.3).
_PADE13 = np.array([
    64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
    129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920,
    40840800, 960960, 16380, 182, 1,
], dtype=float) / 64764752532480000
_THETA13 = 5.371920351148152


def matrix_exponential(matrix):
    """Matrix exponential by scaling and squaring with the [13/13] Pade approximant.

    ``matrix`` is scaled by ``2**-s``, with ``s`` the least integer that
    brings its 1-norm to at most ``theta_13 = 5.37``; the approximant
    ``q(X)^{-1} p(X)`` of the scaled matrix ``X`` is then squared ``s`` times.

    Parameters
    ----------
    matrix : ndarray, shape (d, d)
        Square matrix with finite entries; ``NumericalError`` if its 1-norm
        overflows.

    Returns
    -------
    ndarray, shape (d, d)
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix must be finite")
    with np.errstate(over="ignore"):
        norm = np.abs(m).sum(axis=0).max(initial=0.0)
    if not norm < math.inf:
        raise NumericalError("the matrix's 1-norm overflows")
    squarings = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    x = m * 2.0 ** -squarings
    b = _PADE13
    identity = np.eye(len(x))
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    odd = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
               + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * identity)
    even = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
            + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * identity)
    result = np.linalg.solve(even - odd, even + odd)
    for _ in range(squarings):
        result = result @ result
    return result


def _van_loan(a, duration):
    # Block-exponential trick: exponentiating [[A, I], [0, -A^T]] * t packs
    # the transition e^{tA} and the noise integral int_0^t e^{sA} e^{sA^T} ds
    # into one call.
    d = a.shape[0]
    block = np.zeros((2 * d, 2 * d))
    block[:d, :d] = a
    block[:d, d:] = np.eye(d)
    block[d:, d:] = -a.T
    full = matrix_exponential(block * duration)
    transition = full[:d, :d]
    gramian = full[:d, d:] @ transition.T
    return transition, 0.5 * (gramian + gramian.T)


def transition_matrix(drift_entries, duration):
    """Conditional-mean multiplier ``exp(duration * A)``."""
    a = np.asarray(getattr(drift_entries, "entries", drift_entries), dtype=float)
    return _van_loan(a, float(duration))[0]


def noise_gramian(drift_entries, duration):
    """Accumulated noise covariance ``int_0^duration e^{sA} e^{sA^T} ds``.

    This is the conditional covariance of the state one ``duration`` ahead
    given the current state, and also the time-``duration`` covariance of a
    path started at the origin.
    """
    a = np.asarray(getattr(drift_entries, "entries", drift_entries), dtype=float)
    if duration < 0:
        raise ValueError("duration must be nonnegative")
    return _van_loan(a, float(duration))[1]


def _initial_factor(law, dim):
    if law.kind == "zero":
        return None
    if law.covariance.shape[0] != dim:
        raise ValueError("initial law covariance dimension does not match the drift")
    return _psd_factor(law.covariance)


def _euler_advance(drift, step):
    # x[k+1] = x[k] + step * A x[k] + sqrt(step) * z[k]
    a = drift.entries
    scale = np.sqrt(step)

    def advance(paths, normals):
        normals *= scale
        for k in range(len(paths) - 1):
            state = paths[k]
            paths[k + 1] = state + step * (state @ a.T) + normals[:, k]

    return advance


def _exact_advance(drift, step):
    # x[k+1] = e^{step A} x[k] + F z[k] with F F^T the one-step noise Gramian.
    transition, gramian = _van_loan(drift.entries, float(step))
    noise_factor = _psd_factor(gramian)

    def advance(paths, normals):
        for k in range(len(paths) - 1):
            paths[k + 1] = paths[k] @ transition.T + normals[:, k] @ noise_factor.T

    return advance


_ADVANCE = {"euler": _euler_advance, "exact": _exact_advance}


def path_blocks(method, drift, law, n_paths, terminal, step, seed):
    """Simulate paths block by block; yield ``(first path index, block)``.

    ``method`` is ``"euler"`` (the recursion of ``simulate_euler``) or
    ``"exact"`` (that of ``simulate_exact``). Each ``block`` has shape
    ``(rows, grid_len, dim)`` and holds the consecutive paths from the
    first index on. It is a view of a buffer that the next block
    overwrites, so use or copy it before advancing the iterator. The
    buffer is stored time-major, so ``block[:, k]`` is contiguous. The
    arguments are checked before the first block is asked for.

    While the caller holds a block, one helper thread (not configurable)
    draws the next. Its draws come from the same per-path streams and feed
    the same products, so the paths are bit-identical to drawing in the
    calling thread. It is joined when the iterator ends, closes or raises.
    """
    if method not in _ADVANCE:
        raise ValueError("method must be 'euler' or 'exact', got %r" % (method,))
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    grid_len = _grid_length(terminal, step)
    init_factor = _initial_factor(law, drift.dim)
    advance = _ADVANCE[method](drift, step)
    rows = min(block_rows(grid_len, drift.dim), max(n_paths, _MIN_BLOCK_ROWS))

    def blocks():
        stream = _path_streams(seed)
        paths = np.empty((grid_len, rows, drift.dim))
        # Two sets of draw buffers: the helper thread fills one while this
        # thread advances the block drawn into the other. Two arrays: one
        # stacked array raised a d = 25 run's peak RSS by 13 MB, not 4 MB.
        initials = [np.zeros((rows, drift.dim)) for _ in range(2)]
        normals = [np.empty((rows, grid_len - 1, drift.dim)) for _ in range(2)]

        def draw(start, side):
            count = min(rows, n_paths - start)
            for row in range(count):
                # The initial draw comes first in a path's stream, then the
                # step normals, so adding paths never disturbs existing ones.
                generator = stream(start + row)
                if init_factor is not None:
                    initials[side][row] = init_factor @ generator.standard_normal(drift.dim)
                generator.standard_normal(out=normals[side][row])
            # Padding rows start at zero with zero noise and stay zero.
            initials[side][count:] = 0.0
            normals[side][count:] = 0.0

        with concurrent.futures.ThreadPoolExecutor(1) as helper:
            pending = helper.submit(draw, 0, 0)
            for start in range(0, n_paths, rows):
                side = start // rows % 2
                pending.result()
                if start + rows < n_paths:
                    pending = helper.submit(draw, start + rows, 1 - side)
                paths[0] = initials[side]
                advance(paths, normals[side])
                if not np.all(np.isfinite(paths)):
                    raise NumericalError(
                        "simulate_%s produced non-finite path values (overflow)" % (method,))
                yield start, paths[:, :min(rows, n_paths - start)].swapaxes(0, 1)

    return blocks()


def bundle_blocks(method: str, drift: DriftMatrix, law: InitialLaw, n_paths: int,
                  terminal: float, step: float, seed: int):
    """``(header, path_blocks(...))``; the header holds the ``PathBundle`` fields but ``values``."""
    blocks = path_blocks(method, drift, law, n_paths, terminal, step, seed)
    return dict(n_paths=n_paths, dim=drift.dim, terminal=float(terminal), step=float(step),
                grid_len=_grid_length(terminal, step), seed=int(seed)), blocks


def collect_bundle(header, blocks):
    """The ``PathBundle`` of ``header``'s fields holding the ``(first path index, block)`` pairs."""
    values = np.empty((header["n_paths"], header["grid_len"], header["dim"]))
    for start, block in blocks:
        values[start:start + len(block)] = block
    return PathBundle(values=values, **header)


def simulate_euler(drift: DriftMatrix, law: InitialLaw, n_paths: int, terminal: float, step: float,
                   seed: int):
    """Simulate paths with the Euler-Maruyama recursion.

    ``x[k+1] = x[k] + step * A x[k] + sqrt(step) * z[k]`` with independent
    standard normal increments ``z[k]``.

    Parameters
    ----------
    drift : DriftMatrix
    law : InitialLaw
    n_paths : int
    terminal : float
        Horizon ``T``; must be an integer multiple of ``step``.
    step : float
        Grid spacing.
    seed : int
        Master seed; path ``i`` uses the stream keyed by ``(seed, i)``.

    Returns
    -------
    PathBundle
        The blocks of ``path_blocks("euler", ...)``, collected.
    """
    return collect_bundle(*bundle_blocks("euler", drift, law, n_paths, terminal, step, seed))


def simulate_exact(drift: DriftMatrix, law: InitialLaw, n_paths: int, terminal: float, step: float,
                   seed: int):
    """Simulate paths from the exact Gaussian transition kernel.

    ``x[k+1] = e^{step * A} x[k] + eta[k]`` with
    ``eta[k] ~ N(0, int_0^step e^{sA} e^{sA^T} ds)``, so every grid marginal
    has the true law regardless of the step size.

    Parameters match ``simulate_euler``; the bundle collects the blocks of
    ``path_blocks("exact", ...)``.
    """
    return collect_bundle(*bundle_blocks("exact", drift, law, n_paths, terminal, step, seed))

