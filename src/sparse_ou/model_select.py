"""Hold-out selection of the regularization level.

The path bundle is split into a training prefix and a validation suffix (no
shuffling: paths are exchangeable by construction). Candidate levels come
from a logarithmic grid; each is fit on the training statistics, warm
starting from the previous (larger) level, and scored by the validation
quadratic loss. Ties break toward the larger level.
"""

import dataclasses

import numpy as np

from .process import PathBundle
from .solvers import EstimatorResult, solve_lasso, solve_slope
from .suffstats import loss


@dataclasses.dataclass(frozen=True)
class CvGrid:
    """Logarithmic grid ``10**(log10_min + k * log10_step) <= 10**log10_max``."""

    log10_min: float
    log10_max: float
    log10_step: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.log10_min, self.log10_max, self.log10_step])):
            raise ValueError("grid bounds and step must be finite")
        if not (self.log10_min <= self.log10_max):
            raise ValueError("log10_min must not exceed log10_max")
        if self.log10_step <= 0:
            raise ValueError("log10_step must be positive")

    @classmethod
    def default(cls):
        """The narrow reference grid: 9 levels from 1e-8 to 1e-6."""
        return cls(log10_min=-8.0, log10_max=-6.0, log10_step=0.25)

    def values(self):
        """Grid levels in ascending order."""
        span = self.log10_max - self.log10_min
        count = int(round(span / self.log10_step)) + 1
        # Guard against a step that overshoots the top due to rounding.
        while self.log10_min + (count - 1) * self.log10_step > self.log10_max + 1e-12:
            count -= 1
        exponents = self.log10_min + self.log10_step * np.arange(count)
        return [float(10.0 ** e) for e in exponents]


@dataclasses.dataclass(frozen=True, eq=False)
class CvReport:
    """Outcome of hold-out selection."""

    chosen_lambda: float
    scores: list
    result: EstimatorResult
    penalty_kind: str

    @property
    def grid_edge(self):
        """Whether the chosen level is the smallest or the largest of the grid."""
        return self.chosen_lambda in (self.scores[0][0], self.scores[-1][0])


def split_paths(paths, n_train):
    """Split a bundle into (training prefix, validation suffix) by path index.

    Both halves are read-only views of ``paths.values``; nothing is copied.
    Serves CLI ``estimate``; the experiments split streamed paths by index
    in ``experiments.holdout_stats`` without building a bundle.
    """
    if not (1 <= n_train < paths.n_paths):
        raise ValueError("n_train must be in [1, n_paths - 1], got %r" % (n_train,))
    common = dict(dim=paths.dim, terminal=paths.terminal, step=paths.step,
                  grid_len=paths.grid_len, seed=paths.seed)
    train = PathBundle(n_paths=n_train, values=paths.values[:n_train], **common)
    valid = PathBundle(n_paths=paths.n_paths - n_train, values=paths.values[n_train:], **common)
    return train, valid


def cross_validate(train_stats, valid_stats, grid, penalty="l1", config=None):
    """Fit along the grid and keep the level with the best validation loss.

    Parameters
    ----------
    train_stats, valid_stats : SuffStats
        Statistics of the training and validation paths.
    grid : CvGrid
    penalty : {"l1", "sorted_l1"}
        The sorted-l1 penalty takes ``solve_slope``'s default weights.
    config : SolverConfig, optional

    Returns
    -------
    CvReport
        ``scores`` lists (lambda, validation loss) in ascending lambda;
        ``result`` is the training fit at the chosen level.
    """
    if train_stats.dim != valid_stats.dim:
        raise ValueError("training and validation statistics disagree on dim")
    if penalty not in ("l1", "sorted_l1"):
        raise ValueError("penalty must be 'l1' or 'sorted_l1'")
    levels = grid.values()
    fits = {}
    warm = None
    # Large-to-small pass: each level starts from the previous solution.
    for lam in reversed(levels):
        try:
            if penalty == "l1":
                fit = solve_lasso(train_stats, lam, config=config, warm_start=warm)
            else:
                fit = solve_slope(train_stats, lam, config=config, warm_start=warm)
        except Exception as exc:
            # Name the level without calling the constructor, whose signature
            # is unknown: the same type and ``__dict__``, chained. Fields kept
            # in C slots (``OSError.errno``, say) are only on the original.
            named = type(exc).__new__(type(exc), "lambda=%r: %s" % (lam, exc))
            named.__dict__.update(exc.__dict__)
            raise named from exc
        fits[lam] = fit
        warm = fit.estimate.entries
    scores = [(lam, loss(valid_stats, fits[lam].estimate.entries).value) for lam in levels]
    chosen = None
    best = np.inf
    for lam, score in reversed(scores):
        if score < best:
            best = score
            chosen = lam
    return CvReport(chosen_lambda=chosen, scores=scores, result=fits[chosen], penalty_kind=penalty)
