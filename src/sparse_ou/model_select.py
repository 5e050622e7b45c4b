"""Hold-out selection of the regularization level.

The path bundle is split into a training prefix and a validation suffix (no
shuffling: paths are exchangeable by construction). Candidate levels come
from a logarithmic grid, fit largest first on the training statistics and
scored by the validation quadratic loss; ties break toward the larger level.
The second fit starts from the first. Lasso and SLOPE solutions are piecewise
linear in the level (Efron et al., Ann. Statist. 32(2), 2004), so each later
fit starts from the last two extrapolated to its level: exact while the
active set (for SLOPE, also its clusters) holds.
"""

import dataclasses

import numpy as np

from .solvers import EstimatorResult, solve_lasso, solve_slope
from .suffstats import check_split, loss

# The penalty of each penalized estimator, by the estimator's name.
PENALTIES = {"lasso": "l1", "slope": "sorted_l1"}


@dataclasses.dataclass(frozen=True)
class CvGrid:
    """Logarithmic grid ``10**(log10_min + k * log10_step) <= 10**log10_max``: at most 1000
    levels, each a normal float (exponents in ``[-307, 308]``) above the one before."""

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
        if not (self.log10_max - self.log10_min) / self.log10_step < 1000:
            raise ValueError("the grid must have at most 1000 levels")
        if not (-307 <= self.log10_min and self.log10_max <= 308):
            raise ValueError("grid exponents must lie in [-307, 308]")
        if not np.all(np.diff(self.values()) > 0):
            raise ValueError("grid levels must be strictly increasing as floats")

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
    For a caller that holds a bundle: the experiments and the command line
    split streamed paths by index in ``block_stats`` instead.
    """
    check_split(paths.n_paths, n_train)
    return (dataclasses.replace(paths, n_paths=n_train, values=paths.values[:n_train]),
            dataclasses.replace(paths, n_paths=paths.n_paths - n_train, values=paths.values[n_train:]))


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
    if penalty not in PENALTIES.values():
        raise ValueError("penalty must be 'l1' or 'sorted_l1'")
    levels = grid.values()
    fits = {}
    warm = None
    # Largest level first; past two fits, start from the last two extrapolated.
    for lam in reversed(levels):
        if len(fits) >= 2:
            older, newer = list(fits)[-2:]
            ratio = (lam - newer) / (newer - older)
            warm = warm + ratio * (warm - fits[older].estimate.entries)
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
