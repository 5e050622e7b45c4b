"""Proximal operators for the l1 and sorted-l1 (decreasing-weight) penalties.

The sorted-l1 norm of a vector ``v`` with positive nonincreasing weights
``w`` is ``sum_i w_i * |v|_(i)`` where ``|v|_(1) >= |v|_(2) >= ...`` are the
sorted magnitudes. Matrices are penalized through their flattened entries.
The sorted-l1 prox sorts only the entries that can be nonzero. Both proximal
maps can hand back their output's magnitudes, from which a solver reads the
penalty of each iterate without sorting it again.
"""

import dataclasses

import numpy as np


@dataclasses.dataclass(frozen=True, eq=False)
class WeightVector:
    """Positive nonincreasing weight sequence for the sorted-l1 penalty."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float).ravel()
        if w.size == 0:
            raise ValueError("weights must be nonempty")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("weights must be positive and finite")
        if np.any(np.diff(w) > 0):
            raise ValueError("weights must be nonincreasing")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    def __len__(self):
        return self.weights.size


def slope_weights(p):
    """Default weight sequence ``w_i = sqrt(log(2 p / i))`` for ``i = 1..p``.

    For a ``d x d`` matrix pass ``p = d * d``. All weights are positive since
    ``2p / p = 2 > 1``, and they decrease in ``i``.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    ranks = np.arange(1, p + 1, dtype=float)
    return WeightVector(np.sqrt(np.log(2.0 * p / ranks)))


def sorted_l1_norm(v, weights):
    """Evaluate ``sum_i w_i |v|_(i)`` for a vector or matrix ``v``."""
    values = np.abs(np.asarray(v, dtype=float)).ravel()
    w = weights.weights
    if values.size != w.size:
        raise ValueError("weight length %d does not match input size %d" % (w.size, values.size))
    return float(np.sort(values)[::-1] @ w)


def prox_l1(v, threshold, magnitudes=None):
    """Entrywise soft threshold ``sign(v) * max(|v| - threshold, 0)``; the
    ``max(...)`` goes into ``magnitudes``, a float array shaped like ``v``, if given."""
    if not threshold >= 0:
        raise ValueError("threshold must be nonnegative")
    values = np.asarray(v, dtype=float)
    return np.sign(values) * np.maximum(np.abs(values) - threshold, 0.0, out=magnitudes)


def _isotonic_nonincreasing(z):
    # Euclidean projection onto the nonincreasing cone: pool adjacent
    # violators, then replace each (sum, count) block by its mean. Each round
    # pools every maximal run of blocks whose means do not decrease; the run
    # is constant in the projection, so pooling it whole is exact. The prox
    # passes only the entries that can be nonzero, cut to their positive
    # prefix: at most 4 rounds at d = 5..50. A cascade, where each round pools
    # only one more block, needs O(p) rounds. Float counts need no conversion
    # per round. The means are nonincreasing in floating point too: blocks
    # stay apart only where ``s2 * c1 < s1 * c2`` holds exactly.
    sums = z
    counts = np.ones(z.size)
    while True:
        rising = sums[1:] * counts[:-1] >= sums[:-1] * counts[1:]
        if not rising.any():
            return np.repeat(sums / counts, counts.astype(np.intp))
        starts = np.concatenate(([True], ~rising)).nonzero()[0]
        sums = np.add.reduceat(sums, starts)
        counts = np.add.reduceat(counts, starts)


def prox_sorted_l1(v, weights, scale, magnitudes=None):
    """Proximal map of ``scale * sorted_l1_norm(., weights)``.

    Solves ``argmin_x 0.5 * ||x - v||^2 + scale * sum_i w_i |x|_(i)``.
    The solution keeps the signs of ``v`` and the ordering of its
    magnitudes, so it reduces to: sort ``|v|`` in decreasing order, subtract
    ``scale * w``, project onto the nonincreasing cone (pool adjacent
    violators), clip at zero, then undo the sort and signs.

    Accepts a vector or matrix; the output has the shape of ``v``. If given,
    the 1-D float array ``magnitudes`` receives ``np.sort(|output|)``, so that
    ``magnitudes[::-1] @ weights.weights`` is the output's ``sorted_l1_norm``.
    """
    if not scale >= 0:
        raise ValueError("scale must be nonnegative")
    values = np.asarray(v, dtype=float)
    flat = values.ravel()
    w = weights.weights
    if flat.size != w.size:
        raise ValueError("weight length %d does not match input size %d" % (w.size, flat.size))
    if magnitudes is None:
        magnitudes = np.empty(flat.size)
    if scale == 0:
        magnitudes[:] = np.sort(np.abs(flat))
        return values.copy()
    # An entry with ``|v| < scale * w[-1]`` sorts after all others and has a
    # negative shifted value at any rank, so it lies past the last peak below
    # and maps to zero. NaN entries fail the filter too and come out NaN.
    absolute = np.abs(flat)
    kept = (absolute >= scale * w[-1]).nonzero()[0]
    # Tied magnitudes give the same ``shifted`` whatever their order, and the
    # first pooling round merges them (their shifted values do not decrease),
    # so a faster unstable sort changes no bit of the output.
    order = kept[np.argsort(-absolute[kept])]
    shifted = absolute[order] - scale * w[:order.size]
    # The projection is the slope of the least concave majorant of the
    # partial sums: positive up to the majorant's top, clipped to zero after
    # it. That top is a peak of the partial sums, so pooling the prefix up to
    # it gives the same result. The last peak, not the first, keeps tied
    # magnitudes on one side of the cut where rounding flattens the sums.
    partial = np.cumsum(shifted)
    top = partial.max(initial=0.0)
    magnitudes[:] = 0.0
    pooled = magnitudes[::-1][:order.size]
    if top > 0:
        k = (partial == top).nonzero()[0][-1] + 1
        pooled[:k] = np.maximum(_isotonic_nonincreasing(shifted[:k]), 0.0)
    out = np.zeros(flat.size)
    out[order] = pooled
    return (np.sign(flat) * out).reshape(values.shape)
