"""
Sparse drift estimation on one synthetic instance
=================================================

Draws a sparse 10x10 drift, simulates 500 paths, and compares the plain
least-squares fit against the l1 and sorted-l1 penalized fits with the
penalty level chosen on a hold-out split.
"""

import numpy as np

from sparse_ou import InitialLaw, compute_suffstats, simulate_exact, solve_mle
from sparse_ou.experiments import DriftScheme, generate_drift, support_f1
from sparse_ou.model_select import CvGrid, cross_validate, split_paths

dim = 10
truth = generate_drift(dim, DriftScheme(), seed=21)
nonzeros = int(np.count_nonzero(truth.entries))
print("true drift: %d of %d entries nonzero" % (nonzeros, dim * dim))

bundle = simulate_exact(truth, InitialLaw(), 500, 1.0, 0.01, seed=99)
train, valid = split_paths(bundle, 400)
train_stats = compute_suffstats(train)
valid_stats = compute_suffstats(valid)

# Penalty levels are swept on a log10 grid and scored on the held-out paths.
grid = CvGrid(log10_min=-3.0, log10_max=0.0, log10_step=0.25)

full_stats = compute_suffstats(bundle)
fits = {"mle": solve_mle(full_stats).estimate.entries}
for penalty in ("l1", "sorted_l1"):
    report = cross_validate(train_stats, valid_stats, grid, penalty=penalty)
    fits[penalty] = report.result.estimate.entries
    print("%s: chose lambda %.4g after scoring %d levels"
          % (penalty, report.chosen_lambda, len(report.scores)))

print()
print("%-10s %12s %12s %8s %10s" % ("estimator", "l2^2 / d", "l1 / d", "f1", "nonzeros"))
for name, estimate in fits.items():
    delta = estimate - truth.entries
    l2 = float(np.sum(delta * delta)) / dim
    l1 = float(np.sum(np.abs(delta))) / dim
    f1 = support_f1(estimate, truth.support, 1e-6)
    count = int(np.count_nonzero(np.abs(estimate) > 1e-6))
    print("%-10s %12.5f %12.5f %8.3f %10d" % (name, l2, l1, f1, count))

# The unpenalized fit fills the whole matrix with noise; the penalized fits
# keep far fewer entries and land closer to the truth in both norms.
