"""
Sampling repeated diffusion paths
=================================

Builds a small stable drift matrix, draws a bundle of independent paths
with both available samplers, and shows the round trip through the
on-disk bundle format.
"""

import os
import tempfile

import numpy as np

from sparse_ou import (
    DriftMatrix,
    InitialLaw,
    bundle_to_csv,
    load_bundle,
    save_bundle,
    simulate_euler,
    simulate_exact,
)
from sparse_ou.process import noise_gramian

# A stable 3x3 drift: all eigenvalues in the open left half plane.
drift = DriftMatrix(3, np.array([
    [-1.0, 0.5, 0.0],
    [0.0, -0.8, 0.3],
    [0.2, 0.0, -1.2],
]))

# 2000 paths on [0, 1] observed every 0.01, started at the origin.
law = InitialLaw()
euler = simulate_euler(drift, law, 2000, 1.0, 0.01, seed=7)
exact = simulate_exact(drift, law, 2000, 1.0, 0.01, seed=7)

print("bundle shape (paths, grid, dim):", euler.values.shape)
print("time grid runs from %.2f to %.2f" % (euler.times()[0], euler.times()[-1]))

# The exact sampler draws from the true transition law, so its terminal
# covariance should sit close to the analytic one; the Euler scheme has a
# small discretization bias on top of the Monte Carlo noise.
target = noise_gramian(drift, 1.0)
for name, bundle in (("euler", euler), ("exact", exact)):
    x = bundle.values[:, -1, :]
    cov = x.T @ x / x.shape[0]
    gap = np.linalg.norm(cov - target) / np.linalg.norm(target)
    print("%s terminal covariance, relative gap to analytic: %.3f" % (name, gap))

# Same seed, same bytes: simulation is reproducible per path index, so
# extending a bundle never changes the paths already drawn.
again = simulate_euler(drift, law, 2000, 1.0, 0.01, seed=7)
print("rerun identical:", np.array_equal(again.values, euler.values))
fewer = simulate_euler(drift, law, 500, 1.0, 0.01, seed=7)
print("first 500 paths unchanged:", np.array_equal(fewer.values, euler.values[:500]))

# Bundles serialize to a compact binary file, with CSV export for eyeballing.
workdir = tempfile.mkdtemp()
path = os.path.join(workdir, "paths.bin")
save_bundle(euler, path)
back = load_bundle(path)
print("round trip intact:", np.array_equal(back.values, euler.values))

csv_path = os.path.join(workdir, "paths.csv")
bundle_to_csv(euler, csv_path)
with open(csv_path) as handle:
    for _ in range(3):
        print(handle.readline().rstrip())
print("wrote", path, "and", csv_path)
