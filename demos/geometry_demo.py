#!/usr/bin/env python3
"""The two geometric facts behind treating l1/l2 as sparsity.

Effectively sparse vectors (small ||x||_1 relative to ||x||_2) behave like
exactly sparse ones in two precise senses, both exercised here per-sample:

1. hard thresholding to the t largest entries loses at most sqrt(s/t) in
   l2, so sparse vectors form a net of the convex set K(n, s);
2. any member of K(n, s) splits into disjoint s-sparse blocks (its entries
   ranked by magnitude, s at a time) that sum back exactly, with total l2
   mass at most 1 + ||x||_1/sqrt(s) <= 2.

Both read off the squared entries in sorted order: the thresholding tail is
the root of the n - t smallest squares, and block k's norm is the root of
the squares ranked ks to ks + s - 1.
"""

import numpy as np

from onebit import SignalSetSpec, effective_sparsity, sample_sphere_cap

n, s, t = 64, 4, 16
spec = SignalSetSpec(n, s)
X = sample_sphere_cap(spec, 500, seed=30)

es = [effective_sparsity(x) for x in X]
print(f"{len(X)} unit vectors of K(n={n}, s={s})")
print(f"effective sparsity (l1/l2)^2: min {min(es):.2f}, max {max(es):.2f} "
      f"(never above s={s})")

squares = np.sort(X * X, axis=1)          # per sample, smallest first
tails = np.sqrt(squares[:, :-t].sum(axis=1))
bound = np.sqrt(s / t)
print(f"\nhard threshold to t={t} entries: worst tail {tails.max():.4f}, "
      f"bound sqrt(s/t) = {bound:.4f}")
print(f"bound violated by {int((tails > bound).sum())} of {len(X)} samples")

starts = np.arange(0, n, s)
ranked = squares[:, ::-1]                 # largest first
block_norms = np.sqrt(np.add.reduceat(ranked, starts, axis=1))
print(f"\nblock decomposition into {s}-sparse pieces: the blocks partition "
      f"the coordinates, so they sum back to x exactly")
print(f"largest sum of block norms {block_norms.sum(axis=1).max():.4f} (bound 2)")

sizes = np.add.reduceat(ranked[1] > 0, starts)
sizes = sizes[sizes > 0]
print(f"\nexample: a sample with {np.count_nonzero(X[1])} nonzeros splits into "
      f"{sizes.size} blocks of sizes {sizes.tolist()}")
