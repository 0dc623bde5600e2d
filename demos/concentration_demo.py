#!/usr/bin/env python3
"""Why Gaussian rows work and plain random sign rows cannot.

Three statistical facts, checked by direct simulation:

1. for a unit vector x, (1/m) sum_i |<a_i, x>| concentrates hard around
   sqrt(2/pi) as m grows (the normalization the recovery LP relies on);
2. the same holds uniformly over sampled points of K(n, s);
3. with +-1 rows instead of Gaussian ones, e1 and e1 + e2/2 produce the
   exact same sign pattern for every row, every seed, every m -- one-bit
   measurements from that ensemble cannot tell them apart, ever.
"""

import numpy as np

from onebit import (
    verify_bernoulli_counterexample,
    verify_concentration,
    verify_uniform_concentration,
)
from onebit.harness import ROOT_TWO_OVER_PI

print(f"target: sqrt(2/pi) = {ROOT_TWO_OVER_PI:.5f}\n")

print("pointwise concentration, 60 trials each:")
for m in (500, 2000, 8000):
    rep = verify_concentration(n=32, m=m, trials=60, seed=5)
    print(f"  m={m:>5}: mean {rep.mean_abs_moment:.5f}, worst deviation "
          f"{rep.deviations.max():.5f}, exceedance@0.02 {(rep.deviations > 0.02).mean():.2f}")

print("\nuniform over 300 sampled points of K(64, 4):")
for m in (1000, 4000, 16000):
    max_dev = verify_uniform_concentration(64, 4, m, sample_count=300, seed=9)
    print(f"  m={m:>5}: max deviation over the sample {max_dev:.5f}")

print("\nthe +-1 ensemble counterexample, 20 seeds at m=5000:")
rep = verify_bernoulli_counterexample(n=32, m=5000, num_seeds=20, seed=3)
print(f"  sign patterns of e1 and e1 + e2/2 identical: "
      f"{sum(rep.identical_per_seed)}/{len(rep.seeds)} seeds")
print(f"  gaussian rows distinguish the same pair: {rep.gaussian_differs}")
print("  (|a2|/2 < |a1| holds pointwise for +-1 entries, so the second")
print("   coordinate can never flip a sign; direction recovery is hopeless)")
