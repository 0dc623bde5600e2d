#!/usr/bin/env python3
"""Recovery error versus measurement count, as a reproducible sweep.

More sign measurements pin the direction down better: the median error
over seeded trials falls as m grows.  Each (m, trial) pair derives its own
seed from the master seed, so any subset of the plan reproduces identical
rows, in any order.  run_sweep returns the rows and writes no file;
`onebit sweep --out` writes them as CSV with a JSON manifest beside it.
"""

import numpy as np

from onebit import run_sweep

n, s, m_list, trials = 64, 3, [40, 80, 160, 320], 15
rows = run_sweep(n=n, s=s, m_list=m_list, trials=trials, seed=2024)

print(f"n={n} s={s}, {trials} trials per m\n")
print(f"{'m':>5}  {'median error':>12}  {'q90 error':>10}  {'cardinality_ok':>14}  {'ms/solve':>9}")
for m in m_list:
    sub = [r for r in rows if r.m == m]
    errs = np.array([r.error for r in sub])
    ok = sum(r.cert_cardinality_ok for r in sub)
    ms = np.median([r.wall_time_ms for r in sub])
    print(f"{m:>5}  {np.median(errs):>12.4f}  {np.quantile(errs, 0.9):>10.4f}  "
          f"{ok:>11}/{len(sub)}  {ms:>9.1f}")

print("\nrerunning the same config reproduces the same numbers; so does any")
print("subset of the (m, trial) plan, because each trial is seeded on its own")
print(f"to write them: onebit sweep --n {n} --s {s} --m {','.join(map(str, m_list))} "
      f"--trials {trials} --seed 2024 --out demo_sweep.csv")
