#!/usr/bin/env python3
"""How random hyperplanes carve the effectively sparse cap into small cells.

The set K(n, s) intersected with the unit sphere is cut by m random
central hyperplanes into cells of points sharing one sign pattern.  One-bit
recovery works because these cells shrink: two far-apart points almost
surely end up with different patterns, and with a margin.  The reports
below reuse one row stream, so each m is a refinement of the last.
"""

import numpy as np

from onebit import (
    SignalSetSpec,
    sign_pattern_cells,
    tessellate_and_report,
    tessellation_rows,
)

spec = SignalSetSpec(32, 2, "effectively_sparse")
delta, samples, seed = 0.5, 400, 11

print(f"K(n={spec.n}, s={spec.s}), {samples} sampled points, delta={delta}\n")
print(f"{'m':>4}  {'cells':>6}  {'max cell diameter lb':>21}  {'far pairs':>9}  {'min separators':>14}")
for m in (0, 25, 50, 100, 200, 400):
    rep = tessellate_and_report(spec, m, delta, samples, seed)
    # far pairs as arrays: pair k is (pair_i[k], pair_j[k]), with its
    # separating-row counts in both orientations
    best = np.maximum(rep.count_fwd, rep.count_rev)
    min_sep = int(best.min()) if best.size else 0
    print(f"{m:>4}  {rep.nonempty_cells:>6}  {rep.max_cell_diameter_lb:>21.4f}  "
          f"{rep.pair_i.size:>9}  {min_sep:>14}")

# refinement is exact, not statistical: adding rows only ever splits cells;
# every report above worked over the same sample, so read it off the last one
X = rep.sampled_points
A = tessellation_rows(spec, 400, seed)
coarse = sign_pattern_cells(X @ A[:100].T)
fine = sign_pattern_cells(X @ A[:400].T)
splits = sum(np.unique(coarse[fine == cid]).size == 1
             for cid in range(fine.max() + 1))
print(f"\nevery one of the {fine.max() + 1} cells at m=400 sits inside a "
      f"single cell from m=100: {splits == fine.max() + 1}")
print("reports share one nested row stream, so the partitions only refine")
