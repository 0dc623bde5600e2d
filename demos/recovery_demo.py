#!/usr/bin/env python3
"""Recover a sparse direction from one-bit measurements, step by step.

A sparse x is measured as y = sign(Ax) with Gaussian rows: m bits, no
magnitudes.  The linear program

    min ||x'||_1  s.t.  y_i <a_i, x'> >= 0,  (1/m) sum_i y_i <a_i, x'> >= 1

returns an estimate whose direction approximates x / ||x||_2 (the scale is
unrecoverable from signs).
"""

import numpy as np

from onebit import (
    gen_gaussian_ensemble,
    gen_sparse_signal,
    recover,
    recovery_error,
    sign_quantize,
)

# -- a desk-scale instance ------------------------------------------------
n, s, m, seed = 32, 3, 120, 7
x = gen_sparse_signal(n, s, seed=seed)
ens = gen_gaussian_ensemble(m, n, seed=seed + 1)
y = sign_quantize(ens.rows @ x)
print(f"instance: n={n} s={s} m={m}, support {np.flatnonzero(x).tolist()}")
print(f"one-bit measurements: {np.sum(y == 1)} positive, {np.sum(y == -1)} negative")

res = recover(ens, y)
err = recovery_error(res.direction, x)
print(f"\nLP solve: {res.lp_solution.status} in {res.lp_solution.iterations} pivots")
print(f"direction error ||x_hat/|x_hat| - x/|x||| = {err:.4f}")
print(f"l1/l2 ratio: input {np.abs(x).sum() / np.linalg.norm(x):.3f}, "
      f"output {res.l1_over_l2:.3f}")

# the optimum sits at a vertex of the feasible polytope: its support T and
# the active measurement rows Omega satisfy |T| = |Omega| + 1.  x_hat meets
# every constraint up to max_violation, and the dual solution proves that
# no feasible x' has a smaller l1 norm
cert = res.certificate
print(f"\nvertex certificate: |T|={cert.support.size} |Omega|={cert.active_rows.size} "
      f"cardinality_ok={cert.cardinality_ok}")
print(f"max violation {cert.max_violation:.2e}, duality gap {cert.duality_gap:.2e}, "
      f"dual violation {cert.dual_violation:.2e}")
print(f"estimated support {cert.support.tolist()} vs true {np.flatnonzero(x).tolist()}")
