#!/usr/bin/env python3
"""A tour of the built-in LP machinery on instances small enough to audit.

The recovery pipeline runs on a self-contained two-phase dense simplex;
variables are free unless marked nonnegative.  For tiny instances an
independent oracle enumerates candidate active sets directly (no pivoting
shared with the solver), which is how the solver is validated in the test
suite.
"""

import numpy as np

from onebit import LinearProgram, brute_force_vertex_solve, solve_lp

# min z1 + z2 subject to z1 >= 1, z2 >= 1, z1 + z2 >= 3
prob = LinearProgram(
    objective=np.array([1.0, 1.0]),
    eq_lhs=np.zeros((0, 2)), eq_rhs=np.zeros(0),
    ineq_lhs=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
    ineq_rhs=np.array([1.0, 1.0, 3.0]),
)
sol = solve_lp(prob)
ref = brute_force_vertex_solve(prob)
print("min z1 + z2  s.t.  z1 >= 1, z2 >= 1, z1 + z2 >= 3")
print(f"  simplex: {sol.status}, objective {sol.objective_value:.6f}, "
      f"z = {np.round(sol.primal, 6).tolist()}, {sol.iterations} pivots")
print(f"  oracle:  {ref.status}, objective {ref.objective_value:.6f}")

# statuses are detected, not raised
infeasible = LinearProgram(np.array([1.0]), np.zeros((0, 1)), np.zeros(0),
                           np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
unbounded = LinearProgram(np.array([-1.0]), np.zeros((0, 1)), np.zeros(0),
                          np.array([[1.0]]), np.array([0.0]))
print(f"\nz >= 1 and -z >= 1 at once: {solve_lp(infeasible).status}")
print(f"min -z with only z >= 0:    {solve_lp(unbounded).status}")

# random cross-validation, the shape the acceptance suite runs 100x
rng = np.random.default_rng(1)
agree = 0
for _ in range(25):
    d = int(rng.integers(1, 7))
    q = int(rng.integers(1, 9))
    prob = LinearProgram(rng.integers(-4, 5, size=d) / 2.0,
                         np.zeros((0, d)), np.zeros(0),
                         rng.integers(-4, 5, size=(q, d)) / 2.0,
                         rng.integers(-4, 5, size=q) / 2.0)
    a = solve_lp(prob)
    b = brute_force_vertex_solve(prob)
    same = a.status == b.status and (
        a.status != "optimal" or abs(a.objective_value - b.objective_value) <= 1e-8)
    agree += same
print(f"\n25 random tiny LPs: simplex and enumeration agree on {agree}/25")
