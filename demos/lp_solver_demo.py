#!/usr/bin/env python3
"""A tour of the built-in LP machinery on instances small enough to audit.

The recovery pipeline runs on a self-contained two-phase dense simplex;
variables are free unless marked nonnegative.  The test suite checks it
against an independent oracle that enumerates candidate active sets on
tiny instances (tests/oracles.py).
"""

import numpy as np

from onebit import LinearProgram, solve_lp

# min z1 + z2 subject to z1 >= 1, z2 >= 1, z1 + z2 >= 3
prob = LinearProgram(
    objective=np.array([1.0, 1.0]),
    eq_lhs=np.zeros((0, 2)), eq_rhs=np.zeros(0),
    ineq_lhs=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
    ineq_rhs=np.array([1.0, 1.0, 3.0]),
)
sol = solve_lp(prob)
print("min z1 + z2  s.t.  z1 >= 1, z2 >= 1, z1 + z2 >= 3")
print(f"  simplex: {sol.status}, objective {sol.objective_value:.6f}, "
      f"z = {np.round(sol.primal, 6).tolist()}, {sol.iterations} pivots")

# statuses are detected, not raised
infeasible = LinearProgram(np.array([1.0]), np.zeros((0, 1)), np.zeros(0),
                           np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
unbounded = LinearProgram(np.array([-1.0]), np.zeros((0, 1)), np.zeros(0),
                          np.array([[1.0]]), np.array([0.0]))
print(f"\nz >= 1 and -z >= 1 at once: {solve_lp(infeasible).status}")
print(f"min -z with only z >= 0:    {solve_lp(unbounded).status}")
