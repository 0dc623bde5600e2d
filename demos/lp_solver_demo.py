#!/usr/bin/env python3
"""A tour of the built-in LP machinery on instances small enough to audit.

The recovery pipeline runs on a self-contained one-phase dense simplex for
LPs of one form, range rows l <= A z <= u with finite bounds and z >= 0,
that z = 0 satisfies (every l <= 0 <= u), as the recovery LP does; it starts
from the all-surplus basis.  An equality row has both bounds 0, and a free
variable is the difference of two nonnegative ones.
Its tableau is condensed: one row per range row, one column per nonbasic
variable plus the rhs, with no stored identity for the basic surplus
variables.  The test suite checks it against an independent oracle that
enumerates candidate active sets on tiny instances, and against a
full-tableau copy of the two-row form (each range row as a lower and a
mirrored upper row) that must take the same pivots (tests/oracles.py).
"""

import numpy as np

from onebit import LinearProgram, solve_lp

# min -z1 - z2 subject to 0 <= z1 <= 1, 0 <= z2 <= 1, 0 <= z1 + z2 <= 1.5
prob = LinearProgram(
    objective=np.array([-1.0, -1.0]),
    ineq_lhs=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
    ineq_rhs=np.array([0.0, 0.0, 0.0]),
    ineq_upper=np.array([1.0, 1.0, 1.5]),
)
sol = solve_lp(prob)
print("min -z1 - z2  s.t.  z1 <= 1, z2 <= 1, z1 + z2 <= 1.5")
print(f"  simplex: {sol.status}, objective {sol.objective_value:.6f}, "
      f"z = {np.round(sol.primal, 6).tolist()}, {sol.iterations} pivots")

# the same bounds as range rows: -1 <= z1 - z2 <= 1 and 0 <= z2 <= 3; the
# upper bounds bind, so both signed multipliers are negative
ranged = LinearProgram(np.array([-1.0, 0.0]), np.array([[1.0, -1.0], [0.0, 1.0]]),
                       np.array([-1.0, 0.0]), np.array([1.0, 3.0]))
sol = solve_lp(ranged)
print("\nmin -z1  s.t.  -1 <= z1 - z2 <= 1, 0 <= z2 <= 3")
print(f"  simplex: {sol.status}, z = {sol.primal.tolist()}, "
      f"multipliers {sol.multipliers.tolist()}, {sol.iterations} pivots")

# unboundedness is detected, not raised: every row has finite bounds, so
# only a variable that no row holds (a zero column) can grow without limit
unbounded = LinearProgram(np.array([-1.0, 0.0]), np.array([[0.0, 1.0]]),
                          np.array([-1.0]), np.array([1.0]))
print(f"\nmin -z1  s.t.  -1 <= z2 <= 1: {solve_lp(unbounded).status}")

# an LP that z = 0 does not satisfy is outside solve_lp's domain
infeasible_at_zero = LinearProgram(np.array([1.0]), np.array([[1.0], [-1.0]]),
                                   np.array([1.0, 1.0]), np.array([2.0, 2.0]))
try:
    solve_lp(infeasible_at_zero)
except ValueError as err:
    print(f"1 <= z <= 2 and 1 <= -z <= 2 at once: ValueError: {err}")
