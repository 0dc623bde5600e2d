#!/usr/bin/env python3
"""A tour of the built-in LP machinery on instances small enough to audit.

The recovery pipeline runs on a self-contained one-phase dense simplex for
LPs of one form, A z >= b with z >= 0, that z = 0 satisfies (every rhs
<= 0), as the recovery LP does; it starts from the all-surplus basis.  An
equality row is posed as two opposite rows, a free variable as the
difference of two nonnegative ones.  Its tableau is condensed: one column
per nonbasic variable plus the rhs, with no stored identity for the basic
surplus variables.  The test suite checks it against an independent oracle
that enumerates candidate active sets on tiny instances, and against a
full-tableau copy that must take the same pivots (tests/oracles.py).
"""

import numpy as np

from onebit import LinearProgram, solve_lp

# min -z1 - z2 subject to -z1 >= -1, -z2 >= -1, -z1 - z2 >= -1.5
prob = LinearProgram(
    objective=np.array([-1.0, -1.0]),
    ineq_lhs=np.array([[-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0]]),
    ineq_rhs=np.array([-1.0, -1.0, -1.5]),
)
sol = solve_lp(prob)
print("min -z1 - z2  s.t.  z1 <= 1, z2 <= 1, z1 + z2 <= 1.5")
print(f"  simplex: {sol.status}, objective {sol.objective_value:.6f}, "
      f"z = {np.round(sol.primal, 6).tolist()}, {sol.iterations} pivots")

# unboundedness is detected, not raised
unbounded = LinearProgram(np.array([-1.0]), np.zeros((0, 1)), np.zeros(0))
print(f"\nmin -z with only z >= 0: {solve_lp(unbounded).status}")

# an LP that z = 0 does not satisfy is outside solve_lp's domain
infeasible_at_zero = LinearProgram(np.array([1.0]), np.array([[1.0], [-1.0]]),
                                   np.array([1.0, 1.0]))
try:
    solve_lp(infeasible_at_zero)
except ValueError as err:
    print(f"z >= 1 and -z >= 1 at once: ValueError: {err}")
