"""Self-contained dense linear-program solver.

Problem form: minimize objective @ z subject to

    ineq_lhs @ z >= ineq_rhs    (q rows, ineq_rhs <= 0)
    z >= 0

The right-hand-side condition makes z = 0 feasible; solve_lp requires it
(the recovery LP meets it, every right-hand side being -1).  It runs a
one-phase primal simplex on the standard form (subtract a surplus variable
from every row), starting from the all-surplus basis, and reports the
optimal vertex with its row multipliers.  An equality row or a free
variable is posed by its caller in this form: as two opposite inequality
rows, or as the difference of two nonnegative variables.

The tableau is a condensed exchange tableau: one column per nonbasic
variable plus the rhs, filled straight from the LP blocks.  The basic
columns of the full tableau are unit columns and are not stored; a pivot
hands the entering variable's column to the leaving variable.  Pricing
takes the most negative reduced cost (Dantzig's rule, Bland's after a
stall) and breaks ties by variable index, so the pivots, and the vertex,
are those of the full tableau.  The ratio test runs over the whole
entering column, with an infinite ratio on every row whose entry is not a
usable pivot, and picks the stoutest pivot among near-tied rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dger

OPTIMALITY_TOL = 1e-9    # a reduced cost above -OPTIMALITY_TOL does not improve
PIVOT_TOL = 1e-10        # smallest tableau entry accepted as a pivot
REFRESH_PIVOTS = 512     # pivots between recomputations of the cost row
STALL_LIMIT = 1000       # consecutive degenerate pivots before Bland's rule
ITERATION_FACTOR = 50    # pivot cap per row and column of the standard-form problem


@dataclass
class LinearProgram:
    """Dense LP data: minimize objective @ z s.t. ineq_lhs @ z >= ineq_rhs, z >= 0."""

    objective: np.ndarray   # (d,)
    ineq_lhs: np.ndarray    # (q, d)
    ineq_rhs: np.ndarray    # (q,)

    def __post_init__(self) -> None:
        self.objective = np.atleast_1d(np.asarray(self.objective, dtype=np.float64))
        d = self.objective.shape[0]
        self.ineq_lhs = np.asarray(self.ineq_lhs, dtype=np.float64).reshape(-1, d)
        self.ineq_rhs = np.atleast_1d(np.asarray(self.ineq_rhs, dtype=np.float64))
        if self.ineq_lhs.shape[0] != self.ineq_rhs.shape[0]:
            raise ValueError("inequality lhs/rhs row counts differ")
        for block in (self.objective, self.ineq_lhs, self.ineq_rhs):
            if not np.isfinite(block).all():
                raise ValueError("linear program data must be finite")

    @property
    def num_vars(self) -> int:
        return self.objective.shape[0]

    @property
    def eq_lhs(self) -> np.ndarray:
        """An empty (0, d) block: the LP has no equality rows.

        It exists only because the traced run of perfbench/run.py counts an
        LP's rows as eq_lhs rows plus ineq_lhs rows; it goes with benchmark v2.
        """
        return np.empty((0, self.num_vars))


@dataclass
class LpSolution:
    status: str                      # optimal | unbounded | iteration_limit
    primal: np.ndarray | None        # (d,) present iff optimal
    objective_value: float           # nan unless optimal, -inf if unbounded
    iterations: int
    max_constraint_violation: float  # against the original rows, nan unless optimal
    # (q,) row multipliers, present iff optimal (and only from solve_lp):
    # ineq_lhs.T @ pi <= objective, pi >= 0, and
    # ineq_rhs @ pi = objective_value
    multipliers: np.ndarray | None = None
    degenerate_pivots: int = 0       # pivots that did not improve the objective
    bland_switches: int = 0          # switches to Bland's rule after a stall


def max_violation(lp: LinearProgram, z: np.ndarray) -> float:
    """Largest violation by z of the LP's rows and of z >= 0."""
    slack = lp.ineq_lhs @ z - lp.ineq_rhs
    return max(float((-z).max(initial=0.0)), float((-slack).max(initial=0.0)))


def _pivot(T: np.ndarray, r: np.ndarray, rpiv: int, cpiv: int, row: np.ndarray) -> None:
    """Exchange pivot on the condensed tableau T and its cost row r.

    The nonbasic variable of column cpiv enters at row rpiv, and the variable
    leaving row rpiv takes over column cpiv.  In the full tableau the leaving
    variable's column is the unit column of row rpiv, so setting column cpiv
    to 1/pivot on row rpiv and 0 elsewhere before the rank-one update writes
    it with the full tableau's arithmetic.  T must be Fortran-ordered: BLAS
    then applies the update in place.  row is scratch space of T's width
    that takes a contiguous copy of the new pivot row.
    """
    col = T[:, cpiv].copy()
    piv = col[rpiv]
    col[rpiv] = 0.0
    np.divide(T[rpiv], piv, out=row)
    row[cpiv] = 1.0 / piv
    T[:, cpiv] = 0.0
    T[rpiv] = row
    dger(-1.0, col, row, a=T, overwrite_a=True)   # T -= col row^T
    rc = r[cpiv]
    r[cpiv] = 0.0
    r -= np.multiply(row, rc, out=row)


def _reduced_costs(T: np.ndarray, slots: np.ndarray, basis: np.ndarray,
                   cost: np.ndarray) -> np.ndarray:
    """Cost row [reduced costs of the nonbasic columns | -objective]."""
    K = T.shape[1] - 1
    cb = cost[basis]
    r = np.empty(K + 1)
    r[:K] = cost[slots] - cb @ T[:, :K]
    r[K] = -cb @ T[:, K]
    return r


def _simplex(T: np.ndarray, slots: np.ndarray, basis: np.ndarray, cost: np.ndarray,
             itmax: int) -> tuple[str, int, int, int]:
    """Run pivots until optimality, unboundedness, or the iteration cap.

    Returns the status, the pivots, the degenerate pivots (those that did
    not improve the objective) and the switches to Bland's rule.  The
    candidates are the columns with reduced cost below -OPTIMALITY_TOL;
    Dantzig's rule keeps those of the most negative one, Bland's rule keeps
    them all, and both take the lowest variable index (slots), not column,
    so the pivots are those of the full tableau.  Switches to Bland's rule
    after STALL_LIMIT consecutive degenerate pivots, back on progress.

    The ratio test divides max(rhs, 0) by the entering column on the rows
    whose entry exceeds PIVOT_TOL and gives every other row an infinite
    ratio; a column with no such row is unbounded.  When several rows come
    within 1e-9 (relative) of the least ratio, those whose entry is at least
    a tenth of the largest tied entry stay in, and Dantzig's rule takes the
    largest entry among them, Bland's rule the lowest basic variable index.
    """
    M, K = T.shape[0], T.shape[1] - 1
    r = _reduced_costs(T, slots, basis, cost)
    red = r[:K]
    rhs = T[:, K]
    num = np.empty(M)
    ratios = np.empty(M)
    positive = np.empty(M, dtype=bool)
    prow = np.empty(K + 1)
    iters = 0
    degenerate = 0
    switches = 0
    stall = 0
    bland = False
    while iters < itmax:
        cpiv = int(red.argmin())
        if not red[cpiv] < -OPTIMALITY_TOL:
            return "optimal", iters, degenerate, switches
        cand = (red < -OPTIMALITY_TOL if bland else red == red[cpiv]).nonzero()[0]
        if cand.size > 1:
            cpiv = int(cand[slots[cand].argmin()])
        col = T[:, cpiv]
        np.greater(col, PIVOT_TOL, out=positive)
        if not positive.any():
            return "unbounded", iters, degenerate, switches
        np.maximum(rhs, 0.0, out=num)
        ratios.fill(np.inf)
        np.divide(num, col, out=ratios, where=positive)
        rpiv = int(ratios.argmin())
        best = float(ratios[rpiv])
        # among (near-)tied rows take the stoutest pivot first: index-only
        # tie-breaking happily pivots on 1e-10 entries and wrecks the tableau
        ties = (ratios <= best + 1e-9 * (1.0 + best)).nonzero()[0]
        if ties.size > 1:
            entries = col[ties]
            stout = ties[entries >= 0.1 * entries.max()]
            rpiv = int(stout[basis[stout].argmin()] if bland else stout[col[stout].argmax()])
        gain = -r[cpiv] * best
        _pivot(T, r, rpiv, cpiv, prow)
        slots[cpiv], basis[rpiv] = basis[rpiv], slots[cpiv]
        iters += 1
        if iters % REFRESH_PIVOTS == 0:
            # recompute the cost row from the basis to shed pivot roundoff
            r[:] = _reduced_costs(T, slots, basis, cost)
        if gain <= 1e-12 * (1.0 + abs(r[K])):
            degenerate += 1
            stall += 1
            if stall >= STALL_LIMIT and not bland:
                bland = True
                switches += 1
        else:
            stall = 0
            bland = False
    return "iteration_limit", iters, degenerate, switches


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve an LP that z = 0 satisfies with a one-phase dense simplex.

    Raises ValueError unless every ineq_rhs is <= 0.  Stops with status
    iteration_limit after ITERATION_FACTOR * (rows + cols) pivots of the
    standard-form problem, reading the constant at call time.  The returned
    primal and row multipliers are recomputed from the final basis with one
    linear solve each against the original standard-form data (B w = b and
    B^T pi = c_B), so accumulated tableau roundoff does not leak into the
    reported vertex.
    """
    if (lp.ineq_rhs > 0.0).any():
        raise ValueError("solve_lp needs an LP feasible at z = 0: "
                         "every ineq_rhs must be <= 0")
    c = lp.objective
    K = lp.num_vars
    M = lp.ineq_lhs.shape[0]

    # standard form, every row negated: row i reads -a_i z + s_i = -f_i with
    # surplus s_i >= 0, so the all-surplus basis is feasible.  Variables: z,
    # then surplus.  The condensed tableau holds one column per nonbasic
    # variable (slots names it) and the rhs; basis names each row's basic
    # variable
    b = -lp.ineq_rhs
    T = np.empty((M, K + 1), order="F")
    np.negative(lp.ineq_lhs, out=T[:, :K])
    T[:, K] = b
    slots = np.arange(K)
    basis = K + np.arange(M)
    cost = np.zeros(K + M)
    cost[:K] = c
    status, iters, degenerate, switches = _simplex(
        T, slots, basis, cost, ITERATION_FACTOR * (2 * M + K))
    if status != "optimal":
        value = -np.inf if status == "unbounded" else np.nan
        return LpSolution(status, None, value, iters, np.nan,
                          degenerate_pivots=degenerate, bland_switches=switches)

    # clean vertex and multipliers: re-solve the basis systems B w = b and
    # B^T pi = c_B against the unpivoted data.  A basic surplus is a
    # zero-cost unit column on its own row, so both systems reduce to the
    # block of the basic z columns on the rows whose surplus is nonbasic (in
    # the recovery dual: the support of x_hat by the basic measurements);
    # undoing the row negation gives the multipliers of the rows >= form
    unit = basis >= K
    cols = basis[~unit]
    rows = np.ones(M, dtype=bool)
    rows[basis[unit] - K] = False
    block = -lp.ineq_lhs[rows][:, cols]
    z = np.zeros(K)
    z[cols] = _solve_square(block, b[rows])
    pi = np.zeros(M)
    pi[rows] = _solve_square(block.T, cost[cols])
    return LpSolution("optimal", z, float(c @ z), iters, max_violation(lp, z), -pi,
                      degenerate, switches)


def _solve_square(B: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(B, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(B, rhs, rcond=None)[0]
