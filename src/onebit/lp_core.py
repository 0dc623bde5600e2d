"""Self-contained dense linear-program solver.

Problem form: minimize objective @ z subject to

    eq_lhs @ z == eq_rhs        (p rows, eq_rhs == 0)
    ineq_lhs @ z >= ineq_rhs    (q rows, ineq_rhs <= 0)
    z_j >= 0                    (j where nonneg[j]; every other z_j is free)

The right-hand-side conditions make z = 0 feasible; solve_lp requires them
(the recovery LP meets them, every right-hand side being -1).  It runs a
one-phase primal simplex on the standard-form conversion (split each free
z_j into positive and negative parts, split each equality row into two
opposite inequality rows, subtract a surplus variable from every row),
starting from the all-surplus basis, and reports the optimal vertex with its
row multipliers.

The tableau is a condensed exchange tableau: one column per nonbasic
variable plus the rhs, filled straight from the LP blocks.  The basic
columns of the full tableau are unit columns and are not stored; a pivot
hands the entering variable's column to the leaving variable.  Pricing
breaks ties by variable index, so the pivots, and the vertex, are those of
the full tableau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dger

OPTIMALITY_TOL = 1e-9    # a reduced cost above -OPTIMALITY_TOL does not improve
PIVOT_TOL = 1e-10        # smallest tableau entry accepted as a pivot
REFRESH_PIVOTS = 512     # pivots between recomputations of the cost row


@dataclass
class ToleranceConfig:
    """Pivot budget of the simplex.

    iteration_factor caps pivots at iteration_factor * (rows + cols) of the
    standard-form problem.  stall_limit is the number of consecutive
    non-improving pivots tolerated before switching to Bland's rule.
    """

    iteration_factor: int = 50
    stall_limit: int = 1000


@dataclass
class LinearProgram:
    """Dense LP data; inequality rows mean ineq_lhs @ z >= ineq_rhs.

    nonneg marks the variables constrained to z_j >= 0; by default every
    variable is free.
    """

    objective: np.ndarray   # (d,)
    eq_lhs: np.ndarray      # (p, d)
    eq_rhs: np.ndarray      # (p,)
    ineq_lhs: np.ndarray    # (q, d)
    ineq_rhs: np.ndarray    # (q,)
    nonneg: np.ndarray | None = None   # (d,) bool, None means all free

    def __post_init__(self) -> None:
        self.objective = np.atleast_1d(np.asarray(self.objective, dtype=np.float64))
        d = self.objective.shape[0]
        self.eq_lhs = np.asarray(self.eq_lhs, dtype=np.float64).reshape(-1, d)
        self.eq_rhs = np.atleast_1d(np.asarray(self.eq_rhs, dtype=np.float64))
        self.ineq_lhs = np.asarray(self.ineq_lhs, dtype=np.float64).reshape(-1, d)
        self.ineq_rhs = np.atleast_1d(np.asarray(self.ineq_rhs, dtype=np.float64))
        if self.eq_lhs.shape[0] != self.eq_rhs.shape[0]:
            raise ValueError("equality lhs/rhs row counts differ")
        if self.ineq_lhs.shape[0] != self.ineq_rhs.shape[0]:
            raise ValueError("inequality lhs/rhs row counts differ")
        if self.nonneg is None:
            self.nonneg = np.zeros(d, dtype=bool)
        self.nonneg = np.asarray(self.nonneg, dtype=bool)
        if self.nonneg.shape != (d,):
            raise ValueError("nonnegativity mask must have one entry per variable")
        for block in (self.objective, self.eq_lhs, self.eq_rhs,
                      self.ineq_lhs, self.ineq_rhs):
            if not np.all(np.isfinite(block)):
                raise ValueError("linear program data must be finite")

    @property
    def num_vars(self) -> int:
        return self.objective.shape[0]


@dataclass
class LpSolution:
    status: str                      # optimal | unbounded | iteration_limit
    primal: np.ndarray | None        # (d,) present iff optimal
    objective_value: float           # nan unless optimal, -inf if unbounded
    iterations: int
    max_constraint_violation: float  # against the original rows, nan unless optimal
    # (p + q,) row multipliers, equality rows first, present iff optimal (and
    # only from solve_lp): objective = eq_lhs.T @ pi_eq + ineq_lhs.T @ pi_ineq
    # on free variables (<= on nonnegative ones), pi_ineq >= 0, and
    # eq_rhs @ pi_eq + ineq_rhs @ pi_ineq = objective_value
    multipliers: np.ndarray | None = None
    degenerate_pivots: int = 0       # pivots that did not improve the objective
    bland_switches: int = 0          # switches to Bland's rule after a stall


def max_violation(lp: LinearProgram, z: np.ndarray) -> float:
    """Largest violation by z of the LP's rows and nonnegativity bounds."""
    worst = float(np.max(-z[lp.nonneg], initial=0.0))
    if lp.eq_lhs.shape[0]:
        worst = max(worst, float(np.max(np.abs(lp.eq_lhs @ z - lp.eq_rhs))))
    if lp.ineq_lhs.shape[0]:
        slack = lp.ineq_lhs @ z - lp.ineq_rhs
        worst = max(worst, float(np.max(-slack, initial=0.0)))
    return worst


def _pivot(T: np.ndarray, r: np.ndarray, rpiv: int, cpiv: int) -> None:
    """Exchange pivot on the condensed tableau T and its cost row r.

    The nonbasic variable of column cpiv enters at row rpiv, and the variable
    leaving row rpiv takes over column cpiv.  In the full tableau the leaving
    variable's column is the unit column of row rpiv, so setting column cpiv
    to 1/pivot on row rpiv and 0 elsewhere before the rank-one update writes
    it with the full tableau's arithmetic.  T must be Fortran-ordered: BLAS
    then applies the update in place.
    """
    row = T[rpiv]
    piv = row[cpiv]
    row /= piv
    col = T[:, cpiv].copy()
    col[rpiv] = 0.0
    T[:, cpiv] = 0.0
    T[rpiv, cpiv] = 1.0 / piv
    dger(-1.0, col, row, a=T, overwrite_a=True)   # T -= col row^T
    rc = r[cpiv]
    r[cpiv] = 0.0
    r -= rc * row


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
             tol: ToleranceConfig, itmax: int) -> tuple[str, int, int, int]:
    """Run pivots until optimality, unboundedness, or the iteration cap.

    Returns the status, the pivots, the degenerate pivots (those that did
    not improve the objective) and the switches to Bland's rule.  Dantzig
    pricing with lowest-index tie-breaks; switches to Bland's rule after
    tol.stall_limit consecutive degenerate pivots, back on progress.  Both
    rules rank by variable index (slots), not column, so the pivots are
    those of the full tableau.
    """
    K = T.shape[1] - 1
    r = _reduced_costs(T, slots, basis, cost)
    iters = 0
    degenerate = 0
    switches = 0
    stall = 0
    bland = False
    refresh = 0
    while iters < itmax:
        red = r[:K]
        if bland:
            cand = np.flatnonzero(red < -OPTIMALITY_TOL)
            if cand.size == 0:
                return "optimal", iters, degenerate, switches
        else:
            # the full tableau also prices its basic columns, at 0;
            # initial=0.0 stands in for them
            best_red = np.min(red, initial=0.0)
            if best_red >= -OPTIMALITY_TOL:
                return "optimal", iters, degenerate, switches
            cand = np.flatnonzero(red == best_red)
        cpiv = int(cand[np.argmin(slots[cand])])
        col = T[:, cpiv]
        pos = np.where(col > PIVOT_TOL)[0]
        if pos.size == 0:
            return "unbounded", iters, degenerate, switches
        ratios = np.maximum(T[pos, K], 0.0) / col[pos]
        best = float(np.min(ratios))
        # among (near-)tied rows take the stoutest pivot first: index-only
        # tie-breaking happily pivots on 1e-10 entries and wrecks the tableau
        ties = pos[ratios <= best + 1e-9 * (1.0 + best)]
        stout = ties[col[ties] >= 0.1 * float(np.max(col[ties]))]
        if bland:
            rpiv = int(stout[np.argmin(basis[stout])])
        else:
            rpiv = int(stout[np.argmax(col[stout])])
        gain = -r[cpiv] * best
        _pivot(T, r, rpiv, cpiv)
        slots[cpiv], basis[rpiv] = basis[rpiv], slots[cpiv]
        iters += 1
        refresh += 1
        if refresh >= REFRESH_PIVOTS:
            # recompute the cost row from the basis to shed pivot roundoff
            r[:] = _reduced_costs(T, slots, basis, cost)
            refresh = 0
        if gain <= 1e-12 * (1.0 + abs(r[K])):
            degenerate += 1
            stall += 1
            if stall >= tol.stall_limit and not bland:
                bland = True
                switches += 1
        else:
            stall = 0
            bland = False
    return "iteration_limit", iters, degenerate, switches


def solve_lp(lp: LinearProgram, tol: ToleranceConfig | None = None) -> LpSolution:
    """Solve an LP that z = 0 satisfies with a one-phase dense simplex.

    Raises ValueError unless every eq_rhs is 0 and every ineq_rhs is <= 0.
    The returned primal and row multipliers are recomputed from the final
    basis with one linear solve each against the original standard-form
    data (B w = b and B^T pi = c_B), so accumulated tableau roundoff does
    not leak into the reported vertex.
    """
    if np.any(lp.eq_rhs != 0.0) or np.any(lp.ineq_rhs > 0.0):
        raise ValueError("solve_lp needs an LP feasible at z = 0: "
                         "every eq_rhs must be 0 and every ineq_rhs <= 0")
    if tol is None:
        tol = ToleranceConfig()
    c = lp.objective
    d = lp.num_vars
    p = lp.eq_lhs.shape[0]

    # standard form, every row negated: an equality row a z = 0 becomes the
    # pair a z >= 0, -a z >= 0, and inequality row i reads -a_i z + s_i = -f_i
    # with surplus s_i >= 0, so the all-surplus basis is feasible.  Variables:
    # z (z+ for the free variables), z- of the free variables, surplus.  The
    # condensed tableau holds one column per nonbasic variable (slots names
    # it) and the rhs; basis names each row's basic variable
    free = np.flatnonzero(~lp.nonneg)
    nf = free.size
    K = d + nf
    M = 2 * p + lp.ineq_lhs.shape[0]
    b = -np.concatenate([lp.eq_rhs, lp.eq_rhs, lp.ineq_rhs])
    T = np.empty((M, K + 1), order="F")
    np.negative(lp.eq_lhs, out=T[:p, :d])
    T[p:2 * p, :d] = lp.eq_lhs
    np.negative(lp.ineq_lhs, out=T[2 * p:, :d])
    np.negative(T[:, free], out=T[:, d:K])
    T[:, K] = b
    slots = np.arange(K)
    basis = K + np.arange(M)
    cost = np.zeros(K + M)
    cost[:d] = c
    cost[d:K] = -c[free]
    status, iters, degenerate, switches = _simplex(
        T, slots, basis, cost, tol, tol.iteration_factor * (2 * M + K))
    if status != "optimal":
        value = -np.inf if status == "unbounded" else np.nan
        return LpSolution(status, None, value, iters, np.nan,
                          degenerate_pivots=degenerate, bland_switches=switches)

    # clean vertex and multipliers: re-solve the basis systems B w = b and
    # B^T pi = c_B against the unpivoted data.  A basic surplus is a
    # zero-cost unit column on its own row, so both systems reduce to the
    # block of the basic z columns on the rows whose surplus is nonbasic (in
    # the recovery dual: the support of x_hat by the basic measurements);
    # undoing the row negation gives the multipliers of the rows >= form,
    # and an equality row's multiplier is the difference of its pair's
    unit = basis >= K
    cols = basis[~unit]
    rows = np.ones(M, dtype=bool)
    rows[basis[unit] - K] = False
    block = _standard_rows(lp, free, np.flatnonzero(rows))[:, cols]
    w = np.zeros(K)
    w[cols] = _solve_square(block, b[rows])
    z = w[:d].copy()
    z[free] -= w[d:]
    pi = np.zeros(M)
    pi[rows] = _solve_square(block.T, cost[cols])
    pi = -np.concatenate([pi[:p] - pi[p:2 * p], pi[2 * p:]])
    return LpSolution("optimal", z, float(c @ z), iters, max_violation(lp, z), pi,
                      degenerate, switches)


def _standard_rows(lp: LinearProgram, free: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rows idx (ascending) of the standard-form z columns [z+ | z-].

    Standard-form row i is -eq_lhs[i] for i < p, eq_lhs[i - p] for
    p <= i < 2p and -ineq_lhs[i - 2p] after that; the z- columns negate the
    free ones.  Gathered from the LP blocks, so only these rows are copied.
    """
    p = lp.eq_lhs.shape[0]
    eq = idx < 2 * p
    pair = idx[eq]
    lhs = np.concatenate([lp.eq_lhs[pair - p * (pair >= p)],
                          lp.ineq_lhs[idx[~eq] - 2 * p]])
    lhs[(idx < p) | ~eq] *= -1.0
    return np.hstack([lhs, -lhs[:, free]])


def _solve_square(B: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(B, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(B, rhs, rcond=None)[0]
