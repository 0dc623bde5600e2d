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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dger

OPTIMALITY_TOL = 1e-9    # a reduced cost above -OPTIMALITY_TOL does not improve
PIVOT_TOL = 1e-10        # smallest tableau entry accepted as a pivot


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
    """Gauss-Jordan pivot on T (tableau with rhs column) and cost row r.

    T must be Fortran-ordered: BLAS then applies the rank-one update in place.
    """
    row = T[rpiv]
    row /= row[cpiv]
    col = T[:, cpiv].copy()
    col[rpiv] = 0.0
    dger(-1.0, col, row, a=T, overwrite_a=True)   # T -= col row^T
    r -= r[cpiv] * row
    T[:, cpiv] = 0.0
    T[rpiv, cpiv] = 1.0
    r[cpiv] = 0.0


def _reduced_costs(T: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Cost row [reduced costs | -objective] for the current basis."""
    K = T.shape[1] - 1
    cb = cost[basis]
    r = np.empty(K + 1)
    r[:K] = cost[:K] - cb @ T[:, :K]
    r[K] = -cb @ T[:, K]
    return r


def _simplex(T: np.ndarray, basis: np.ndarray, cost: np.ndarray,
             tol: ToleranceConfig, itmax: int) -> tuple[str, int]:
    """Run pivots until optimality, unboundedness, or the iteration cap.

    Dantzig pricing with lowest-index tie-breaks; switches to Bland's rule
    after tol.stall_limit consecutive degenerate pivots, back on progress.
    """
    K = T.shape[1] - 1
    r = _reduced_costs(T, basis, cost)
    iters = 0
    stall = 0
    bland = False
    refresh = 0
    while iters < itmax:
        red = r[:K]
        if bland:
            neg = np.where(red < -OPTIMALITY_TOL)[0]
            if neg.size == 0:
                return "optimal", iters
            cpiv = int(neg[0])
        else:
            cpiv = int(np.argmin(red))
            if red[cpiv] >= -OPTIMALITY_TOL:
                return "optimal", iters
        col = T[:, cpiv]
        pos = np.where(col > PIVOT_TOL)[0]
        if pos.size == 0:
            return "unbounded", iters
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
        basis[rpiv] = cpiv
        iters += 1
        refresh += 1
        if refresh >= 512:
            # recompute the cost row from the basis to shed pivot roundoff
            r[:] = _reduced_costs(T, basis, cost)
            refresh = 0
        if gain <= 1e-12 * (1.0 + abs(r[K])):
            stall += 1
            if stall >= tol.stall_limit:
                bland = True
        else:
            stall = 0
            bland = False
    return "iteration_limit", iters


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
    # with surplus s_i >= 0, so the all-surplus basis is feasible.  Tableau
    # columns: z (z+ for the free variables), z- of the free variables,
    # surplus, rhs
    free = np.flatnonzero(~lp.nonneg)
    nf = free.size
    Z = -np.vstack([lp.eq_lhs, -lp.eq_lhs, lp.ineq_lhs])
    M = Z.shape[0]
    b = -np.concatenate([lp.eq_rhs, lp.eq_rhs, lp.ineq_rhs])
    Z = np.hstack([Z, -Z[:, free]])   # the unpivoted z columns
    N = d + nf + M
    basis = d + nf + np.arange(M)
    T = np.zeros((M, N + 1), order="F")
    T[:, :d + nf] = Z
    T[np.arange(M), np.arange(d + nf, N)] = 1.0
    T[:, N] = b
    cost = np.zeros(N)
    cost[:d] = c
    cost[d:d + nf] = -c[free]
    status, iters = _simplex(T, basis, cost, tol, tol.iteration_factor * (M + N))
    if status != "optimal":
        value = -np.inf if status == "unbounded" else np.nan
        return LpSolution(status, None, value, iters, np.nan)

    # clean vertex and multipliers: re-solve the basis systems B w = b and
    # B^T pi = c_B against the unpivoted data.  A basic surplus is a
    # zero-cost unit column on its own row, so both systems reduce to the
    # block of the basic z columns on the rows whose surplus is nonbasic (in
    # the recovery dual: the support of x_hat by the basic measurements);
    # undoing the row negation gives the multipliers of the rows >= form,
    # and an equality row's multiplier is the difference of its pair's
    unit = basis >= d + nf
    cols = basis[~unit]
    rows = np.ones(M, dtype=bool)
    rows[basis[unit] - d - nf] = False
    block = Z[np.ix_(rows, cols)]
    w = np.zeros(d + nf)
    w[cols] = _solve_square(block, b[rows])
    z = w[:d].copy()
    z[free] -= w[d:]
    pi = np.zeros(M)
    pi[rows] = _solve_square(block.T, cost[cols])
    pi = -np.concatenate([pi[:p] - pi[p:2 * p], pi[2 * p:]])
    return LpSolution("optimal", z, float(c @ z), iters, max_violation(lp, z), pi)


def _solve_square(B: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(B, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(B, rhs, rcond=None)[0]
