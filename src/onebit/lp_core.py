"""Self-contained dense linear-program solver.

Problem form: minimize objective @ z subject to

    ineq_rhs <= ineq_lhs @ z <= ineq_upper    (q range rows)
    z >= 0

with ineq_rhs <= 0 <= ineq_upper, every bound finite.  The bound condition
makes z = 0 feasible; solve_lp requires it (the recovery LP meets it, every
row reading -1 <= G_i z <= 1).
It runs a one-phase primal simplex from the all-surplus basis and reports
the optimal vertex with one signed multiplier per row.  An equality row is
a row whose bounds are both 0; a free variable is posed by its caller as the
difference of two nonnegative variables.

The simplex is the one on the two-row form, in which every row is the lower
row a_i z >= l_i and every upper bound adds the mirrored row
-a_i z >= -u_i, each with its own surplus; it takes that form's pivots.  A
row's two surpluses sum to its width u_i - l_i, so either determines the
other (Dantzig's upper-bounding technique), and the tableau keeps one row
per range row.  While both surpluses of a row are basic, the tableau stores
the row of one of them and the ratio test reads the other's as
[-row, width - rhs]; a pivot on that mirrored row is the stored row's pivot
from the rhs rhs - width, with the leaving column negated.  An entering
surplus whose own width binds first flips to its mirror: rhs -= width *
column, and the column is negated.

The tableau is a condensed exchange tableau: one column per nonbasic
variable plus the rhs, filled straight from the LP blocks.  The basic
columns of the full tableau are unit columns and are not stored; a pivot
hands the entering variable's column to the leaving variable.  Variables
keep their two-row names (z, then the lower surpluses, then the upper ones)
and each basic variable the two-row position of its row, which an entering
variable takes from the leaving one, so pricing (Dantzig's rule, Bland's
after a stall, ties broken by name), the ratio test's tie-breaks and the
clean re-solve's block order are those of the full two-row tableau.  The ratio
test runs over every row, with an infinite ratio on every row whose entry is
not a usable pivot, and picks the stoutest pivot among near-tied rows.

solve_lp is the whole solver in one scope: it builds the tableau and the
pivot state, runs the pivot loop and re-solves the final basis for the clean
vertex; _pivot applies one exchange.  Each pivot's rank-one update is
scipy.linalg.blas's dger, imported at first use: solve_lp looks it up once
per solve and hands it to every pivot, so importing onebit loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMALITY_TOL = 1e-9    # a reduced cost above -OPTIMALITY_TOL does not improve
PIVOT_TOL = 1e-10        # smallest tableau entry accepted as a pivot
REFRESH_PIVOTS = 512     # pivots between recomputations of the cost row
STALL_LIMIT = 1000       # consecutive degenerate pivots before Bland's rule
ITERATION_FACTOR = 50    # pivot cap per row and column of the two-row standard form


@dataclass
class LinearProgram:
    """Dense LP data: minimize objective @ z s.t. ineq_rhs <= ineq_lhs @ z <= ineq_upper, z >= 0.

    ineq_lhs must be 2-d with one column per objective entry, (q, d): an
    LP with no rows passes a (0, d) block.  Every entry, both row bounds
    included, must be finite.  Raises ValueError otherwise.
    """

    objective: np.ndarray            # (d,)
    ineq_lhs: np.ndarray             # (q, d)
    ineq_rhs: np.ndarray             # (q,) row lower bounds
    ineq_upper: np.ndarray           # (q,) row upper bounds

    def __post_init__(self) -> None:
        self.objective = np.atleast_1d(np.asarray(self.objective, dtype=np.float64))
        d = self.objective.shape[0]
        self.ineq_lhs = np.asarray(self.ineq_lhs, dtype=np.float64)
        if self.ineq_lhs.ndim != 2 or self.ineq_lhs.shape[1] != d:
            raise ValueError(f"ineq_lhs must be (q, {d}), not {self.ineq_lhs.shape}")
        self.ineq_rhs = np.atleast_1d(np.asarray(self.ineq_rhs, dtype=np.float64))
        self.ineq_upper = np.atleast_1d(np.asarray(self.ineq_upper, dtype=np.float64))
        q = self.ineq_rhs.shape[0]
        if self.ineq_lhs.shape[0] != q or self.ineq_upper.shape != (q,):
            raise ValueError("inequality lhs/rhs row counts differ")
        for block in (self.objective, self.ineq_lhs, self.ineq_rhs, self.ineq_upper):
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
    # (q,) signed row multipliers, present iff optimal (and only from solve_lp):
    # positive where the lower bound binds, negative where the upper one does,
    # ineq_lhs.T @ y <= objective, and
    # ineq_rhs @ max(y, 0) + ineq_upper @ min(y, 0) = objective_value
    multipliers: np.ndarray | None = None
    degenerate_pivots: int = 0       # pivots that did not improve the objective
    bland_switches: int = 0          # switches to Bland's rule after a stall
    upper_pivots: int = 0            # pivots that made a row's upper bound binding
    bound_flips: int = 0             # entering surpluses that crossed their row's width


def max_violation(lp: LinearProgram, z: np.ndarray) -> float:
    """Largest violation by z of the LP's row bounds and of z >= 0 (never -0.0)."""
    prods = lp.ineq_lhs @ z
    return max(float((-z).max(initial=0.0)), float((lp.ineq_rhs - prods).max(initial=0.0)),
               float((prods - lp.ineq_upper).max(initial=0.0))) + 0.0


def _pivot(T: np.ndarray, r: np.ndarray, rpiv: int, cpiv: int, row: np.ndarray,
           dger) -> None:
    """Exchange pivot on the condensed tableau T and its cost row r.

    The nonbasic variable of column cpiv enters at row rpiv, and the variable
    leaving row rpiv takes over column cpiv.  In the full tableau the leaving
    variable's column is the unit column of row rpiv, so setting column cpiv
    to 1/pivot on row rpiv and 0 elsewhere before the rank-one update writes
    it with the full tableau's arithmetic.  T must be Fortran-ordered: BLAS
    then applies the update in place.  row is scratch space of T's width
    that takes a contiguous copy of the new pivot row, and dger is
    scipy.linalg.blas.dger, which solve_lp looks up once per solve.
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


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve an LP that z = 0 satisfies with a one-phase dense simplex.

    Raises ValueError unless every ineq_rhs is <= 0 and every ineq_upper
    >= 0.  Runs pivots from the all-surplus basis until optimality,
    unboundedness, or ITERATION_FACTOR * (rows + cols) pivots of the
    two-row standard form, ITERATION_FACTOR * (4 M + K) for M rows and K
    variables (status iteration_limit), reading the module's constants at
    call time.  Counts the pivots, the degenerate pivots (those that did not
    improve the objective), the switches to Bland's rule, the pivots that
    made an upper bound binding and the bound flips.

    Variables carry two-row names: z is 0..K-1, row i's lower surplus K + i
    and its upper one K + M + i.  position[name] is the two-row position of
    the row where that variable is basic, row i's upper row being at M + i,
    and the entering variable takes the position of the one that leaves;
    width is each row's width u_i - l_i.  The candidates are the columns
    with reduced cost below -OPTIMALITY_TOL;
    Dantzig's rule keeps those of the most negative one, Bland's rule keeps
    them all, and both take the lowest variable name (slots), not column.
    Switches to Bland's rule after STALL_LIMIT consecutive degenerate
    pivots, back on progress.

    The ratio test runs over the stored rows, their mirrored rows and the
    entering variable's own bound: it divides max(rhs, 0) by the entry on
    the rows whose entry exceeds PIVOT_TOL and gives every other row an
    infinite ratio; a column with no finite ratio is unbounded.  When several
    rows come within 1e-9 (relative) of the least ratio, those whose entry is
    at least a tenth of the largest tied entry stay in, and Dantzig's rule
    takes the largest entry among them (on a tie, the lowest two-row
    position), Bland's rule the lowest basic variable name.

    The returned primal and row multipliers are recomputed from the final
    basis with one linear solve each against the original two-row data
    (B w = b and B^T pi = c_B), so accumulated tableau roundoff does not
    leak into the reported vertex.
    """
    if np.count_nonzero(lp.ineq_rhs > 0.0) or np.count_nonzero(lp.ineq_upper < 0.0):
        raise ValueError("solve_lp needs an LP feasible at z = 0: every ineq_rhs "
                         "must be <= 0 and every ineq_upper >= 0")
    c = lp.objective
    K = lp.num_vars
    M = lp.ineq_lhs.shape[0]

    # two-row standard form, every row negated: lower row i reads
    # -a_i z + s_i = -l_i and its upper row a_i z + s'_i = u_i, with
    # surpluses >= 0, so the all-surplus basis is feasible.  The condensed
    # tableau starts from the M lower rows: one column per nonbasic variable
    # (slots names it) and the rhs; basis names each stored row's basic
    # variable, and position gives each basic variable its two-row position:
    # i for lower surplus K + i, M + i for upper surplus K + M + i (a z
    # variable gets its own when it enters)
    T = np.empty((M, K + 1), order="F")
    np.negative(lp.ineq_lhs, out=T[:, :K])
    np.negative(lp.ineq_rhs, out=T[:, K])
    slots = np.arange(K)
    basis = np.arange(K, K + M)
    position = np.arange(-K, 2 * M)
    cost = np.zeros(K + 2 * M)
    cost[:K] = c
    width = lp.ineq_upper - lp.ineq_rhs
    itmax = ITERATION_FACTOR * (4 * M + K)
    from scipy.linalg.blas import dger
    # the all-surplus basis costs nothing, so its cost row is [objective | 0]
    r = np.zeros(K + 1)
    r[:K] = c
    red = r[:K]
    rhs = T[:, K]
    wrow = width.copy()     # the width of the row whose surplus each stored row holds
    # ratio-test rows: [stored rows | their mirrors | the entering variable's own bound]
    entry = np.empty(2 * M + 1)
    entry[2 * M] = 1.0
    num = np.empty(2 * M + 1)
    stored_entry, mirror_entry, stored_num, mirror_num = entry[:M], entry[M:2 * M], num[:M], num[M:2 * M]
    ratios = np.empty(2 * M + 1)
    usable = np.empty(2 * M + 1, dtype=bool)
    prow = np.empty(K + 1)
    iters = degenerate = switches = uppers = flips = 0
    stall = 0
    bland = False
    status = "iteration_limit"
    while iters < itmax:
        cpiv = int(red.argmin())
        if not red[cpiv] < -OPTIMALITY_TOL:
            status = "optimal"
            break
        cand = (red < -OPTIMALITY_TOL if bland else red == red[cpiv]).nonzero()[0]
        if cand.size > 1:
            cpiv = int(cand[slots[cand].argmin()])
        enter = int(slots[cpiv])
        own = float(width[(enter - K) % M]) if enter >= K else np.inf
        col = T[:, cpiv]
        stored_entry[:] = col
        np.negative(col, out=mirror_entry)
        stored_num[:] = rhs
        np.subtract(wrow, rhs, out=mirror_num)
        num[2 * M] = own
        np.maximum(num, 0.0, out=num)
        np.greater(entry, PIVOT_TOL, out=usable)
        ratios.fill(np.inf)
        np.divide(num, entry, out=ratios, where=usable)
        k = int(ratios.argmin())
        best = float(ratios[k])
        if best == np.inf:
            status = "unbounded"
            break
        # among (near-)tied rows take the stoutest pivot first: index-only
        # tie-breaking happily pivots on 1e-10 entries and wrecks the tableau
        ties = (ratios <= best + 1e-9 * (1.0 + best)).nonzero()[0]
        if ties.size > 1:
            ent = entry[ties]
            stout = ties[ent >= 0.1 * ent.max()]
            if not bland:
                stout = stout[entry[stout] == entry[stout].max()]
            k = int(stout[0])
            if stout.size > 1:
                # each tied row's basic variable: a stored row's own, the
                # mate of the surplus stored there on a mirror row, and
                # the entering surplus's mate on its own bound
                name = np.concatenate((basis, basis, [enter]))[stout]
                name = np.where(stout < M, name, np.where(name < K + M, name + M, name - M))
                k = int(stout[(name if bland else position[name]).argmin()])
        gain = -r[cpiv] * best
        if k == 2 * M:
            # the entering surplus reaches its row's width: it trades names
            # with its basic mirror, and no row changes
            rc = r[cpiv]
            rhs -= own * col
            np.negative(col, out=col)
            r[cpiv] = -rc
            r[K] -= own * rc
            slots[cpiv] = enter + M if enter < K + M else enter - M
            flips += 1
        else:
            j = k % M
            leave = int(basis[j])
            if k >= M:
                # the mirrored row of row j's surplus, [-row, width - rhs]:
                # its pivot is row j's from the rhs rhs - width, with the
                # leaving column negated, as the mirror leaves, not the surplus.
                # No tableau row is negated in place: at the 64-byte stride
                # of an 8-row tableau's rows, numpy 2.4.6's in-place
                # np.negative(row, out=row) reads the wrong elements
                rhs[j] -= wrow[j]
                leave = leave + M if leave < K + M else leave - M
            _pivot(T, r, j, cpiv, prow, dger)
            if k >= M:
                np.negative(col, out=col)
                r[cpiv] = -r[cpiv]
            slots[cpiv], basis[j] = leave, enter
            wrow[j] = own
            uppers += leave >= K + M
        # slots[cpiv] now names the variable that left (the mirror, on a
        # flip), and the entering one is basic in its row
        position[enter] = position[slots[cpiv]]
        iters += 1
        if iters % REFRESH_PIVOTS == 0:
            # recompute the cost row from the basis to shed pivot roundoff:
            # [reduced costs of the nonbasic columns | -objective]
            cb = cost[basis]
            r[:K] = cost[slots] - cb @ T[:, :K]
            r[K] = -cb @ rhs
        if gain <= 1e-12 * (1.0 + abs(r[K])):
            degenerate += 1
            stall += 1
            if stall >= STALL_LIMIT and not bland:
                bland = True
                switches += 1
        else:
            stall = 0
            bland = False
    counters = (degenerate, switches, uppers, flips)
    if status != "optimal":
        value = -np.inf if status == "unbounded" else np.nan
        return LpSolution(status, None, value, iters, np.nan, None, *counters)

    # clean vertex and multipliers: re-solve the basis systems B w = b and
    # B^T pi = c_B against the unpivoted two-row data.  A basic surplus is a
    # zero-cost unit column on its own row, so both systems reduce to the
    # block of the basic z columns (in two-row position order) on the rows
    # whose surplus is nonbasic (lower rows, then upper rows; in the
    # recovery dual: the support of x_hat by the basic measurements).
    # Undoing the row negation gives the multipliers of the >= rows, a
    # lower row's counting positive and an upper row's negative
    cols = basis[np.argsort(position[basis])]
    cols = cols[cols < K]
    tight = np.sort(slots)
    tight = tight[np.searchsorted(tight, K):] - K    # two-row indices: lower rows, then upper
    nl = int(np.searchsorted(tight, M))
    rows = tight % M
    block = lp.ineq_lhs[rows][:, cols]
    block[:nl] = -block[:nl]
    z = np.zeros(K)
    z[cols] = _solve_square(block, np.concatenate([-lp.ineq_rhs, lp.ineq_upper])[tight])
    pi = _solve_square(block.T, c[cols])
    pi[:nl] = -pi[:nl]
    y = np.zeros(M)
    y[rows] = pi
    return LpSolution("optimal", z, float(c @ z), iters, max_violation(lp, z), y, *counters)


def _solve_square(B: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(B, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(B, rhs, rcond=None)[0]
