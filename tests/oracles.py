"""Reference oracles that the tests check the solver and the recovery LP against.

GeneralLP is the general-form LP the tests pose (equality rows, free
variables); canonical() turns it into lp_core's one form, and solve_general
solves it through that form and maps the result back.
brute_force_vertex_solve solves a tiny general-form LP by enumerating
candidate active sets, so it shares no pivoting code with lp_core.solve_lp.
nonconvex_oracle approximates the sphere-constrained l1 minimizer that the
recovery LP relaxes.  Both are small-instance references, not solvers.
full_tableau_solve_lp is the simplex on the full tableau (surplus identity
columns stored), which lp_core.solve_lp replaced by the condensed exchange
tableau; solve_lp must take its pivots and return its bytes.
random_small_lp draws the tiny general-form LPs that the solver is checked
on against brute_force_vertex_solve.
reference_recovery_lp is recovery.build_recovery_lp as it was before the LP
was assembled column-major; build_recovery_lp must return its bytes.
contains, hard_threshold and block_decompose are the membership test of
K(n, s) and the two steps of the paper's proof (sparse vectors are a net of
K(n, s); a member of K(n, s) splits into s-sparse blocks), which criterion 09
and the lemma tests check; no command runs them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np
from scipy.linalg import null_space
from scipy.linalg.blas import dger

from onebit.geometry import SignalSetSpec
from onebit.lp_core import (
    OPTIMALITY_TOL,
    PIVOT_TOL,
    LinearProgram,
    LpSolution,
    ToleranceConfig,
    _solve_square,
    max_violation,
    solve_lp,
)
from onebit.measurement import MeasurementEnsemble, as_rows, derive_seed, normal_grid, uniform_grid

FEASIBILITY_TOL = 1e-8   # row residual, relative to 1 + max |rhs|, that counts as satisfied
FULL_REFRESH_PIVOTS = 512   # pivots between cost-row recomputations in full_tableau_solve_lp
FULL_STALL_LIMIT = 1000     # degenerate pivots before Bland's rule in full_tableau_solve_lp


@dataclass
class GeneralLP:
    """Dense general-form LP: minimize objective @ z subject to

        eq_lhs @ z == eq_rhs, ineq_lhs @ z >= ineq_rhs, z_j >= 0 where nonneg[j]

    and every other z_j free (by default every variable is free).
    """

    objective: np.ndarray        # (d,)
    eq_lhs: np.ndarray = ()      # (p, d)
    eq_rhs: np.ndarray = ()      # (p,)
    ineq_lhs: np.ndarray = ()    # (q, d)
    ineq_rhs: np.ndarray = ()    # (q,)
    nonneg: np.ndarray | None = None   # (d,) bool, None means all free

    def __post_init__(self) -> None:
        self.objective = np.atleast_1d(np.asarray(self.objective, dtype=np.float64))
        d = self.objective.shape[0]
        self.eq_lhs = np.asarray(self.eq_lhs, dtype=np.float64).reshape(-1, d)
        self.eq_rhs = np.atleast_1d(np.asarray(self.eq_rhs, dtype=np.float64))
        self.ineq_lhs = np.asarray(self.ineq_lhs, dtype=np.float64).reshape(-1, d)
        self.ineq_rhs = np.atleast_1d(np.asarray(self.ineq_rhs, dtype=np.float64))
        self.nonneg = np.zeros(d, dtype=bool) if self.nonneg is None \
            else np.asarray(self.nonneg, dtype=bool)

    @property
    def num_vars(self) -> int:
        return self.objective.shape[0]

    def max_violation(self, z: np.ndarray) -> float:
        """Largest violation by z of the rows and nonnegativity bounds."""
        worst = float(np.max(-z[self.nonneg], initial=0.0))
        if self.eq_lhs.shape[0]:
            worst = max(worst, float(np.max(np.abs(self.eq_lhs @ z - self.eq_rhs))))
        if self.ineq_lhs.shape[0]:
            slack = self.ineq_lhs @ z - self.ineq_rhs
            worst = max(worst, float(np.max(-slack, initial=0.0)))
        return worst


def random_small_lp(seed, mask="free") -> GeneralLP:
    """Half-integer random LP with d <= 6 and p + q <= 8, feasible at z = 0.

    The equality rhs is 0 and the inequality rhs is -|draw|; the rhs draws
    stay, so the rest of the stream is the same.  mask picks the nonnegative
    variables: "free" (none), "nonneg" (all) or "mixed" (each with
    probability 1/2).
    """
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 7))
    p = int(rng.integers(0, 3))
    q = int(rng.integers(0, 9 - p))
    mk = lambda r: rng.integers(-4, 5, size=(r, d)) / 2.0
    args = (rng.integers(-4, 5, size=d) / 2.0,
            mk(p), np.zeros_like(rng.integers(-4, 5, size=p), dtype=float),
            mk(q), -np.abs(rng.integers(-4, 5, size=q)) / 2.0)
    nonneg = {"free": np.zeros(d, dtype=bool), "nonneg": np.ones(d, dtype=bool),
              "mixed": rng.integers(0, 2, size=d).astype(bool)}[mask]
    return GeneralLP(*args, nonneg=nonneg)


def canonical(lp: GeneralLP) -> LinearProgram:
    """lp in lp_core's form: every row >=, every variable nonnegative.

    Each equality row e z = r becomes the pair e z >= r, -e z >= -r, the
    pairs ahead of the inequality rows; each free z_j becomes z_j - z_j-,
    with the z_j- columns after all d columns, in the order of j.
    """
    free = ~lp.nonneg
    rows = np.vstack([lp.eq_lhs, -lp.eq_lhs, lp.ineq_lhs])
    # 0.0 - r, not -r: at r = 0 the -0.0 would flip the sign of some zero
    # entries of the primal
    return LinearProgram(np.concatenate([lp.objective, -lp.objective[free]]),
                         np.hstack([rows, -rows[:, free]]),
                         np.concatenate([lp.eq_rhs, 0.0 - lp.eq_rhs, lp.ineq_rhs]))


def solve_general(lp: GeneralLP, tol: ToleranceConfig | None = None) -> LpSolution:
    """Solve lp with solve_lp through canonical(), in lp's variables and rows.

    z = w[:d] minus the z_j- parts, and an equality row's multiplier is the
    difference of its pair's.
    """
    sol = solve_lp(canonical(lp), tol)
    if sol.status != "optimal":
        return sol
    d, p = lp.num_vars, lp.eq_lhs.shape[0]
    z = sol.primal[:d].copy()
    z[~lp.nonneg] -= sol.primal[d:]
    pi = sol.multipliers
    # -(second - first), not first - second: a pair whose surplus variables
    # are both basic gets -0.0, as a single row does
    pi = np.concatenate([-(pi[p:2 * p] - pi[:p]), pi[2 * p:]])
    return replace(sol, primal=z, objective_value=float(lp.objective @ z),
                   max_constraint_violation=lp.max_violation(z), multipliers=pi)


def brute_force_vertex_solve(lp: GeneralLP) -> LpSolution:
    """Exact reference solve by enumerating candidate active sets.

    Each nonnegative variable adds the row z_j >= 0.  Lineality directions
    (common null space of all rows) are pinned with extra orthogonality
    equalities so the system is pointed; vertices then come from d-subsets
    of rows and unbounded rays from (d-1)-subsets.  Guarded to tiny sizes;
    intended as an oracle, not a solver.
    """
    d = lp.num_vars
    p = lp.eq_lhs.shape[0]
    q = lp.ineq_lhs.shape[0] + int(np.count_nonzero(lp.nonneg))
    if d > 12 or p + q > 24:
        raise ValueError("brute force solve is limited to d <= 12 and 24 rows "
                         "(nonnegativity bounds included)")
    c = lp.objective

    rows = np.vstack([lp.eq_lhs, lp.ineq_lhs, np.eye(d)[lp.nonneg]])
    rhs = np.concatenate([lp.eq_rhs, lp.ineq_rhs, np.zeros(q - lp.ineq_lhs.shape[0])])
    is_eq = np.zeros(p + q, dtype=bool)
    is_eq[:p] = True

    lin = null_space(rows) if rows.size else np.eye(d)
    k = lin.shape[1]
    if k:
        rows = np.vstack([rows, lin.T])
        rhs = np.concatenate([rhs, np.zeros(k)])
        is_eq = np.concatenate([is_eq, np.ones(k, dtype=bool)])
    R = rows.shape[0]

    scale = 1.0 + (float(np.max(np.abs(rhs))) if rhs.size else 0.0)
    ftol = FEASIBILITY_TOL * scale

    def feasible(z: np.ndarray) -> bool:
        res = rows @ z - rhs
        if np.any(np.abs(res[is_eq]) > ftol):
            return False
        return bool(np.all(res[~is_eq] >= -ftol))

    examined = 0
    verts: list[np.ndarray] = []
    for S in combinations(range(R), d):
        examined += 1
        A_S = rows[list(S)]
        try:
            z = np.linalg.solve(A_S, rhs[list(S)])
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(z)):
            continue
        if np.max(np.abs(A_S @ z - rhs[list(S)])) > ftol * (1.0 + float(np.max(np.abs(z)))):
            continue
        if feasible(z):
            verts.append(z)

    if not verts:
        return LpSolution("infeasible", None, np.nan, examined, np.nan)

    ctol = OPTIMALITY_TOL * (1.0 + float(np.max(np.abs(c))))
    if k and np.max(np.abs(c @ lin)) > ctol:
        return LpSolution("unbounded", None, -np.inf, examined, np.nan)

    def improving_ray(w: np.ndarray) -> bool:
        prods = rows @ w
        if np.any(np.abs(prods[is_eq]) > ftol):
            return False
        if not np.all(prods[~is_eq] >= -ftol):
            return False
        return float(c @ w) < -ctol

    for S in combinations(range(R), d - 1):
        examined += 1
        A_S = rows[list(S)] if S else np.zeros((0, d))
        ns = null_space(A_S) if A_S.size else np.eye(d)
        if A_S.size == 0 and d == 1:
            ns = np.eye(1)
        if ns.shape[1] != 1:
            continue
        w = ns[:, 0]
        if improving_ray(w) or improving_ray(-w):
            return LpSolution("unbounded", None, -np.inf, examined, np.nan)

    objs = [float(c @ z) for z in verts]
    best = int(np.argmin(objs))
    z = verts[best]
    return LpSolution("optimal", z, objs[best], examined, lp.max_violation(z))


def _l1(v: np.ndarray) -> float:
    return float(np.abs(v).sum())


def nonconvex_oracle(ensemble: MeasurementEnsemble, y, s: int,
                     samples: int = 2000, seed: int = 0) -> np.ndarray:
    """Approximate the sphere-constrained l1 minimizer over the feasible cone.

    Rejection-samples unit vectors consistent with y (a mix of s-sparse and
    dense Gaussian proposals, both orientations), then refines the best few
    by coordinate descent: zero or shrink one coordinate, renormalize, keep
    the move when consistency survives and the l1 norm drops.  Small-n
    reference only; the cone fraction shrinks exponentially with m.

    Raises:
        ValueError: n > 16, or no consistent sample found
            ("empty feasible cone sample").
    """
    A = as_rows(ensemble)
    m, n = A.shape
    if n > 16:
        raise ValueError("nonconvex oracle is limited to n <= 16")
    if samples < 1:
        raise ValueError("need at least one sample")
    y = np.asarray(y, dtype=np.float64).ravel()
    nzmask = y != 0.0
    A_nz = A[nzmask]
    y_nz = y[nzmask]

    def consistent(v: np.ndarray) -> bool:
        if A_nz.shape[0] == 0:
            return True
        return bool(np.min(y_nz * (A_nz @ v)) >= 0.0)

    # proposal bank: even indices dense Gaussian, odd indices s-sparse
    dense = normal_grid(derive_seed(seed, 1), samples, n)
    pick = uniform_grid(derive_seed(seed, 2), samples, n)
    sb = max(1, min(int(s), n))
    V = dense.copy()
    odd = np.arange(samples) % 2 == 1
    keep = np.argsort(pick[odd], axis=1, kind="stable")[:, :sb]
    sparse_rows = np.zeros((int(odd.sum()), n))
    np.put_along_axis(sparse_rows, keep, np.take_along_axis(dense[odd], keep, axis=1), axis=1)
    V[odd] = sparse_rows
    V /= np.linalg.norm(V, axis=1, keepdims=True)

    found: list[np.ndarray] = []
    if A_nz.shape[0] == 0:
        found = [V[i] for i in range(min(samples, 8))]
    else:
        G = y_nz[:, None] * (A_nz @ V.T)
        mins = G.min(axis=0)
        for i in np.flatnonzero(mins >= 0.0):
            found.append(V[i])
        for i in np.flatnonzero((-G).min(axis=0) >= 0.0):
            found.append(-V[i])
    if not found:
        raise ValueError("empty feasible cone sample")

    found.sort(key=_l1)
    best = None
    for v0 in found[:5]:
        v = _coordinate_descent(v0.copy(), consistent)
        if best is None or _l1(v) < _l1(best):
            best = v
    return best


def _coordinate_descent(v: np.ndarray, consistent, max_passes: int = 60) -> np.ndarray:
    """Greedy l1 descent on the unit sphere by per-coordinate shrink moves."""
    for _ in range(max_passes):
        improved = False
        order = np.argsort(np.abs(v), kind="stable")
        for j in order:
            if v[j] == 0.0:
                continue
            base = _l1(v)
            for factor in (0.0, 0.5, 0.9):
                w = v.copy()
                w[j] *= factor
                norm = np.linalg.norm(w)
                if norm == 0.0:
                    continue
                w /= norm
                if _l1(w) < base - 1e-15 and consistent(w):
                    v = w
                    improved = True
                    break
        if not improved:
            break
    return v


def _full_pivot(T: np.ndarray, r: np.ndarray, rpiv: int, cpiv: int) -> None:
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


def _full_reduced_costs(T: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Cost row [reduced costs | -objective] for the current basis."""
    K = T.shape[1] - 1
    cb = cost[basis]
    r = np.empty(K + 1)
    r[:K] = cost[:K] - cb @ T[:, :K]
    r[K] = -cb @ T[:, K]
    return r


def _full_simplex(T: np.ndarray, basis: np.ndarray, cost: np.ndarray,
                  itmax: int) -> tuple[str, int]:
    """Run pivots until optimality, unboundedness, or the iteration cap.

    Dantzig pricing with lowest-index tie-breaks; switches to Bland's rule
    after FULL_STALL_LIMIT consecutive degenerate pivots, back on progress.
    """
    K = T.shape[1] - 1
    r = _full_reduced_costs(T, basis, cost)
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
        _full_pivot(T, r, rpiv, cpiv)
        basis[rpiv] = cpiv
        iters += 1
        refresh += 1
        if refresh >= FULL_REFRESH_PIVOTS:
            # recompute the cost row from the basis to shed pivot roundoff
            r[:] = _full_reduced_costs(T, basis, cost)
            refresh = 0
        if gain <= 1e-12 * (1.0 + abs(r[K])):
            stall += 1
            if stall >= FULL_STALL_LIMIT:
                bland = True
        else:
            stall = 0
            bland = False
    return "iteration_limit", iters


def full_tableau_solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve an LP that z = 0 satisfies with a one-phase dense simplex.

    Raises ValueError unless every ineq_rhs is <= 0.  The returned primal
    and row multipliers are recomputed from the final basis with one linear
    solve each against the original standard-form data (B w = b and
    B^T pi = c_B), so accumulated tableau roundoff does not leak into the
    reported vertex.
    """
    if np.any(lp.ineq_rhs > 0.0):
        raise ValueError("solve_lp needs an LP feasible at z = 0: "
                         "every ineq_rhs must be <= 0")
    c = lp.objective
    d = lp.num_vars

    # standard form, every row negated: row i reads -a_i z + s_i = -f_i with
    # surplus s_i >= 0, so the all-surplus basis is feasible.  Tableau
    # columns: z, surplus, rhs
    Z = -lp.ineq_lhs   # the unpivoted z columns
    M = Z.shape[0]
    b = -lp.ineq_rhs
    N = d + M
    basis = d + np.arange(M)
    T = np.zeros((M, N + 1), order="F")
    T[:, :d] = Z
    T[np.arange(M), np.arange(d, N)] = 1.0
    T[:, N] = b
    cost = np.zeros(N)
    cost[:d] = c
    status, iters = _full_simplex(T, basis, cost, ToleranceConfig().iteration_factor * (M + N))
    if status != "optimal":
        value = -np.inf if status == "unbounded" else np.nan
        return LpSolution(status, None, value, iters, np.nan)

    # clean vertex and multipliers: re-solve the basis systems B w = b and
    # B^T pi = c_B against the unpivoted data.  A basic surplus is a
    # zero-cost unit column on its own row, so both systems reduce to the
    # block of the basic z columns on the rows whose surplus is nonbasic;
    # undoing the row negation gives the multipliers of the rows >= form
    unit = basis >= d
    cols = basis[~unit]
    rows = np.ones(M, dtype=bool)
    rows[basis[unit] - d] = False
    block = Z[np.ix_(rows, cols)]
    z = np.zeros(d)
    z[cols] = _solve_square(block, b[rows])
    pi = np.zeros(M)
    pi[rows] = _solve_square(block.T, cost[cols])
    return LpSolution("optimal", z, float(c @ z), iters, max_violation(lp, z), -pi)


def reference_recovery_lp(ensemble: MeasurementEnsemble, y) -> LinearProgram:
    """The recovery dual LP of recovery.build_recovery_lp, assembled row-major.

    W stacks y_i a_i (a_i where y_i = 0), g = (1/m) sum over y_i != 0 of
    y_i a_i, and the rows are [G; -G] with G = [W^T | g | -W^T[:, y == 0]].
    """
    A = as_rows(ensemble)
    m, n = A.shape
    y = np.asarray(y, dtype=np.float64).ravel()
    nz = y != 0.0
    W = np.where(nz[:, None], y[:, None] * A, A)
    d = m + 1 + int(np.count_nonzero(~nz))
    rows = np.empty((2 * n, d))
    rows[:n, :m] = W.T
    rows[:n, m] = W[nz].sum(axis=0) / m
    np.negative(W[~nz].T, out=rows[:n, m + 1:])
    np.negative(rows[:n], out=rows[n:])
    c = np.zeros(d)
    c[m] = -1.0
    return LinearProgram(c, rows, np.full(2 * n, -1.0))


def contains(spec: SignalSetSpec, x) -> bool:
    """Membership in K(spec.n, spec.s), with 1e-9 slack on both norm bounds."""
    v = np.asarray(x, dtype=np.float64)
    if v.shape != (spec.n,):
        return False
    if np.linalg.norm(v) > 1.0 + 1e-9:
        return False
    return float(np.abs(v).sum()) <= np.sqrt(spec.s) + 1e-9


def hard_threshold(x, t: int) -> np.ndarray:
    """Keep the t largest-magnitude entries of x, zeroing the rest.

    Ties in magnitude are resolved toward the lowest index, so the result
    is deterministic.  For any x with ||x||_1 <= sqrt(s) the tail obeys
    ||x - hard_threshold(x, t)||_2 <= sqrt(s / t).
    """
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("expected a vector")
    if t < 1:
        raise ValueError("threshold size t must be at least 1")
    order = np.argsort(-np.abs(v), kind="stable")
    out = np.zeros_like(v)
    keep = order[:t]
    out[keep] = v[keep]
    return out


def block_decompose(x, s: int) -> list[np.ndarray]:
    """Split x in K(n, s) into disjoint blocks of at most s coordinates each.

    Blocks are taken in decreasing magnitude order (ties toward the lowest
    index): the first block holds the s largest entries, the next the
    following s, and so on over the support.  The blocks sum to x exactly,
    and for members of K(n, s) the block l2 norms sum to at most 2.

    Raises
    ------
    ValueError
        If s is out of range or x lies outside K(n, s) ("not in K").
    """
    v = np.asarray(x, dtype=np.float64)
    n = v.shape[0]
    spec = SignalSetSpec(n, s)   # rejects s outside [1, n]
    if not contains(spec, v):
        raise ValueError("not in K")
    support = np.flatnonzero(v)
    order = support[np.argsort(-np.abs(v[support]), kind="stable")]
    blocks = np.zeros((max(1, -(-order.size // s)), n))
    blocks[np.arange(order.size) // s, order] = v[order]
    return list(blocks)
