"""Reference oracles that the tests check the solver and the recovery LP against.

brute_force_vertex_solve solves a tiny LP by enumerating candidate active
sets, so it shares no pivoting code with lp_core.solve_lp.  nonconvex_oracle
approximates the sphere-constrained l1 minimizer that the recovery LP
relaxes.  Both are small-instance references, not solvers.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy.linalg import null_space

from onebit.lp_core import (
    OPTIMALITY_TOL,
    LinearProgram,
    LpSolution,
    max_violation,
)
from onebit.measurement import MeasurementEnsemble, as_rows, derive_seed, normal_grid, uniform_grid

FEASIBILITY_TOL = 1e-8   # row residual, relative to 1 + max |rhs|, that counts as satisfied


def brute_force_vertex_solve(lp: LinearProgram) -> LpSolution:
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
    return LpSolution("optimal", z, objs[best], examined, max_violation(lp, z))


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
