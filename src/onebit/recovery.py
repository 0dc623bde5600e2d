"""Recover a sparse signal's direction from one-bit sign measurements.

Given y = sign(A x), the convex program

    minimize ||x'||_1   subject to   y_i <a_i, x'> >= 0  where y_i != 0
                                     <a_i, x'> = 0       where y_i = 0
                                     (1/m) sum_i y_i <a_i, x'> >= 1

is solved through its LP dual.  With W the rows y_i a_i where y_i != 0 and
a_i where y_i = 0, and g = (1/m) sum_i y_i a_i, the dual is

    maximize t   subject to   -1 <= W^T w + t g <= 1   (n range rows)
                              t >= 0, w_i >= 0 where y_i != 0, other w_i free

A row <a_i, x'> = 0 is two opposite inequalities, so its free w_i is posed
as w_i+ - w_i-, and the LP has m + 1 + #zeros nonnegative variables with
columns [W^T | g | -W^T[:, y == 0]].  Every row's bounds are -1 and 1, so
z = 0 is feasible and the all-surplus basis is the start that solve_lp
requires.  x_hat is read back by complementary slackness from the signed
row multipliers: x_hat_i is minus row i's multiplier, positive where the
upper bound binds and negative where the lower one does.  The normalization
is posed as >= 1 and must be tight at the optimum (scaling the solution down
would otherwise lower the objective).  After the solve, x_hat is checked
against every primal constraint, the normalization row included, through
the certificate's max_violation, and the dual (w, t) is checked to prove it
optimal: (w, t) meets the dual's rows (dual_violation) and its objective t
equals ||x_hat||_1 (duality_gap), so by weak duality no feasible x' has a
smaller l1 norm.  recover refuses a vertex that fails either check.  The
certificate also records the vertex: x_hat's support T and the rows Omega
active at zero, with |T| = |Omega| + 1 at a nondegenerate vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp_core import LinearProgram, LpSolution, solve_lp
from .measurement import MeasurementEnsemble, as_rows

NORMALIZATION_TOL = 1e-6       # largest max_violation that recover accepts
DUALITY_TOL = 1e-9             # largest duality_gap and dual_violation that recover accepts
SUPPORT_TOL = 1e-7
ACTIVE_ROW_TOL = 1e-7


class RecoveryError(RuntimeError):
    """Raised when the recovery LP fails to produce a usable vertex."""


@dataclass
class VertexCertificate:
    """Evidence that the LP solution sits on a vertex of the feasible set.

    At a nondegenerate optimal vertex the support T and the set Omega of
    rows active at zero satisfy |T| = |Omega| + 1, which cardinality_ok
    records.  The active rows annihilate x_hat on T by their definition, up
    to ACTIVE_ROW_TOL and SUPPORT_TOL.

    On active_rows, <a_i, x_hat> is 0 in exact arithmetic, so the computed
    A @ x_hat there is roundoff and its signs are arbitrary.  The sign
    pattern of x_hat itself is sign_quantize(A @ x_hat) with active_rows
    set to 0.

    Rows are counted as given: a duplicated active row is listed twice in
    active_rows, so cardinality_ok reads False at such a vertex.

    max_violation is the largest of: -y_i <a_i, x_hat> over rows with
    y_i != 0, |<a_i, x_hat>| over rows with y_i = 0, and
    |(1/m) sum_i y_i <a_i, x_hat> - 1|.  It is never -0.0, and it is nan when
    x_hat holds a nan.  It also bounds the paper's normalization: the sign
    and zero-sign rows' violations move (1/m) ||A x_hat||_1 at most
    2 max_violation away from the tightness term, so
    |(1/m) ||A x_hat||_1 - 1| <= 3 max_violation.

    The last two fields prove x_hat optimal, from the dual solution (w, t)
    of the recovery LP: dual_violation is its worst violation of the dual's
    rows and bounds, and duality_gap is | ||x_hat||_1 - t | / t (+inf when
    t <= 0).  With max_violation, both near 0 mean that no feasible x' has a
    smaller l1 norm than x_hat, whatever the solver did.  Both are nan when
    no dual solution is given.
    """

    support: np.ndarray            # indices with |x_hat_i| > SUPPORT_TOL
    active_rows: np.ndarray        # rows with |<a_i, x_hat>| <= ACTIVE_ROW_TOL * ||a_i|| * ||x_hat||
    cardinality_ok: bool           # |support| == |active_rows| + 1
    max_violation: float           # worst violation of the primal constraints
    dual_violation: float = np.nan  # worst violation of the dual constraints by (w, t)
    duality_gap: float = np.nan    # | ||x_hat||_1 - t | / t


@dataclass
class RecoveryResult:
    x_hat: np.ndarray              # l1 minimizer in R^n, the dual's row multipliers
    direction: np.ndarray          # x_hat / ||x_hat||_2
    l1_over_l2: float
    certificate: VertexCertificate
    lp_solution: LpSolution        # the solve of the dual LP: primal is (w, t, w-)


def build_recovery_lp(ensemble: MeasurementEnsemble, y) -> LinearProgram:
    """Assemble the dual of the sign-consistent l1 minimization LP.

    Variables are (w_1, ..., w_m, t), then one w_i- per zero sign y_i = 0
    in row order, all nonnegative; the dual's free w_i at a zero sign is
    w_i - w_i-.  The objective is -t.  One range row per coordinate of x,
    -1 <= W^T w + t g <= 1 (see the module docstring for W and g): ineq_lhs
    is the n x (m + 1 + #zeros) matrix G = [W^T | g | -W^T[:, y == 0]],
    ineq_rhs is -1 and ineq_upper is 1.  x_hat is minus the rows' signed
    multipliers.

    Raises:
        ValueError: on an ensemble with no rows, on length mismatch, on an
            entry other than -1, 0 or 1 (NaN and inf included: y holds
            signs, not measurements), or when every sign is zero
            ("degenerate sign pattern": the primal's normalization row would
            be 0 >= 1).
    """
    A = as_rows(ensemble)
    m, n = A.shape
    if m < 1:
        raise ValueError("need at least one row")
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.shape[0] != m:
        raise ValueError("sign pattern length does not match ensemble rows")
    if not ((y == 0.0) | (np.abs(y) == 1.0)).all():
        raise ValueError("sign pattern entries must be -1, 0, or 1")
    nz = y != 0.0
    if not nz.any():
        raise ValueError("degenerate sign pattern")

    d = m + 1 + int(np.count_nonzero(~nz))
    # G = [W^T | g | -W^T[:, y == 0]], column-major like the tableau that
    # solve_lp copies it into
    G = np.empty((n, d), order="F")
    W = G[:, :m].T
    np.multiply(A, np.where(nz, y, 1.0)[:, None], out=W)
    G[:, m] = W[nz].sum(axis=0) / m
    np.negative(W[~nz].T, out=G[:, m + 1:])
    c = np.zeros(d)
    c[m] = -1.0
    return LinearProgram(c, G, np.full(n, -1.0), np.full(n, 1.0))


def extract_certificate(ensemble: MeasurementEnsemble, y, x_hat,
                        lp_solution: LpSolution | None = None) -> VertexCertificate:
    """Compute the vertex certificate of a candidate minimizer for signs y.

    A @ x_hat is computed once and gives both active_rows and max_violation.
    lp_solution, the optimal solve of build_recovery_lp(ensemble, y) that
    x_hat was read from, fills dual_violation and duality_gap.
    """
    A = as_rows(ensemble)
    m = A.shape[0]
    y = np.asarray(y, dtype=np.float64).ravel()
    x_hat = np.asarray(x_hat, dtype=np.float64)
    x_norm = float(np.linalg.norm(x_hat))
    prods = A @ x_hat
    row_norms = np.linalg.norm(A, axis=1)
    support = np.flatnonzero(np.abs(x_hat) > SUPPORT_TOL)
    active = np.flatnonzero(np.abs(prods) <= ACTIVE_ROW_TOL * row_norms * x_norm)
    tightness = float(y @ prods) / m if m else np.nan
    # np.max keeps a nan that Python's max would drop; + 0.0 turns -0.0 into 0.0
    max_violation = float(np.max(np.where(y != 0.0, -y * prods, np.abs(prods)),
                                 initial=abs(tightness - 1.0))) + 0.0
    dual_violation = duality_gap = np.nan
    if lp_solution is not None:
        dual_violation = lp_solution.max_constraint_violation
        t = float(lp_solution.primal[m])
        duality_gap = abs(float(np.abs(x_hat).sum()) - t) / t if t > 0.0 else np.inf
    return VertexCertificate(
        support=support,
        active_rows=active,
        cardinality_ok=support.size == active.size + 1,
        max_violation=max_violation,
        dual_violation=dual_violation,
        duality_gap=duality_gap,
    )


def recover(ensemble: MeasurementEnsemble, y, tol=None) -> RecoveryResult:
    """Solve the recovery LP and package the minimizer with its certificate.

    tol must be None.  It exists only because perfbench/selftest.py calls
    recover(ens, y, tol) positionally; it goes with benchmark v2.

    On certificate.active_rows, A @ x_hat is roundoff around 0.  To re-solve
    from x_hat's own sign pattern, take sign_quantize(A @ x_hat) and set
    those rows to 0; that LP is this one restricted to <a_i, x'> = 0 on the
    active rows, so x_hat stays optimal and, at a unique optimum, the same
    vertex comes back.

    Raises:
        TypeError: tol is not None.
        ValueError: the ensemble has no rows, y is not a sign pattern of
            matching length, or every sign is zero (see build_recovery_lp).
        RecoveryError: LP not optimal (status "unbounded" means no x is
            consistent with y); or the returned x_hat violates a primal
            constraint (sign, zero or normalization row) by more than
            NORMALIZATION_TOL: certificate.max_violation, nan included; or
            the dual does not prove it optimal: certificate.dual_violation or
            certificate.duality_gap above DUALITY_TOL, nan included.
    """
    if tol is not None:
        raise TypeError("recover takes no solver settings: tol must be None")
    lp = build_recovery_lp(ensemble, y)
    sol = solve_lp(lp)
    if sol.status != "optimal":
        raise RecoveryError(f"recovery LP terminated with status {sol.status}")
    # 0.0 - y, not -y: a row with no multiplier reads +0.0, not -0.0
    x_hat = 0.0 - sol.multipliers
    cert = extract_certificate(ensemble, y, x_hat, sol)
    # x_hat = 0 misses the normalization row by 1, and a nan fails the comparison
    if not cert.max_violation <= NORMALIZATION_TOL:
        raise RecoveryError(f"x_hat violates the primal constraints by {cert.max_violation:.3e}")
    if not (cert.dual_violation <= DUALITY_TOL and cert.duality_gap <= DUALITY_TOL):
        raise RecoveryError(f"the dual does not prove x_hat optimal: duality_gap="
                            f"{cert.duality_gap:.3e}, dual_violation={cert.dual_violation:.3e}")
    x_norm = float(np.linalg.norm(x_hat))
    direction = x_hat / x_norm
    l1_over_l2 = float(np.abs(x_hat).sum() / x_norm)
    return RecoveryResult(x_hat, direction, l1_over_l2, cert, sol)


def recovery_error(direction, x_true) -> float:
    """Euclidean distance between unit-normalized estimate and truth.

    Both arguments are normalized first, so magnitudes play no role; one-bit
    measurements carry no magnitude information.  Raises ValueError unless
    both have the same shape.
    """
    u = np.asarray(direction, dtype=np.float64)
    v = np.asarray(x_true, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"direction {u.shape} and x_true {v.shape} differ in shape")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return float(np.linalg.norm(u / nu - v / nv))
