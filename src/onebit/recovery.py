"""Recover a sparse signal's direction from one-bit sign measurements.

Given y = sign(A x), the convex program

    minimize ||x'||_1   subject to   y_i <a_i, x'> >= 0  where y_i != 0
                                     <a_i, x'> = 0       where y_i = 0
                                     (1/m) sum_i y_i <a_i, x'> >= 1

is solved through its LP dual.  With W the rows y_i a_i where y_i != 0 and
a_i where y_i = 0, and g = (1/m) sum_i y_i a_i, the dual is

    maximize t   subject to   -1 <= W^T w + t g <= 1   (2n rows)
                              t >= 0, w_i >= 0 where y_i != 0, other w_i free

A row <a_i, x'> = 0 is two opposite inequalities, so its free w_i is posed
as w_i+ - w_i-, and the LP has m + 1 + #zeros nonnegative variables with
columns [W^T | g | -W^T[:, y == 0]].  Every right-hand side is -1, so
z = 0 is feasible and the all-surplus basis is the start that solve_lp
requires.  x_hat is read back by complementary slackness as the multipliers
of the upper rows minus those of the lower rows.  The normalization is
posed as >= 1 and must be tight at the optimum (scaling the solution down
would otherwise lower the objective); tightness is asserted after the solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp_core import LinearProgram, LpSolution, ToleranceConfig, solve_lp
from .measurement import MeasurementEnsemble, as_rows

NORMALIZATION_TOL = 1e-6
SUPPORT_TOL = 1e-7
ACTIVE_ROW_TOL = 1e-7


class RecoveryError(RuntimeError):
    """Raised when the recovery LP fails to produce a usable vertex."""


@dataclass
class VertexCertificate:
    """Evidence that the LP solution sits on a vertex of the feasible set.

    At a nondegenerate optimal vertex the support T and the set Omega of
    rows active at zero satisfy |T| = |Omega| + 1, the active rows
    annihilate x_hat on T, and the normalization holds with equality.

    On active_rows, <a_i, x_hat> is 0 in exact arithmetic, so the computed
    A @ x_hat there is roundoff and its signs are arbitrary.  The sign
    pattern of x_hat itself is sign_quantize(A @ x_hat) with active_rows
    set to 0.

    Rows are counted as given: a duplicated active row is listed twice in
    active_rows, so cardinality_ok reads False at such a vertex.
    """

    support: np.ndarray            # indices with |x_hat_i| > SUPPORT_TOL
    active_rows: np.ndarray        # rows with |<a_i, x_hat>| <= ACTIVE_ROW_TOL * ||a_i|| * ||x_hat||
    cardinality_ok: bool           # |support| == |active_rows| + 1
    kernel_residual: float         # ||A_active[:, support] @ x_hat[support]||_2
    normalization_residual: float  # |(1/m) sum |<a_i, x_hat>| - 1|


@dataclass
class RecoveryResult:
    x_hat: np.ndarray              # l1 minimizer in R^n, the dual's row multipliers
    direction: np.ndarray          # x_hat / ||x_hat||_2
    l1_over_l2: float
    certificate: VertexCertificate
    lp_solution: LpSolution        # the solve of the dual LP


def build_recovery_lp(ensemble: MeasurementEnsemble, y) -> LinearProgram:
    """Assemble the dual of the sign-consistent l1 minimization LP.

    Variables are (w_1, ..., w_m, t), then one w_i- per zero sign y_i = 0
    in row order, all nonnegative; the dual's free w_i at a zero sign is
    w_i - w_i-.  The objective is -t.  Inequality rows, in order: the lower
    rows W^T w + t g >= -1, then the upper rows -(W^T w + t g) >= -1, one
    of each per coordinate of x (see the module docstring for W and g).

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
    # [G; -G] with G = [W^T | g | -W^T[:, y == 0]], column-major like the
    # tableau that solve_lp copies it into
    rows = np.empty((2 * n, d), order="F")
    W = rows[:n, :m].T
    np.multiply(A, np.where(nz, y, 1.0)[:, None], out=W)
    rows[:n, m] = W[nz].sum(axis=0) / m
    np.negative(W[~nz].T, out=rows[:n, m + 1:])
    np.negative(rows[:n], out=rows[n:])
    c = np.zeros(d)
    c[m] = -1.0
    return LinearProgram(c, rows, np.full(2 * n, -1.0))


def extract_certificate(ensemble: MeasurementEnsemble, x_hat) -> VertexCertificate:
    """Compute the vertex certificate for a candidate minimizer."""
    A = as_rows(ensemble)
    m = A.shape[0]
    x_hat = np.asarray(x_hat, dtype=np.float64)
    x_norm = float(np.linalg.norm(x_hat))
    prods = A @ x_hat
    row_norms = np.linalg.norm(A, axis=1)
    support = np.flatnonzero(np.abs(x_hat) > SUPPORT_TOL)
    active = np.flatnonzero(np.abs(prods) <= ACTIVE_ROW_TOL * row_norms * x_norm)
    # 0.0 when either index set is empty
    kernel_residual = float(np.linalg.norm(A[np.ix_(active, support)] @ x_hat[support]))
    normalization_residual = float(abs(np.abs(prods).sum() / m - 1.0)) if m else np.nan
    return VertexCertificate(
        support=support,
        active_rows=active,
        cardinality_ok=support.size == active.size + 1,
        kernel_residual=kernel_residual,
        normalization_residual=normalization_residual,
    )


def constraint_violation(ensemble: MeasurementEnsemble, y, x) -> float:
    """Worst violation by x of the primal program's constraints.

    The largest of: -y_i <a_i, x> over rows with y_i != 0, |<a_i, x>| over
    rows with y_i = 0, and |(1/m) sum_i y_i <a_i, x> - 1|.
    """
    A = as_rows(ensemble)
    y = np.asarray(y, dtype=np.float64).ravel()
    prods = A @ np.asarray(x, dtype=np.float64)
    nz = y != 0.0
    return max(float(np.max(-y[nz] * prods[nz], initial=0.0)),
               float(np.max(np.abs(prods[~nz]), initial=0.0)),
               abs(float(y @ prods) / A.shape[0] - 1.0))


def recover(ensemble: MeasurementEnsemble, y,
            tol: ToleranceConfig | None = None) -> RecoveryResult:
    """Solve the recovery LP and package the minimizer with its certificate.

    On certificate.active_rows, A @ x_hat is roundoff around 0.  To re-solve
    from x_hat's own sign pattern, take sign_quantize(A @ x_hat) and set
    those rows to 0; that LP is this one restricted to <a_i, x'> = 0 on the
    active rows, so x_hat stays optimal and, at a unique optimum, the same
    vertex comes back.

    Raises:
        ValueError: the ensemble has no rows, y is not a sign pattern of
            matching length, or every sign is zero (see build_recovery_lp).
        RecoveryError: LP not optimal (status "unbounded" means no x is
            consistent with y), or normalization row not tight at the
            returned vertex.
    """
    A = as_rows(ensemble)
    m, n = A.shape
    lp = build_recovery_lp(ensemble, y)
    sol = solve_lp(lp, tol)
    if sol.status != "optimal":
        raise RecoveryError(f"recovery LP terminated with status {sol.status}")
    x_hat = sol.multipliers[n:] - sol.multipliers[:n]
    yf = np.asarray(y, dtype=np.float64).ravel()
    tightness = float((yf * (A @ x_hat)).sum() / m)
    # x_hat = 0 reads 0 here, and a NaN x_hat fails the comparison
    if not abs(tightness - 1.0) <= NORMALIZATION_TOL:
        raise RecoveryError("normalization not tight")
    x_norm = float(np.linalg.norm(x_hat))
    direction = x_hat / x_norm
    l1_over_l2 = float(np.abs(x_hat).sum() / x_norm)
    cert = extract_certificate(ensemble, x_hat)
    return RecoveryResult(x_hat, direction, l1_over_l2, cert, sol)


def recovery_error(direction, x_true) -> float:
    """Euclidean distance between unit-normalized estimate and truth.

    Both arguments are normalized first, so magnitudes play no role; one-bit
    measurements carry no magnitude information.
    """
    u = np.asarray(direction, dtype=np.float64)
    v = np.asarray(x_true, dtype=np.float64)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return float(np.linalg.norm(u / nu - v / nv))
