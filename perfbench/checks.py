"""Correctness checks on onebit's outputs, computed apart from onebit's code paths.

Each check returns a list of problems; an empty list means the output
passed.  Recovery is checked against scipy's HiGHS on an LP the benchmark
assembles itself, tessellations against direct recounts, and the verify
reports against the method's own properties.
"""

from __future__ import annotations

import re

import numpy as np
from scipy.optimize import linprog
from scipy.spatial.distance import pdist

from onebit.measurement import derive_seed, gen_bernoulli_ensemble, gen_gaussian_ensemble
from onebit.recovery import NORMALIZATION_TOL

ROOT_TWO_OVER_PI = float(np.sqrt(2.0 / np.pi))
L1_REL_TOL = 1e-6      # ||x_hat||_1 against the HiGHS optimum
SIGN_REL_TOL = 1e-9    # |<a_i, x_hat>| below this times ||a_i|| ||x_hat|| counts as 0
MOMENT_TOL = 0.005     # mean |<a, x>| against sqrt(2/pi)


def l1_optimum(A: np.ndarray, y: np.ndarray) -> float:
    """Optimum of the paper's LP, solved by HiGHS.

    minimize ||x||_1 subject to y_i <a_i, x> >= 0 where y_i != 0,
    <a_i, x> = 0 where y_i = 0, and (1/m) sum_i y_i <a_i, x> = 1,
    posed on x = p - q with p, q >= 0.
    """
    m, n = A.shape
    nz = y != 0
    B = y[nz, None] * A[nz]
    norm_row = B.sum(axis=0) / m
    A_eq = np.vstack([np.concatenate([norm_row, -norm_row])[None, :],
                      np.hstack([A[~nz], -A[~nz]])])
    b_eq = np.zeros(A_eq.shape[0])
    b_eq[0] = 1.0
    res = linprog(np.ones(2 * n), A_ub=np.hstack([-B, B]), b_ub=np.zeros(B.shape[0]),
                  A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return float(res.fun)


def direction_error(x_hat: np.ndarray, x_true: np.ndarray) -> float:
    return float(np.linalg.norm(x_hat / np.linalg.norm(x_hat)
                                - x_true / np.linalg.norm(x_true)))


def check_trial(A: np.ndarray, y, x_true: np.ndarray, x_hat: np.ndarray) -> list[str]:
    """One recovery trial: signs of A x_true, sign consistency, tight
    normalization, and ||x_hat||_1 equal to the HiGHS optimum."""
    y = np.asarray(y, dtype=np.float64)
    m = A.shape[0]
    problems = []
    if not np.array_equal(y, np.sign(A @ x_true)):
        problems.append("the signs passed to recover are not sign(A x)")
    prods = A @ x_hat
    zero = SIGN_REL_TOL * np.linalg.norm(A, axis=1) * np.linalg.norm(x_hat)
    nz = y != 0
    if np.any(y[nz] * prods[nz] < -zero[nz]) or np.any(np.abs(prods[~nz]) > zero[~nz]):
        problems.append("x_hat is not sign-consistent with y")
    tight = float((y * prods).sum() / m)
    if not abs(tight - 1.0) <= NORMALIZATION_TOL:
        problems.append(f"normalization row is {tight!r}, not 1 within {NORMALIZATION_TOL}")
    l1 = float(np.abs(x_hat).sum())
    try:
        opt = l1_optimum(A, y)
    except RuntimeError as exc:
        return problems + [str(exc)]
    if not abs(l1 - opt) <= L1_REL_TOL * opt:
        problems.append(f"||x_hat||_1 = {l1!r} but the HiGHS optimum is {opt!r}")
    return problems


def check_error_trend(small_m_errors, large_m_errors) -> list[str]:
    """The paper's outcome: the median error falls as m grows."""
    lo, hi = float(np.median(small_m_errors)), float(np.median(large_m_errors))
    if not hi < lo:
        return [f"median error at the largest m ({hi:.4g}) is not below "
                f"that at the smallest m ({lo:.4g})"]
    return []


def recount_tessellation(X: np.ndarray, A: np.ndarray, delta: float, margin: float) -> dict:
    """Cells, pairs beyond delta, and per-pair separating-row counts, counted directly."""
    G = X @ A.T
    patterns, labels = np.unique(np.sign(G), axis=0, return_inverse=True)
    labels = labels.ravel()
    dist = pdist(X)                              # pairs i < j in row-major order
    iu, ju = np.triu_indices(X.shape[0], k=1)
    beyond = dist > delta
    above = (G > margin).astype(np.float64)
    below = (G < -margin).astype(np.float64)
    counts = above @ below.T                     # exact: 0/1 sums below 2**53
    same = labels[iu] == labels[ju]
    return {
        "cells": patterns.shape[0],
        "diameter": float(dist[same].max()) if np.any(same) else 0.0,
        "pair_i": iu[beyond],
        "pair_j": ju[beyond],
        "fwd": counts[iu[beyond], ju[beyond]].astype(np.int64),
        "rev": counts[ju[beyond], iu[beyond]].astype(np.int64),
    }


def check_report(X, s: float, recount: dict, cells: int, diameter: float,
                 pair_i, pair_j, fwd, rev) -> list[str]:
    """One tessellation report against the recount of its points and rows."""
    problems = []
    norms = np.linalg.norm(X, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9) or np.any(np.abs(X).sum(axis=1) > np.sqrt(s) + 1e-9):
        problems.append("a sampled point is not a unit vector with ||x||_1 <= sqrt(s)")
    if cells != recount["cells"]:
        problems.append(f"{cells} nonempty cells reported, {recount['cells']} counted")
    if not abs(diameter - recount["diameter"]) <= 1e-6:   # Gram-based distances lose ~1e-8 near 0
        problems.append(f"max_cell_diameter_lb {diameter!r}, counted {recount['diameter']!r}")
    if len(pair_i) != len(recount["pair_i"]):
        problems.append(f"{len(pair_i)} pairs beyond delta reported, "
                        f"{len(recount['pair_i'])} counted")
    elif not (np.array_equal(pair_i, recount["pair_i"]) and np.array_equal(pair_j, recount["pair_j"])):
        problems.append("the pairs beyond delta are not the counted ones")
    elif not (np.array_equal(fwd, recount["fwd"]) and np.array_equal(rev, recount["rev"])):
        problems.append("separating-row counts differ from a direct count")
    return problems


_TESS_LINE = re.compile(r"m=(\d+) cells=(\d+) max_cell_diameter_lb=([0-9.]+) "
                        r"pairs>[0-9.]+=(\d+) min_sep=\((\d+),(\d+)\)")


def check_tessellate_output(text: str, recounts: list[tuple[int, dict]]) -> list[list[str]]:
    """The lines `onebit tessellate` printed, one problem list per (m, recount)."""
    lines = _TESS_LINE.findall(text)
    out = []
    for k, (m, rc) in enumerate(recounts):
        if k >= len(lines):
            out.append([f"no printed line for m={m}"])
            continue
        pm, cells, diam, pairs, min_fwd, min_rev = lines[k]
        want_fwd = int(rc["fwd"].min()) if rc["fwd"].size else 0
        want_rev = int(rc["rev"].min()) if rc["rev"].size else 0
        problems = []
        if (int(pm), int(cells), int(pairs)) != (m, rc["cells"], rc["pair_i"].size):
            problems.append(f"printed m/cells/pairs {pm}/{cells}/{pairs} differ from the recount")
        if not abs(float(diam) - rc["diameter"]) <= 5.1e-5:
            problems.append(f"printed max_cell_diameter_lb {diam} differs from the recount")
        if (int(min_fwd), int(min_rev)) != (want_fwd, want_rev):
            problems.append(f"printed min_sep ({min_fwd},{min_rev}) but the direct count "
                            f"gives ({want_fwd},{want_rev})")
        out.append(problems)
    return out


def check_nested(summaries: list[tuple[int, int, float]]) -> list[list[str]]:
    """Reports at increasing m on nested row prefixes: cells never decrease and
    the cell diameter bound never increases.  One problem list per report."""
    out = [[]]
    for (m0, c0, d0), (m1, c1, d1) in zip(summaries, summaries[1:]):
        problems = []
        if m1 > m0 and c1 < c0:
            problems.append(f"cells fell from {c0} to {c1} between m={m0} and m={m1}")
        if m1 > m0 and d1 > d0:
            problems.append(f"diameter bound rose from {d0} to {d1} between m={m0} and m={m1}")
        out.append(problems)
    return out


def check_concentration(mean_abs_moment: float) -> list[str]:
    if not abs(mean_abs_moment - ROOT_TWO_OVER_PI) <= MOMENT_TOL:
        return [f"mean_abs_moment {mean_abs_moment!r} is not within {MOMENT_TOL} of sqrt(2/pi)"]
    return []


def check_bernoulli(report, n: int, m: int, trials: int, seed: int) -> list[str]:
    """The +-1 pair x = e1, x' = e1 + e2/2 has one sign pattern at every seed,
    and Gaussian rows tell it apart; the first seed and the Gaussian rows are
    recomputed here."""
    problems = []
    if len(report.seeds) != trials or not all(report.identical_per_seed) \
            or not report.all_identical:
        problems.append("the +-1 pair is not reported identical at every seed")
    if not report.gaussian_differs:
        problems.append("Gaussian rows are not reported to tell the pair apart")
    x = np.zeros(n)
    x[0] = 1.0
    xp = x.copy()
    xp[1] = 0.5
    rows = gen_bernoulli_ensemble(m, n, report.seeds[0]).rows
    if not np.all(np.abs(rows) == 1.0) or \
            not np.array_equal(np.sign(rows @ x), np.sign(rows @ xp)):
        problems.append("recount: the +-1 rows of the first seed tell the pair apart")
    grows = gen_gaussian_ensemble(m, n, derive_seed(seed, trials)).rows
    if np.array_equal(np.sign(grows @ x), np.sign(grows @ xp)):
        problems.append("recount: the Gaussian rows do not tell the pair apart")
    return problems


def check_separation(p_orth: float, p_anti: float, trials: int) -> list[str]:
    """Estimates within 5 sigma of 1/4 (orthogonal) and 1/2 (antipodal)."""
    sigma = 0.5 / np.sqrt(trials)
    problems = []
    if not abs(p_orth - 0.25) <= 5 * sigma:
        problems.append(f"orthogonal separation {p_orth} is not within 5 sigma of 1/4")
    if not abs(p_anti - 0.5) <= 5 * sigma:
        problems.append(f"antipodal separation {p_anti} is not within 5 sigma of 1/2")
    return problems
