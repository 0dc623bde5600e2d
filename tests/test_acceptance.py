"""Acceptance suite: the ten headline properties at their stated tolerances.

Each criterion is one test that prints a single pass/fail summary line with
the measured numbers, then asserts.  Criteria 4 and 5 share one 100-trial
sweep (n=128) through a module fixture; everything else builds its own data.
"""

import time

import numpy as np
import pytest

from onebit.geometry import (
    SignalSetSpec,
    sample_sphere_cap,
    separation_count,
    sign_pattern_cells,
    single_hyperplane_separation_prob,
    tessellate_and_report,
    tessellation_points,
    tessellation_rows,
)
from onebit.harness import (
    ROOT_TWO_OVER_PI,
    run_sweep,
    verify_bernoulli_counterexample,
    verify_concentration,
)
from onebit.measurement import (
    gen_gaussian_ensemble,
    gen_sparse_signal,
    sign_quantize,
    uniform_grid,
)
from onebit.recovery import recover, recovery_error
from oracles import (
    block_decompose,
    brute_force_vertex_solve,
    hard_threshold,
    random_small_lp,
    solve_general,
)

SWEEP_MS = (100, 200, 400, 800)


def report(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


def solve_instance(n, s, m, seed):
    x = gen_sparse_signal(n, s, seed=seed)
    ens = gen_gaussian_ensemble(m, n, seed=seed + 10 ** 6)
    y = sign_quantize(ens.rows @ x)
    return x, ens, y, recover(ens, y)


@pytest.fixture(scope="module")
def big_sweep():
    t0 = time.perf_counter()
    rows = run_sweep(n=128, s=4, m_list=list(SWEEP_MS), trials=25, seed=42)
    return rows, time.perf_counter() - t0


def test_criterion_01_lp_oracle_equivalence():
    t0 = time.perf_counter()
    agree = 0
    worst = 0.0
    statuses = {"optimal": 0, "unbounded": 0}
    for seed in range(100):
        prob = random_small_lp(seed)
        got = solve_general(prob)
        want = brute_force_vertex_solve(prob)
        if got.status != want.status:
            continue
        statuses[got.status] += 1
        if got.status == "optimal":
            worst = max(worst, abs(got.objective_value - want.objective_value))
            if abs(got.objective_value - want.objective_value) > 1e-8:
                continue
        agree += 1
    elapsed = time.perf_counter() - t0
    ok = agree == 100 and elapsed < 10.0
    report(1, "LP oracle equivalence", ok,
           f"agree {agree}/100 ({statuses}), worst objective gap {worst:.2e}, "
           f"{elapsed:.2f}s")
    assert agree == 100
    assert elapsed < 10.0


def test_criterion_02_feasibility_and_tightness():
    worst_prod = np.inf
    worst_tight = 0.0
    solves = 0
    for n, s, m, reps in ((16, 2, 40, 6), (32, 3, 60, 6), (64, 3, 160, 4),
                          (128, 4, 100, 2), (128, 4, 800, 1)):
        for rep in range(reps):
            _, ens, y, res = solve_instance(n, s, m, seed=900 + 37 * rep + n)
            prods = y * (ens.rows @ res.x_hat)
            worst_prod = min(worst_prod, float(prods.min()))
            worst_tight = max(worst_tight, abs(prods.sum() / m - 1.0))
            solves += 1
    ok = worst_prod >= -1e-6 and worst_tight <= 1e-6
    report(2, "feasibility and tightness", ok,
           f"{solves} solves up to n=128 m=800, min y<a,x> = {worst_prod:.2e}, "
           f"max normalization residual {worst_tight:.2e}")
    assert worst_prod >= -1e-6
    assert worst_tight <= 1e-6


def test_criterion_03_vertex_certificate():
    t0 = time.perf_counter()
    ok_count = 0
    worst_kernel = 0.0
    for seed in range(50):
        _, _, _, res = solve_instance(32, 3, 60, seed=seed)
        cert = res.certificate
        if cert.cardinality_ok:
            ok_count += 1
            rel = cert.kernel_residual / np.linalg.norm(res.x_hat)
            worst_kernel = max(worst_kernel, rel)
            assert rel <= 1e-6
    elapsed = time.perf_counter() - t0
    ok = ok_count >= 45 and elapsed < 60.0
    report(3, "vertex certificate", ok,
           f"cardinality_ok {ok_count}/50, worst relative kernel residual "
           f"{worst_kernel:.2e}, {elapsed:.1f}s")
    assert ok_count >= 45
    assert elapsed < 60.0


def test_criterion_04_recovery_trend(big_sweep):
    rows, elapsed = big_sweep
    medians = [float(np.median([r.error for r in rows if r.m == m]))
               for m in SWEEP_MS]
    decreasing = all(a > b for a, b in zip(medians, medians[1:]))
    ok = decreasing and medians[-1] <= 0.5 and elapsed < 600.0
    report(4, "recovery error trend", ok,
           "medians " + " > ".join(f"{v:.4f}" for v in medians)
           + f", sweep {elapsed:.1f}s")
    assert decreasing, medians
    assert medians[-1] <= 0.5
    assert elapsed < 600.0


def test_criterion_05_effective_sparsity_preservation(big_sweep):
    rows, _ = big_sweep
    n = 128
    fitted = 0.0
    ok = True
    parts = []
    for m in SWEEP_MS:
        factor = np.sqrt(np.log(2 * n / m + 2 * m / n))
        sub = [r for r in rows if r.m == m]
        med_out = float(np.median([r.l1l2_ratio_out for r in sub]))
        med_in = float(np.median([r.l1l2_ratio_in for r in sub]))
        bound = 3.0 * med_in * factor
        fitted = max(fitted, med_out / (med_in * factor))
        ok = ok and med_out <= bound
        parts.append(f"m={m}: {med_out:.2f}<={bound:.2f}")
        assert med_out <= bound
    report(5, "effective sparsity preservation", ok,
           "; ".join(parts) + f"; fitted constant {fitted:.2f}")


def test_criterion_06_concentration():
    t0 = time.perf_counter()
    rep = verify_concentration(64, 20000, trials=100, t=0.02, seed=7)
    elapsed = time.perf_counter() - t0
    mean_gap = abs(rep.mean_abs_moment - ROOT_TWO_OVER_PI)
    ok = rep.exceedance_fraction <= 0.01 and mean_gap <= 0.005 and elapsed < 30.0
    report(6, "concentration of the first absolute moment", ok,
           f"exceedance {rep.exceedance_fraction:.3f}, mean "
           f"{rep.mean_abs_moment:.5f} (target {ROOT_TWO_OVER_PI:.5f}), "
           f"{elapsed:.1f}s")
    assert rep.exceedance_fraction <= 0.01
    assert mean_gap <= 0.005
    assert elapsed < 30.0


def test_criterion_07_single_hyperplane_separation():
    trials = 100000
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    p_orth = single_hyperplane_separation_prob(e1, e2, trials, seed=5, margin=0.0)
    p_anti = single_hyperplane_separation_prob(e1, -e1, trials, seed=6, margin=0.0)
    margin_ok = True
    margin_parts = []
    for delta in (0.5, 1.0):
        c = 1.0 - delta ** 2 / 2.0
        y = np.array([c, np.sqrt(1.0 - c * c), 0.0])
        est = single_hyperplane_separation_prob(e1, y, trials, seed=8,
                                                margin=np.linalg.norm(e1 - y) / 12.0)
        sigma = np.sqrt(max(est * (1.0 - est), 1e-12) / trials)
        margin_ok = margin_ok and est >= delta / 12.0 - 3.0 * sigma
        margin_parts.append(f"delta={delta}: {est:.4f}>={delta / 12.0:.4f}-3sig")
        assert est >= delta / 12.0 - 3.0 * sigma
    ok = abs(p_orth - 0.25) <= 0.01 and abs(p_anti - 0.5) <= 0.01 and margin_ok
    report(7, "single hyperplane separation", ok,
           f"orthogonal {p_orth:.4f} (0.25), antipodal {p_anti:.4f} (0.5), "
           + ", ".join(margin_parts))
    assert abs(p_orth - 0.25) <= 0.01
    assert abs(p_anti - 0.5) <= 0.01


def test_criterion_08_tessellation_refinement():
    spec = SignalSetSpec(32, 2, "effectively_sparse")
    seed = 12
    ms = (50, 100, 200, 400)
    reports = [tessellate_and_report(spec, m, 0.5, 500, seed) for m in ms]
    X = tessellation_points(spec, 500, seed)
    A = tessellation_rows(spec, 400, seed)
    labels = [sign_pattern_cells(X, A[:m]) for m in ms]

    refines = True
    for coarse, fine in zip(labels, labels[1:]):
        for cid in range(fine.max() + 1):
            members = np.flatnonzero(fine == cid)
            if np.unique(coarse[members]).size != 1:
                refines = False

    lbs = [r.max_cell_diameter_lb for r in reports]
    shrinks = all(a >= b for a, b in zip(lbs, lbs[1:]))

    # margin-0 separation of every far pair under the full 400 rows
    G = X @ A.T
    gram = X @ X.T
    d2 = np.add.outer(np.diag(gram), np.diag(gram)) - 2.0 * gram
    pi, pj = np.nonzero(np.triu(np.sqrt(np.maximum(d2, 0.0)) > 0.5, k=1))
    sep = ((G[pi] > 0) & (G[pj] < 0)) | ((G[pi] < 0) & (G[pj] > 0))
    min_sep = int(sep.sum(axis=1).min()) if pi.size else -1
    ok = refines and shrinks and min_sep >= 1
    report(8, "tessellation refinement and shrinkage", ok,
           f"cells {[r.nonempty_cells for r in reports]}, diameter lb "
           f"{[round(v, 3) for v in lbs]}, far pairs {pi.size}, "
           f"min margin-0 separators {min_sep}")
    assert refines
    assert shrinks, lbs
    assert pi.size > 0
    assert min_sep >= 1


def test_criterion_09_exact_geometry_properties():
    n, s, t = 64, 4, 16
    spec = SignalSetSpec(n, s, "effectively_sparse")
    X = sample_sphere_cap(spec, 1000, seed=3)
    # half the points move into the interior of K: membership is preserved
    radii = uniform_grid(777, 1000, 1)[:, 0]
    X[500:] *= radii[500:, None]
    net_bound = np.sqrt(s / t)
    net_fail = decomp_fail = 0
    for x in X:
        if np.linalg.norm(x - hard_threshold(x, t)) > net_bound:
            net_fail += 1
        blocks = block_decompose(x, s)
        total = np.zeros(n)
        seen = np.zeros(n, dtype=bool)
        okb = True
        for b in blocks:
            support = b != 0
            okb = okb and support.sum() <= s and not np.any(seen & support)
            seen |= support
            total = total + b
        if not (okb and np.array_equal(total, x)
                and sum(np.linalg.norm(b) for b in blocks) <= 2.0 + 1e-12):
            decomp_fail += 1
    ok = net_fail == 0 and decomp_fail == 0
    report(9, "exact geometry properties", ok,
           f"1000 points of K(64,4): net bound failures {net_fail}, "
           f"decomposition failures {decomp_fail}")
    assert net_fail == 0
    assert decomp_fail == 0


def test_criterion_10_bernoulli_counterexample():
    total = identical = 0
    differs = True
    for m in (100, 1000, 10000):
        rep = verify_bernoulli_counterexample(n=32, m=m, num_seeds=20, seed=1)
        identical += sum(rep.identical_per_seed)
        total += len(rep.identical_per_seed)
        differs = differs and rep.gaussian_differs
    ok = identical == total and differs
    report(10, "bernoulli counterexample", ok,
           f"identical sign patterns {identical}/{total} over m in "
           f"{{100, 1000, 10000}}, gaussian rows distinguish: {differs}")
    assert identical == total
    assert differs
