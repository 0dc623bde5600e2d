"""Tests for the one-bit recovery LP, its certificate, and the oracle."""

import dataclasses

import numpy as np
import pytest
from scipy.optimize import linprog

import onebit.lp_core
import onebit.recovery
from onebit.harness import gen_instance
from onebit.lp_core import LpSolution, max_violation, solve_lp
from onebit.measurement import (
    MeasurementEnsemble,
    derive_seed,
    gen_gaussian_ensemble,
    gen_sparse_signal,
    sign_quantize,
)
from onebit.recovery import (
    DUALITY_TOL,
    RecoveryError,
    VertexCertificate,
    build_recovery_lp,
    extract_certificate,
    recover,
    recovery_error,
)
from oracles import (
    GeneralLP,
    brute_force_vertex_solve,
    nonconvex_oracle,
    reference_recovery_lp,
    two_row_form,
)


def make_instance(n, s, m, seed):
    x = gen_sparse_signal(n, s, seed=seed)
    ens = gen_gaussian_ensemble(m, n, seed=seed + 10000)
    y = sign_quantize(ens.rows @ x)
    return x, ens, y


def sweep_trial(seed, m, dist, mag, n=128, s=4, trial=0):
    """The instance `onebit sweep --seed seed --m m` solves as trial `trial`."""
    x, ens = gen_instance(n, s, m, derive_seed(seed, m, trial), dist, mag)
    return x, ens, sign_quantize(ens.rows @ x)


def highs_l1_optimum(A, y):
    """HiGHS optimum of the primal l1 program, posed on x = p - q with p, q >= 0."""
    m, n = A.shape
    nz = y != 0
    B = y[nz, None] * A[nz]
    g = B.sum(axis=0) / m
    A_eq = np.vstack([np.concatenate([g, -g])[None, :], np.hstack([A[~nz], -A[~nz]])])
    b_eq = np.zeros(A_eq.shape[0])
    b_eq[0] = 1.0
    res = linprog(np.ones(2 * n), A_ub=np.hstack([-B, B]), b_ub=np.zeros(B.shape[0]),
                  A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def assert_matches_highs(ens, y):
    res = recover(ens, y)
    want = highs_l1_optimum(ens.rows, y.astype(np.float64))
    assert abs(np.abs(res.x_hat).sum() - want) <= 1e-9 * want
    assert res.certificate.max_violation <= 1e-9
    # the dual vertex, split columns of the zero signs included, is feasible
    assert max_violation(build_recovery_lp(ens, y), res.lp_solution.primal) <= 1e-9
    return res


@pytest.mark.parametrize("seed, m, dist, mag", [
    # Gaussian rows: an iteration_limit, and a normalization that was not tight
    (167, 150, "gaussian", "unit_gaussian"),
    (1500005, 100, "gaussian", "unit_gaussian"),
    # +-1 rows, constant magnitudes: a normalization that was not tight, and
    # three solves of about 50,000 pivots
    (1007, 100, "bernoulli", "constant"),
    (33, 200, "bernoulli", "constant"),
    (40, 200, "bernoulli", "constant"),
    (100, 200, "bernoulli", "constant"),
])
def test_recover_former_solver_failures(seed, m, dist, mag):
    # sweep trials on which the free-variable simplex failed or stalled
    _, ens, y = sweep_trial(seed, m, dist, mag)
    res = assert_matches_highs(ens, y)
    assert res.lp_solution.iterations <= 100


@pytest.mark.parametrize("m", [100, 400, 800])
@pytest.mark.parametrize("dist, mag", [("gaussian", "unit_gaussian"),
                                       ("bernoulli", "constant")])
def test_recover_matches_highs_at_scale(m, dist, mag):
    for seed in (1, 2):
        _, ens, y = sweep_trial(seed, m, dist, mag)
        assert_matches_highs(ens, y)


@pytest.mark.parametrize("dist, mag, zero_every", [("gaussian", "unit_gaussian", 0),
                                                   ("gaussian", "unit_gaussian", 7),
                                                   ("bernoulli", "constant", 0)])
def test_lp_assembly_matches_reference(dist, mag, zero_every):
    # the column-major assembly writes the bytes of the row-major one; the
    # +-1 rows have zero signs of their own, the Gaussian ones get every
    # zero_every-th sign set to 0
    for m in (50, 100, 150, 200, 800):
        for seed in (0, 1):
            _, ens, y = sweep_trial(seed, m, dist, mag)
            if zero_every:
                y = y.copy()
                y[::zero_every] = 0.0
            if dist == "bernoulli" or zero_every:
                assert np.any(y == 0)
            got, want = build_recovery_lp(ens, y), reference_recovery_lp(ens, y)
            assert got.objective.tobytes() == want.objective.tobytes()
            assert got.ineq_lhs.tobytes() == want.ineq_lhs.tobytes()
            assert got.ineq_rhs.tobytes() == want.ineq_rhs.tobytes()
            assert got.ineq_upper.tobytes() == want.ineq_upper.tobytes()


def test_lp_row_counts():
    # the dual: n range rows -1 <= G z <= 1, one column per measurement,
    # then t, then one column per zero sign, every variable nonnegative
    n, m = 5, 7
    _, ens, y = make_instance(n, 2, m, seed=3)
    y = y.copy()
    y[[2, 5]] = 0
    zeros = 2
    prob = build_recovery_lp(ens, y)
    assert prob.num_vars == m + 1 + zeros
    assert prob.ineq_lhs.shape == (n, m + 1 + zeros)
    assert np.array_equal(prob.ineq_rhs, -np.ones(n))
    assert np.array_equal(prob.ineq_upper, np.ones(n))
    assert prob.eq_lhs.shape[0] == 0
    assert np.array_equal(prob.objective, np.eye(m + 1 + zeros)[m] * -1.0)
    # column i is y_i a_i (a_i where y_i = 0), column m the normalization
    # row, and the free w_i of the k-th zero sign is column i minus column
    # m + 1 + k, which is -a_i
    cols = [ens.rows[i] * (y[i] if y[i] != 0 else 1.0) for i in range(m)]
    cols.append(sum(y[i] * ens.rows[i] for i in range(m)) / m)
    assert np.array_equal(prob.ineq_lhs[:, :m + 1], np.column_stack(cols))
    for k, i in enumerate(np.flatnonzero(y == 0)):
        assert np.array_equal(prob.ineq_lhs[:, m + 1 + k], -prob.ineq_lhs[:, i])
    # no zero signs, no extra columns
    _, ens, y = make_instance(n, 2, m, seed=3)
    assert np.all(y != 0)
    assert build_recovery_lp(ens, y).num_vars == m + 1


def test_lp_hand_instance():
    # one measurement a1 = (1, 0), y = +1: the dual is max t subject to
    # |w + t| <= 1, w >= 0, t >= 0 -> t = 1; its multipliers give
    # x_hat = (1, 0), the minimizer of |x1| + |x2| s.t. x1 >= 0, x1 >= 1
    ens = MeasurementEnsemble(np.array([[1.0, 0.0]]))
    prob = build_recovery_lp(ens, np.array([1], dtype=np.int8))
    two = two_row_form(prob)
    general = GeneralLP(two.objective, ineq_lhs=two.ineq_lhs, ineq_rhs=two.ineq_rhs,
                        nonneg=[True, True])
    for sol in (solve_lp(prob), brute_force_vertex_solve(general)):
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(-1.0, abs=1e-9)
        assert np.allclose(sol.primal, [0.0, 1.0], atol=1e-9)
    res = recover(ens, np.array([1], dtype=np.int8))
    assert np.allclose(res.x_hat, [1.0, 0.0], atol=1e-9)
    assert np.abs(res.x_hat).sum() == pytest.approx(1.0, abs=1e-9)


def test_degenerate_sign_pattern():
    _, ens, _ = make_instance(4, 2, 6, seed=1)
    with pytest.raises(ValueError, match="degenerate sign pattern"):
        build_recovery_lp(ens, np.zeros(6, dtype=np.int8))
    # no rows at all is refused as such, not blamed on the signs
    with pytest.raises(ValueError, match="need at least one row"):
        build_recovery_lp(np.zeros((0, 4)), np.zeros(0))


def test_non_sign_pattern_rejected():
    # the decoder sees signs only: given the raw products it would solve a
    # magnitude-weighted LP and report a far smaller error
    x, ens = gen_instance(32, 3, 60, 7, "gaussian", "unit_gaussian")
    y = sign_quantize(ens.rows @ x).astype(np.float64)
    cases = [ens.rows @ x, 2.0 * y]
    for entry in (0.5, np.nan, np.inf, -np.inf):
        bad = y.copy()
        bad[1] = entry
        cases.append(bad)
    for bad in cases:
        for call in (build_recovery_lp, recover):
            with pytest.raises(ValueError, match="sign pattern entries must be -1, 0, or 1"):
                call(ens, bad)


def test_sign_pattern_dtypes_solve_alike():
    # an int8 pattern and the same pattern as floats give the same LP and x_hat
    x, ens = gen_instance(32, 3, 60, 7, "gaussian", "unit_gaussian")
    y = sign_quantize(ens.rows @ x)
    y[[4, 9]] = 0
    yf = y.astype(np.float64)
    a, b = build_recovery_lp(ens, y), build_recovery_lp(ens, yf)
    assert a.ineq_lhs.tobytes() == b.ineq_lhs.tobytes()
    assert a.objective.tobytes() == b.objective.tobytes()
    assert recover(ens, y).x_hat.tobytes() == recover(ens, yf).x_hat.tobytes()


def test_length_mismatch():
    _, ens, y = make_instance(4, 2, 6, seed=1)
    with pytest.raises(ValueError):
        build_recovery_lp(ens, y[:-1])


def test_recover_small_instance():
    x = np.array([1.0, 0.0])
    ens = gen_gaussian_ensemble(50, 2, seed=11)
    y = sign_quantize(ens.rows @ x)
    res = recover(ens, y)
    assert np.linalg.norm(res.direction - x) <= 0.2
    assert abs(np.linalg.norm(res.direction) - 1.0) <= 1e-12
    assert res.l1_over_l2 == pytest.approx(
        np.abs(res.x_hat).sum() / np.linalg.norm(res.x_hat), rel=1e-12)


def test_recover_matches_nonconvex_oracle():
    x = np.array([1.0, 0.0])
    ens = gen_gaussian_ensemble(50, 2, seed=11)
    y = sign_quantize(ens.rows @ x)
    res = recover(ens, y)
    out = nonconvex_oracle(ens, y, 1, samples=2000, seed=0)
    assert min(np.linalg.norm(out - res.direction),
               np.linalg.norm(out + res.direction)) <= 0.25


def test_recover_idempotent_on_own_pattern():
    x, ens, y = make_instance(16, 3, 40, seed=21)
    res = recover(ens, y)
    y2 = sign_quantize(ens.rows @ res.x_hat)
    # on the active rows <a_i, x_hat> is 0 exactly; the computed signs are roundoff
    y2[res.certificate.active_rows] = 0
    res2 = recover(ens, y2)
    assert np.linalg.norm(res2.direction - res.direction) <= 1e-6


def test_recover_feasibility_and_tightness():
    for seed in range(8):
        x, ens, y = make_instance(24, 3, 50, seed=seed)
        res = recover(ens, y)
        m = len(ens.rows)
        Ax = ens.rows @ res.x_hat
        prods = y * Ax
        assert prods.min() >= -1e-6
        tightness = abs(prods.sum() / m - 1.0)
        assert tightness <= 1e-6
        # the paper's normalization; the sign rows' violations move it at
        # most 2 max_violation from the tightness term
        normalization = abs(np.abs(Ax).sum() / m - 1.0)
        assert normalization <= 1e-6
        assert abs(normalization - tightness) <= 2.0 * res.certificate.max_violation + 1e-12
        # the direction never strays to the wrong halfspace of the truth
        assert recovery_error(res.direction, x) <= np.sqrt(2.0)


def test_support_bound():
    for seed in range(6):
        _, ens, y = make_instance(20, 4, 30, seed=seed + 50)
        res = recover(ens, y)
        assert len(res.certificate.support) <= len(ens.rows) + 1


def test_certificate_structure():
    assert [f.name for f in dataclasses.fields(VertexCertificate)] == [
        "support", "active_rows", "cardinality_ok", "max_violation",
        "dual_violation", "duality_gap"]
    ok = 0
    for seed in range(10):
        x, ens, y = make_instance(32, 3, 60, seed=seed + 200)
        res = recover(ens, y)
        cert = res.certificate
        x_hat = res.x_hat
        # recover's certificate is the one extract_certificate computes
        again = extract_certificate(ens, y, x_hat, res.lp_solution)
        assert np.array_equal(again.support, cert.support)
        assert np.array_equal(again.active_rows, cert.active_rows)
        assert (again.cardinality_ok, again.max_violation, again.dual_violation,
                again.duality_gap) == \
            (cert.cardinality_ok, cert.max_violation, cert.dual_violation, cert.duality_gap)
        # without the dual solution there is no proof of optimality
        alone = extract_certificate(ens, y, x_hat)
        assert np.isnan(alone.dual_violation) and np.isnan(alone.duality_gap)
        # max_violation is x_hat's worst violation of the primal constraints
        prods = ens.rows @ x_hat
        assert cert.max_violation == max(float(np.max(-y * prods)),
                                         abs(float(y @ prods) / len(y) - 1.0)) + 0.0
        assert cert.max_violation <= 1e-6
        assert np.array_equal(cert.support, np.flatnonzero(np.abs(x_hat) > 1e-7))
        norms = np.linalg.norm(ens.rows, axis=1) * np.linalg.norm(x_hat)
        active = np.flatnonzero(np.abs(ens.rows @ x_hat) <= 1e-7 * norms)
        assert np.array_equal(cert.active_rows, active)
        if cert.cardinality_ok:
            ok += 1
            assert len(cert.support) == len(cert.active_rows) + 1
            # the active rows annihilate x_hat on its support
            T, omega = cert.support, cert.active_rows
            kernel = np.linalg.norm(ens.rows[np.ix_(omega, T)] @ x_hat[T])
            assert kernel <= 1e-6 * np.linalg.norm(x_hat)
    assert ok >= 8
    # an empty support or an empty active set is a certificate too
    _, ens, y = make_instance(8, 2, 20, seed=3)
    cert = extract_certificate(ens, y, np.zeros(8))
    assert cert.support.size == 0 and cert.active_rows.size == 20
    x_one = np.zeros(8)
    x_one[0] = 1.0
    cert = extract_certificate(ens, y, x_one)
    assert cert.support.tolist() == [0] and cert.active_rows.size == 0


def test_zero_sign_entries_become_equalities():
    # a y entry of 0 pins the estimate onto that hyperplane exactly
    x, ens, y = make_instance(8, 2, 20, seed=77)
    y = y.copy()
    y[5] = 0
    res = recover(ens, y)
    assert abs(ens.rows[5] @ res.x_hat) <= 1e-7 * np.linalg.norm(res.x_hat)


def test_scale_invariance_of_input():
    x, ens, _ = make_instance(16, 3, 40, seed=33)
    y1 = sign_quantize(ens.rows @ x)
    y3 = sign_quantize(ens.rows @ (3.0 * x))
    assert np.array_equal(y1, y3)
    a = recover(ens, y1)
    b = recover(ens, y3)
    assert np.array_equal(a.x_hat, b.x_hat)


def test_recover_surfaces_solver_status(monkeypatch):
    _, ens, y = make_instance(8, 2, 16, seed=5)
    monkeypatch.setattr(onebit.lp_core, "ITERATION_FACTOR", 0)
    with pytest.raises(RecoveryError, match="iteration_limit"):
        recover(ens, y)


def solving_to(monkeypatch, x_hat):
    """Make recover's solve_lp report an optimal vertex that reads back as x_hat."""
    x_hat = np.asarray(x_hat, dtype=np.float64)

    def fake_solve(lp):
        return LpSolution("optimal", np.zeros(lp.num_vars), 0.0, 0, 0.0,
                          multipliers=-x_hat)

    monkeypatch.setattr(onebit.recovery, "solve_lp", fake_solve)


@pytest.mark.parametrize("fill", [0.0, np.nan])
def test_recover_rejects_untight_multipliers(monkeypatch, fill):
    # an optimal status alone is not trusted: x_hat = 0 misses the
    # normalization row by 1, and a nan x_hat fails the comparison instead
    # of passing it
    _, ens, y = make_instance(8, 2, 16, seed=5)
    solving_to(monkeypatch, np.full(8, fill))
    with pytest.raises(RecoveryError, match="violates the primal constraints"):
        recover(ens, y)


def test_recover_rejects_a_violated_sign_row(monkeypatch):
    # the normalization row holds, but a sign row does not: recover checks
    # every primal constraint, not only the normalization
    _, ens, y = make_instance(8, 2, 16, seed=5)
    x_hat = recover(ens, y).x_hat
    A = ens.rows
    g = A.T @ y / len(y)
    u = np.random.default_rng(0).standard_normal(8)
    u -= (g @ u) / (g @ g) * g
    bad = x_hat + 10.0 * np.linalg.norm(x_hat) / np.linalg.norm(u) * u
    prods = A @ bad
    assert abs(float(y @ prods) / len(y) - 1.0) <= 1e-12
    assert np.min(y * prods) < -1e-3
    solving_to(monkeypatch, bad)
    with pytest.raises(RecoveryError, match="violates the primal constraints"):
        recover(ens, y)


@pytest.mark.parametrize("dist, mag", [("gaussian", "unit_gaussian"), ("bernoulli", "constant")])
def test_recover_proves_optimality(dist, mag):
    # the dual (w, t) meets the dual's n range rows, and t = ||x_hat||_1,
    # to roundoff; the +-1 rows have zero signs, whose w_i- columns count
    for m in (50, 200, 800):
        for seed in (0, 1):
            _, ens, y = sweep_trial(seed, m, dist, mag)
            res = recover(ens, y)
            cert, sol = res.certificate, res.lp_solution
            assert cert.dual_violation == max_violation(build_recovery_lp(ens, y), sol.primal)
            t = sol.primal[m]
            assert cert.duality_gap == abs(np.abs(res.x_hat).sum() - t) / t
            assert cert.dual_violation <= 1e-14 and cert.duality_gap <= 1e-14, (m, seed)


def solving_wrong(monkeypatch, mutate):
    """Make recover's solve_lp return its solution changed by mutate."""
    real = onebit.recovery.solve_lp
    monkeypatch.setattr(onebit.recovery, "solve_lp", lambda lp: mutate(real(lp)))


def test_duality_check_trips_on_a_scaled_x_hat(monkeypatch):
    # x_hat 1e-8 too long still meets the primal rows within
    # NORMALIZATION_TOL, but its l1 norm is no longer the dual's t
    _, ens, y = sweep_trial(1, 100, "gaussian", "unit_gaussian")
    solving_wrong(monkeypatch, lambda sol: dataclasses.replace(
        sol, multipliers=(1.0 + 1e-8) * sol.multipliers))
    with pytest.raises(RecoveryError, match="does not prove x_hat optimal: duality_gap=1.0"):
        recover(ens, y)


def test_duality_check_trips_on_a_perturbed_multiplier(monkeypatch):
    # one multiplier (one entry of x_hat) off by 1e-7: every primal row is
    # still met within NORMALIZATION_TOL
    _, ens, y = sweep_trial(1, 100, "gaussian", "unit_gaussian")

    def perturbed(sol):
        k = int(np.abs(sol.multipliers).argmax())
        multipliers = sol.multipliers.copy()
        multipliers[k] += 1e-7
        return dataclasses.replace(sol, multipliers=multipliers)

    solving_wrong(monkeypatch, perturbed)
    with pytest.raises(RecoveryError, match=r"does not prove x_hat optimal: duality_gap=5\.\d+e-08"):
        recover(ens, y)


def test_duality_check_trips_on_a_wrong_pivot(monkeypatch):
    # the first pivot updates the tableau on the row of the largest entry,
    # not on the row the ratio test chose.  On this instance the returned
    # x_hat meets every primal row and ||x_hat||_1 = t, yet (w, t) breaks
    # the dual's rows, so t bounds nothing and only dual_violation shows it
    x, ens = gen_instance(8, 2, 100, derive_seed(1, 100, 0), "bernoulli", "constant")
    y = sign_quantize(ens.rows @ x)
    real = onebit.lp_core._pivot
    calls = []

    def wrong_row(T, r, rpiv, cpiv, row, dger):
        calls.append(rpiv)
        if len(calls) == 1:
            entries = np.abs(T[:, cpiv])
            entries[rpiv] = -1.0
            rpiv = int(entries.argmax())
        real(T, r, rpiv, cpiv, row, dger)

    monkeypatch.setattr(onebit.lp_core, "_pivot", wrong_row)
    sol = solve_lp(build_recovery_lp(ens, y))
    cert = extract_certificate(ens, y, 0.0 - sol.multipliers, sol)
    assert cert.max_violation <= 1e-12 and cert.duality_gap <= 1e-12
    assert cert.dual_violation > 0.1
    calls.clear()
    with pytest.raises(RecoveryError, match="does not prove x_hat optimal"):
        recover(ens, y)


def test_max_violation_keeps_every_nan():
    # a nan x_hat spreads to every row through A @ x_hat
    A = np.eye(3)
    y = np.array([1.0, 0.0, 1.0])
    assert np.isnan(extract_certificate(A, y, np.array([1.5, np.nan, 1.5])).max_violation)
    # a nan entry on the zero-sign row reaches only that row and the
    # normalization: the sign rows read 0.0, and Python's max, given that
    # first, would drop both nans and return 0.0
    A[1, 0] = np.nan
    x = np.array([1.5, 0.0, 1.5])
    assert np.isnan(extract_certificate(A, y, x).max_violation)


@pytest.mark.parametrize("dist, mag, s, m", [("gaussian", "unit_gaussian", 3, 60),
                                             ("bernoulli", "constant", 4, 120)])
def test_recover_duplicate_rows(dist, mag, s, m):
    # [A; A] with [y; y] poses the same program: the copy of a row's dual
    # variable never enters, so the pivots are the same and x_hat agrees to
    # roundoff (not in bytes); each active row is listed twice.  The +-1
    # instances all have zero signs, whose equality rows are duplicated too
    twice_counted = 0
    for seed in range(40):
        x, ens = gen_instance(32, s, m, derive_seed(seed, 5), dist, mag)
        A = ens.rows
        y = sign_quantize(A @ x)
        assert dist == "gaussian" or np.any(y == 0)
        one = recover(A, y)
        two = recover(np.vstack([A, A]), np.concatenate([y, y]))
        assert two.lp_solution.iterations == one.lp_solution.iterations, seed
        assert np.linalg.norm(two.x_hat - one.x_hat) <= 1e-12 * np.linalg.norm(one.x_hat)
        c1, c2 = one.certificate, two.certificate
        assert np.array_equal(c2.support, c1.support)
        assert np.array_equal(c2.active_rows, np.concatenate([c1.active_rows, c1.active_rows + m]))
        if c1.cardinality_ok and c1.active_rows.size:
            assert not c2.cardinality_ok
            twice_counted += 1
    assert dist != "gaussian" or twice_counted == 40


@pytest.mark.parametrize("m", [1, 2, 3, 5, 10, 20])
def test_recover_fewer_rows_than_dimensions(m):
    # m < n: the program stays feasible and bounded, and x_hat meets it
    for seed in range(20):
        x, ens = gen_instance(32, 3, m, seed, "gaussian", "unit_gaussian")
        y = sign_quantize(ens.rows @ x)
        res = recover(ens, y)
        assert res.lp_solution.status == "optimal"
        assert res.certificate.max_violation <= 1e-12, seed


def test_recovery_error_values():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert recovery_error(5.0 * e1, e1) == pytest.approx(0.0, abs=1e-15)
    assert recovery_error(e1, e2) == pytest.approx(np.sqrt(2.0))
    assert recovery_error(e1, -e1) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        recovery_error(np.zeros(2), e1)
    # vectors of different shapes are refused, not broadcast: a column of
    # e1 against e1 would read 2.0 from a 3 x 3 difference
    d = np.array([1.0, 0.0, 0.0])
    for other in (np.array([1.0]), d.reshape(-1, 1)):
        with pytest.raises(ValueError, match="differ in shape"):
            recovery_error(d, other)


def test_nonconvex_oracle_contracts():
    x, ens, y = make_instance(8, 2, 30, seed=9)
    out = nonconvex_oracle(ens, y, 2, samples=500, seed=4)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-9
    assert (y * (ens.rows @ out)).min() >= 0.0
    # deterministic in the oracle seed
    again = nonconvex_oracle(ens, y, 2, samples=500, seed=4)
    assert np.array_equal(out, again)


def test_nonconvex_oracle_no_constraints():
    ens = MeasurementEnsemble(np.zeros((0, 5)))
    out = nonconvex_oracle(ens, np.zeros(0, dtype=np.int8), 1,
                           samples=100, seed=2)
    # the l1 minimum on the sphere is a signed basis vector
    assert np.count_nonzero(out) == 1
    assert abs(np.abs(out).max() - 1.0) <= 1e-12


def test_nonconvex_oracle_empty_cone():
    rows = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    ens = MeasurementEnsemble(rows)
    y = np.ones(4, dtype=np.int8)
    with pytest.raises(ValueError, match="empty feasible cone sample"):
        nonconvex_oracle(ens, y, 1, samples=200, seed=3)


def test_nonconvex_oracle_guard():
    _, ens, y = make_instance(17, 2, 10, seed=1)
    with pytest.raises(ValueError, match="limited to n <= 16"):
        nonconvex_oracle(ens, y, 2, samples=10, seed=0)


def test_effective_sparsity_preservation():
    # output l1/l2 ratio stays within a log factor of the input ratio
    n, s, m = 128, 4, 256
    bound = 3.0 * np.sqrt(np.log(2 * n / m + 2 * m / n))
    ratios = []
    for seed in range(50):
        x, ens, y = make_instance(n, s, m, seed=seed + 1000)
        res = recover(ens, y)
        ratio_in = np.abs(x).sum() / np.linalg.norm(x)
        ratios.append(res.l1_over_l2 / ratio_in)
    assert np.median(ratios) <= bound
