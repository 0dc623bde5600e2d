"""Tests for the dense simplex and its brute-force vertex oracle.

The general-form families (equality rows, free variables) are posed through
oracles.GeneralLP and solved through canonical() by solve_general; the
recovery LPs are in solve_lp's form already.
"""

import dataclasses

import numpy as np
import pytest

import onebit
import onebit.geometry
import onebit.lp_core
import onebit.recovery
import oracles
from onebit.harness import gen_instance
from onebit.lp_core import (
    OPTIMALITY_TOL,
    PIVOT_TOL,
    LinearProgram,
    ToleranceConfig,
    max_violation,
    solve_lp,
)
from onebit.measurement import sign_quantize
from onebit.recovery import build_recovery_lp
from oracles import (
    GeneralLP,
    brute_force_vertex_solve,
    canonical,
    full_tableau_solve_lp,
    random_small_lp,
    solve_general,
)


lp = GeneralLP


def test_single_bound():
    # min -z subject to z <= 3 -> z = 3, multiplier 1
    sol = solve_general(lp([-1.0], ineq_lhs=[[-1.0]], ineq_rhs=[-3.0]))
    assert sol.status == "optimal"
    assert sol.primal[0] == pytest.approx(3.0, abs=1e-9)
    assert sol.objective_value == pytest.approx(-3.0, abs=1e-9)
    assert np.allclose(sol.multipliers, [1.0], atol=1e-9)


def test_tight_third_constraint():
    # min -z1 - z2 subject to z1 <= 1, z2 <= 1, z1 + z2 <= 1.5: the third
    # row binds, so the optimum is -1.5 rather than -2
    prob = lp([-1.0, -1.0], ineq_lhs=[[-1, 0], [0, -1], [-1, -1]],
              ineq_rhs=[-1.0, -1.0, -1.5])
    sol = solve_general(prob)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(-1.5, abs=1e-9)
    assert prob.max_violation(sol.primal) <= 1e-9


def test_equality_rows():
    # min z1 + 2 z2 on the line z1 + z2 = 0 with z1 <= 4 -> (4, -4); the
    # objective (1, 2) is 2 (1, 1) + 1 (-1, 0), so the multipliers are (2, 1)
    sol = solve_general(lp([1.0, 2.0], eq_lhs=[[1, 1]], eq_rhs=[0.0],
                          ineq_lhs=[[-1, 0]], ineq_rhs=[-4.0]))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(-4.0, abs=1e-9)
    assert np.allclose(sol.primal, [4.0, -4.0], atol=1e-8)
    assert np.allclose(sol.multipliers, [2.0, 1.0], atol=1e-9)
    # mirrored: min -z1 - 2 z2 with z1 >= -4 -> (-4, 4), equality multiplier -2
    sol = solve_general(lp([-1.0, -2.0], eq_lhs=[[1, 1]], eq_rhs=[0.0],
                          ineq_lhs=[[1, 0]], ineq_rhs=[-4.0]))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(-4.0, abs=1e-9)
    assert np.allclose(sol.primal, [-4.0, 4.0], atol=1e-8)
    assert np.allclose(sol.multipliers, [-2.0, 1.0], atol=1e-9)


def test_rhs_outside_domain_raises():
    # solve_lp takes only LPs feasible at z = 0: z >= 1 and -z >= 1 (which
    # is infeasible) has a positive inequality rhs, z = 1 a nonzero equality
    # rhs, whose pair of rows has a positive rhs either way
    with pytest.raises(ValueError, match="feasible at z = 0"):
        solve_lp(LinearProgram([1.0], [[1.0]], [1.0]))
    with pytest.raises(ValueError, match="feasible at z = 0"):
        solve_general(lp([1.0], ineq_lhs=[[1.0], [-1.0]], ineq_rhs=[1.0, 1.0]))
    with pytest.raises(ValueError, match="feasible at z = 0"):
        solve_general(lp([1.0], eq_lhs=[[1.0]], eq_rhs=[1.0]))
    with pytest.raises(ValueError, match="feasible at z = 0"):
        solve_general(lp([1.0], eq_lhs=[[1.0]], eq_rhs=[-1.0]))


def test_unbounded_toys():
    assert solve_general(lp([-1.0], ineq_lhs=[[1.0]], ineq_rhs=[0.0])).status == "unbounded"
    # no constraints at all
    free = solve_general(lp([-1.0, 0.5]))
    assert free.status == "unbounded"
    assert free.objective_value == -np.inf
    # costs within the optimality tolerance of zero leave the optimum at 0
    for cost in ([0.0, 0.0], [1e-9, -1e-9], [-1e-9, 5e-10]):
        flat = solve_general(lp(cost))
        assert flat.status == "optimal", cost
        assert flat.objective_value == 0.0
        assert np.array_equal(flat.primal, [0.0, 0.0])
        assert flat.multipliers.shape == (0,)


def test_negative_variables_reachable():
    # free variables: the optimum sits at z = (-2, -3)
    sol = solve_general(lp([1.0, 1.0], ineq_lhs=[[1, 0], [0, 1]],
                          ineq_rhs=[-2.0, -3.0]))
    assert sol.status == "optimal"
    assert np.allclose(sol.primal, [-2.0, -3.0], atol=1e-8)


def test_nonnegative_variables():
    # the same rows as test_negative_variables_reachable, with z1 >= 0
    sol = solve_general(lp([1.0, 1.0], ineq_lhs=[[1, 0], [0, 1]],
                          ineq_rhs=[-2.0, -3.0], nonneg=[True, False]))
    assert sol.status == "optimal"
    assert np.allclose(sol.primal, [0.0, -3.0], atol=1e-8)
    # min -z1 - z2 with z >= 0 and z1 + z2 <= 2: multiplier 1 on the cut
    sol = solve_general(lp([-1.0, -1.0], ineq_lhs=[[-1, -1]], ineq_rhs=[-2.0],
                          nonneg=[True, True]))
    assert sol.objective_value == pytest.approx(-2.0, abs=1e-9)
    assert np.allclose(sol.multipliers, [1.0], atol=1e-9)
    assert solve_general(lp([-1.0], nonneg=[True])).status == "unbounded"
    assert solve_general(lp([-1.0, 0.0], nonneg=[True, False])).status == "unbounded"
    for cost, mask in (([1.0], [True]), ([-1e-9], [True]),
                       ([1e-9, 2.0], [False, True]), ([-1e-9, -1e-9], [False, True])):
        sol = solve_general(lp(cost, nonneg=mask))
        assert sol.status == "optimal", cost
        assert sol.objective_value == 0.0
        assert np.array_equal(sol.primal, np.zeros(len(cost)))
    assert lp([1.0, 1.0], nonneg=[True, False]).max_violation(np.array([-0.5, -3.0])) == 0.5
    # solve_lp's form bounds every variable
    assert max_violation(canonical(lp([1.0, 1.0], nonneg=[True, True])),
                         np.array([-0.5, -3.0])) == 3.0


@pytest.mark.parametrize("mask", ["free", "nonneg", "mixed"])
def test_multipliers_certify_optimality(mask):
    # the multipliers are dual feasible and close the duality gap
    checked = 0
    for seed in range(200, 260):
        prob = random_small_lp(seed, mask)
        sol = solve_general(prob)
        if sol.status != "optimal":
            continue
        checked += 1
        p = prob.eq_lhs.shape[0]
        pi_eq, pi_ineq = sol.multipliers[:p], sol.multipliers[p:]
        assert np.all(pi_ineq >= -1e-9)
        reduced = prob.objective - prob.eq_lhs.T @ pi_eq - prob.ineq_lhs.T @ pi_ineq
        assert np.all(np.abs(reduced[~prob.nonneg]) <= 1e-9)
        assert np.all(reduced[prob.nonneg] >= -1e-9)
        dual_value = prob.eq_rhs @ pi_eq + prob.ineq_rhs @ pi_ineq
        assert dual_value == pytest.approx(sol.objective_value, abs=1e-8)
    assert checked >= 10


def test_iteration_limit_status():
    # min -z subject to z <= 3 takes one pivot, which a zero budget denies
    prob = lp([-1.0], ineq_lhs=[[-1.0]], ineq_rhs=[-3.0])
    assert solve_general(prob).iterations == 1
    cfg = ToleranceConfig(iteration_factor=0)
    sol = solve_general(prob, cfg)
    assert sol.status == "iteration_limit"
    assert sol.primal is None
    # an LP with no rows takes the same path, so the same limit applies
    assert solve_general(lp([1.0, -1.0]), cfg).status == "iteration_limit"


def test_optimal_within_feasibility_tolerance():
    for seed in range(40):
        prob = random_small_lp(seed)
        sol = solve_general(prob)
        if sol.status == "optimal":
            assert sol.max_constraint_violation <= 1e-8
            assert prob.max_violation(sol.primal) <= 1e-8


def test_determinism():
    for seed in (3, 11, 27):
        prob = random_small_lp(seed)
        a = solve_general(prob)
        b = solve_general(prob)
        assert a.status == b.status
        assert a.iterations == b.iterations
        if a.status == "optimal":
            assert a.objective_value == b.objective_value
            assert np.array_equal(a.primal, b.primal)


def random_box_lp(seed):
    """Box-constrained LP with a couple of extra cuts, feasible at z = 0."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    lo = rng.integers(-4, 0, size=d) / 2.0
    hi = rng.integers(1, 5, size=d) / 2.0
    rows = np.vstack([np.eye(d), -np.eye(d),
                      rng.integers(-4, 5, size=(2, d)) / 2.0])
    rhs = np.concatenate([lo, -hi, -np.abs(rng.integers(-4, 2, size=2)) / 2.0])
    return lp(rng.integers(-4, 5, size=d) / 2.0, ineq_lhs=rows, ineq_rhs=rhs)


def test_weak_duality_on_sampled_feasible_points():
    # no sampled feasible point may beat the reported optimum
    rng = np.random.default_rng(5)
    checked = 0
    for seed in range(60):
        prob = random_box_lp(seed)
        sol = solve_general(prob)
        if sol.status != "optimal":
            continue
        # probe random directions away from the reported vertex
        steps = rng.uniform(0, 4, size=(400, 1))
        dirs = rng.normal(size=(400, prob.num_vars))
        pts = sol.primal[None, :] + steps * dirs
        slack = pts @ prob.ineq_lhs.T - prob.ineq_rhs
        keep = pts[np.all(slack >= -1e-12, axis=1)]
        if keep.shape[0] == 0:
            continue
        checked += 1
        assert (keep @ prob.objective).min() >= sol.objective_value - 1e-9
    assert checked >= 25


def test_oracle_agreement_small(monkeypatch):
    # smaller sibling of the acceptance run, same generator family, with
    # every variable free, every variable nonnegative, and a mix.  Each LP
    # is also solved with STALL_LIMIT = 1, which switches to Bland's rule
    # after one degenerate pivot
    moved = 0
    for mask in ("free", "nonneg", "mixed"):
        statuses = {"optimal": 0, "unbounded": 0}
        for seed in range(1000, 1060):
            prob = random_small_lp(seed, mask)
            want = brute_force_vertex_solve(prob)
            statuses[want.status] += 1
            runs = [solve_general(prob)]
            with monkeypatch.context() as mp:
                mp.setattr(onebit.lp_core, "STALL_LIMIT", 1)
                runs.append(solve_general(prob))
            moved += runs[0].iterations != runs[1].iterations
            for got in runs:
                assert got.status == want.status, f"{mask} seed {seed}"
                if got.status == "optimal":
                    assert abs(got.objective_value - want.objective_value) <= 1e-8
                    assert prob.max_violation(got.primal) <= 1e-8
            if want.status == "optimal":
                assert prob.max_violation(want.primal) <= 1e-8
        assert min(statuses.values()) >= 3, mask   # the mix exercises every status
    assert moved > 0   # Bland's rule took another pivot path at least once


def recovery_lp(n, s, m, seed, dist="gaussian", mag="unit_gaussian"):
    x, ens = gen_instance(n, s, m, seed, dist, mag)
    return build_recovery_lp(ens, sign_quantize(ens.rows @ x))


@pytest.mark.parametrize("refresh", [512, 3])
def test_condensed_tableau_matches_full_tableau(monkeypatch, refresh):
    # the condensed exchange tableau takes the full tableau's pivots and
    # returns its bytes; a refresh every 3 pivots compares that path too,
    # and a stall limit of 1 compares Bland's rule
    monkeypatch.setattr(onebit.lp_core, "REFRESH_PIVOTS", refresh)
    monkeypatch.setattr(oracles, "FULL_REFRESH_PIVOTS", refresh)
    cases = [(f"{mask} seed {seed}", canonical(random_small_lp(seed, mask)))
             for mask in ("free", "nonneg", "mixed") for seed in range(300)]
    cases += [(f"gaussian m={m} seed {seed}", recovery_lp(128, 4, m, seed))
              for m in (50, 100, 200, 400, 800) for seed in (0, 1)]
    signs = [(f"+-1 m={m} seed {seed}", recovery_lp(128, 4, m, seed, "bernoulli", "constant"))
             for m in (100, 200, 400) for seed in (0, 1)]
    # free w_i from zero signs: their w_i- columns follow t, the last column without them
    assert all(prob.objective[-1] == 0.0 for _, prob in signs)
    cases += signs + [("gaussian n=256 m=1600", recovery_lp(256, 8, 1600, 3))]   # 91 pivots
    stalls = (onebit.lp_core.STALL_LIMIT, 1)
    for label, prob in cases:
        for stall in stalls:
            monkeypatch.setattr(onebit.lp_core, "STALL_LIMIT", stall)
            monkeypatch.setattr(oracles, "FULL_STALL_LIMIT", stall)
            got, want = solve_lp(prob), full_tableau_solve_lp(prob)
            assert (got.status, got.iterations) == (want.status, want.iterations), (label, stall)
            if want.status == "optimal":
                assert got.primal.tobytes() == want.primal.tobytes(), (label, stall)
                assert got.multipliers.tobytes() == want.multipliers.tobytes(), (label, stall)


def test_solver_telemetry_on_stalls(monkeypatch):
    # +-1 rows pivot degenerately; with STALL_LIMIT = 1 one degenerate pivot
    # switches to Bland's rule
    prob = recovery_lp(128, 4, 100, 1, "bernoulli", "constant")
    default = solve_lp(prob)
    assert default.bland_switches == 0
    assert default.degenerate_pivots <= default.iterations
    monkeypatch.setattr(onebit.lp_core, "STALL_LIMIT", 1)
    sol = solve_lp(prob)
    assert sol.status == "optimal"
    assert sol.bland_switches >= 1
    assert 1 <= sol.degenerate_pivots <= sol.iterations


def test_brute_force_toys():
    assert brute_force_vertex_solve(
        lp([1.0], ineq_lhs=[[1.0], [-1.0]], ineq_rhs=[1.0, 1.0])).status == "infeasible"
    assert brute_force_vertex_solve(
        lp([-1.0], ineq_lhs=[[1.0]], ineq_rhs=[0.0])).status == "unbounded"
    sol = brute_force_vertex_solve(
        lp([1.0, 1.0], ineq_lhs=[[1, 0], [0, 1], [1, 1]], ineq_rhs=[1, 1, 3]))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(3.0, abs=1e-12)


def test_brute_force_guard():
    with pytest.raises(ValueError, match="limited to"):
        brute_force_vertex_solve(lp([1.0] * 13))
    with pytest.raises(ValueError, match="limited to"):
        brute_force_vertex_solve(lp([1.0, 1.0],
                                    ineq_lhs=[[1.0, 0.0]] * 25,
                                    ineq_rhs=[0.0] * 25))


def test_settings_and_public_surface():
    # the pivot budget is the only setting; the thresholds are constants,
    # and with no phase 1 the solver has no feasibility threshold
    assert [f.name for f in dataclasses.fields(ToleranceConfig)] == ["iteration_factor"]
    assert (OPTIMALITY_TOL, PIVOT_TOL, onebit.lp_core.STALL_LIMIT) == (1e-9, 1e-10, 1000)
    assert not hasattr(onebit.lp_core, "FEASIBILITY_TOL")
    # the reference oracles and the proof-lemma helpers are test code, not
    # library API
    for module in (onebit, onebit.lp_core, onebit.recovery, onebit.geometry):
        for name in ("brute_force_vertex_solve", "nonconvex_oracle",
                     "hard_threshold", "block_decompose"):
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(onebit.SignalSetSpec, "contains")


def test_validation_errors():
    with pytest.raises(ValueError, match="row counts differ"):
        LinearProgram([1.0], [[1.0]], [])
    with pytest.raises(ValueError, match="finite"):
        LinearProgram([np.inf], np.zeros((0, 1)), [])
    with pytest.raises(ValueError, match="finite"):
        LinearProgram([1.0], [[np.nan]], [0.0])


def test_one_lp_form():
    # solve_lp's only form is ineq_lhs @ z >= ineq_rhs, z >= 0: no equality
    # block, no free variables
    assert [f.name for f in dataclasses.fields(LinearProgram)] == \
        ["objective", "ineq_lhs", "ineq_rhs"]
    with pytest.raises(TypeError):
        LinearProgram([1.0], [[1.0]], [0.0], nonneg=[True])
    with pytest.raises(TypeError):
        LinearProgram([1.0], [[1.0]], [0.0], [[1.0]], [0.0])
    # the empty equality block that perfbench/run.py's traced run counts rows through
    prob = LinearProgram([1.0, 2.0], [[1.0, 0.0]], [-1.0])
    assert prob.eq_lhs.shape == (0, 2)
    # the nonnegativity bound holds without a row: min z subject to z >= -5 is z = 0
    sol = solve_lp(LinearProgram([1.0], [[1.0]], [-5.0]))
    assert sol.status == "optimal"
    assert sol.primal.tolist() == [0.0]
    assert sol.multipliers.tolist() == [0.0]


def test_solve_square_singular_block_falls_back_to_least_squares():
    # a singular basis block has no unique solution: the minimum-norm
    # least-squares one comes back instead of a LinAlgError
    got = onebit.lp_core._solve_square(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([2.0, 2.0]))
    assert np.allclose(got, [1.0, 1.0], rtol=0, atol=1e-12)
