"""Tests for the dense simplex and its brute-force vertex oracle."""

import dataclasses

import numpy as np
import pytest

import onebit
import onebit.lp_core
import onebit.recovery
from onebit.lp_core import (
    OPTIMALITY_TOL,
    PIVOT_TOL,
    LinearProgram,
    ToleranceConfig,
    max_violation,
    solve_lp,
)
from oracles import brute_force_vertex_solve


def lp(objective, eq_lhs=(), eq_rhs=(), ineq_lhs=(), ineq_rhs=(), nonneg=None):
    d = len(objective)
    return LinearProgram(np.array(objective, dtype=float),
                         np.array(eq_lhs, dtype=float).reshape(-1, d),
                         np.array(eq_rhs, dtype=float),
                         np.array(ineq_lhs, dtype=float).reshape(-1, d),
                         np.array(ineq_rhs, dtype=float),
                         nonneg)


def random_small_lp(seed, mask="free"):
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
    return lp(*args, nonneg=nonneg)


def test_single_bound():
    # min -z subject to z <= 3 -> z = 3, multiplier 1
    sol = solve_lp(lp([-1.0], ineq_lhs=[[-1.0]], ineq_rhs=[-3.0]))
    assert sol.status == "optimal"
    assert sol.primal[0] == pytest.approx(3.0, abs=1e-9)
    assert sol.objective_value == pytest.approx(-3.0, abs=1e-9)
    assert np.allclose(sol.multipliers, [1.0], atol=1e-9)


def test_tight_third_constraint():
    # min -z1 - z2 subject to z1 <= 1, z2 <= 1, z1 + z2 <= 1.5: the third
    # row binds, so the optimum is -1.5 rather than -2
    prob = lp([-1.0, -1.0], ineq_lhs=[[-1, 0], [0, -1], [-1, -1]],
              ineq_rhs=[-1.0, -1.0, -1.5])
    sol = solve_lp(prob)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(-1.5, abs=1e-9)
    assert max_violation(prob, sol.primal) <= 1e-9


def test_equality_rows():
    # min z1 + 2 z2 on the line z1 + z2 = 0 with z1 <= 4 -> (4, -4); the
    # objective (1, 2) is 2 (1, 1) + 1 (-1, 0), so the multipliers are (2, 1)
    sol = solve_lp(lp([1.0, 2.0], eq_lhs=[[1, 1]], eq_rhs=[0.0],
                      ineq_lhs=[[-1, 0]], ineq_rhs=[-4.0]))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(-4.0, abs=1e-9)
    assert np.allclose(sol.primal, [4.0, -4.0], atol=1e-8)
    assert np.allclose(sol.multipliers, [2.0, 1.0], atol=1e-9)
    # mirrored: min -z1 - 2 z2 with z1 >= -4 -> (-4, 4), equality multiplier -2
    sol = solve_lp(lp([-1.0, -2.0], eq_lhs=[[1, 1]], eq_rhs=[0.0],
                      ineq_lhs=[[1, 0]], ineq_rhs=[-4.0]))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(-4.0, abs=1e-9)
    assert np.allclose(sol.primal, [-4.0, 4.0], atol=1e-8)
    assert np.allclose(sol.multipliers, [-2.0, 1.0], atol=1e-9)


def test_rhs_outside_domain_raises():
    # solve_lp takes only LPs feasible at z = 0: z >= 1 and -z >= 1 (which
    # is infeasible) has a positive inequality rhs, z = 1 a nonzero equality rhs
    with pytest.raises(ValueError, match="feasible at z = 0"):
        solve_lp(lp([1.0], ineq_lhs=[[1.0], [-1.0]], ineq_rhs=[1.0, 1.0]))
    with pytest.raises(ValueError, match="feasible at z = 0"):
        solve_lp(lp([1.0], eq_lhs=[[1.0]], eq_rhs=[1.0]))
    with pytest.raises(ValueError, match="feasible at z = 0"):
        solve_lp(lp([1.0], eq_lhs=[[1.0]], eq_rhs=[-1.0]))


def test_unbounded_toys():
    assert solve_lp(lp([-1.0], ineq_lhs=[[1.0]], ineq_rhs=[0.0])).status == "unbounded"
    # no constraints at all
    free = solve_lp(lp([-1.0, 0.5]))
    assert free.status == "unbounded"
    assert free.objective_value == -np.inf
    # costs within the optimality tolerance of zero leave the optimum at 0
    for cost in ([0.0, 0.0], [1e-9, -1e-9], [-1e-9, 5e-10]):
        flat = solve_lp(lp(cost))
        assert flat.status == "optimal", cost
        assert flat.objective_value == 0.0
        assert np.array_equal(flat.primal, [0.0, 0.0])
        assert flat.multipliers.shape == (0,)


def test_negative_variables_reachable():
    # free variables: the optimum sits at z = (-2, -3)
    sol = solve_lp(lp([1.0, 1.0], ineq_lhs=[[1, 0], [0, 1]],
                      ineq_rhs=[-2.0, -3.0]))
    assert sol.status == "optimal"
    assert np.allclose(sol.primal, [-2.0, -3.0], atol=1e-8)


def test_nonnegative_variables():
    # the same rows as test_negative_variables_reachable, with z1 >= 0
    sol = solve_lp(lp([1.0, 1.0], ineq_lhs=[[1, 0], [0, 1]],
                      ineq_rhs=[-2.0, -3.0], nonneg=[True, False]))
    assert sol.status == "optimal"
    assert np.allclose(sol.primal, [0.0, -3.0], atol=1e-8)
    # min -z1 - z2 with z >= 0 and z1 + z2 <= 2: multiplier 1 on the cut
    sol = solve_lp(lp([-1.0, -1.0], ineq_lhs=[[-1, -1]], ineq_rhs=[-2.0],
                      nonneg=[True, True]))
    assert sol.objective_value == pytest.approx(-2.0, abs=1e-9)
    assert np.allclose(sol.multipliers, [1.0], atol=1e-9)
    assert solve_lp(lp([-1.0], nonneg=[True])).status == "unbounded"
    assert solve_lp(lp([-1.0, 0.0], nonneg=[True, False])).status == "unbounded"
    for cost, mask in (([1.0], [True]), ([-1e-9], [True]),
                       ([1e-9, 2.0], [False, True]), ([-1e-9, -1e-9], [False, True])):
        sol = solve_lp(lp(cost, nonneg=mask))
        assert sol.status == "optimal", cost
        assert sol.objective_value == 0.0
        assert np.array_equal(sol.primal, np.zeros(len(cost)))
    assert max_violation(lp([1.0, 1.0], nonneg=[True, False]),
                         np.array([-0.5, -3.0])) == 0.5


@pytest.mark.parametrize("mask", ["free", "nonneg", "mixed"])
def test_multipliers_certify_optimality(mask):
    # the multipliers are dual feasible and close the duality gap
    checked = 0
    for seed in range(200, 260):
        prob = random_small_lp(seed, mask)
        sol = solve_lp(prob)
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
    assert solve_lp(prob).iterations == 1
    cfg = ToleranceConfig(iteration_factor=0)
    sol = solve_lp(prob, cfg)
    assert sol.status == "iteration_limit"
    assert sol.primal is None
    # an LP with no rows takes the same path, so the same limit applies
    assert solve_lp(lp([1.0, -1.0]), cfg).status == "iteration_limit"


def test_optimal_within_feasibility_tolerance():
    for seed in range(40):
        prob = random_small_lp(seed)
        sol = solve_lp(prob)
        if sol.status == "optimal":
            assert sol.max_constraint_violation <= 1e-8
            assert max_violation(prob, sol.primal) <= 1e-8


def test_determinism():
    for seed in (3, 11, 27):
        prob = random_small_lp(seed)
        a = solve_lp(prob)
        b = solve_lp(prob)
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
        sol = solve_lp(prob)
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


def test_oracle_agreement_small():
    # smaller sibling of the acceptance run, same generator family, with
    # every variable free, every variable nonnegative, and a mix.  Each LP
    # is also solved with stall_limit=1, which switches to Bland's rule
    # after one degenerate pivot
    bland = ToleranceConfig(stall_limit=1)
    moved = 0
    for mask in ("free", "nonneg", "mixed"):
        statuses = {"optimal": 0, "unbounded": 0}
        for seed in range(1000, 1060):
            prob = random_small_lp(seed, mask)
            want = brute_force_vertex_solve(prob)
            statuses[want.status] += 1
            runs = [solve_lp(prob), solve_lp(prob, bland)]
            moved += runs[0].iterations != runs[1].iterations
            for got in runs:
                assert got.status == want.status, f"{mask} seed {seed}"
                if got.status == "optimal":
                    assert abs(got.objective_value - want.objective_value) <= 1e-8
                    assert max_violation(prob, got.primal) <= 1e-8
            if want.status == "optimal":
                assert max_violation(prob, want.primal) <= 1e-8
        assert min(statuses.values()) >= 3, mask   # the mix exercises every status
    assert moved > 0   # Bland's rule took another pivot path at least once


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
    assert [f.name for f in dataclasses.fields(ToleranceConfig)] == \
        ["iteration_factor", "stall_limit"]
    assert (OPTIMALITY_TOL, PIVOT_TOL) == (1e-9, 1e-10)
    assert not hasattr(onebit.lp_core, "FEASIBILITY_TOL")
    # the reference oracles are test code, not library API
    for module in (onebit, onebit.lp_core, onebit.recovery):
        for name in ("brute_force_vertex_solve", "nonconvex_oracle"):
            assert not hasattr(module, name), (module.__name__, name)


def test_validation_errors():
    with pytest.raises(ValueError):
        lp([1.0], eq_lhs=[[1.0]], eq_rhs=[])
    with pytest.raises(ValueError):
        lp([np.inf])
    with pytest.raises(ValueError):
        lp([1.0], ineq_lhs=[[np.nan]], ineq_rhs=[0.0])
    with pytest.raises(ValueError, match="one entry per variable"):
        lp([1.0, 1.0], nonneg=[True])
