"""Tests for signal-set geometry, nets, decompositions, and tessellations."""

import dataclasses

import numpy as np
import pytest

from onebit.geometry import (
    PairSeparation,
    SignalSetSpec,
    sample_sphere_cap,
    separation_count,
    sign_pattern_cells,
    single_hyperplane_separation_prob,
    tessellate_and_report,
    tessellation_points,
    tessellation_rows,
)
from onebit.measurement import derive_seed, gen_gaussian_ensemble, normal_grid, uniform_grid
from oracles import block_decompose, contains, hard_threshold


def cap_spec(n, s):
    return SignalSetSpec(n, s, "effectively_sparse")


def test_hard_threshold_examples():
    x = np.array([0.8, 0.6, 0.0, 0.0])
    out = hard_threshold(x, 1)
    assert np.array_equal(out, [0.8, 0.0, 0.0, 0.0])
    assert np.linalg.norm(x - out) == pytest.approx(0.6)
    assert np.array_equal(hard_threshold(x, 4), x)
    # t >= n keeps every entry, -0.0 included, in a new array
    v = np.array([-0.0, 0.3, -0.2])
    for t in (3, 5):
        kept = hard_threshold(v, t)
        assert kept.tobytes() == v.tobytes() and not np.shares_memory(kept, v)
    # magnitude ties resolve toward the lowest index
    tied = hard_threshold(np.array([0.5, -0.5, 0.5]), 1)
    assert np.array_equal(tied, [0.5, 0.0, 0.0])
    with pytest.raises(ValueError):
        hard_threshold(x, 0)
    with pytest.raises(ValueError, match="expected a vector"):
        hard_threshold(np.zeros((2, 2)), 1)


def test_hard_threshold_tail_bound():
    rng = np.random.default_rng(2)
    for _ in range(200):
        x = rng.normal(size=12)
        for t in (1, 3, 7):
            tail = np.linalg.norm(x - hard_threshold(x, t))
            assert tail <= np.abs(x).sum() / np.sqrt(t) + 1e-12


def test_block_decompose_examples():
    e1 = np.zeros(4)
    e1[0] = 1.0
    blocks = block_decompose(e1, 1)
    assert len(blocks) == 1
    assert np.array_equal(blocks[0], e1)

    half = np.full(4, 0.5)          # in K(4, 4): l1 = 2 = sqrt(4)
    blocks = block_decompose(half, 4)
    assert len(blocks) == 1
    assert np.linalg.norm(blocks[0]) == pytest.approx(1.0)

    with pytest.raises(ValueError, match="not in K"):
        block_decompose(half, 2)    # l1 = 2 > sqrt(2)


def test_block_decompose_structure():
    spec = cap_spec(24, 3)
    X = sample_sphere_cap(spec, 60, seed=8)
    for x in X:
        blocks = block_decompose(x, 3)
        total = np.zeros_like(x)
        seen = np.zeros_like(x, dtype=bool)
        for b in blocks:
            support = b != 0
            assert support.sum() <= 3
            assert not np.any(seen & support)   # disjoint supports
            seen |= support
            total = total + b
        assert np.array_equal(total, x)         # exact reassembly
        norm_sum = sum(np.linalg.norm(b) for b in blocks)
        assert norm_sum <= 1.0 + np.abs(x).sum() / np.sqrt(3) + 1e-12
        assert norm_sum <= 2.0 + 1e-12


def test_sample_sphere_cap_contracts():
    spec = cap_spec(32, 2)
    X = sample_sphere_cap(spec, 1000, seed=4)
    assert X.shape == (1000, 32)
    norms = np.linalg.norm(X, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12
    l1 = np.abs(X).sum(axis=1)
    assert l1.max() <= np.sqrt(2.0) + 1e-12
    # the mixture produces plenty of non-exactly-sparse points
    dense = ((X != 0).sum(axis=1) > 2).sum()
    assert dense >= 400
    assert np.array_equal(X, sample_sphere_cap(spec, 1000, seed=4))
    with pytest.raises(ValueError, match="nonnegative"):
        sample_sphere_cap(spec, -1, seed=4)


def test_sample_sphere_cap_full_sparsity():
    # s = n: the l1 budget sqrt(n) never binds, all samples are unit vectors
    X = sample_sphere_cap(cap_spec(6, 6), 200, seed=1)
    assert np.max(np.abs(np.linalg.norm(X, axis=1) - 1.0)) <= 1e-12
    assert np.abs(X).sum(axis=1).max() <= np.sqrt(6.0) + 1e-12


def _loop_sample_sphere_cap(spec, count, seed):
    """The sampler one row at a time, as sample_sphere_cap once was."""
    n = spec.n
    sb = int(spec.s)
    budget = np.sqrt(spec.s)
    vals = normal_grid(derive_seed(seed, 1), count, n)
    perm = uniform_grid(derive_seed(seed, 2), count, n)
    noise = normal_grid(derive_seed(seed, 3), count, n)
    out = np.zeros((count, n))
    for i in range(count):
        support = np.argsort(perm[i], kind="stable")[:sb]
        w = np.zeros(n)
        w[support] = vals[i][support]
        w /= np.linalg.norm(w)
        if i % 2 == 0:
            out[i] = w
            continue
        g = noise[i] / np.linalg.norm(noise[i])
        eps = 0.5
        chosen = w
        for _ in range(60):
            v = w + eps * g
            v /= np.linalg.norm(v)
            if np.abs(v).sum() <= budget:
                chosen = v
                break
            eps *= 0.5
        out[i] = chosen
    return out


def _loop_block_decompose(x, s):
    """The block split one chunk at a time, as block_decompose once was."""
    v = np.asarray(x, dtype=np.float64)
    n = v.shape[0]
    if not 1 <= s <= n:
        raise ValueError("sparsity must satisfy 1 <= s <= n")
    if not contains(SignalSetSpec(n, s, "effectively_sparse"), v):
        raise ValueError("not in K")
    support = np.flatnonzero(v)
    order = support[np.argsort(-np.abs(v[support]), kind="stable")]
    blocks = []
    for start in range(0, order.size, s):
        chunk = order[start:start + s]
        block = np.zeros(n)
        block[chunk] = v[chunk]
        blocks.append(block)
    if not blocks:
        blocks.append(np.zeros(n))
    return blocks


def test_sample_sphere_cap_matches_loop_reference():
    # bit for bit: the array code must reproduce every row the loop made
    for n in (8, 32, 128):
        for s in (1, 1.5, 2.7, 4):
            spec = cap_spec(n, s)
            for count in (0, 1, 2, 17, 500 if n == 32 else 60):
                for seed in (0, 5, 2**64 - 1):
                    got = sample_sphere_cap(spec, count, seed)
                    want = _loop_sample_sphere_cap(spec, count, seed)
                    assert got.shape == (count, n)
                    assert got.tobytes() == want.tobytes(), (n, s, count, seed)
    # one point is an exactly floor(s)-sparse unit vector
    one = sample_sphere_cap(cap_spec(16, 2.7), 1, seed=3)[0]
    assert np.count_nonzero(one) == 2
    assert abs(np.linalg.norm(one) - 1.0) <= 1e-15


def test_block_decompose_matches_loop_reference():
    for n in (1, 2, 5, 13, 32):
        for s in sorted({1, 2, n // 2, n} - {0}):
            if s > n:
                continue
            X = sample_sphere_cap(cap_spec(n, s), 9, seed=n * 100 + s)
            for x in list(X) + [np.zeros(n), 0.5 * X[1], np.ones(n)]:
                for t in sorted({0, 1, s, n, n + 1}):   # 0 and n + 1 are rejected
                    try:
                        want = _loop_block_decompose(x, t)
                    except ValueError as exc:
                        with pytest.raises(ValueError, match=str(exc)):
                            block_decompose(x, t)
                        continue
                    got = block_decompose(x, t)
                    assert len(got) == len(want)
                    for a, b in zip(got, want):
                        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_signal_set_spec_validation():
    for n in (0, -3):   # a bad n is blamed on n, not on s
        with pytest.raises(ValueError, match="ambient dimension n must be at least 1"):
            SignalSetSpec(n, 1, "effectively_sparse")
    with pytest.raises(ValueError):
        SignalSetSpec(8, 0.5, "effectively_sparse")   # s < 1
    with pytest.raises(ValueError):
        SignalSetSpec(8, 9, "effectively_sparse")     # s > n
    with pytest.raises(ValueError):
        SignalSetSpec(8, 2, "banded")
    with pytest.raises(ValueError, match="unknown signal set kind"):
        SignalSetSpec(8, 2, "exactly_sparse")   # K(n, s) is the one set
    assert contains(cap_spec(8, 2), np.full(8, 0.125))
    assert not contains(cap_spec(8, 2), np.full(7, 0.125))   # wrong shape


def test_separation_count_basics():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5]])
    x = np.array([1.0, 0.0])
    y = np.array([0.0, 1.0])
    # rows separating x from y at margin 0: need <a,x> > 0 > <a,y>
    assert separation_count(A, x, x, 0.0) == 0
    assert separation_count(A, x, y, np.finfo(float).max) == 0
    assert separation_count(A, x, y, 0.0) == 0          # no row qualifies
    assert separation_count(A, y, x, 0.0) == 1          # row (-1, 0.5) does


def test_separation_probability_orthogonal():
    n = 2
    x = np.array([1.0, 0.0])
    y = np.array([0.0, 1.0])
    A = gen_gaussian_ensemble(100000, n, seed=19).rows
    frac = separation_count(A, x, y, 0.0) / 100000
    assert abs(frac - 0.25) <= 0.01


def test_separation_probability_antipodal():
    x = np.array([1.0, 0.0, 0.0])
    est = single_hyperplane_separation_prob(x, -x, 100000, seed=23, margin=0.0)
    assert abs(est - 0.5) <= 0.01


def test_separation_probability_monotone_in_margin():
    x = np.array([1.0, 0.0])
    y = np.array([0.0, 1.0])
    last = 1.0
    for margin in (0.0, 0.05, 0.1, 0.2, 0.4):
        est = single_hyperplane_separation_prob(x, y, 20000, seed=31,
                                                margin=margin)
        assert est <= last + 1e-12
        last = est
    assert single_hyperplane_separation_prob(x, y, 20000, seed=31, margin=0.1) \
        == single_hyperplane_separation_prob(x, y, 20000, seed=31, margin=0.1)


def test_separation_probability_at_distance_margin():
    # pairs at distance delta separate with probability >= delta/12 at
    # margin delta/12
    for delta in (0.5, 1.0):
        c = 1.0 - delta ** 2 / 2.0
        y = np.array([c, np.sqrt(1.0 - c * c), 0.0])
        x = np.array([1.0, 0.0, 0.0])
        assert np.linalg.norm(x - y) == pytest.approx(delta)
        est = single_hyperplane_separation_prob(x, y, 100000, seed=41,
                                                margin=np.linalg.norm(x - y) / 12.0)
        sigma = np.sqrt(max(est * (1.0 - est), 1e-12) / 100000)
        assert est >= delta / 12.0 - 3.0 * sigma


def test_separation_exchangeability():
    # swapping the roles of x and y flips the halfspaces; over many seeds
    # the two counts agree in mean within 3 sigma
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([-0.6, 0.8, 0.0])
    fwd = np.empty(200)
    rev = np.empty(200)
    for k in range(200):
        A = gen_gaussian_ensemble(1000, 3, seed=6000 + k).rows
        fwd[k] = separation_count(A, x, y, 0.1)
        rev[k] = separation_count(A, y, x, 0.1)
    diff = fwd - rev
    sigma = diff.std(ddof=1) / np.sqrt(len(diff))
    assert abs(diff.mean()) <= 3.0 * sigma + 1e-9


def test_sign_pattern_cells_refinement():
    spec = cap_spec(12, 2)
    X = tessellation_points(spec, 150, seed=3)
    A = tessellation_rows(spec, 40, seed=3)
    coarse = sign_pattern_cells(X, A[:10])
    fine = sign_pattern_cells(X, A[:40])
    # same fine cell implies same coarse cell (each cell splits or persists)
    for cid in range(fine.max() + 1):
        members = np.flatnonzero(fine == cid)
        assert np.unique(coarse[members]).size == 1
    assert fine.max() >= coarse.max()
    # ids are dense and first-seen ordered
    assert coarse[0] == 0
    assert set(np.unique(coarse)) == set(range(coarse.max() + 1))


def test_tessellate_report_m_zero():
    spec = cap_spec(8, 2)
    rep = tessellate_and_report(spec, 0, 0.5, 30, seed=14)
    assert rep.nonempty_cells == 1
    X = rep.sampled_points
    gram = X @ X.T
    d2 = np.add.outer(np.diag(gram), np.diag(gram)) - 2 * gram
    assert rep.max_cell_diameter_lb == pytest.approx(np.sqrt(d2.max()), abs=1e-12)
    with pytest.raises(ValueError, match="nonnegative"):
        tessellate_and_report(spec, -1, 0.5, 30, seed=14)


def test_tessellate_report_shrinks_with_m():
    spec = cap_spec(16, 2)
    ms = (20, 40, 80)
    reports = [tessellate_and_report(spec, m, 0.5, 120, seed=5) for m in ms]
    lbs = [r.max_cell_diameter_lb for r in reports]
    assert lbs[0] >= lbs[1] >= lbs[2]
    cells = [r.nonempty_cells for r in reports]
    assert cells[0] <= cells[1] <= cells[2]
    for m, r in zip(ms, reports):
        assert r.max_cell_diameter_lb <= 2.0
        assert np.array_equal(r.sampled_points, reports[0].sampled_points)
        assert np.all(r.pair_distance > 0.5)
        for counts in (r.count_fwd, r.count_rev):
            assert np.all((0 <= counts) & (counts <= m))


def test_tessellation_rows_nest():
    spec = cap_spec(16, 2)
    A80 = tessellation_rows(spec, 80, seed=5)
    A20 = tessellation_rows(spec, 20, seed=5)
    assert np.array_equal(A80[:20], A20)


def _loop_pair_records(X, A, delta):
    """Pair records built one pair at a time, as the report once built them."""
    gram = X @ X.T
    norms = np.diag(gram)
    dist = np.sqrt(np.maximum(np.add.outer(norms, norms) - 2.0 * gram, 0.0))
    margin = delta / 30.0
    stats = []
    if X.shape[0] >= 2:
        G = X @ A.T
        above = (G > margin).astype(np.float32)
        below = (G < -margin).astype(np.float32)
        counts = above @ below.T
        pi, pj = np.nonzero(np.triu(dist > delta, k=1))
        for a, b in zip(pi.tolist(), pj.tolist()):
            stats.append(PairSeparation(a, b, float(dist[a, b]),
                                        int(round(counts[a, b])),
                                        int(round(counts[b, a]))))
    return stats


@pytest.mark.parametrize("count", [0, 1, 2, 120])
def test_pair_records_match_loop_reference(count):
    spec = cap_spec(16, 2)
    assert [f.name for f in dataclasses.fields(PairSeparation)] == [
        "i", "j", "distance", "count_fwd", "count_rev"]
    for m in (0, 1, 30, 200):
        rep = tessellate_and_report(spec, m, 0.5, count, seed=9)
        A = tessellation_rows(spec, m, seed=9)
        want = _loop_pair_records(rep.sampled_points, A, 0.5)
        # the report's arrays, then the records built from them
        for name, dtype in (("pair_i", np.int64), ("pair_j", np.int64),
                            ("pair_distance", np.float64), ("count_fwd", np.int64),
                            ("count_rev", np.int64)):
            got = getattr(rep, name)
            assert got.dtype == dtype and got.shape == (len(want),), name
        assert rep.separation_stats == want
        # built once: a reader that edits the list sees its edit again
        assert rep.separation_stats is rep.separation_stats
        if count == 120 and m:
            assert want and max(p.count_fwd for p in want) > 0
            assert max(p.count_rev for p in want) > 0
        for p in rep.separation_stats:
            assert type(p.i) is int and type(p.j) is int
            assert type(p.count_fwd) is int and type(p.count_rev) is int
            assert type(p.distance) is float
