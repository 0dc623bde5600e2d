"""Tests for seeded generation, sign quantization, and sparsity metrics."""

import dataclasses
import hashlib

import numpy as np
import pytest
from scipy.special import ndtri

from onebit.measurement import (
    ROW_BLOCK_ENTRIES,
    MeasurementEnsemble,
    derive_seed,
    effective_sparsity,
    gen_bernoulli_ensemble,
    gen_gaussian_ensemble,
    gen_sparse_signal,
    mix64,
    normal_grid,
    row_blocks,
    sign_grid,
    sign_quantize,
    uniform_grid,
)

ROOT_TWO_OVER_PI = np.sqrt(2.0 / np.pi)

# Whole-array reference for the block generator: the word grid built in one
# piece, then converted, exactly as the grids were defined before blocking.
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN_U = np.uint64(0x9E3779B97F4A7C15)


def _ref_mix64_array(z):
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def _ref_word_grid(seed, rows, cols, row_offset=0):
    i = np.arange(row_offset + 1, row_offset + rows + 1, dtype=np.uint64)
    j = np.arange(1, cols + 1, dtype=np.uint64)
    row_keys = _ref_mix64_array(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + i * _GOLDEN_U)
    return _ref_mix64_array(row_keys[:, None] + j[None, :] * _GOLDEN_U)


def _ref_uniform_grid(seed, rows, cols, row_offset=0):
    w = _ref_word_grid(seed, rows, cols, row_offset)
    return ((w >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)


def _ref_normal_grid(seed, rows, cols, row_offset=0):
    return ndtri(_ref_uniform_grid(seed, rows, cols, row_offset))


def _ref_sign_grid(seed, rows, cols, row_offset=0):
    w = _ref_word_grid(seed, rows, cols, row_offset)
    return np.where((w >> np.uint64(63)).astype(bool), 1.0, -1.0)


def test_gaussian_ensemble_deterministic():
    a = gen_gaussian_ensemble(2, 3, seed=7)
    b = gen_gaussian_ensemble(2, 3, seed=7)
    assert a.rows.shape == (2, 3)
    assert np.array_equal(a.rows, b.rows)
    c = gen_gaussian_ensemble(2, 3, seed=8)
    assert not np.array_equal(a.rows, c.rows)


def test_gaussian_row_prefix_nesting():
    # entries are keyed by (seed, row, col): a shorter ensemble is a prefix
    big = gen_gaussian_ensemble(200, 5, seed=31)
    small = gen_gaussian_ensemble(50, 5, seed=31)
    assert np.array_equal(big.rows[:50], small.rows)
    # column prefixes nest too
    narrow = gen_gaussian_ensemble(200, 3, seed=31)
    assert np.array_equal(big.rows[:, :3], narrow.rows)


def test_grid_row_offset_matches_prefix():
    full = uniform_grid(123, 40, 4)
    assert np.array_equal(uniform_grid(123, 10, 4, row_offset=25), full[25:35])
    fulln = normal_grid(123, 40, 4)
    assert np.array_equal(normal_grid(123, 10, 4, row_offset=25), fulln[25:35])
    assert np.array_equal(gen_gaussian_ensemble(10, 4, 123, row_offset=25).rows, fulln[25:35])


def test_gaussian_moments():
    # m*n = 10000 draws: mean within 0.05 of 0, variance within 0.05 of 1
    ens = gen_gaussian_ensemble(10000, 1, seed=1)
    vals = ens.rows.ravel()
    assert abs(vals.mean()) <= 0.05
    assert abs(vals.var() - 1.0) <= 0.05


def test_gaussian_sign_balance():
    # single draws across 1000 seeds: positive fraction near 1/2
    pos = sum(gen_gaussian_ensemble(1, 1, seed=s).rows[0, 0] > 0
              for s in range(1000))
    assert 0.45 <= pos / 1000 <= 0.55


def test_gaussian_abs_first_moment():
    # (1/m) sum |<a_i, x>| near sqrt(2/pi) for at least 99 of 100 seeds
    n, m = 8, 20000
    x = np.zeros(n)
    x[0] = 1.0
    good = 0
    for s in range(100):
        ens = gen_gaussian_ensemble(m, n, seed=s)
        moment = np.abs(ens.rows @ x).mean()
        good += abs(moment - ROOT_TWO_OVER_PI) <= 0.02
    assert good >= 99


def test_bernoulli_entries_and_mean():
    ens = gen_bernoulli_ensemble(3, 2, seed=5)
    assert set(np.unique(ens.rows)) <= {-1.0, 1.0}
    big = gen_bernoulli_ensemble(10000, 1, seed=2)
    assert abs(big.rows.mean()) <= 0.03


def test_bernoulli_indistinguishable_pair():
    # x = e1 and x' = e1 + e2/2 produce identical sign patterns under +-1 rows
    n = 6
    x = np.zeros(n)
    x[0] = 1.0
    xp = x.copy()
    xp[1] = 0.5
    for s in range(25):
        ens = gen_bernoulli_ensemble(500, n, seed=s)
        assert np.array_equal(sign_quantize(ens.rows @ x),
                              sign_quantize(ens.rows @ xp))


def test_ensemble_validation():
    # an ensemble is its rows and nothing else
    assert [f.name for f in dataclasses.fields(MeasurementEnsemble)] == ["rows"]
    ens = MeasurementEnsemble([[1, 2, 3], [4, 5, 6]])
    assert ens.rows.dtype == np.float64 and ens.rows.shape == (2, 3)
    for bad in (np.zeros(3), np.zeros((2, 3, 1)), 1.0):
        with pytest.raises(ValueError, match="2-d array"):
            MeasurementEnsemble(bad)
    with pytest.raises(ValueError):
        gen_gaussian_ensemble(3, 0, seed=1)
    with pytest.raises(ValueError, match="nonnegative"):
        gen_gaussian_ensemble(-1, 3, seed=1)
    with pytest.raises(ValueError, match="row offset must be nonnegative"):
        gen_gaussian_ensemble(3, 2, seed=1, row_offset=-1)
    with pytest.raises(ValueError, match="at least 1"):
        gen_bernoulli_ensemble(3, 0, seed=1)
    with pytest.raises(ValueError, match="nonnegative"):
        gen_bernoulli_ensemble(-1, 3, seed=1)


def test_sign_quantize_examples():
    assert np.array_equal(sign_quantize([1.5, -2.0, 0.0]), [1, -1, 0])
    assert np.array_equal(sign_quantize([0.0, 0.0, 0.0]), [0, 0, 0])
    A = np.array([[2.0], [-3.0]])
    x = np.array([5.0])
    assert np.array_equal(sign_quantize(A @ x), [1, -1])
    assert sign_quantize([0.25]).dtype == np.int8


def test_sign_quantize_rejects_nonfinite():
    with pytest.raises(ValueError, match="invalid measurement vector"):
        sign_quantize([1.0, np.nan])
    with pytest.raises(ValueError, match="invalid measurement vector"):
        sign_quantize([np.inf, 0.0])


def test_sparse_signal_support_and_models():
    x = gen_sparse_signal(128, 4, seed=3)
    assert np.count_nonzero(x) == 4
    c = gen_sparse_signal(4, 4, seed=1, magnitude_model="constant")
    mags = np.abs(c[c != 0])
    assert np.count_nonzero(c) == 4
    assert np.allclose(mags, mags[0])
    assert np.array_equal(gen_sparse_signal(16, 3, seed=9),
                          gen_sparse_signal(16, 3, seed=9))
    with pytest.raises(ValueError):
        gen_sparse_signal(4, 5, seed=0)
    with pytest.raises(ValueError):
        gen_sparse_signal(4, 0, seed=0)
    with pytest.raises(ValueError, match="unknown magnitude model"):
        gen_sparse_signal(4, 2, seed=0, magnitude_model="laplace")


def test_sparse_signal_support_uniformity():
    # every index should land in the support a reasonable share of the time
    hits = np.zeros(8)
    for s in range(400):
        hits[gen_sparse_signal(8, 2, seed=s) != 0] += 1
    frac = hits / 400
    assert frac.min() > 0.15 and frac.max() < 0.35   # expect 1/4 each


def test_effective_sparsity_values():
    e1 = np.zeros(5)
    e1[0] = 1.0
    assert effective_sparsity(e1) == pytest.approx(1.0)
    assert effective_sparsity(np.ones(4)) == pytest.approx(4.0)
    assert effective_sparsity(0.3 * np.ones(4)) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        effective_sparsity(np.zeros(3))


def test_effective_sparsity_bounded_by_support():
    for s in range(1000):
        x = gen_sparse_signal(24, 5, seed=s)
        es = effective_sparsity(x)
        assert 1.0 <= es <= np.count_nonzero(x) + 1e-12


def test_mix64_and_derive_seed():
    assert mix64(0) == mix64(0)
    assert mix64(1) != mix64(2)
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
    assert 0 <= derive_seed(2**63, 10**9) < 2**64


def test_sign_grid_is_pm_one():
    g = sign_grid(44, 20, 7)
    assert set(np.unique(g)) <= {-1.0, 1.0}
    # roughly balanced
    assert abs(g.mean()) < 0.25


@pytest.mark.parametrize("seed, rows, cols, row_offset", [
    (7, 0, 64, 0),              # no rows
    (7, 1, 64, 0),              # one row
    (7, 300, 64, 0),            # a partial last block
    (7, 257, 129, 0),           # several blocks, rows not a multiple of any
    (7, 3, 20000, 5),           # one row is wider than a block
    (7, 257, 129, 1000),        # shifted row index
    (2**64 - 1, 257, 129, 1000),
    (31, 2, 128, 0),            # the gen_sparse_signal shape
])
def test_grids_bit_identical_to_whole_array_reference(seed, rows, cols, row_offset):
    for grid, ref in ((uniform_grid, _ref_uniform_grid),
                      (normal_grid, _ref_normal_grid),
                      (sign_grid, _ref_sign_grid)):
        got = grid(seed, rows, cols, row_offset)
        want = ref(seed, rows, cols, row_offset)
        assert got.shape == want.shape == (rows, cols)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), grid.__name__


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
@pytest.mark.parametrize("row_offset", [0, 1000])
def test_grids_are_the_derive_seed_chain(seed, row_offset):
    # the scalar mix64 chain, not a rebuilt vector path: the word of entry
    # (i, j) is derive_seed(seed, row_offset + i, j)
    rows, cols = 5, 7
    u = uniform_grid(seed, rows, cols, row_offset)
    g = sign_grid(seed, rows, cols, row_offset)
    for i in range(rows):
        for j in range(cols):
            word = derive_seed(seed, row_offset + i, j)
            assert u[i, j] == ((word >> 11) + 0.5) * 2.0 ** -53, (i, j)
            assert g[i, j] == (1.0 if word >> 63 else -1.0), (i, j)
    # a sign is -1 exactly where the uniform is below 1/2
    u = uniform_grid(seed, 300, 64, row_offset)
    want = np.where(u < 0.5, -1.0, 1.0)
    got = sign_grid(seed, 300, 64, row_offset)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("seed, row_offset", [(2**64 - 1, 0), (2**64 - 1, 999), (7, 123456)])
def test_grids_column_prefix(seed, row_offset):
    # a k-column grid is the first k columns of any wider grid at the same
    # seed; the narrow grids here take fewer, longer row blocks than n = 64
    r, n = 20000, 64
    for grid in (uniform_grid, normal_grid, sign_grid):
        wide = grid(seed, r, n, row_offset)
        for k in (1, 2, 63):
            got = grid(seed, r, k, row_offset)
            assert got.shape == (r, k)
            assert np.array_equal(got.view(np.uint64), wide[:, :k].view(np.uint64)), \
                (grid.__name__, k)


@pytest.mark.parametrize("grid, args, digest", [
    (uniform_grid, (7, 300, 64, 0), "e423ab08041355b8"),
    (uniform_grid, (2**64 - 1, 257, 129, 1000), "be0da0ef0256b2dc"),
    (sign_grid, (7, 300, 64, 0), "ab1623c08a15e2db"),
    (sign_grid, (7, 3, 20000, 5), "5d79afffca8595e3"),
])
def test_integer_only_grids_pinned(grid, args, digest):
    # these grids use only integer ops and exact conversions, so their bytes
    # are the same on every platform
    assert hashlib.sha256(grid(*args).tobytes()).hexdigest()[:16] == digest


@pytest.mark.parametrize("width", [1, 2, 64, 100, 5000, 2 ** 17, 2 ** 20])
def test_row_blocks_tile_the_rows(width):
    # blocks of ROW_BLOCK_ENTRIES // width rows, a multiple of 8 and at least
    # 8, tile rows 0..m in order; the last takes what the others leave, one
    # whole block or more unless m is smaller
    step = max(8, (ROW_BLOCK_ENTRIES // width) & -8)
    assert step % 8 == 0 and step * width <= max(ROW_BLOCK_ENTRIES, 8 * width)
    for m in (1, 2, 7, 8, 9, step - 1, step, step + 1, 2 * step - 1, 2 * step,
              2 * step + 1, 5 * step + 3):
        blocks = row_blocks(m, width)
        assert blocks[0][0] == 0 and blocks[-1][1] == m, (m, blocks)
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:])), (m, blocks)
        assert all(r1 - r0 == step for r0, r1 in blocks[:-1]), (m, blocks)
        assert min(m, step) <= blocks[-1][1] - blocks[-1][0] < 2 * step, (m, blocks)
