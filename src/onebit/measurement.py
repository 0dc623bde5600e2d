"""Deterministic generation of measurement ensembles, sparse signals, and sign patterns.

All randomness flows through a counter-based SplitMix64 scheme: entry (i, j) of
any generated matrix is a pure function of (seed, i, j), so individual rows can
be regenerated in any order and the first m rows of a larger ensemble coincide
with the m-row ensemble for the same seed.  Likewise the first k columns of a
grid are the k-column grid for the same seed, so a computation that reads only
some leading coordinates can generate just those.

The word of grid entry (i, j) is derive_seed(seed, i, j).  A uniform is its
top 53 bits, centered in (0, 1), and a normal is ndtri of that uniform.  A
sign is its top bit, +1 when set, so a sign is -1 exactly where the uniform
is below 1/2; gen_sparse_signal's constant magnitudes use that same rule.

Grids are generated in row blocks of about 16K entries, mixed in place in two
reused word buffers and converted straight into the output array.  Every entry
is still that pure function of (seed, i, j), so blocking never changes a value.

A computation over more rows than it should hold at once streams them:
row_blocks splits rows 0..m into blocks of about ROW_BLOCK_ENTRIES entries,
and each block is drawn with its row_offset.  The concentration checks and
the separation estimate all stream their Gaussian rows this way.

scipy.special's ndtri is imported at first use: normal_grid and
gen_sparse_signal's Gaussian magnitudes look it up once per call, so importing
onebit loads no scipy and the uniform and sign draws never load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN_U = np.uint64(_GOLDEN)


def mix64(value: int) -> int:
    """Scramble a 64-bit word with the SplitMix64 finalizer.

    Bijective on 64-bit words.  Used to turn structured integers (seeds,
    row indices, trial counters) into decorrelated stream keys.

    Args:
        value: arbitrary integer; reduced mod 2**64.

    Returns:
        Mixed word in [0, 2**64).
    """
    z = value & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *labels: int) -> int:
    """Derive a child seed from a master seed and integer labels.

    Each label folds in one SplitMix64 step, so (seed, a) and (seed, b)
    give unrelated streams for a != b.  Deterministic across runs and
    platforms; independent of the order in which children are requested.

    Args:
        seed: master seed.
        labels: integer labels, e.g. (m, trial) or a purpose tag.

    Returns:
        Derived 64-bit seed.
    """
    h = seed & MASK64
    for lab in labels:
        h = mix64((h + ((lab + 1) & MASK64) * _GOLDEN) & MASK64)
    return h


def _mix64_inplace(z: np.ndarray, t: np.ndarray) -> None:
    """SplitMix64 finalizer applied to z in place; t is scratch of z's shape.

    uint64 arithmetic wraps mod 2**64, which is exactly what SplitMix64 needs.
    """
    np.right_shift(z, np.uint64(30), out=t)
    np.bitwise_xor(z, t, out=z)
    np.multiply(z, _M1, out=z)
    np.right_shift(z, np.uint64(27), out=t)
    np.bitwise_xor(z, t, out=z)
    np.multiply(z, _M2, out=z)
    np.right_shift(z, np.uint64(31), out=t)
    np.bitwise_xor(z, t, out=z)


# entries mixed per block: the two 128 KB word buffers stay in cache
_BLOCK = 1 << 14


def _grid(seed: int, rows: int, cols: int, row_offset: int, fill) -> np.ndarray:
    """The (rows, cols) grid that fill maps from the words of (seed, row, col).

    The word of entry (i, j) is derive_seed(seed, row_offset + i, j).  Words
    are mixed in row blocks of at least one whole row, in two reused
    buffers, and fill(words, out_block) converts each block into the output
    before the next one overwrites it; fill may overwrite words.
    """
    out = np.empty((rows, cols))
    i = np.arange(row_offset + 1, row_offset + rows + 1, dtype=np.uint64)
    row_keys = np.uint64(seed & MASK64) + i * _GOLDEN_U
    _mix64_inplace(row_keys, np.empty_like(row_keys))
    col_keys = np.arange(1, cols + 1, dtype=np.uint64) * _GOLDEN_U
    step = max(1, _BLOCK // max(cols, 1))
    z = np.empty((min(step, rows), cols), dtype=np.uint64)
    t = np.empty_like(z)
    for r0 in range(0, rows, step):
        w = z[:min(step, rows - r0)]
        np.add(row_keys[r0:r0 + len(w), None], col_keys, out=w)
        _mix64_inplace(w, t[:len(w)])
        fill(w, out[r0:r0 + len(w)])
    return out


def _uniforms(w: np.ndarray, out: np.ndarray) -> None:
    # top 53 bits, centered so 0 and 1 are never produced
    np.right_shift(w, np.uint64(11), out=w)
    np.copyto(out, w, casting="unsafe")
    out += 0.5
    out *= 2.0 ** -53


def _signs(w: np.ndarray, out: np.ndarray) -> None:
    # the top bit: -1 exactly where the uniform is below 1/2
    np.right_shift(w, np.uint64(63), out=w)
    np.copyto(out, w, casting="unsafe")
    out *= 2.0
    out -= 1.0


def uniform_grid(seed: int, rows: int, cols: int, row_offset: int = 0) -> np.ndarray:
    """Matrix of uniforms on (0, 1), entry (i, j) a pure function of (seed, i, j).

    row_offset shifts the row index, so uniform_grid(seed, r, c, k) equals
    rows k..k+r of uniform_grid(seed, k + r, c).
    """
    return _grid(seed, rows, cols, row_offset, _uniforms)


def normal_grid(seed: int, rows: int, cols: int, row_offset: int = 0) -> np.ndarray:
    """Matrix of standard normals via the inverse-CDF transform of uniform_grid."""
    from scipy.special import ndtri

    def normals(w: np.ndarray, out: np.ndarray) -> None:
        _uniforms(w, out)
        ndtri(out, out=out)

    return _grid(seed, rows, cols, row_offset, normals)


def sign_grid(seed: int, rows: int, cols: int, row_offset: int = 0) -> np.ndarray:
    """Matrix of symmetric +-1 entries drawn from the top bit of the word grid."""
    return _grid(seed, rows, cols, row_offset, _signs)


# entries in one block of a streamed draw, of its rows and of their products
ROW_BLOCK_ENTRIES = 1 << 17


def row_blocks(m: int, width: int) -> list[tuple[int, int]]:
    """The (first, stop) rows of the blocks that rows 0..m of a stream are drawn in.

    width is the widest row a block makes, whether a row drawn or a row of
    its products, so a block holds about ROW_BLOCK_ENTRIES entries of each
    (the last block up to twice that).

    A product of the blocks gives the whole ensemble's bits only if each row
    meets the same BLAS kernel.  Matrix kernels take rows in groups (of 4 in
    OpenBLAS's x86-64 kernels) and round a group's remainder differently, so
    every block but the last is a multiple of 8 rows.  A short product takes
    another kernel altogether: numpy multiplies a single row by a dot
    product, and OpenBLAS 0.3.31 rounds a 100-column product of up to 12
    rows differently.  So the last block takes the rows left after the
    other blocks, at least one whole block of them unless m is smaller.
    """
    step = max(8, (ROW_BLOCK_ENTRIES // width) & -8)
    starts = range(0, max(m - step + 1, 1), step)
    return list(zip(starts, [*starts[1:], m]))


@dataclass
class MeasurementEnsemble:
    """A bank of measurement vectors in R^n: the rows of an (m, n) array.

    The library reads plain arrays (see as_rows).  The generators still wrap
    their rows in this class only because perfbench/ reads their .rows; it
    goes with benchmark v2, and the generators then return the arrays.
    """

    rows: np.ndarray      # (m, n) float64

    def __post_init__(self) -> None:
        self.rows = as_rows(self.rows)


def as_rows(ensemble) -> np.ndarray:
    """Accept a MeasurementEnsemble or a plain (m, n) array and return the rows."""
    if isinstance(ensemble, MeasurementEnsemble):
        return ensemble.rows
    rows = np.asarray(ensemble, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError("measurement rows must form a 2-d array")
    return rows


def _ensemble(grid, m: int, n: int, seed: int, row_offset: int = 0) -> MeasurementEnsemble:
    """The m x n grid of one generator, with the ensemble shape checked."""
    if n < 1:
        raise ValueError("ambient dimension n must be at least 1")
    if m < 0:
        raise ValueError("row count m must be nonnegative")
    if row_offset < 0:
        raise ValueError("row offset must be nonnegative")
    return MeasurementEnsemble(grid(seed, m, n, row_offset))


def gen_gaussian_ensemble(m: int, n: int, seed: int, row_offset: int = 0) -> MeasurementEnsemble:
    """Generate m i.i.d. standard Gaussian measurement vectors in R^n.

    Args:
        m: number of rows, m >= 0 (m = 0 gives an empty ensemble).
        n: ambient dimension, n >= 1.
        seed: 64-bit stream seed; row i depends only on (seed, i).
        row_offset: index of the first row, >= 0, so the rows are rows
            row_offset..row_offset+m of the ensemble at this seed.

    Returns:
        MeasurementEnsemble with rows of i.i.d. N(0, 1) entries.
    """
    return _ensemble(normal_grid, m, n, seed, row_offset)


def gen_bernoulli_ensemble(m: int, n: int, seed: int) -> MeasurementEnsemble:
    """Generate m symmetric Bernoulli (+-1) measurement vectors in R^n.

    Included as the negative control: sign measurements from +-1 rows cannot
    separate certain distinct sparse signals, no matter how many rows are used.
    """
    return _ensemble(sign_grid, m, n, seed)


def sign_quantize(values) -> np.ndarray:
    """One-bit quantizer: elementwise sign with sign(0) = 0.

    Args:
        values: real vector, typically A @ x.

    Returns:
        int8 vector with entries in {-1, 0, +1}.

    Raises:
        ValueError: if any entry is NaN or infinite.
    """
    v = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValueError("invalid measurement vector")
    return np.sign(v).astype(np.int8)


def gen_sparse_signal(n: int, s: int, seed: int,
                      magnitude_model: str = "unit_gaussian") -> np.ndarray:
    """Generate an s-sparse signal in R^n with a uniformly random support.

    Args:
        n: ambient dimension.
        s: exact support size, 1 <= s <= n.
        seed: stream seed.
        magnitude_model: "unit_gaussian" for i.i.d. N(0, 1) magnitudes or
            "constant" for equal magnitudes with random signs (worst-case
            dynamic range).

    Returns:
        Dense float64 vector with exactly s nonzero entries.
    """
    if n < 1:
        raise ValueError("ambient dimension n must be at least 1")
    if not 1 <= s <= n:
        raise ValueError("sparsity s must satisfy 1 <= s <= n")
    if magnitude_model not in ("unit_gaussian", "constant"):
        raise ValueError(f"unknown magnitude model {magnitude_model!r}")
    u = uniform_grid(seed, 2, n)
    support = np.argsort(u[0], kind="stable")[:s]
    x = np.zeros(n)
    if magnitude_model == "unit_gaussian":
        from scipy.special import ndtri
        x[support] = ndtri(u[1][support])
    else:
        x[support] = np.where(u[1][support] < 0.5, -1.0, 1.0)
    return x


def effective_sparsity(x) -> float:
    """Effective sparsity (||x||_1 / ||x||_2)^2; at most ||x||_0, with equality
    iff the nonzero entries share a common magnitude.

    Raises:
        ValueError: on the zero vector.
    """
    v = np.asarray(x, dtype=np.float64)
    l2 = np.linalg.norm(v)
    if l2 == 0.0:
        raise ValueError("effective sparsity undefined for the zero vector")
    l1 = np.abs(v).sum()
    return (l1 / l2) ** 2
