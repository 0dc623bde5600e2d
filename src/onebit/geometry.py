"""Geometry of effectively sparse signal sets and hyperplane tessellations.

The central set is K(n, s) = {x : ||x||_2 <= 1, ||x||_1 <= sqrt(s)}, the
convex relaxation of the unit s-sparse vectors.  Random Gaussian hyperplanes
through the origin cut the unit sphere into cells; with enough hyperplanes
every cell restricted to K has small diameter, which is what makes one-bit
measurements informative.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .measurement import as_rows, derive_seed, normal_grid, row_blocks, uniform_grid


@dataclass
class SignalSetSpec:
    """The signal set K(n, s) above; s may be fractional, 1 <= s <= n.

    kind names the set and has the one value "effectively_sparse".
    """

    n: int
    s: float
    kind: str = "effectively_sparse"

    # not a field, so ==, repr, asdict and replace never see it: the last
    # report's m-independent geometry, as (key, arrays); see tessellate_and_report
    _cap_memo = None

    def __post_init__(self) -> None:
        if self.kind != "effectively_sparse":
            raise ValueError(f"unknown signal set kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("ambient dimension n must be at least 1")
        if not 1 <= self.s <= self.n:
            raise ValueError("sparsity must satisfy 1 <= s <= n")


def sample_sphere_cap(spec: SignalSetSpec, count: int, seed: int) -> np.ndarray:
    """Sample unit vectors from the sphere restricted to the signal set.

    Samples alternate between exactly floor(s)-sparse unit vectors (always
    members, by Cauchy-Schwarz) and dense perturbations of such vectors
    accepted once ||x||_1 <= sqrt(s), with the perturbation radius halved
    until acceptance.

    Returns
    -------
    (count, n) array of unit rows inside the set.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    n = spec.n
    sb = int(spec.s)
    budget = np.sqrt(spec.s)
    vals = normal_grid(derive_seed(seed, 1), count, n)
    perm = uniform_grid(derive_seed(seed, 2), count, n)
    support = np.argsort(perm, axis=1, kind="stable")[:, :sb]
    out = np.zeros((count, n))
    np.put_along_axis(out, support, np.take_along_axis(vals, support, axis=1), axis=1)
    # row norms through vecdot: the same dot product as the 1-d
    # np.linalg.norm, so every value is bit-identical to a row-by-row loop
    out /= np.sqrt(np.vecdot(out, out))[:, None]
    noise = normal_grid(derive_seed(seed, 3), count, n)
    rows = np.arange(1, count, 2)   # the perturbed rows still rejected
    g = noise[rows] / np.sqrt(np.vecdot(noise[rows], noise[rows]))[:, None]
    w = out[rows]
    for k in range(1, 61):   # radius 2**-k, exact as a power of two
        if not rows.size:
            break
        v = w + 0.5 ** k * g
        v /= np.sqrt(np.vecdot(v, v))[:, None]
        ok = np.abs(v).sum(axis=1) <= budget
        out[rows[ok]] = v[ok]
        rows, g, w = rows[~ok], g[~ok], w[~ok]
    return out


def separation_count(ensemble, x, y_pt, margin: float) -> int:
    """Number of rows putting x strictly above +margin and y_pt strictly below -margin."""
    A = as_rows(ensemble)
    px = A @ np.asarray(x, dtype=np.float64)
    py = A @ np.asarray(y_pt, dtype=np.float64)
    return int(np.count_nonzero((px > margin) & (py < -margin)))


def single_hyperplane_separation_prob(x, y_pt, trials: int, seed: int,
                                      margin: float) -> float:
    """Monte Carlo estimate of the one-row separation probability.

    Draws fresh Gaussian rows a and estimates P(<a, x> > margin and
    <a, y_pt> < -margin).  At margin ||x - y_pt||_2 / 12 the separation
    probability of points at distance delta is still at least delta / 12.

    For margin 0 the exact probability is d_g(x, y) / (2 pi) with d_g the
    geodesic distance: 1/4 for orthogonal unit vectors, 1/2 for antipodal.

    The rows are drawn in the blocks of measurement.row_blocks, so the
    estimate holds one block of rows at a time.
    """
    u = np.asarray(x, dtype=np.float64)
    v = np.asarray(y_pt, dtype=np.float64)
    if trials < 1:
        raise ValueError("need at least one trial")
    n = u.shape[0]
    hits = sum(separation_count(normal_grid(seed, r1 - r0, n, row_offset=r0), u, v, margin)
               for r0, r1 in row_blocks(trials, n))
    return hits / trials


@dataclass(slots=True)
class PairSeparation:
    """Separation record for one sampled pair at the report margin."""

    i: int
    j: int
    distance: float
    count_fwd: int   # rows with <a, x_i> > margin and <a, x_j> < -margin
    count_rev: int   # rows with <a, x_j> > margin and <a, x_i> < -margin


@dataclass
class TessellationReport:
    """One tessellation report; pair k is (pair_i[k], pair_j[k]), i < j.

    The pairs are the sampled pairs at distance greater than delta, in
    row-major order, with the separating-row counts in both orientations.
    sampled_points, pair_i, pair_j and pair_distance are read-only: the
    reports made on one SignalSetSpec share them.
    """

    sampled_points: np.ndarray          # (count, n)
    nonempty_cells: int
    max_cell_diameter_lb: float         # max within-cell pairwise distance seen
    pair_i: np.ndarray                  # int64
    pair_j: np.ndarray                  # int64
    pair_distance: np.ndarray           # float64
    count_fwd: np.ndarray               # int64, as PairSeparation.count_fwd
    count_rev: np.ndarray               # int64, as PairSeparation.count_rev

    @functools.cached_property
    def separation_stats(self) -> list[PairSeparation]:
        """The pairs as records, built from the arrays on first access.

        Later accesses return the same list object.  Only the benchmark's
        workload reads records; the library and the CLI read the arrays.
        """
        return list(map(PairSeparation, self.pair_i.tolist(), self.pair_j.tolist(),
                        self.pair_distance.tolist(), self.count_fwd.tolist(),
                        self.count_rev.tolist()))


def sign_pattern_cells(products: np.ndarray) -> np.ndarray:
    """Label each row of products = points @ rows.T by its sign-pattern cell.

    Points with the same sign pattern share a cell; ids are in first-seen order.
    """
    S = np.sign(products).astype(np.int8)
    labels: dict[bytes, int] = {}
    ids = np.empty(S.shape[0], dtype=np.int64)
    for idx in range(S.shape[0]):
        key = S[idx].tobytes()
        ids[idx] = labels.setdefault(key, len(labels))
    return ids


def tessellation_points(spec: SignalSetSpec, sample_count: int,
                        seed: int) -> np.ndarray:
    """The point sample a tessellation report at this seed works over."""
    return sample_sphere_cap(spec, sample_count, derive_seed(seed, 101))


def tessellation_rows(spec: SignalSetSpec, m: int, seed: int) -> np.ndarray:
    """First m hyperplane normals of the report's row stream at this seed.

    Rows are keyed by index, so tessellation_rows(spec, m1, seed) is exactly
    the leading m1 rows of tessellation_rows(spec, m2, seed) for m1 <= m2.
    Reports at increasing m therefore refine one fixed tessellation.
    """
    # imported at call time, not with the module: a caller that replaces
    # measurement.gen_gaussian_ensemble (the benchmark's per-layer timing
    # does) then sees the calls made from here too
    from .measurement import gen_gaussian_ensemble

    return gen_gaussian_ensemble(m, spec.n, derive_seed(seed, 102)).rows


def _cap_geometry(spec: SignalSetSpec, sample_count: int, seed: int,
                  delta: float) -> tuple[np.ndarray, ...]:
    """The part of a report that does not depend on m, each array read-only.

    Returns the sample X, its distance matrix, the boolean mask far of the
    pairs i < j beyond delta, and those pairs as (pair_i, pair_j,
    pair_distance) in row-major order.
    """
    X = tessellation_points(spec, sample_count, seed)
    gram = X @ X.T
    norms = np.diag(gram)
    dist = np.sqrt(np.maximum(np.add.outer(norms, norms) - 2.0 * gram, 0.0))
    far = np.triu(dist > delta, k=1)
    pi, pj = np.nonzero(far)
    arrays = (X, dist, far, pi, pj, dist[far])
    for a in arrays:
        a.flags.writeable = False
    return arrays


def tessellate_and_report(spec: SignalSetSpec, m: int, delta: float,
                          sample_count: int, seed: int) -> TessellationReport:
    """Measure how m Gaussian hyperplanes tessellate the sampled cap.

    Samples sample_count points from the cap, buckets them by the sign
    pattern of the m measurements, and reports the number of nonempty
    cells plus the largest within-cell distance (a lower bound on the true
    cell diameter).  For every sampled pair at distance greater than delta
    the report holds, as arrays, the separating-row counts at margin
    delta / 30 in both orientations.

    Points come from tessellation_points and rows from tessellation_rows,
    so reports at increasing m share the sample set and use nested row
    prefixes of one underlying ensemble.  The sample, its distances and
    its pairs beyond delta do not depend on m: spec keeps the last ones it
    was given, and a report with the same (n, s, sample_count, seed, delta)
    shares them, read-only, instead of computing them again.
    """
    if m < 0:
        raise ValueError("row count m must be nonnegative")
    if not 0 < delta < np.inf:
        raise ValueError("delta must be positive and finite")
    key = (spec.n, spec.s, sample_count, seed, delta)
    if spec._cap_memo is None or spec._cap_memo[0] != key:
        spec._cap_memo = (key, _cap_geometry(spec, sample_count, seed, delta))
    X, dist, far, pi, pj, pair_distance = spec._cap_memo[1]

    G = X @ tessellation_rows(spec, m, seed).T
    cells = sign_pattern_cells(G)
    num_cells = int(cells.max()) + 1 if cells.size else 0
    max_diam = float(dist[cells[:, None] == cells].max(initial=0.0))

    margin = delta / 30.0
    above = (G > margin).astype(np.float32)
    below = (G < -margin).astype(np.float32)
    # counts[p, q] = #separators for (p, q); float32 sums of 0/1 terms are
    # exact integers while m < 2**24, so only the gathered pairs are cast
    counts = above @ below.T
    return TessellationReport(X, num_cells, max_diam, pi, pj, pair_distance,
                              counts[far].astype(np.int64),
                              counts.T[far].astype(np.int64))
