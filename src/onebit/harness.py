"""Experiment harness: recovery sweeps, concentration measurements, CSV and manifest writers.

The sweeps and checks return their results and write no file; the command
line writes each data file and its manifest through write_sweep_csv and
write_manifest.

Per-trial seeds are derived from the master seed and the (m, trial) pair with
the SplitMix64 mixer, so every row of a sweep is reproducible in isolation and
removing trials does not shift the randomness of the others.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .geometry import SignalSetSpec, sample_sphere_cap
from .measurement import (
    derive_seed,
    gen_bernoulli_ensemble,
    gen_gaussian_ensemble,
    gen_sparse_signal,
    normal_grid,
    sign_grid,
    sign_quantize,
)
from .recovery import RecoveryError, recover, recovery_error

ROOT_TWO_OVER_PI = float(np.sqrt(2.0 / np.pi))


@dataclass
class SweepRow:
    """One recovery trial.  Field order is the CSV column order."""

    n: int
    s: int
    m: int
    trial: int
    seed: int
    error: float                 # ||direction - x/||x||||_2, nan on failure
    l1l2_ratio_in: float
    l1l2_ratio_out: float
    cert_cardinality_ok: bool
    wall_time_ms: float


SWEEP_FIELDS = list(SweepRow.__dataclass_fields__)


def gen_instance(n: int, s: int, m: int, seed: int, distribution: str,
                 magnitude_model: str):
    """The instance (x, ensemble) at this seed: one sparse signal and m rows.

    x is drawn from derive_seed(seed, 1) and the ensemble from
    derive_seed(seed, 2).  `onebit gen` uses the master seed; a sweep trial
    uses derive_seed(seed, m, trial).
    """
    if m < 1:
        raise ValueError("need at least one row")
    x = gen_sparse_signal(n, s, derive_seed(seed, 1), magnitude_model)
    if distribution == "gaussian":
        return x, gen_gaussian_ensemble(m, n, derive_seed(seed, 2))
    if distribution == "bernoulli":
        return x, gen_bernoulli_ensemble(m, n, derive_seed(seed, 2))
    raise ValueError(f"unknown distribution {distribution!r}")


def run_sweep(n: int, s: int, m_list: list[int], trials: int, seed: int,
              distribution: str = "gaussian",
              magnitude_model: str = "unit_gaussian") -> list[SweepRow]:
    """Run the recovery sweep over m_list x trials and return its rows.

    A trial whose recovery fails (RecoveryError, or ValueError, which
    includes numpy's LinAlgError) records a row with nan results and
    continues; the sweep itself only fails if every trial failed.  Any other
    exception is a programming error and propagates.  Rows come back in
    m_list order, trials ascending.  No file is written: `onebit sweep --out`
    writes the rows as CSV with a manifest next to it.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rows: list[SweepRow] = []
    failures = 0
    for m in m_list:
        for trial in range(trials):
            tseed = derive_seed(seed, m, trial)
            x, ens = gen_instance(n, s, m, tseed, distribution, magnitude_model)
            t0 = time.perf_counter()
            try:
                res = recover(ens, sign_quantize(ens.rows @ x))
                wall = (time.perf_counter() - t0) * 1000.0
                error = recovery_error(res.direction, x)
                ratio_out = res.l1_over_l2
                card_ok = bool(res.certificate.cardinality_ok)
            except (RecoveryError, ValueError):
                failures += 1
                wall = (time.perf_counter() - t0) * 1000.0
                error = ratio_out = float("nan")
                card_ok = False
            rows.append(SweepRow(
                n=n, s=s, m=m, trial=trial, seed=tseed, error=error,
                l1l2_ratio_in=float(np.abs(x).sum() / np.linalg.norm(x)),
                l1l2_ratio_out=ratio_out, cert_cardinality_ok=card_ok, wall_time_ms=wall,
            ))
    if rows and failures == len(rows):
        raise RuntimeError("every sweep trial failed")
    return rows


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.11e}"   # 12 significant digits


def make_parent_dir(path: str) -> None:
    """Create the directory path will be written in, if it names one."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def write_sweep_csv(records: list[dict], path: str, columns: list[str]) -> None:
    """Write records (dicts keyed by column) as CSV: header line, LF endings, UTF-8.

    The one CSV writer: sweep rows and the tessellation summary both go
    through it, so every data file has the same number format.
    """
    make_parent_dir(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for rec in records:
            fh.write(",".join(_fmt(rec[name]) for name in columns) + "\n")


def _environment() -> dict:
    """The software a run's numbers depend on: versions, BLAS, thread settings.

    The same tests give different bytes on different BLAS and numpy builds,
    and the BLAS thread count changes timings.  A thread variable that is
    not set reads None.
    """
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def write_manifest(config: dict, data_path: str) -> str:
    """Write the run manifest (config, version, environment, timestamp) next to the data.

    config is what was run; the command line passes its parsed arguments.
    """
    base, _ = os.path.splitext(data_path)
    path = base + ".manifest.json"
    payload = {
        "config": config,
        "version": __version__,
        "environment": _environment(),
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


@dataclass
class ConcentrationReport:
    mean_abs_moment: float        # mean over trials of (1/m) sum |<a_i, x>|
    deviations: np.ndarray        # per-trial deviation from sqrt(2/pi)


# entries per block of Gaussian rows that the concentration checks draw:
# each holds one block of about this many entries at a time
ROW_BLOCK_ENTRIES = 1 << 17


def _row_blocks(m: int, n: int) -> list[tuple[int, int]]:
    """The (first, stop) rows of the blocks that rows 0..m are drawn in.

    A product of the blocks gives the whole ensemble's bits only if each row
    meets the same BLAS kernel.  Matrix-vector kernels take rows in groups
    (of 4 in OpenBLAS's x86-64 kernels) and round a group's remainder
    differently, so every block but the last is a multiple of 8 rows; and
    numpy multiplies a single row by a dot product, so the last block never
    holds one row alone unless m = 1.
    """
    step = max(8, (ROW_BLOCK_ENTRIES // n) & -8)
    starts = range(0, max(m - 1, 1), step)
    return list(zip(starts, [*starts[1:], m]))


def verify_concentration(n: int, m: int, trials: int, seed: int) -> ConcentrationReport:
    """Measure concentration of the first absolute moment on random unit vectors.

    Each trial draws a fresh unit vector and a fresh m-row Gaussian ensemble
    and computes (1/m) sum_i |<a_i, x>|, which concentrates around
    sqrt(2/pi) ~ 0.7979 with a tail exp(-c m t^2).  No threshold is applied
    here: `onebit verify` judges the deviations.

    The rows are drawn in blocks, so a trial holds one block and the m
    products, whose mean is the whole ensemble's, bit for bit.
    """
    if m < 1:
        raise ValueError("need at least one row")
    if trials < 1:
        raise ValueError("need at least one trial")
    if n < 1:
        raise ValueError("ambient dimension n must be at least 1")
    devs = np.empty(trials)
    moments = np.empty(trials)
    products = np.empty(m)
    for k in range(trials):
        g = normal_grid(derive_seed(seed, k, 1), 1, n)[0]
        x = g / np.linalg.norm(g)
        rseed = derive_seed(seed, k, 2)
        for r0, r1 in _row_blocks(m, n):
            rows = gen_gaussian_ensemble(r1 - r0, n, rseed, row_offset=r0).rows
            np.matmul(rows, x, out=products[r0:r1])
            del rows   # not alive while the next block is drawn
        moment = float(np.abs(products, out=products).mean())
        moments[k] = moment
        devs[k] = abs(moment - ROOT_TWO_OVER_PI)
    return ConcentrationReport(mean_abs_moment=float(moments.mean()), deviations=devs)


def verify_uniform_concentration(n: int, s: float, m: int, sample_count: int,
                                 seed: int) -> float:
    """The largest moment deviation over sampled points of the cap.

    One ensemble, many points of K(n, s) on the sphere: the maximum sampled
    deviation lower-bounds the supremum that the uniform concentration bound
    controls with m ~ s log(2n/s) rows.

    The rows are drawn in blocks, so the check holds one block's products
    and the running column sums.  The sums lead each block's axis-0
    reduction, so the rows are added in order, as over the whole ensemble.
    """
    if m < 1:
        raise ValueError("need at least one row")
    if sample_count < 1:
        raise ValueError("need at least one sample")
    X = sample_sphere_cap(SignalSetSpec(n, s), sample_count, derive_seed(seed, 1))
    rseed = derive_seed(seed, 2)
    blocks = _row_blocks(m, n)
    # row 0 holds the column sums of the rows before the block
    buf = np.zeros((max(r1 - r0 for r0, r1 in blocks) + 1, sample_count))
    for r0, r1 in blocks:
        rows = gen_gaussian_ensemble(r1 - r0, n, rseed, row_offset=r0).rows
        products = buf[1:r1 - r0 + 1]
        np.matmul(rows, X.T, out=products)
        del rows   # not alive while the next block is drawn
        np.abs(products, out=products)
        buf[0] = buf[:r1 - r0 + 1].sum(axis=0)
    moments = buf[0] / m
    return float(np.abs(moments - ROOT_TWO_OVER_PI).max())


@dataclass
class BernoulliCounterexampleReport:
    seeds: list[int]
    identical_per_seed: list[bool]   # sign(A x) == sign(A x') under +-1 rows
    all_identical: bool
    gaussian_differs: bool           # same pair distinguished by Gaussian rows


def verify_bernoulli_counterexample(n: int, m: int, num_seeds: int,
                                    seed: int) -> BernoulliCounterexampleReport:
    """Demonstrate that +-1 measurement ensembles cannot work.

    For x = e1 and x' = e1 + e2/2, every +-1 row a satisfies
    sign(<a, x'>) = sign(a1 + a2/2) = sign(a1) = sign(<a, x>), since
    |a2/2| < |a1|.  The two distinct signals are indistinguishable from
    their one-bit measurements at any m.  Gaussian rows tell them apart.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if m < 1:
        raise ValueError("need at least one row")
    if num_seeds < 1:
        raise ValueError("need at least one seed")
    # x and x' are zero past the first two coordinates, so only columns 0
    # and 1 of each ensemble are read; a grid's first k columns are the
    # k-column grid at the same seed, and each product has at most two
    # nonzero terms, each exact, so the patterns equal the full-width ones
    x = np.array([1.0, 0.0])
    xp = np.array([1.0, 0.5])
    seeds = [derive_seed(seed, k) for k in range(num_seeds)]
    identical = []
    for sd in seeds:
        rows = sign_grid(sd, m, 2)
        identical.append(bool(np.array_equal(sign_quantize(rows @ x),
                                             sign_quantize(rows @ xp))))
    grows = normal_grid(derive_seed(seed, num_seeds), m, 2)
    differs = not np.array_equal(sign_quantize(grows @ x), sign_quantize(grows @ xp))
    return BernoulliCounterexampleReport(
        seeds=seeds, identical_per_seed=identical,
        all_identical=all(identical), gaussian_differs=differs,
    )
