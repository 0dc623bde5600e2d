"""Tests for sweep orchestration, statistical checks, CSV output, and CLI."""

import argparse
import inspect
import json
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
import types
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy

import onebit
import onebit.geometry as geometry
import onebit.harness as harness
from onebit.cli import CHECKS, build_parser, main
from onebit.geometry import SignalSetSpec, sample_sphere_cap, single_hyperplane_separation_prob
from onebit.harness import (
    ROOT_TWO_OVER_PI,
    SWEEP_FIELDS,
    gen_instance,
    run_sweep,
    verify_bernoulli_counterexample,
    verify_concentration,
    verify_uniform_concentration,
    write_manifest,
)
from onebit.measurement import (
    MeasurementEnsemble,
    derive_seed,
    gen_bernoulli_ensemble,
    gen_gaussian_ensemble,
    gen_sparse_signal,
    normal_grid,
    sign_quantize,
)
from onebit.recovery import RecoveryError, recover


SMALL = dict(n=16, s=2, m_list=[20, 30], trials=2, seed=3)
SWEEP_HEADER = ("n,s,m,trial,seed,error,l1l2_ratio_in,l1l2_ratio_out,"
                "cert_cardinality_ok,wall_time_ms").split(",")
SMALL_ARGV = ["sweep", "--n", "16", "--s", "2", "--m", "20,30", "--trials", "2", "--seed", "3"]


def small_sweep(**kw):
    return run_sweep(**{**SMALL, **kw})


def small_sweep_files(tmp):
    """Run the small sweep through `onebit sweep --out`; return the CSV path."""
    out = tmp / "sweep.csv"
    assert main(SMALL_ARGV + ["--out", str(out)]) == 0
    return out


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_run_sweep_single_row():
    rows = run_sweep(n=2, s=1, m_list=[1], trials=1, seed=9)
    assert len(rows) == 1
    assert 0.0 <= rows[0].error <= 2.0
    assert rows[0].m == 1 and rows[0].trial == 0


def test_run_sweep_rows_and_order():
    rows = small_sweep()
    assert [(r.m, r.trial) for r in rows] == [(20, 0), (20, 1), (30, 0), (30, 1)]
    for r in rows:
        assert r.n == 16 and r.s == 2
        assert 0.0 <= r.error <= 2.0
        assert r.l1l2_ratio_in >= 1.0


def test_run_sweep_row_independence():
    # dropping an m from the plan leaves the surviving rows untouched
    full = small_sweep()
    only30 = small_sweep(m_list=[30])
    kept = [r for r in full if r.m == 30]
    for a, b in zip(kept, only30):
        assert a.seed == b.seed
        assert a.error == b.error
        assert a.l1l2_ratio_out == b.l1l2_ratio_out


def test_run_sweep_csv_determinism(tmp_path):
    first = small_sweep_files(tmp_path).read_text(encoding="utf-8")
    second = small_sweep_files(tmp_path).read_text(encoding="utf-8")
    # identical bytes in every column except the timing one
    drop = SWEEP_FIELDS.index("wall_time_ms")
    strip = lambda text: [ln.split(",")[:drop] + ln.split(",")[drop + 1:]
                          for ln in text.splitlines()]
    assert strip(first) == strip(second)


def test_sweep_csv_schema_and_format(tmp_path):
    header, data = read_csv(small_sweep_files(tmp_path))
    assert header == SWEEP_HEADER
    assert len(data) == 4
    float_pat = re.compile(r"-?\d\.\d{11}e[+-]\d{2,}")
    for rec in data:
        row = dict(zip(header, rec))
        assert row["cert_cardinality_ok"] in ("true", "false")
        for name in ("error", "l1l2_ratio_in", "l1l2_ratio_out", "wall_time_ms"):
            assert float_pat.fullmatch(row[name]) or row[name] == "nan"
        int(row["n"]); int(row["m"]); int(row["trial"]); int(row["seed"])
    text = (tmp_path / "sweep.csv").read_text(encoding="utf-8")
    assert "\r" not in text


def test_manifest(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = small_sweep_files(tmp_path)
    man = json.loads((tmp_path / "sweep.manifest.json").read_text(encoding="utf-8"))
    # the parsed command line, defaults included; a sweep reads no delta
    assert man["config"] == {"command": "sweep", "n": 16, "s": 2, "m": [20, 30],
                             "trials": 2, "seed": 3, "dist": "gaussian",
                             "mag": "unit_gaussian", "out": str(out)}
    assert "generated_at" in man and man["version"] == onebit.__version__
    env = man["environment"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert env["scipy"] == scipy.__version__
    assert env["blas"]["name"] and env["blas"]["version"]
    assert set(env["threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    assert env["threads"]["OMP_NUM_THREADS"] == "3"
    assert env["threads"]["MKL_NUM_THREADS"] is None
    assert env["threads"]["OPENBLAS_NUM_THREADS"] == os.environ.get("OPENBLAS_NUM_THREADS")
    # the timestamp lives in the manifest only, never in the data file
    header, _ = read_csv(tmp_path / "sweep.csv")
    assert "generated_at" not in header


def test_run_sweep_records_error_rows(monkeypatch):
    real = harness.recover

    def flaky(ens, y, tol=None):
        if len(ens.rows) == 30:
            raise RecoveryError("synthetic failure")
        return real(ens, y, tol)

    monkeypatch.setattr(harness, "recover", flaky)
    rows = small_sweep()
    good = [r for r in rows if r.m == 20]
    bad = [r for r in rows if r.m == 30]
    assert all(np.isfinite(r.error) for r in good)
    assert all(np.isnan(r.error) for r in bad)
    assert all(not r.cert_cardinality_ok for r in bad)
    assert all(np.isfinite(r.l1l2_ratio_in) for r in bad)   # input stats survive


def test_run_sweep_propagates_programming_errors(monkeypatch):
    # only recover's documented failures become nan rows
    def typo(ens, y, tol=None):
        raise TypeError("synthetic programming error")

    monkeypatch.setattr(harness, "recover", typo)
    with pytest.raises(TypeError, match="synthetic programming error"):
        small_sweep()


def test_run_sweep_all_failures_raise(monkeypatch):
    def broken(ens, y, tol=None):
        raise RecoveryError("synthetic failure")

    monkeypatch.setattr(harness, "recover", broken)
    with pytest.raises(RuntimeError, match="every sweep trial failed"):
        small_sweep()


def test_run_sweep_needs_a_trial():
    # zero trials would measure nothing
    with pytest.raises(ValueError, match="need at least one trial"):
        small_sweep(trials=0)


def test_verify_concentration_report():
    rep = verify_concentration(16, 2000, trials=30, seed=7)
    assert rep.deviations.shape == (30,)
    assert abs(rep.mean_abs_moment - ROOT_TWO_OVER_PI) <= 0.05
    # nested events: exceedance can only grow as the threshold shrinks
    assert np.mean(rep.deviations > 0.01) >= np.mean(rep.deviations > 0.02)
    again = verify_concentration(16, 2000, trials=30, seed=7)
    assert np.array_equal(rep.deviations, again.deviations)
    with pytest.raises(ValueError, match="at least one trial"):
        verify_concentration(16, 2000, trials=0, seed=7)
    # no rows would make every moment the nan mean of an empty slice
    with pytest.raises(ValueError, match="need at least one row"):
        verify_concentration(16, 0, trials=30, seed=7)


def test_verify_uniform_concentration_bound():
    max_dev = verify_uniform_concentration(64, 4, 5000, sample_count=500, seed=2)
    assert 0.0 <= max_dev <= 0.1


def test_verify_uniform_concentration_m_doubling():
    # doubling the rows tightens the sampled supremum for most seeds
    lo, hi = [], []
    for seed in range(20):
        lo.append(verify_uniform_concentration(64, 4, 5000, 300, seed))
        hi.append(verify_uniform_concentration(64, 4, 10000, 300, seed))
    assert np.median(hi) < np.median(lo)


def test_verify_uniform_concentration_single_sample():
    # one sample: the largest deviation is that point's own
    max_dev = verify_uniform_concentration(16, 2, 1000, sample_count=1, seed=11)
    x = sample_sphere_cap(SignalSetSpec(16, 2), 1, derive_seed(11, 1))[0]
    rows = gen_gaussian_ensemble(1000, 16, derive_seed(11, 2)).rows
    assert max_dev == pytest.approx(abs(np.abs(rows @ x).mean() - ROOT_TWO_OVER_PI),
                                    rel=0, abs=1e-12)
    with pytest.raises(ValueError):
        verify_uniform_concentration(16, 2, 1000, sample_count=0, seed=1)
    # no rows would give a nan max_dev, which no threshold exceeds
    with pytest.raises(ValueError, match="need at least one row"):
        verify_uniform_concentration(16, 2, 0, sample_count=1, seed=1)


def _whole_ensemble_concentration(n, m, trials, seed):
    """verify_concentration's formula over the whole m x n ensemble at once."""
    moments = np.empty(trials)
    for k in range(trials):
        g = normal_grid(derive_seed(seed, k, 1), 1, n)[0]
        x = g / np.linalg.norm(g)
        rows = gen_gaussian_ensemble(m, n, derive_seed(seed, k, 2)).rows
        moments[k] = float(np.abs(rows @ x).mean())
    return float(moments.mean()), np.abs(moments - ROOT_TWO_OVER_PI)


def _whole_ensemble_uniform(n, s, m, sample_count, seed):
    """verify_uniform_concentration's formula over the whole ensemble at once."""
    X = sample_sphere_cap(SignalSetSpec(n, s), sample_count, derive_seed(seed, 1))
    rows = gen_gaussian_ensemble(m, n, derive_seed(seed, 2)).rows
    moments = np.abs(rows @ X.T).mean(axis=0)
    return float(np.abs(moments - ROOT_TWO_OVER_PI).max())


# n = 64 draws 2048-row blocks; 2**17 // n + 3 rows cross a block boundary
@pytest.mark.parametrize("n, m", [(64, 1), (64, 2047), (64, 2048), (64, 2049), (64, 4097),
                                  (64, 20000), (3, 2 ** 17 // 3 + 3), (48, 2 ** 17 // 48 + 3),
                                  (48, 2 * (2 ** 17 // 48) + 1)])
def test_streamed_concentration_checks_are_the_whole_ensemble_bit_for_bit(monkeypatch, n, m):
    draws = []

    def recorded(rows, n, seed, row_offset=0):
        draws.append((row_offset, rows))
        return gen_gaussian_ensemble(rows, n, seed, row_offset)

    def drawn_in_blocks(ensembles):
        # each ensemble's draws tile rows 0..m in order, none larger than
        # one block (the last may take one row more, so no row is a block alone)
        blocks = draws[:len(draws) // ensembles]
        offsets = [0, *np.cumsum([rows for _, rows in blocks])]
        ok = (draws == blocks * ensembles and offsets[-1] == m
              and [r0 for r0, _ in blocks] == offsets[:-1]
              and max(rows for _, rows in blocks) <= harness.ROW_BLOCK_ENTRIES // n + 1)
        draws.clear()
        return ok

    monkeypatch.setattr(harness, "gen_gaussian_ensemble", recorded)
    for seed in (0, 1):
        mean, devs = _whole_ensemble_concentration(n, m, 2, seed)
        rep = verify_concentration(n, m, 2, seed)
        assert drawn_in_blocks(2), seed
        assert rep.mean_abs_moment == mean and np.array_equal(rep.deviations, devs), seed
        s = min(4, n)
        assert (verify_uniform_concentration(n, s, m, 100, seed)
                == _whole_ensemble_uniform(n, s, m, 100, seed)), seed
        assert drawn_in_blocks(1), seed


def test_concentration_checks_hold_one_block_of_rows():
    # the whole 20000 x 64 ensemble alone is 10 MB, and the uniform check's
    # 20000 x 100 products 16 MB more
    for check in (lambda: verify_concentration(64, 20000, 2, 0),
                  lambda: verify_uniform_concentration(64, 4, 20000, 100, 0)):
        check()   # imports and first-use caches are not the check's memory
        tracemalloc.start()
        try:
            check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20, peak


@pytest.mark.parametrize("n", ["0", "-3"])
def test_verify_concentration_refuses_n_below_one(capsys, monkeypatch, n):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a grid")

    monkeypatch.setattr(harness, "normal_grid", no_draw)
    with pytest.raises(ValueError, match="ambient dimension n must be at least 1"):
        verify_concentration(int(n), 10, 1, 0)
    assert main(["verify", "--check", "concentration", "--n", n]) == 1
    assert capsys.readouterr() == ("", "error: ambient dimension n must be at least 1\n")


def test_verify_bernoulli_counterexample_report():
    rep = verify_bernoulli_counterexample(n=8, m=500, num_seeds=10, seed=5)
    assert rep.all_identical
    assert all(rep.identical_per_seed)
    assert len(rep.seeds) == 10
    assert rep.gaussian_differs
    # no seeds would make all_identical vacuously true
    with pytest.raises(ValueError, match="at least one seed"):
        verify_bernoulli_counterexample(n=8, m=500, num_seeds=0, seed=5)
    with pytest.raises(ValueError, match="need at least one row"):
        verify_bernoulli_counterexample(n=8, m=0, num_seeds=10, seed=5)
    with pytest.raises(ValueError, match="need n >= 2"):
        verify_bernoulli_counterexample(n=1, m=500, num_seeds=10, seed=5)
    # no defaults to disagree with `onebit verify`'s: every verify_* argument is required
    for check in (verify_concentration, verify_uniform_concentration,
                  verify_bernoulli_counterexample):
        params = inspect.signature(check).parameters
        assert all(p.default is inspect.Parameter.empty
                   for p in params.values()), check.__name__
        # the library measures; `onebit verify` owns every threshold and verdict
        assert "t" not in params, check.__name__
    assert list(harness.ConcentrationReport.__dataclass_fields__) == [
        "mean_abs_moment", "deviations"]
    assert not hasattr(harness, "UniformConcentrationReport")


def _full_width_bernoulli_counterexample(n, m, num_seeds, seed):
    """verify_bernoulli_counterexample as it was, on whole n-column ensembles."""
    x = np.zeros(n)
    x[0] = 1.0
    xp = np.zeros(n)
    xp[0] = 1.0
    xp[1] = 0.5
    seeds = [derive_seed(seed, k) for k in range(num_seeds)]
    identical = []
    for sd in seeds:
        ens = gen_bernoulli_ensemble(m, n, sd)
        identical.append(bool(np.array_equal(sign_quantize(ens.rows @ x),
                                             sign_quantize(ens.rows @ xp))))
    gens = gen_gaussian_ensemble(m, n, derive_seed(seed, num_seeds))
    differs = not np.array_equal(sign_quantize(gens.rows @ x),
                                 sign_quantize(gens.rows @ xp))
    return harness.BernoulliCounterexampleReport(
        seeds=seeds, identical_per_seed=identical,
        all_identical=all(identical), gaussian_differs=differs,
    )


@pytest.mark.parametrize("n, m, num_seeds, seed", [
    (2, 1, 3, 0), (5, 777, 7, 123), (32, 1000, 20, 1), (64, 20000, 4, 7)])
def test_bernoulli_counterexample_matches_full_width(monkeypatch, n, m, num_seeds, seed):
    # the check reads two columns; the products it quantizes must be the
    # full-width ones to the bit, not just give the same report
    def recorder(log, real=sign_quantize):
        def quantize(values):
            log.append(np.asarray(values).tobytes())
            return real(values)
        return quantize

    got_log, want_log = [], []
    monkeypatch.setattr(harness, "sign_quantize", recorder(got_log))
    got = verify_bernoulli_counterexample(n, m, num_seeds, seed)
    monkeypatch.setattr(sys.modules[__name__], "sign_quantize", recorder(want_log))
    want = _full_width_bernoulli_counterexample(n, m, num_seeds, seed)
    assert got == want
    assert len(got_log) == 2 * (num_seeds + 1) and got_log == want_log


def _full_width_separation(n, trials, seed):
    """The separation check's two estimates as they were, on pairs in R^n."""
    e1 = np.zeros(n)
    e1[0] = 1.0
    e2 = np.zeros(n)
    e2[1] = 1.0
    return (single_hyperplane_separation_prob(e1, e2, trials, seed, margin=0.0),
            single_hyperplane_separation_prob(e1, -e1, trials, derive_seed(seed, 1),
                                              margin=0.0))


@pytest.mark.parametrize("n", [2, 64])
@pytest.mark.parametrize("trials", [76, 65537])
def test_separation_check_matches_full_width(monkeypatch, capsys, n, trials):
    # the check draws two columns whatever --n is; its estimates must be the
    # full-width ones to the bit, past the 65,536-row chunk too
    want = _full_width_separation(n, trials, seed=0)
    shapes, got = [], []
    real_grid, real_prob = geometry.normal_grid, single_hyperplane_separation_prob

    def grid(seed, rows, cols, row_offset=0):
        shapes.append((rows, cols))
        return real_grid(seed, rows, cols, row_offset)

    def prob(*args, **kwargs):
        got.append(real_prob(*args, **kwargs))
        return got[-1]

    monkeypatch.setattr(geometry, "normal_grid", grid)
    monkeypatch.setattr(onebit.cli, "single_hyperplane_separation_prob", prob)
    code = main(["verify", "--check", "separation", "--n", str(n), "--trials", str(trials)])
    out = capsys.readouterr().out
    assert tuple(got) == want
    assert out.startswith(f"separation: trials={trials}\n"
                          f"orthogonal pair: estimate={want[0]:.5f} exact=0.25\n"
                          f"antipodal pair:  estimate={want[1]:.5f} exact=0.5\n")
    assert out.endswith("FAIL\n" if code else "PASS\n")
    assert shapes and all(cols == 2 for _, cols in shapes), shapes


def test_cli_usage_errors(tmp_path, capsys):
    assert main(["sweep", "--frobnicate"]) == 2
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    assert main(["verify"]) == 2          # --check is required
    assert main(["sweep", "--n", "8", "--s", "2", "--m", ""]) == 2
    assert main(["sweep", "--n", "8", "--s", "2", "--m", "10,x",
                 "--out", str(tmp_path / "mx.csv")]) == 2
    # every m of a list is at least 1, as verify requires of its one m
    assert main(["sweep", "--n", "8", "--s", "2", "--m", "0,40", "--trials", "1",
                 "--out", str(tmp_path / "m0.csv")]) == 2
    assert not (tmp_path / "m0.csv").exists()
    assert main(["tessellate", "--m", "0"]) == 2
    # the solver tolerances are library API only, not command-line flags;
    # recover gets its two files, so that only the flag is refused
    prefix = str(tmp_path / "inst")
    assert main(["gen", "--n", "8", "--s", "2", "--m", "20", "--out", prefix]) == 0
    files = ["--matrix", prefix + "_matrix.txt", "--signs", prefix + "_signs.txt"]
    capsys.readouterr()
    assert main(["recover", *files, "--tol-feas", "1e-8"]) == 2
    assert "unrecognized arguments: --tol-feas" in capsys.readouterr().err
    assert main(["sweep", "--out", "x.csv", "--tol-opt", "1e-9"]) == 2
    # verify writes no report file and takes no threshold
    assert main(["verify", "--check", "concentration", "--out", "r.txt"]) == 2
    assert main(["verify", "--check", "separation", "--delta", "0.1"]) == 2
    assert main(["verify", "--check", "bernoulli-counterexample", "--delta", "0.1"]) == 2
    # only sweep and tessellate take a list of m
    assert main(["gen", "--m", "60,120", "--out", "inst"]) == 2
    assert main(["verify", "--check", "concentration", "--m", "100,200"]) == 2


def test_cli_gen_recover_roundtrip(tmp_path, capsys):
    prefix = str(tmp_path / "inst")
    assert main(["gen", "--n", "8", "--s", "2", "--m", "24",
                 "--seed", "5", "--out", prefix]) == 0
    A = np.loadtxt(prefix + "_matrix.txt", ndmin=2)
    assert A.shape == (24, 8)
    out = str(tmp_path / "dir.txt")
    code = main(["recover", "--matrix", prefix + "_matrix.txt",
                 "--signs", prefix + "_signs.txt",
                 "--signal", prefix + "_signal.txt", "--out", out])
    assert code == 0
    text = capsys.readouterr().out
    sol = recover(A, np.loadtxt(prefix + "_signs.txt")).lp_solution
    assert (f"status=optimal iterations={sol.iterations} "
            f"degenerate_pivots={sol.degenerate_pivots} "
            f"bland_switches={sol.bland_switches}\n") in text
    # the vertex structure, then the proof of optimality: the certificate's
    # duality gap and dual violation
    cert = recover(A, np.loadtxt(prefix + "_signs.txt")).certificate
    assert re.search(r"\ncertificate: \|T\|=(\d+) \|Omega\|=(\d+) cardinality_ok=(True|False)\n",
                     text).groups() == (str(cert.support.size), str(cert.active_rows.size),
                                        str(cert.cardinality_ok))
    assert (f"\nduality: gap={cert.duality_gap:.3e} "
            f"dual_violation={cert.dual_violation:.3e}\n") in text
    printed = re.search(r"duality: gap=(\S+) dual_violation=(\S+)\n", text).groups()
    assert max(map(float, printed)) <= 1e-9
    assert "error=" in text
    direction = np.loadtxt(out).ravel()
    assert np.linalg.norm(direction) == pytest.approx(1.0, abs=1e-12)
    x = np.loadtxt(prefix + "_signal.txt").ravel()
    assert np.linalg.norm(direction - x / np.linalg.norm(x)) <= 1.0
    # max_violation is x_hat's worst violation of the primal program's
    # constraints; a zero sign adds an equality row to check
    y = np.loadtxt(prefix + "_signs.txt", dtype=np.int64)
    y[3] = 0
    np.savetxt(prefix + "_signs.txt", y, fmt="%d")
    assert main(["recover", "--matrix", prefix + "_matrix.txt",
                 "--signs", prefix + "_signs.txt"]) == 0
    text = capsys.readouterr().out
    printed = float(re.search(r"max_violation=(\S+)", text).group(1))
    x_hat = recover(A, y).x_hat
    prods = A @ x_hat
    worst = abs(sum(y[i] * prods[i] for i in range(24)) / 24 - 1.0)
    for i in range(24):
        worst = max(worst, abs(prods[i]) if y[i] == 0 else -y[i] * prods[i])
    assert printed <= 1e-9
    assert abs(printed - worst) <= 1e-3 * worst + 1e-15
    # recover owns the sign contract, so the same signs written as decimals
    # read the same
    np.savetxt(prefix + "_signs.txt", y, fmt="%.1f")
    assert main(["recover", "--matrix", prefix + "_matrix.txt",
                 "--signs", prefix + "_signs.txt"]) == 0
    assert capsys.readouterr().out == text


def test_cli_recover_synthetic(tmp_path, capsys):
    # the instance onebit gen draws; --out creates the directory it writes in
    prefix = str(tmp_path / "inst")
    assert main(["gen", "--n", "12", "--s", "2", "--m", "30",
                 "--seed", "8", "--out", prefix]) == 0
    capsys.readouterr()
    out = tmp_path / "runs" / "new" / "x.txt"
    assert main(["recover", "--matrix", prefix + "_matrix.txt",
                 "--signs", prefix + "_signs.txt", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "certificate:" in captured.out and captured.err == ""
    assert captured.out.endswith(f"wrote {out}\n")
    assert np.linalg.norm(np.loadtxt(out)) == pytest.approx(1.0, abs=1e-12)


def test_cli_recover_bad_inputs(tmp_path, capsys):
    assert main(["recover", "--matrix", str(tmp_path / "missing.txt"),
                 "--signs", str(tmp_path / "missing2.txt")]) == 1
    bad = tmp_path / "signs.txt"
    bad.write_text("1\n2\n-1\n")
    mat = tmp_path / "mat.txt"
    np.savetxt(mat, np.ones((3, 2)))
    assert main(["recover", "--matrix", str(mat), "--signs", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "must be -1, 0, or 1" in err
    # recover reads only files: a missing --matrix or --signs is a usage error
    for argv in (["--matrix", str(mat)], ["--signs", str(bad)], ["--signal", str(mat)]):
        assert main(["recover", *argv]) == 2
        assert "the following arguments are required" in capsys.readouterr().err
    # a signal whose length is not the matrix's column count fails before solving
    good = tmp_path / "good.txt"
    good.write_text("1\n1\n1\n")
    short = tmp_path / "short.txt"
    np.savetxt(short, np.ones((1, 5)))
    assert main(["recover", "--matrix", str(mat), "--signs", str(good),
                 "--signal", str(short)]) == 1
    assert capsys.readouterr() == ("", "error: signal length does not match the matrix columns\n")
    # so does a signal that is all zero or not finite, against which the
    # error is undefined or nan
    bad_signal = tmp_path / "bad_signal.txt"
    for signal in ([0.0, 0.0], [np.nan, 1.0], [1.0, np.inf]):
        np.savetxt(bad_signal, np.array([signal]))
        assert main(["recover", "--matrix", str(mat), "--signs", str(good),
                     "--signal", str(bad_signal)]) == 1, signal
        assert capsys.readouterr() == ("", "error: signal must be finite and nonzero\n"), signal
    # a matrix entry that is nan or inf is refused as soon as the file is
    # read, on a zero-sign row as on a sign row, before any solve
    bad_matrix = tmp_path / "bad_matrix.txt"
    signs = tmp_path / "zero_sign.txt"
    signs.write_text("1\n-1\n0\n")
    for row, value in ((2, np.nan), (0, np.inf), (1, -np.inf)):
        entries = np.ones((3, 2))
        entries[row, 1] = value
        np.savetxt(bad_matrix, entries)
        assert main(["recover", "--matrix", str(bad_matrix), "--signs", str(signs)]) == 1
        assert capsys.readouterr() == ("", "error: matrix entries must be finite\n"), value


def test_cli_recover_never_prints_negative_zero(tmp_path, capsys):
    # on this instance -y_i <a_i, x_hat> is -0.0 on a sign row, and the
    # largest violation is 0
    prefix = str(tmp_path / "inst")
    assert main(["gen", "--seed", "0", "--dist", "bernoulli", "--mag", "constant",
                 "--out", prefix]) == 0
    capsys.readouterr()
    assert main(["recover", "--matrix", prefix + "_matrix.txt",
                 "--signs", prefix + "_signs.txt"]) == 0
    out = capsys.readouterr().out
    assert " max_violation=0.000e+00\n" in out and "-0.000" not in out


def test_cli_recover_refuses_synthetic_instance_flags(tmp_path, capsys):
    # onebit gen draws instances; recover solves the files and takes none of
    # gen's flags, not even as an abbreviation of --matrix or --signs
    prefix = str(tmp_path / "inst")
    assert main(["gen", "--n", "16", "--s", "2", "--m", "40", "--out", prefix]) == 0
    files = ["--matrix", prefix + "_matrix.txt", "--signs", prefix + "_signs.txt"]
    assert main(["recover", *files]) == 0
    capsys.readouterr()
    for flag in (["--n", "9"], ["--s", "2"], ["--m", "5"], ["--seed", "3"],
                 ["--dist", "bernoulli"], ["--mag", "constant"]):
        assert main(["recover", *files, *flag]) == 2, flag
        out, err = capsys.readouterr()
        assert out == "" and flag[0] in err, (flag, err)


def test_cli_m_list_refuses_repeats(tmp_path, capsys):
    # a repeated m would repeat its rows, seeds included, and its report
    out = tmp_path / "mm.csv"
    assert main(["sweep", "--n", "16", "--s", "2", "--m", "20,20", "--trials", "3",
                 "--out", str(out)]) == 2
    assert not out.exists() and not list(tmp_path.iterdir())
    assert main(["tessellate", "--m", "10,10,5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("given once") == 2


def test_cli_sweep(tmp_path, capsys):
    out = tmp_path / "runs" / "a.csv"
    code = main(["sweep", "--n", "16", "--s", "2", "--m", "20,30",
                 "--trials", "2", "--seed", "3", "--out", str(out)])
    assert code == 0
    header, data = read_csv(out)
    assert header == SWEEP_HEADER
    assert len(data) == 4
    assert (tmp_path / "runs" / "a.manifest.json").exists()
    assert "median_error" in capsys.readouterr().out
    # zero trials is an error, and nothing is written
    empty = tmp_path / "empty"
    code = main(["sweep", "--n", "16", "--s", "2", "--m", "20", "--trials", "0",
                 "--out", str(empty / "b.csv")])
    assert code == 1
    assert capsys.readouterr().err == "error: need at least one trial\n"
    assert not empty.exists()
    # the rows are written before the summary is printed: a failed write prints none
    assert main(SMALL_ARGV + ["--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_cli_tessellate(tmp_path, capsys):
    out = tmp_path / "tess.csv"
    code = main(["tessellate", "--n", "12", "--s", "2", "--m", "10,20",
                 "--trials", "60", "--seed", "2", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "max_cell_diameter_lb" in text or "cells=" in text
    header, data = read_csv(out)
    assert header == ["m", "delta", "sample_count", "nonempty_cells", "max_cell_diameter_lb",
                      "pairs_beyond_delta", "min_count_fwd", "min_count_rev"]
    assert [rec[0] for rec in data] == ["10", "20"]
    float_pat = re.compile(r"-?\d\.\d{11}e[+-]\d{2,}")
    for rec in data:
        row = dict(zip(header, rec))
        assert row["delta"] == "5.00000000000e-01"
        assert float_pat.fullmatch(row["max_cell_diameter_lb"])
        assert row["sample_count"] == "60"
        for name in ("nonempty_cells", "pairs_beyond_delta", "min_count_fwd", "min_count_rev"):
            assert re.fullmatch(r"\d+", row[name])
    assert "\r" not in out.read_text(encoding="utf-8")
    man = json.loads((tmp_path / "tess.manifest.json").read_text(encoding="utf-8"))
    # the parsed command line; tessellate reads no --dist or --mag
    assert man["config"] == {"command": "tessellate", "n": 12, "s": 2, "m": [10, 20],
                             "trials": 60, "seed": 2, "delta": 0.5, "out": str(out)}


def test_cli_tessellate_reads_arrays_only(capsys, monkeypatch):
    # the CLI reads the report's arrays; building a single record would raise
    def no_records(*args):
        raise AssertionError("the CLI built a PairSeparation record")

    ms = (1, 40, 400)
    argv = ["tessellate", "--n", "12", "--s", "2", "--m", ",".join(map(str, ms)),
            "--trials", "60", "--seed", "2"]
    monkeypatch.setattr(onebit.geometry, "PairSeparation", no_records)
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    monkeypatch.undo()
    spec = onebit.SignalSetSpec(12, 2, "effectively_sparse")
    mins = []
    for m, line in zip(ms, lines, strict=True):
        st = onebit.tessellate_and_report(spec, m, 0.5, 60, 2).separation_stats
        mins.append((min(p.count_fwd for p in st), min(p.count_rev for p in st)))
        assert line.endswith(f" pairs>0.5={len(st)} min_sep=({mins[-1][0]},{mins[-1][1]})"), line
    # positive minima at m = 400 print as themselves, not as 0
    assert min(mins[-1]) > 0
    # no pair at one point: the count and both minima print as 0
    assert main(["tessellate", "--trials", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert all(line.endswith(" pairs>0.5=0 min_sep=(0,0)") for line in lines), lines


def test_cli_tessellate_drops_each_report_before_the_next(capsys, monkeypatch):
    # a report, its count arrays and any records read from it, is gone
    # before the next m's report is computed
    honest = onebit.cli.tessellate_and_report
    reports = []

    def report(*args):
        assert [r() for r in reports] == [None] * len(reports), len(reports)
        rep = honest(*args)
        rep.separation_stats   # records cached on the report, as a caller may read them
        reports.append(weakref.ref(rep))
        return rep

    monkeypatch.setattr(onebit.cli, "tessellate_and_report", report)
    assert main(["tessellate", "--n", "12", "--s", "2", "--m", "10,20,40",
                 "--trials", "60", "--seed", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == len(reports) == 3


def test_cli_tessellate_needs_a_sample(capsys):
    # no sample points would print a report of 0 cells and 0 pairs
    assert main(["tessellate", "--trials", "0"]) == 1
    assert capsys.readouterr() == ("", "error: need at least one sample\n")


def test_cli_bad_n_is_blamed_on_n(tmp_path, capsys):
    # SignalSetSpec and gen_sparse_signal check n before s, so the message
    # names the bad argument
    for argv in (["tessellate", "--n", "0"],
                 ["verify", "--check", "uniform-concentration", "--n", "0"],
                 ["sweep", "--n", "0", "--out", str(tmp_path / "x.csv")],
                 ["gen", "--n", "0", "--out", str(tmp_path / "g")]):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: ambient dimension n must be at least 1\n")


def test_cli_gen_and_recover_need_a_row(tmp_path, capsys):
    # no rows: gen would write a 0 x n matrix, and recover refuses an empty file
    assert main(["gen", "--m", "0", "--out", str(tmp_path / "inst")]) == 1
    assert capsys.readouterr().err == "error: need at least one row\n"
    assert list(tmp_path.iterdir()) == []
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert main(["recover", "--matrix", str(empty), "--signs", str(empty)]) == 1
    assert capsys.readouterr() == ("", f"error: {empty} holds no data\n")
    with pytest.raises(ValueError, match="unknown distribution"):
        gen_instance(16, 2, 10, 1, "cauchy", "unit_gaussian")


def test_cli_recover_names_an_empty_file(tmp_path, capsys):
    # a --matrix, --signs or --signal file with no numbers (here only blank
    # lines) is one error line, with no numpy warning before it
    assert main(["gen", "--n", "16", "--s", "2", "--m", "40", "--out", str(tmp_path / "inst")]) == 0
    capsys.readouterr()
    files = {flag: str(tmp_path / f"inst_{flag}.txt") for flag in ("matrix", "signs", "signal")}
    empty = tmp_path / "empty.txt"
    empty.write_text("\n  \n")
    for flag in files:
        argv = ["recover"]
        for name, path in files.items():
            argv += [f"--{name}", str(empty) if name == flag else path]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1, flag
        assert capsys.readouterr() == ("", f"error: {empty} holds no data\n"), flag


def test_cli_verify_concentration_runs_one_trial():
    assert main(["verify", "--check", "concentration", "--trials", "1"]) == 0
    rep = verify_concentration(16, 2000, trials=1, seed=7)
    assert rep.deviations.shape == (1,)


def test_cli_out_of_memory_is_an_error_line(capsys, monkeypatch):
    # a size the machine cannot hold ends in an error line, not numpy's
    # traceback; the stand-in raises without allocating anything
    def too_big(*args):
        raise MemoryError("Unable to allocate 22.4 GiB")

    monkeypatch.setattr(onebit.cli, "tessellate_and_report", too_big)
    assert main(["tessellate", "--m", "5", "--trials", "1000000000"]) == 1
    assert capsys.readouterr() == ("", "error: Unable to allocate 22.4 GiB\n")


@pytest.mark.parametrize("dist,mag", [("gaussian", "unit_gaussian"), ("bernoulli", "constant")])
def test_gen_instance_is_the_cli_and_sweep_instance(tmp_path, dist, mag):
    # x comes from derive_seed(seed, 1) and the rows from derive_seed(seed, 2)
    x, ens = gen_instance(10, 3, 25, 6, dist, mag)
    gen_rows = gen_gaussian_ensemble if dist == "gaussian" else gen_bernoulli_ensemble
    assert np.array_equal(x, gen_sparse_signal(10, 3, derive_seed(6, 1), mag))
    assert np.array_equal(ens.rows, gen_rows(25, 10, derive_seed(6, 2)).rows)
    # onebit gen writes exactly that instance
    prefix = str(tmp_path / "inst")
    assert main(["gen", "--n", "10", "--s", "3", "--m", "25", "--seed", "6",
                 "--dist", dist, "--mag", mag, "--out", prefix]) == 0
    assert np.array_equal(np.loadtxt(prefix + "_matrix.txt", ndmin=2), ens.rows)
    assert np.array_equal(np.loadtxt(prefix + "_signal.txt"), x)
    assert np.array_equal(np.loadtxt(prefix + "_signs.txt", dtype=np.int64),
                          sign_quantize(ens.rows @ x))
    # each sweep trial is the instance at derive_seed(seed, m, trial)
    rows = small_sweep(distribution=dist, magnitude_model=mag)
    for r in rows:
        assert r.seed == derive_seed(3, r.m, r.trial)
        xt, _ = gen_instance(16, 2, r.m, r.seed, dist, mag)
        assert r.l1l2_ratio_in == np.abs(xt).sum() / np.linalg.norm(xt)


def test_cli_verify_checks(capsys, monkeypatch):
    assert main(["verify", "--check", "bernoulli-counterexample",
                 "--n", "8", "--m", "200", "--trials", "5"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["verify", "--check", "concentration", "--n", "16",
                 "--m", "4000", "--trials", "20", "--seed", "1"]) == 0
    assert main(["verify", "--check", "separation", "--n", "4",
                 "--trials", "40000", "--seed", "2"]) == 0
    assert main(["verify", "--check", "uniform-concentration", "--n", "32",
                 "--s", "3", "--m", "4000", "--trials", "200",
                 "--seed", "4"]) == 0
    # each check runs what it is given or fails: no vacuous PASS at a count
    # of 0, and no silent rewrite of --trials or --n
    for check in ("bernoulli-counterexample", "concentration", "separation"):
        assert main(["verify", "--check", check, "--n", "8", "--m", "100",
                     "--trials", "0"]) == 1, check
        err = capsys.readouterr().err
        assert err.startswith("error: need at least one"), (check, err)
    # nor at zero rows, where the moments would be nan and nan passes no test
    for check in ("bernoulli-counterexample", "concentration", "uniform-concentration"):
        assert main(["verify", "--check", check, "--n", "8", "--m", "0"]) == 1, check
        assert capsys.readouterr().err == "error: need at least one row\n", check
    assert main(["verify", "--check", "separation", "--n", "1"]) == 1
    assert capsys.readouterr().err == "error: need n >= 2\n"
    # nor a PASS at a count whose 5 sigma band around 1/4 reaches 0 (trials
    # <= 75), where no estimate can fail
    for trials in ("1", "75"):
        assert main(["verify", "--check", "separation", "--n", "2",
                     "--trials", trials]) == 0, trials
        out = capsys.readouterr().out
        assert f"separation: trials={trials}\n" in out
        assert "INCONCLUSIVE: " in out and "PASS" not in out, (trials, out)
    assert main(["verify", "--check", "separation", "--n", "2", "--trials", "76"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("PASS\n") and "INCONCLUSIVE" not in out
    # each pair's band is 5 binomial sigmas of its own p: at 100 trials an
    # orthogonal estimate of 0.03 is 5.1 sigmas below 1/4 and fails, and
    # 0.04 passes (a band of 5 * 0.5/sqrt(trials) passed anything in [0, 0.5])
    for p_orth, code in ((0.03, 1), (0.04, 0)):
        estimates = iter((p_orth, 0.5))
        monkeypatch.setattr(onebit.cli, "single_hyperplane_separation_prob",
                            lambda *args, **kw: next(estimates))
        assert main(["verify", "--check", "separation", "--trials", "100"]) == code, p_orth
        assert capsys.readouterr().out.endswith("FAIL\n" if code else "PASS\n")


def test_cli_verify_concentration_defaults_scale_with_m(capsys, monkeypatch):
    # a correct generator passes at m = 1000 too (0.02 was about 1 sigma there)
    assert main(["verify", "--check", "concentration", "--m", "1000"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("PASS\n") and f"exceedance@{0.02 * math.sqrt(20)}=" in out

    seen = []

    def fake(n, m, trials, seed, gap=0.0):
        return harness.ConcentrationReport(mean_abs_moment=ROOT_TWO_OVER_PI + gap,
                                           deviations=np.zeros(trials))

    # at m = 20000 and 100 trials: threshold 0.02 and mean tolerance 0.005,
    # exactly as before; the tolerance scales as 1/sqrt(m * trials)
    for argv, gap, code in ((["--m", "20000"], 0.0049, 0), (["--m", "20000"], 0.0051, 1),
                            (["--m", "1000"], 0.022, 0), (["--m", "1000"], 0.023, 1),
                            (["--m", "20000", "--trials", "25"], 0.0099, 0),
                            (["--m", "20000", "--trials", "25"], 0.0101, 1)):
        monkeypatch.setattr(onebit.cli, "verify_concentration",
                            lambda *a, gap=gap: fake(*a, gap=gap))
        assert main(["verify", "--check", "concentration"] + argv) == code, (argv, gap)
        out = capsys.readouterr().out
        seen.append(float(re.search(r"exceedance@(\S+)=", out).group(1)))
    assert seen[:2] == [0.02, 0.02] and seen[2] == 0.02 * math.sqrt(20)


def test_cli_verify_concentration_verdicts(capsys, monkeypatch):
    # the pass rules compare as they did in the library: a largest deviation
    # of exactly t passes and the next float above fails; an exceedance of
    # 5 in 100 passes and 6 fails, a deviation equal to t not counting.
    # At the defaults (n = 64, s = 4, m = 20000, 100 trials) the thresholds
    # are 1.5 sqrt(s ln(2n/s)/m) and 0.02
    t = 1.5 * math.sqrt(4 * math.log(2 * 64 / 4) / 20000)
    for max_dev, code in ((t, 0), (math.nextafter(t, math.inf), 1)):
        monkeypatch.setattr(onebit.cli, "verify_uniform_concentration", lambda *a: max_dev)
        assert main(["verify", "--check", "uniform-concentration"]) == code, max_dev
        assert capsys.readouterr().out.endswith("FAIL\n" if code else "PASS\n")
    t = 0.02
    above = math.nextafter(t, math.inf)
    for count, code in ((5, 0), (6, 1)):
        rep = harness.ConcentrationReport(
            mean_abs_moment=ROOT_TWO_OVER_PI,
            deviations=np.where(np.arange(100) < count, above, t))
        monkeypatch.setattr(onebit.cli, "verify_concentration", lambda *a: rep)
        assert main(["verify", "--check", "concentration", "--m", "20000",
                     "--trials", "100"]) == code, count
        out = capsys.readouterr().out
        assert out.splitlines()[2] == f"exceedance@{t}={count / 100:.4f}", out
        assert out.endswith("FAIL\n" if code else "PASS\n")


def test_cli_verify_uniform_concentration_default_scales_with_m(capsys, monkeypatch):
    # the largest deviation over the sampled points scales as
    # sqrt(s ln(2n/s)/m): a correct generator passes at small m, where the
    # old fixed 0.1 failed it (max deviations 0.121, 0.167 and 0.186)
    def verify(*argv):
        code = main(["verify", "--check", "uniform-concentration", *argv])
        out = capsys.readouterr().out
        return code, float(re.search(r"threshold=(\S+)", out).group(1)), out

    for m, seed in ((300, 0), (100, 0), (100, 7)):
        code, t, out = verify("--m", str(m), "--seed", str(seed))
        assert code == 0 and out.endswith("PASS\n"), (m, seed, out)
        assert t == 1.5 * math.sqrt(4 * math.log(2 * 64 / 4) / m)
    # at the default m = 20000 the threshold is 0.0395; rows scaled by 1.1
    # shift every moment by about 0.08, which the old 0.1 let pass
    code, t, out = verify()
    assert code == 0 and round(t, 4) == 0.0395

    def scaled(m, n, seed, row_offset=0):
        ens = gen_gaussian_ensemble(m, n, seed, row_offset)
        ens.rows *= 1.1
        return ens

    monkeypatch.setattr(harness, "gen_gaussian_ensemble", scaled)
    code, t, out = verify()
    assert code == 1 and out.endswith("FAIL\n")
    assert 0.07 < float(re.search(r"max_deviation=(\S+)", out).group(1)) < 0.1


def test_cli_verify_concentration_checks_say_when_they_cannot_fail(capsys, monkeypatch):
    # rows of zeros give every moment 0 and every deviation sqrt(2/pi): at
    # the default thresholds they pass concentration when m <= 12 and
    # m * trials <= 78, and uniform-concentration (n = 64, s = 4) when
    # m <= 48.  There the check says INCONCLUSIVE and names the sizes that
    # can fail; one step past, zero rows fail and the real generator passes
    def verify(*argv):
        code = main(["verify", "--check", *argv])
        return code, capsys.readouterr().out

    floors = ((["concentration", "--m", "12", "--trials", "6"],
               ["concentration", "--m", "13", "--trials", "7"],
               "use --m 13 or more, or m*trials of 79 or more\n"),
              (["uniform-concentration", "--m", "48"],
               ["uniform-concentration", "--m", "49"],
               "use --m 49 or more\n"))
    for _, past, _ in floors:
        code, out = verify(*past)
        assert code == 0 and out.endswith("PASS\n"), (past, out)

    monkeypatch.setattr(harness, "gen_gaussian_ensemble",
                        lambda m, n, seed, row_offset=0: MeasurementEnsemble(np.zeros((m, n))))
    for floor, past, sizes in floors:
        code, out = verify(*floor)
        assert code == 0 and "\nINCONCLUSIVE: " in out and out.endswith(sizes), (floor, out)
        assert "PASS" not in out
        code, out = verify(*past)
        assert code == 1 and out.endswith("FAIL\n"), (past, out)
    # either concentration bound alone lets zero rows fail
    for argv in (["--m", "12", "--trials", "7"], ["--m", "13", "--trials", "6"]):
        code, out = verify("concentration", *argv)
        assert code == 1 and out.endswith("FAIL\n"), (argv, out)


@pytest.mark.parametrize("delta", ["nan", "inf", "0", "-1"])
def test_cli_delta_must_be_positive_and_finite(capsys, delta):
    # x > nan is always False: a nan pair distance would count no pair
    # beyond it, and an infinite one would do the same
    assert main(["tessellate", "--m", "10", "--trials", "5", "--delta", delta]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "positive and finite" in err
    # each verify check's threshold is fixed by the sizes: --delta is a usage error
    for check in CHECKS:
        assert main(["verify", "--check", check, "--delta", delta]) == 2, check
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --delta" in err, check


def _package_env():
    """The environment for a child interpreter that imports this onebit."""
    env = dict(os.environ)
    pkg_parent = str(Path(onebit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_parent, env.get("PYTHONPATH")]))
    return env


def test_importing_the_cli_builds_no_parser():
    # the parser is built on the first main() call, not at import, so the
    # import time that setup_s measures does not include it
    code = ("import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *a, **k):\n"
            "    built.append(k.get('prog'))\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import onebit.cli\n"
            "print(len(built))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_package_env(), check=True).stdout
    assert out == "0\n"


def test_main_builds_the_parser_once(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    build_parser.cache_clear()
    assert main(["--version"]) == 0
    # the root parser and one per subcommand
    assert len(built) == 6
    assert main(["sweep", "--frobnicate"]) == 2
    assert len(built) == 6
    assert build_parser() is build_parser()


def test_parses_share_no_m_list():
    # the --m default is converted on every parse: no parse sees another's list
    for argv in (["sweep", "--out", "x.csv"], ["tessellate"]):
        first = build_parser().parse_args(argv)
        want = list(first.m)
        first.m.append(7)
        second = build_parser().parse_args(argv)
        assert second.m == want and second.m is not first.m


def test_repeated_main_calls_give_the_same_outputs(tmp_path, capsys):
    # one process, one parser: a usage error and --version between two runs
    # of one sweep change neither its stdout nor its CSV bytes
    out = tmp_path / "sweep.csv"
    argv = SMALL_ARGV + ["--out", str(out)]
    drop = SWEEP_FIELDS.index("wall_time_ms")

    def run():
        assert main(argv) == 0
        rows = [ln.split(",") for ln in out.read_text(encoding="utf-8").splitlines()]
        return capsys.readouterr().out, [r[:drop] + r[drop + 1:] for r in rows]

    first = run()
    assert main(["sweep", "--m", "10,x", "--out", str(out)]) == 2
    assert main(["--version"]) == 0
    capsys.readouterr()
    assert run() == first


def test_console_script_version(tmp_path):
    # run the declared entry point the way an installed script wrapper would,
    # so the check needs no install: only the importable package
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["onebit"]
    module, func = entry.split(":")
    code = f"import sys; sys.argv[0] = 'onebit'; from {module} import {func}; sys.exit({func}())"
    out = subprocess.run([sys.executable, "-c", code, "--version"], capture_output=True,
                         text=True, env=_package_env(), cwd=tmp_path)
    assert out.returncode == 0
    assert "onebit" in out.stdout


def test_module_entry_point_version(tmp_path):
    # `python -m onebit.cli` takes the console script's path
    out = subprocess.run([sys.executable, "-m", "onebit.cli", "--version"],
                         capture_output=True, text=True, env=_package_env(), cwd=tmp_path)
    assert (out.returncode, out.stdout, out.stderr) == (0, f"onebit {onebit.__version__}\n", "")


def test_package_version_has_one_source():
    # pyproject.toml reads the version from onebit.__version__, statically:
    # resolving it imports neither onebit nor numpy
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert "version" not in project and project["dynamic"] == ["version"]
    code = ("import sys\n"
            "from setuptools.config.pyprojecttoml import read_configuration\n"
            f"conf = read_configuration({str(root / 'pyproject.toml')!r})\n"
            "print(conf['project']['version'], 'onebit' in sys.modules, 'numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-W", "ignore", "-c", code],
                         capture_output=True, text=True, check=True).stdout
    assert out == f"{onebit.__version__} False False\n"


def test_package_exports_are_its_public_names():
    exec("from onebit import *", {})   # raises AttributeError on a stale __all__ entry
    public = {name for name, value in vars(onebit).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(onebit.__all__) == sorted(public | {"__version__"})


def test_manifest_path_derivation(tmp_path):
    config = {"command": "sweep", "m": [20, 30]}
    path = write_manifest(config, str(tmp_path / "data.csv"))
    assert path.endswith("data.manifest.json")
    assert json.loads(Path(path).read_text(encoding="utf-8"))["config"] == config
