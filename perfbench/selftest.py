"""Self-test of the benchmark's checks: each accepts a right output and rejects a wrong one.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Small instances only; it takes a
few seconds.  Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import run  # sets the BLAS thread count before numpy loads

run.import_onebit()

import numpy as np  # noqa: E402

import onebit.cli  # noqa: E402
import onebit.harness  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from onebit import (SignalSetSpec, derive_seed, gen_bernoulli_ensemble,  # noqa: E402
                    gen_gaussian_ensemble, gen_sparse_signal, recover, sign_quantize,
                    tessellate_and_report, tessellation_rows, verify_bernoulli_counterexample)
from onebit.cli import main as cli_main  # noqa: E402
from spans import Tracer  # noqa: E402

OUT = Path(__file__).resolve().parent / "out"

CASES = []


def case(fn):
    CASES.append(fn)
    return fn


def expect(problems, ok: bool, what: str) -> None:
    if bool(problems) == ok:
        raise AssertionError(f"{what}: expected {'no problems' if ok else 'a problem'}, "
                             f"got {problems!r}")


def trial(n=16, s=2, m=40, seed=3, dist="gaussian"):
    x = gen_sparse_signal(n, s, derive_seed(seed, 1), "unit_gaussian" if dist == "gaussian"
                          else "constant")
    gen = gen_gaussian_ensemble if dist == "gaussian" else gen_bernoulli_ensemble
    A = gen(m, n, derive_seed(seed, 2)).rows
    y = sign_quantize(A @ x)
    return A, y, x, recover(A, y).x_hat


@case
def recovery_trial_checks():
    for dist in ("gaussian", "bernoulli"):
        A, y, x, x_hat = trial(dist=dist)
        expect(checks.check_trial(A, y, x, x_hat), True, f"{dist} trial as solved")
        expect(checks.check_trial(A, y, x, 1.01 * x_hat), False, f"{dist} x_hat scaled by 1.01")
        bumped = x_hat.copy()
        bumped[np.argmin(np.abs(x_hat))] += 1e-3
        expect(checks.check_trial(A, y, x, bumped), False, f"{dist} x_hat perturbed off the vertex")
        expect(checks.check_trial(A, y, x, -x_hat), False, f"{dist} x_hat negated")
        flipped = y.copy()
        k = int(np.flatnonzero(y)[0])
        flipped[k] = -flipped[k]
        expect(checks.check_trial(A, flipped, x, x_hat), False, f"{dist} one sign flipped")


@case
def error_trend_check():
    expect(checks.check_error_trend([0.4, 0.3, 0.5], [0.1, 0.2, 0.1]), True, "falling error")
    expect(checks.check_error_trend([0.1, 0.2, 0.1], [0.4, 0.3, 0.5]), False, "rising error")


def small_report(seed=5):
    spec = SignalSetSpec(8, 2, "effectively_sparse")
    rep = tessellate_and_report(spec, 12, 0.5, 60, seed)
    A = tessellation_rows(spec, 12, seed)
    rc = checks.recount_tessellation(rep.sampled_points, A, 0.5, 0.5 / 30.0)
    st = rep.separation_stats
    arrays = [np.array([getattr(p, f) for p in st], dtype=np.int64)
              for f in ("i", "j", "count_fwd", "count_rev")]
    return spec, rep, rc, arrays


@case
def tessellation_report_checks():
    spec, rep, rc, (pi, pj, fwd, rev) = small_report()
    X, cells, diam = rep.sampled_points, rep.nonempty_cells, rep.max_cell_diameter_lb
    expect(checks.check_report(X, spec.s, rc, cells, diam, pi, pj, fwd, rev), True, "report")
    expect(checks.check_report(X, spec.s, rc, cells - 1, diam, pi, pj, fwd, rev), False,
           "two cells merged")
    expect(checks.check_report(X, spec.s, rc, cells, diam + 0.01, pi, pj, fwd, rev), False,
           "diameter bound off")
    expect(checks.check_report(X, spec.s, rc, cells, diam, pi[1:], pj[1:], fwd[1:], rev[1:]),
           False, "a pair dropped")
    moved = pj.copy()
    moved[0] = (moved[0] + 1) % X.shape[0]
    expect(checks.check_report(X, spec.s, rc, cells, diam, pi, moved, fwd, rev), False,
           "a pair replaced")
    expect(checks.check_report(X, spec.s, rc, cells, diam, pi, pj, fwd + (pi == pi[0]), rev),
           False, "a separation count off by one")
    far = X.copy()
    far[0] *= 1.1
    expect(checks.check_report(far, spec.s, rc, cells, diam, pi, pj, fwd, rev), False,
           "a point off the sphere")


@case
def tessellate_output_checks():
    _, rep, rc, _ = small_report()
    line = (f"m=12 cells={rc['cells']} max_cell_diameter_lb={rc['diameter']:.4f} "
            f"pairs>0.5={rc['pair_i'].size} min_sep=({rc['fwd'].min()},{rc['rev'].min()})")
    expect(checks.check_tessellate_output(line, [(12, rc)])[0], True, "printed line")
    bad = line.replace(f"min_sep=({rc['fwd'].min()},", f"min_sep=({rc['fwd'].min() + 1},")
    expect(checks.check_tessellate_output(bad, [(12, rc)])[0], False, "printed min_sep off")
    bad = line.replace(f"cells={rc['cells']}", f"cells={rc['cells'] - 1}")
    expect(checks.check_tessellate_output(bad, [(12, rc)])[0], False, "printed cells off")
    expect(checks.check_tessellate_output("", [(12, rc)])[0], False, "nothing printed")
    good = [(50, 10, 0.5), (100, 12, 0.4), (200, 12, 0.4)]
    expect(sum(checks.check_nested(good), []), True, "nested reports")
    expect(sum(checks.check_nested([(50, 10, 0.5), (100, 9, 0.4)]), []), False, "cells fell")
    expect(sum(checks.check_nested([(50, 10, 0.4), (100, 12, 0.5)]), []), False,
           "diameter rose")


@case
def verify_checks():
    expect(checks.check_concentration(checks.ROOT_TWO_OVER_PI + 0.001), True, "moment")
    expect(checks.check_concentration(checks.ROOT_TWO_OVER_PI + 0.01), False, "moment off")
    rep = verify_bernoulli_counterexample(16, 200, 5, 7)
    expect(checks.check_bernoulli(rep, 16, 200, 5, 7), True, "bernoulli pair")
    bad = dataclasses.replace(rep, identical_per_seed=[False] + rep.identical_per_seed[1:],
                              all_identical=False)
    expect(checks.check_bernoulli(bad, 16, 200, 5, 7), False, "a seed told apart")
    expect(checks.check_bernoulli(dataclasses.replace(rep, gaussian_differs=False),
                                  16, 200, 5, 7), False, "Gaussian rows reported blind")
    expect(checks.check_separation(0.27, 0.48, 100), True, "separation")
    expect(checks.check_separation(0.55, 0.5, 100), False, "orthogonal estimate off")
    expect(checks.check_separation(0.25, 0.2, 100), False, "antipodal estimate off")


def run_one_round(workload, owner, attr, replacement):
    """One round through onebit.cli.main with owner.attr replaced."""
    honest = getattr(owner, attr)
    setattr(owner, attr, replacement or honest)
    try:
        tracer = Tracer()
        workload.install(tracer)
        run.run_round(tracer, workload, 0, 11, False, cli_main)
        tracer.unwrap()
    finally:
        setattr(owner, attr, honest)
    return workload.ops


@case
def operations_fail_on_a_wrong_program():
    """Whole rounds: every operation passes as the program stands, and an
    operation fails when a layer under it returns a wrong result."""
    OUT.mkdir(exist_ok=True)
    honest_recover = onebit.harness.recover
    honest_report = onebit.cli.tessellate_and_report

    def scaled(ens, y, tol=None):
        res = honest_recover(ens, y, tol)
        return dataclasses.replace(res, x_hat=2.0 * res.x_hat)

    def pair_dropped(spec, m, delta, count, seed):
        rep = honest_report(spec, m, delta, count, seed)
        rep.separation_stats.pop()
        return rep

    def sweep():
        w = workloads.Sweep("selftest", "gaussian", "unit_gaussian", (30, 60), OUT, False)
        w.n, w.s = 16, 2
        return w

    def geometry():
        w = workloads.GeometryVerify("selftest")
        w.tess = dict(n=8, s=2, m=(10, 20), trials=40, delta=0.5)
        w.verify = dict(n=8, s=2, m=20000, trials=10)
        return w

    for make, owner, attr, wrong in ((sweep, onebit.harness, "recover", scaled),
                                     (geometry, onebit.cli, "tessellate_and_report",
                                      pair_dropped)):
        ops = run_one_round(make(), owner, attr, None)
        expect([p for op in ops for p in op.problems], True, f"{attr} as it stands")
        ops = run_one_round(make(), owner, attr, wrong)
        failed = [op for op in ops if op.problems]
        if not failed or any(op.m is None for op in failed):
            raise AssertionError(f"{wrong.__name__}: failed operations {failed!r}")


@case
def metric_names_match_benchmark_json():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for name in workloads.WORKLOADS:
        w = workloads.make(name, OUT)
        printed = {"end_to_end": run.end_to_end_metrics(w, 1.0, [], 1.0),
                   "per_layer": run.layer_metrics(Tracer(), w, [], [])}
        for kind, values in printed.items():
            want = [(m["name"], m["unit"]) for m in declared[kind]]
            got = [(k, unit) for k, (_, unit) in values.items()]
            if got != want:
                raise AssertionError(f"{name} {kind}: prints {got}, BENCHMARK.json has {want}")
    if [w["name"] for w in declared["workloads"]] != list(workloads.WORKLOADS):
        raise AssertionError("workload names differ from BENCHMARK.json")


def main() -> int:
    bad = 0
    for fn in CASES:
        try:
            fn()
            print(f"ok   {fn.__name__}")
        except AssertionError as exc:
            bad += 1
            print(f"FAIL {fn.__name__}: {exc}")
    print(f"{len(CASES) - bad}/{len(CASES)} self-test cases behaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
