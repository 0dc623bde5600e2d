"""The onebit benchmark: one workload, timed end to end or per layer, with its outputs checked.

    python3 perfbench/run.py --workload sweep-gaussian --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; onebit is imported from ./src.  The
run repeats whole rounds of the workload's `onebit` command lines, each
through onebit.cli.main, until --seconds have passed, checks every
operation, and prints one JSON object as its last line of output.  Times
are process CPU time (see spans.py).  With --trace 0 it reports the
end-to-end metrics; with --trace 1 every round is run twice, untraced then
traced on the same inputs, and it reports the per-layer metrics and the
tracing overhead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, median

# Before numpy loads: one BLAS thread, so the figures do not depend on how
# many cores other processes leave free.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_onebit():
    """Import onebit from this checkout's src, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import onebit

    where = Path(onebit.__file__).resolve().parent
    if where != (SRC / "onebit").resolve():
        raise ImportError(f"onebit imported from {where}, not from {SRC}")
    return onebit


def measure_setup_s() -> float:
    """Median CPU time of a fresh interpreter up to `import onebit` done."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, "-c", "import onebit"], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL, timeout=60)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        times.append(after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime)
    return statistics.median(times)


# (module, attribute, span name): the calls into each layer that the traced
# rounds wrap, each on the name its caller looks up.
LAYER_WRAPS = (
    ("cli", "run_sweep", "harness.run_sweep"),
    ("harness", "write_sweep_csv", "harness.write"),
    ("harness", "write_manifest", "harness.write"),
    ("cli", "write_manifest", "harness.write"),
    ("harness", "gen_gaussian_ensemble", "measurement.ensemble"),
    ("harness", "gen_bernoulli_ensemble", "measurement.ensemble"),
    ("measurement", "gen_gaussian_ensemble", "measurement.ensemble"),  # tessellation_rows
    ("recovery", "build_recovery_lp", "recovery.build_lp"),
    ("recovery", "solve_lp", "lp_core.solve"),
    ("recovery", "extract_certificate", "recovery.certificate"),
    ("geometry", "tessellation_points", "geometry.sample_cap"),
    ("geometry", "sign_pattern_cells", "geometry.cells"),
    ("harness", "sample_sphere_cap", "geometry.sample_sphere_cap"),
)


def _layer_info(span, args, result) -> None:
    if result is None:
        return
    if span.name == "measurement.ensemble":
        span.info["entries"] = result.rows.size
    elif span.name == "recovery.build_lp":
        span.info["m"] = len(args[1])
        span.info["rows"] = result.eq_lhs.shape[0] + result.ineq_lhs.shape[0]
        span.info["cols"] = result.num_vars
    elif span.name == "lp_core.solve":
        span.info["pivots"] = result.iterations


def run_round(tracer, workload, rnd: int, seed: int, traced: bool, main) -> float:
    """Run one round; return its time in seconds on the tracer's clock, checks excluded."""
    keep = tracer.wrapped()
    if traced:
        for module, attr, name in LAYER_WRAPS:
            tracer.wrap(importlib.import_module(f"onebit.{module}"), attr, name, _layer_info)
    tracer.round = rnd
    spent = 0.0
    try:
        for argv in workload.commands(seed):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code, span = tracer.call("cli.main", main, argv)
            span.info["command"] = argv[0]
            spent += span.seconds
            if span.exc is not None:
                code = f"raised {span.exc!r}"
            with tracer.paused():
                workload.after_command(rnd, argv, code, buf.getvalue(), span)
    finally:
        tracer.unwrap(keep)
    return spent


def end_to_end_metrics(workload, setup_s: float, round_times: list[float],
                       peak_rss_mb: float) -> dict:
    good = [op for op in workload.ops if not op.problems]
    return {
        "setup_s": (setup_s, "s"),
        "round_s": (median(round_times), "s"),
        "op_p50_ms": (median(op.ms for op in good), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def layer_metrics(tracer, workload, traced: list[int], pairs: list[tuple[float, float]]) -> dict:
    t = tracer
    ens = t.select("measurement.ensemble", traced)
    ens_s = sum(s.seconds for s in ens)
    builds = [s for s in t.select("recovery.build_lp", traced)
              if s.info.get("m") == workload.largest_m]
    solves = [s for s in t.select("lp_core.solve", traced) if "pivots" in s.info]
    pivots = sum(s.info["pivots"] for s in solves)
    verify_ms = {r: 0.0 for r in traced}
    for s in t.select("cli.main", traced):
        if s.info.get("command") == "verify":
            verify_ms[s.round] += 1000.0 * s.seconds
    trials = [op for op in workload.ops if not op.problems and op.round not in traced
              and op.m == workload.largest_m and not math.isnan(op.error)]
    return {
        "measurement.ensemble_ms": (median(t.per_round_ms("measurement.ensemble", traced)), "ms"),
        "measurement.entries_per_s": (sum(s.info.get("entries", 0) for s in ens) / ens_s
                                      if ens_s else 0.0, "1/s"),
        "recovery.build_lp_ms": (median(t.per_call_ms("recovery.build_lp", traced)), "ms"),
        "recovery.certificate_ms": (median(t.per_call_ms("recovery.certificate", traced)), "ms"),
        "recovery.recover_self_ms": (median(t.per_call_ms("recovery.recover", traced, own=True)),
                                     "ms"),
        "recovery.lp_rows": (median(s.info["rows"] for s in builds), "count"),
        "recovery.lp_cols": (median(s.info["cols"] for s in builds), "count"),
        "recovery.recover_largest_m_ms": (median(op.ms for op in trials), "ms"),
        "recovery.error_largest_m_p50": (median(op.error for op in trials), "1"),
        "lp_core.solve_ms": (median(t.per_call_ms("lp_core.solve", traced)), "ms"),
        "lp_core.pivots": (median(s.info["pivots"] for s in solves), "count"),
        "lp_core.ms_per_pivot": (1000.0 * sum(s.seconds for s in solves) / pivots
                                 if pivots else 0.0, "ms"),
        "geometry.sample_cap_ms": (median(t.per_call_ms("geometry.sample_cap", traced)), "ms"),
        "geometry.cells_ms": (median(t.per_call_ms("geometry.cells", traced)), "ms"),
        "geometry.report_self_ms": (median(t.per_call_ms("geometry.report", traced, own=True)),
                                    "ms"),
        "geometry.pair_records": (median(getattr(workload, "pair_records", [])), "count"),
        "geometry.separation_prob_ms": (median(t.per_round_ms("geometry.separation_prob",
                                                              traced)), "ms"),
        "harness.sweep_self_ms": (median(t.per_call_ms("harness.run_sweep", traced, own=True)),
                                  "ms"),
        "harness.write_ms": (median(t.per_round_ms("harness.write", traced)), "ms"),
        "harness.verify_self_ms": (median(t.per_round_ms("harness.verify", traced, own=True)),
                                   "ms"),
        "cli.verify_ms": (median(verify_ms.values()), "ms"),
        "cli.main_self_ms": (median(t.per_round_ms("cli.main", traced, own=True)), "ms"),
        "trace.overhead_pct": (100.0 * median(tr / un - 1.0 for un, tr in pairs), "%"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        onebit = import_onebit()
    except ImportError as exc:
        print(f"perfbench: cannot import onebit from {SRC}: {exc}", file=sys.stderr)
        return 2

    import numpy
    import scipy

    import onebit.cli
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    setup_s = measure_setup_s()
    OUT.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, OUT)
    tracer = Tracer()
    workload.install(tracer)

    round_times: dict[int, float] = {}
    traced: list[int] = []
    pairs: list[tuple[float, float]] = []
    steps: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        seed = workload.round_seed(args.seed, len(steps))
        rnd = len(round_times)
        round_times[rnd] = run_round(tracer, workload, rnd, seed, False, onebit.cli.main)
        if args.trace:
            round_times[rnd + 1] = run_round(tracer, workload, rnd + 1, seed, True,
                                             onebit.cli.main)
            traced.append(rnd + 1)
            pairs.append((round_times[rnd], round_times[rnd + 1]))
        steps.append(time.perf_counter() - t0)
        # stop where the expected end of the run is closest to --seconds
        if time.perf_counter() - start + 0.5 * statistics.mean(steps) >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.unwrap()

    failed_ops = [op for op in workload.ops if op.problems]
    for op in failed_ops[:20]:
        print(f"perfbench: FAILED round {op.round} m={op.m}: {'; '.join(op.problems)}",
              file=sys.stderr)
    run_problems = workload.run_problems()
    for problem in run_problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)

    if args.trace:
        values = layer_metrics(tracer, workload, traced, pairs)
    else:
        values = end_to_end_metrics(workload, setup_s, list(round_times.values()), peak_rss_mb)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"perfbench: workload={args.workload} seed={args.seed} rounds={len(round_times)} "
          f"traced_rounds={len(traced)} python={sys.version.split()[0]} "
          f"numpy={numpy.__version__} scipy={scipy.__version__} "
          f"blas={blas['name']}-{blas['version']} blas_threads={BLAS_THREADS}")
    print(json.dumps({
        "correct": not run_problems,
        "attempted": len(workload.ops),
        "failed": len(failed_ops),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
