"""List the round seeds of a sweep workload that fail or stall.

    python3 perfbench/pool.py --workload sweep-zero-signs --first 0 --count 120

Runs one round per seed, exactly as perfbench/run.py does, and prints each
round's time, then the seeds whose round had a failed operation and the
seeds whose round took more than STALL_FACTOR times the median round.  The
sweep workloads draw their rounds from range(pool_size) minus those seeds
(workloads.py), so a run at the commit that defined the benchmark attempts
only rounds that complete, and no single round outlasts a whole run; see
README.md.
"""

from __future__ import annotations

import argparse
import statistics
import sys

import run

run.import_onebit()

import onebit.cli  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

STALL_FACTOR = 10


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("sweep-gaussian", "sweep-zero-signs"))
    ap.add_argument("--first", type=int, default=0)
    ap.add_argument("--count", type=int, required=True)
    args = ap.parse_args(argv)
    run.OUT.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, run.OUT)
    tracer = Tracer()
    workload.install(tracer)
    failing, times = [], {}
    for seed in range(args.first, args.first + args.count):
        done = len(workload.ops)
        times[seed] = run.run_round(tracer, workload, seed, seed, False, onebit.cli.main)
        problems = [p for op in workload.ops[done:] for p in op.problems]
        print(f"seed {seed}: {times[seed]:.3f} s {'; '.join(problems)}", flush=True)
        if problems:
            failing.append(seed)
    limit = STALL_FACTOR * statistics.median(times.values())
    print(f"failing round seeds: {failing}")
    print(f"stalling round seeds (over {limit:.1f} s): "
          f"{[s for s, t in times.items() if t > limit]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
