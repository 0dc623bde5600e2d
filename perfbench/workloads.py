"""The benchmark's workloads: rounds of `onebit` commands, their checks and their operations.

A round is the fixed list of command lines a workload runs through
onebit.cli.main.  An operation is one recovery trial, one tessellation
report or one verify check; each is timed, checked, and counted failed when
the program raised, returned NaN, or a check found a problem.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import onebit.cli
import onebit.geometry
import onebit.harness
from onebit.measurement import as_rows

import checks


@dataclass
class Op:
    round: int
    m: int | None          # the operation's m; None for verify checks
    ms: float
    problems: list[str] = field(default_factory=list)
    error: float = math.nan   # recovery error of a trial, recomputed


class Sweep:
    """`onebit sweep` with one trial per m in each round.

    Round seeds come from a fixed pool, range(pool_size) minus `left_out`,
    in an order drawn from the run's seed.  `left_out` are the seeds on
    which, at the commit that defined the benchmark, the program raised
    RecoveryError or one trial stalled for longer than a whole run (the
    faults CHANGES.md records); perfbench/pool.py finds them again.
    """

    n, s = 128, 4

    def __init__(self, name: str, dist: str, mag: str, m_list: tuple[int, ...],
                 out_dir: Path, check_trend: bool, pool_size: int = 1,
                 left_out: tuple[int, ...] = ()) -> None:
        self.name = name
        self.dist, self.mag, self.m_list = dist, mag, m_list
        self.pool = [k for k in range(pool_size) if k not in left_out]
        self._order = None
        self.largest_m = max(m_list)
        self.csv_path = out_dir / f"{name}.csv"
        self.check_trend = check_trend
        self.ops: list[Op] = []
        self._trials: list[tuple[int, object, list[str], float]] = []
        self._x = None

    def round_seed(self, run_seed: int, step: int) -> int:
        if self._order is None:
            self._order = np.random.default_rng(run_seed).permutation(len(self.pool))
        return self.pool[self._order[step % len(self.pool)]]

    def commands(self, seed: int) -> list[list[str]]:
        return [["sweep", "--n", str(self.n), "--s", str(self.s),
                 "--m", ",".join(map(str, self.m_list)), "--trials", "1",
                 "--dist", self.dist, "--mag", self.mag,
                 "--seed", str(seed), "--out", str(self.csv_path)]]

    def install(self, tracer) -> None:
        tracer.wrap(onebit.harness, "gen_sparse_signal", "measurement.sparse_signal",
                    self._on_signal)
        tracer.wrap(onebit.harness, "recover", "recovery.recover", self._on_recover)

    def _on_signal(self, span, args, x) -> None:
        self._x = x

    def _on_recover(self, span, args, res) -> None:
        A = as_rows(args[0])
        if res is None:
            self._trials.append((A.shape[0], span, [f"recover raised {span.exc!r}"], math.nan))
            return
        problems = checks.check_trial(A, args[1], self._x, res.x_hat)
        self._trials.append((A.shape[0], span, problems,
                             checks.direction_error(res.x_hat, self._x)))

    def after_command(self, rnd: int, argv, code: int, text: str, span) -> None:
        trials, self._trials = self._trials, []
        try:
            with open(self.csv_path, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            self.csv_path.unlink()      # so no later round reads this one's rows
        except FileNotFoundError:
            rows = []
        expected = list(self.m_list)
        if code != 0 or [int(r["m"]) for r in rows] != expected or len(trials) != len(rows):
            for m in expected:
                self.ops.append(Op(rnd, m, math.nan,
                                   [f"sweep exited {code} with {len(rows)} rows "
                                    f"and {len(trials)} recover calls"]))
            return
        for row, (m, tspan, problems, err) in zip(rows, trials):
            written = float(row["error"])
            if math.isnan(written):
                problems = problems + ["the sweep wrote a NaN row"]
            elif not abs(written - err) <= 1e-9 * err + 1e-15:
                problems = problems + [f"the sweep wrote error {written!r}, recomputed {err!r}"]
            self.ops.append(Op(rnd, m, 1000.0 * tspan.seconds, problems, err))

    def run_problems(self) -> list[str]:
        if not self.check_trend:
            return []
        good = [op for op in self.ops if not op.problems]
        lo = [op.error for op in good if op.m == min(self.m_list)]
        hi = [op.error for op in good if op.m == self.largest_m]
        if not lo or not hi:
            return ["no trials passed at the smallest or the largest m"]
        return checks.check_error_trend(lo, hi)


class GeometryVerify:
    """`onebit tessellate` at its defaults, then the four `onebit verify` checks."""

    tess = dict(n=32, s=2, m=(50, 100, 200, 400), trials=500, delta=0.5)
    verify = dict(n=64, s=4, m=20000, trials=100)
    checks_run = ("concentration", "uniform-concentration", "bernoulli-counterexample",
                  "separation")

    def __init__(self, name: str) -> None:
        self.name = name
        self.largest_m = max(self.tess["m"])
        self.ops: list[Op] = []
        self.pair_records: list[int] = []
        self._rows = None
        self._reports: list[tuple[int, object, list[str], dict]] = []
        self._captured: list = []

    def round_seed(self, run_seed: int, step: int) -> int:
        return run_seed * 100_000 + step

    def commands(self, seed: int) -> list[list[str]]:
        t, v = self.tess, self.verify
        out = [["tessellate", "--n", str(t["n"]), "--s", str(t["s"]),
                "--m", ",".join(map(str, t["m"])), "--trials", str(t["trials"]),
                "--delta", str(t["delta"]), "--seed", str(seed)]]
        for check in self.checks_run:
            out.append(["verify", "--check", check, "--n", str(v["n"]), "--s", str(v["s"]),
                        "--m", str(v["m"]), "--trials", str(v["trials"]), "--seed", str(seed)])
        return out

    def install(self, tracer) -> None:
        tracer.wrap(onebit.geometry, "tessellation_rows", "geometry.rows", self._on_rows)
        tracer.wrap(onebit.cli, "tessellate_and_report", "geometry.report", self._on_report)
        for fn in ("verify_concentration", "verify_uniform_concentration",
                   "verify_bernoulli_counterexample"):
            tracer.wrap(onebit.cli, fn, "harness.verify", self._capture)
        tracer.wrap(onebit.cli, "single_hyperplane_separation_prob",
                    "geometry.separation_prob", self._capture)

    def _on_rows(self, span, args, rows) -> None:
        self._rows = rows

    def _capture(self, span, args, result) -> None:
        self._captured.append(result)

    def _on_report(self, span, args, rep) -> None:
        if rep is None:
            self._reports.append((args[1], span, [f"tessellate_and_report raised {span.exc!r}"],
                                  None))
            return
        spec, m, delta = args[0], args[1], args[2]
        stats = rep.separation_stats
        k = len(stats)
        self.pair_records.append(k)
        recount = checks.recount_tessellation(rep.sampled_points, self._rows, delta, delta / 30.0)
        problems = checks.check_report(
            rep.sampled_points, spec.s, recount, rep.nonempty_cells, rep.max_cell_diameter_lb,
            np.fromiter((p.i for p in stats), np.int64, k),
            np.fromiter((p.j for p in stats), np.int64, k),
            np.fromiter((p.count_fwd for p in stats), np.int64, k),
            np.fromiter((p.count_rev for p in stats), np.int64, k))
        recount["reported"] = (m, rep.nonempty_cells, rep.max_cell_diameter_lb)
        self._reports.append((m, span, problems, recount))

    def after_command(self, rnd: int, argv, code: int, text: str, span) -> None:
        captured, self._captured = self._captured, []
        if argv[0] == "tessellate":
            reports, self._reports = self._reports, []
            ms = list(self.tess["m"])
            if code != 0 or [r[0] for r in reports] != ms or any(r[3] is None for r in reports):
                for m in ms:
                    self.ops.append(Op(rnd, m, math.nan, [f"tessellate exited {code}"] +
                                       [p for r in reports for p in r[2]]))
                return
            printed = checks.check_tessellate_output(text, [(r[0], r[3]) for r in reports])
            nested = checks.check_nested([r[3]["reported"] for r in reports])
            for (m, rspan, problems, _), p2, p3 in zip(reports, printed, nested):
                self.ops.append(Op(rnd, m, 1000.0 * rspan.seconds, problems + p2 + p3))
            return
        check = argv[2]
        v = self.verify
        seed = int(argv[argv.index("--seed") + 1])
        problems = [] if code == 0 else [f"onebit verify --check {check} exited {code}"]
        if check == "concentration" and captured:
            problems += checks.check_concentration(captured[0].mean_abs_moment)
        elif check == "bernoulli-counterexample" and captured:
            problems += checks.check_bernoulli(captured[0], v["n"], v["m"], v["trials"], seed)
        elif check == "separation" and len(captured) == 2:
            problems += checks.check_separation(captured[0], captured[1], v["trials"])
        elif check != "uniform-concentration":
            problems.append(f"verify --check {check} made no call the benchmark could check")
        self.ops.append(Op(rnd, None, 1000.0 * span.seconds, problems))

    def run_problems(self) -> list[str]:
        return []


def make(name: str, out_dir: Path):
    if name == "sweep-gaussian":
        # 167: recover stops with iteration_limit at m=150 after 64 s
        return Sweep(name, "gaussian", "unit_gaussian", (50, 100, 150), out_dir, True,
                     pool_size=240, left_out=(167,))
    if name == "sweep-zero-signs":
        # 33, 40, 100: one trial takes 39-53 s (about 50,000 pivots) against 3 s
        return Sweep(name, "bernoulli", "constant", (200,), out_dir, False,
                     pool_size=120, left_out=(33, 40, 100))
    if name == "geometry-verify":
        return GeometryVerify(name)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sweep-gaussian", "sweep-zero-signs", "geometry-verify")
