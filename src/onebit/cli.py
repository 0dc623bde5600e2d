"""Command line front end.

Subcommands: gen (write a synthetic instance to files), recover (solve the
instance in those files), sweep (recovery error sweep to CSV),
tessellate (hyperplane tessellation report), verify (named statistical and
deterministic checks).  Exit codes: 0 success, 1 experiment failure, 2 usage.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings
from dataclasses import asdict

import numpy as np

from . import __version__
from .geometry import SignalSetSpec, single_hyperplane_separation_prob, tessellate_and_report
from .harness import (
    ROOT_TWO_OVER_PI,
    SWEEP_FIELDS,
    gen_instance,
    make_parent_dir,
    run_sweep,
    verify_bernoulli_counterexample,
    verify_concentration,
    verify_uniform_concentration,
    write_manifest,
    write_sweep_csv,
)
from .measurement import derive_seed, sign_quantize
from .recovery import recover, recovery_error

CHECKS = ("concentration", "uniform-concentration", "bernoulli-counterexample", "separation")
# the separation check wants each estimate within 5 binomial sigmas,
# sqrt(p (1 - p) / trials), of its exact p; for p = 1/4 that band reaches 0,
# and no estimate can fail, unless trials > 25 (1 - p) / p = 75
SEPARATION_MIN_TRIALS = 76


def _m_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad m list {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty m list")
    if min(values) < 1 or len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"every m must be at least 1 and given once, got {text!r}")
    return values


def _add_common(p: argparse.ArgumentParser, n: int, s: int, m: int | str,
                trials: int | None = None) -> None:
    """--n, --s, --m, --seed and, given a default, --trials.

    A str m default makes --m a comma-separated list (sweep, tessellate);
    an int default makes it one count.  The str is converted on every
    parse, so no two parses share a list.
    """
    p.add_argument("--n", type=int, default=n, help="ambient dimension")
    p.add_argument("--s", type=int, default=s, help="sparsity")
    if isinstance(m, str):
        p.add_argument("--m", type=_m_list, default=m,
                       help="measurement counts, comma separated")
    else:
        p.add_argument("--m", type=int, default=m, help="measurement count")
    if trials is not None:
        p.add_argument("--trials", type=int, default=trials)
    p.add_argument("--seed", type=int, default=0)


def _add_model(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dist", choices=("gaussian", "bernoulli"), default="gaussian")
    p.add_argument("--mag", choices=("unit_gaussian", "constant"), default="unit_gaussian")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The onebit parser, built on the first call and shared by every later one.

    Building the five subcommands costs more than a small recovery, so
    in-process callers of main() reuse one tree.  Callers must not modify it.
    The tree holds what it read when it was built (each subcommand's cmd_*
    function, CHECKS, __version__): a patch of one of those takes effect
    only after build_parser.cache_clear().
    """
    ap = argparse.ArgumentParser(
        prog="onebit",
        description="One-bit compressed sensing by linear programming.")
    ap.add_argument("--version", action="version", version=f"onebit {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a synthetic instance to plain-text files")
    _add_common(gen, n=32, s=3, m=60)
    _add_model(gen)
    gen.add_argument("--out", required=True, help="output path prefix")
    gen.set_defaults(func=cmd_gen)

    # no abbreviations: --m would otherwise read as --matrix, and gen's
    # instance flags are refused here, not rebound to a file option
    rec = sub.add_parser("recover", help="recover a direction from sign measurements",
                         allow_abbrev=False)
    rec.add_argument("--matrix", required=True,
                     help="measurement matrix file (rows of decimals)")
    rec.add_argument("--signs", required=True,
                     help="sign pattern file (one of -1, 0, 1 per line)")
    rec.add_argument("--signal", help="optional true signal file for error reporting")
    rec.add_argument("--out", help="write the recovered direction here")
    rec.set_defaults(func=cmd_recover)

    sw = sub.add_parser("sweep", help="recovery error sweep over m, written as CSV")
    _add_common(sw, n=128, s=4, m="100,200,400,800", trials=25)
    _add_model(sw)
    sw.add_argument("--out", required=True, help="CSV output path")
    sw.set_defaults(func=cmd_sweep)

    tes = sub.add_parser("tessellate", help="sign-pattern tessellation report")
    _add_common(tes, n=32, s=2, m="50,100,200,400", trials=500)
    tes.add_argument("--delta", type=float, default=0.5,
                     help="report the pairs farther apart than this; "
                          "positive and finite")
    tes.add_argument("--out", help="per-m summary CSV path")
    tes.set_defaults(func=cmd_tessellate)

    ver = sub.add_parser("verify", help="run a named check")
    ver.add_argument("--check", required=True, choices=CHECKS)
    _add_common(ver, n=64, s=4, m=20000, trials=100)
    ver.set_defaults(func=cmd_verify)
    return ap


def _write_out(records: list[dict], columns: list[str], args) -> None:
    """Write records as CSV at args.out, with the parsed command line as its manifest."""
    write_sweep_csv(records, args.out, columns)
    write_manifest({k: v for k, v in vars(args).items() if not callable(v)}, args.out)


def cmd_gen(args) -> int:
    x, ens = gen_instance(args.n, args.s, args.m, args.seed, args.dist, args.mag)
    y = sign_quantize(ens.rows @ x)
    prefix = args.out
    make_parent_dir(prefix)
    np.savetxt(prefix + "_matrix.txt", ens.rows, fmt="%.17e")
    np.savetxt(prefix + "_signal.txt", x.reshape(1, -1), fmt="%.17e")
    np.savetxt(prefix + "_signs.txt", y, fmt="%d")
    m, n = ens.rows.shape
    print(f"wrote {prefix}_matrix.txt ({m}x{n}), "
          f"{prefix}_signal.txt, {prefix}_signs.txt")
    return 0


def _load_numbers(path: str, ndmin: int) -> np.ndarray:
    """The numbers in a text file that gen wrote; a file with none is an error."""
    with warnings.catch_warnings():
        # numpy only warns on an empty file; the size check reports it
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        values = np.loadtxt(path, dtype=np.float64, ndmin=ndmin)
    if values.size == 0:
        raise ValueError(f"{path} holds no data")
    return values


def cmd_recover(args) -> int:
    rows = _load_numbers(args.matrix, 2)
    if not np.isfinite(rows).all():
        raise ValueError("matrix entries must be finite")
    # recover rejects entries other than -1, 0 and 1
    y = _load_numbers(args.signs, 1)
    x_true = None
    if args.signal:
        x_true = _load_numbers(args.signal, 1).ravel()
        if x_true.shape[0] != rows.shape[1]:
            raise ValueError("signal length does not match the matrix columns")
        if not (np.isfinite(x_true).all() and x_true.any()):
            raise ValueError("signal must be finite and nonzero")
    res = recover(rows, y)
    cert = res.certificate
    sol = res.lp_solution
    print(f"m={rows.shape[0]} n={rows.shape[1]} status={sol.status} "
          f"iterations={sol.iterations} degenerate_pivots={sol.degenerate_pivots} "
          f"bland_switches={sol.bland_switches}")
    print(f"l1={np.abs(res.x_hat).sum():.6f} l1/l2={res.l1_over_l2:.6f} "
          f"max_violation={cert.max_violation:.3e}")
    print(f"certificate: |T|={cert.support.size} |Omega|={cert.active_rows.size} "
          f"cardinality_ok={cert.cardinality_ok}")
    print(f"duality: gap={cert.duality_gap:.3e} dual_violation={cert.dual_violation:.3e}")
    if x_true is not None:
        print(f"error={recovery_error(res.direction, x_true):.6f}")
    if args.out:
        make_parent_dir(args.out)
        np.savetxt(args.out, res.direction.reshape(1, -1), fmt="%.17e")
        print(f"wrote {args.out}")
    return 0


def cmd_sweep(args) -> int:
    rows = run_sweep(args.n, args.s, args.m, args.trials, args.seed, args.dist, args.mag)
    _write_out([asdict(row) for row in rows], SWEEP_FIELDS, args)
    for m in args.m:
        errs = [r.error for r in rows if r.m == m and np.isfinite(r.error)]
        ok = sum(1 for r in rows if r.m == m and r.cert_cardinality_ok)
        med = float(np.median(errs)) if errs else float("nan")
        print(f"m={m} trials={args.trials} median_error={med:.4f} "
              f"cardinality_ok={ok}/{args.trials}")
    print(f"wrote {args.out}")
    return 0


def _min_or_zero(a: np.ndarray) -> int:
    # not np.min(a, initial=0): that is 0 for any array of positive counts
    return int(a.min()) if a.size else 0


def cmd_tessellate(args) -> int:
    if args.trials < 1:
        raise ValueError("need at least one sample")
    spec = SignalSetSpec(args.n, args.s)
    lines = []
    for m in args.m:
        rep = tessellate_and_report(spec, m, args.delta, args.trials, args.seed)
        summary = {
            "m": m,
            "delta": args.delta,
            "sample_count": args.trials,
            "nonempty_cells": rep.nonempty_cells,
            "max_cell_diameter_lb": rep.max_cell_diameter_lb,
            "pairs_beyond_delta": rep.pair_i.size,
            "min_count_fwd": _min_or_zero(rep.count_fwd),
            "min_count_rev": _min_or_zero(rep.count_rev),
        }
        lines.append(summary)
        print(f"m={m} cells={summary['nonempty_cells']} "
              f"max_cell_diameter_lb={summary['max_cell_diameter_lb']:.4f} "
              f"pairs>{args.delta}={summary['pairs_beyond_delta']} "
              f"min_sep=({summary['min_count_fwd']},{summary['min_count_rev']})")
    if args.out:
        _write_out(lines, list(lines[0]), args)
        print(f"wrote {args.out}")
    return 0


def cmd_verify(args) -> int:
    """Run one check and judge it: every threshold and pass rule lives here.

    Each rule is fixed by the sizes n, s, m and trials:

    - concentration: PASS when at most 5% of the trials' moment deviations
      exceed t = 0.02 sqrt(20000/m) and the mean moment over the trials is
      within tol = 0.005 sqrt(20000 * 100/(m trials)) of sqrt(2/pi);
    - uniform-concentration: PASS when the largest deviation over `trials`
      sampled points of K(n, s) is at most t = 1.5 sqrt(s ln(2n/s)/m);
    - bernoulli-counterexample: PASS when +-1 rows give e1 and e1 + e2/2 the
      same signs at each of `trials` seeds and Gaussian rows tell them apart;
    - separation: PASS when each of the two estimates over `trials`
      hyperplanes is within 5 sqrt(p (1 - p)/trials) of its exact p, 1/4 for
      an orthogonal pair and 1/2 for an antipodal one.

    A check prints INCONCLUSIVE and exits 0, not PASS, at the sizes where it
    cannot tell a broken sampler from a working one.  separation reads --n
    only for its n >= 2 guard, plus --trials and --seed; concentration and
    bernoulli-counterexample do not read --s.  A size that a check does not
    read is accepted and ignored.
    """
    check = args.check
    R = ROOT_TWO_OVER_PI   # rows of zeros give every moment 0, so a deviation of R
    inconclusive = None
    if check == "concentration":
        # one trial's moment deviation has standard deviation
        # sqrt(1 - 2/pi)/sqrt(m): the threshold and the tolerance on the mean
        # over trials are 0.02 and 0.005 at m = 20000 and 100 trials and
        # scale with it (m < 1 and trials < 1 are refused by verify_concentration)
        rep = verify_concentration(args.n, args.m, args.trials, args.seed)
        t = 0.02 * math.sqrt(20000 / args.m)
        tol = 0.005 * math.sqrt(20000 * 100 / (args.m * args.trials))
        exceedance = float((rep.deviations > t).mean())
        print(f"concentration: n={args.n} m={args.m} trials={args.trials}")
        print(f"mean_abs_moment={rep.mean_abs_moment:.6f} target={R:.6f}")
        print(f"exceedance@{t}={exceedance:.4f}")
        passed = exceedance <= 0.05 and abs(rep.mean_abs_moment - R) <= tol
        if t >= R and tol >= R:
            inconclusive = (f"the threshold {t:.4f} and the mean tolerance {tol:.4f} reach "
                            f"sqrt(2/pi), so rows of zeros would pass; use --m "
                            f"{math.floor(20000 * (0.02 / R) ** 2) + 1} or more, or m*trials "
                            f"of {math.floor(20000 * 100 * (0.005 / R) ** 2) + 1} or more")
    elif check == "uniform-concentration":
        # the largest deviation over the sampled cap points scales as
        # sqrt(s ln(2n/s)/m), not as one point's sqrt(1 - 2/pi)/sqrt(m)
        # (s outside [1, n], and m < 1, are refused by verify_uniform_concentration)
        max_dev = verify_uniform_concentration(args.n, args.s, args.m, args.trials, args.seed)
        t = 1.5 * math.sqrt(args.s * math.log(2 * args.n / args.s) / args.m)
        print(f"uniform concentration: n={args.n} s={args.s} m={args.m} "
              f"samples={args.trials}")
        print(f"max_deviation={max_dev:.6f} threshold={t}")
        passed = max_dev <= t
        if t >= R:
            m_max = (1.5 / R) ** 2 * args.s * math.log(2 * args.n / args.s)
            inconclusive = (f"the threshold {t:.4f} reaches sqrt(2/pi), so rows of zeros "
                            f"would pass; use --m {math.floor(m_max) + 1} or more")
    elif check == "bernoulli-counterexample":
        rep = verify_bernoulli_counterexample(args.n, args.m, args.trials, args.seed)
        print(f"bernoulli counterexample: n={args.n} m={args.m} seeds={len(rep.seeds)}")
        print(f"identical sign patterns under +-1 rows: "
              f"{sum(rep.identical_per_seed)}/{len(rep.seeds)}")
        print(f"gaussian rows distinguish the pair: {rep.gaussian_differs}")
        passed = all(rep.identical_per_seed) and rep.gaussian_differs
    else:   # separation
        if args.n < 2:
            raise ValueError("need n >= 2")
        # each product <a, e> is one exact term, and a grid's first two
        # columns are the two-column grid at the same seed: posing the pairs
        # in R^2 gives the estimates of the pairs in R^n, bit for bit
        e1, e2 = np.eye(2)
        p_orth = single_hyperplane_separation_prob(e1, e2, args.trials, args.seed, margin=0.0)
        p_anti = single_hyperplane_separation_prob(e1, -e1, args.trials,
                                                   derive_seed(args.seed, 1), margin=0.0)
        print(f"separation: trials={args.trials}")
        print(f"orthogonal pair: estimate={p_orth:.5f} exact=0.25")
        print(f"antipodal pair:  estimate={p_anti:.5f} exact=0.5")
        passed = all(abs(est - p) <= 5 * np.sqrt(p * (1 - p) / args.trials)
                     for est, p in ((p_orth, 0.25), (p_anti, 0.5)))
        if args.trials < SEPARATION_MIN_TRIALS:
            inconclusive = (f"at {args.trials} trials the 5 sigma band around 1/4 reaches 0, "
                            f"so no estimate can fail; use --trials "
                            f"{SEPARATION_MIN_TRIALS} or more")
    if inconclusive:
        print(f"INCONCLUSIVE: {inconclusive}")
        return 0
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
