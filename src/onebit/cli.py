"""Command line front end.

Subcommands: gen (write a synthetic instance to files), recover (solve the
instance in those files), sweep (recovery error sweep to CSV),
tessellate (hyperplane tessellation report), verify (named statistical and
deterministic checks).  Exit codes: 0 success, 1 experiment failure, 2 usage.
"""

from __future__ import annotations

import argparse
import math
import sys
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
from .recovery import constraint_violation, recover, recovery_error

CHECKS = ("concentration", "uniform-concentration", "bernoulli-counterexample", "separation")
# the checks that read --delta, with the threshold each uses without it
# (for concentration, at m = 20000; for uniform-concentration, in units of
# sqrt(s ln(2n/s)/m): see cmd_verify)
DELTA_DEFAULTS = {"concentration": 0.02, "uniform-concentration": 1.5}
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
    if min(values) < 1:
        raise argparse.ArgumentTypeError(f"every m must be at least 1, got {text!r}")
    return values


def _add_common(p: argparse.ArgumentParser, n: int, s: int, m: int | str,
                trials: int | None = None) -> None:
    """--n, --s, --m, --seed and, given a default, --trials.

    A str m default makes --m a comma-separated list (sweep, tessellate);
    an int default makes it one count.
    """
    p.add_argument("--n", type=int, default=n, help="ambient dimension")
    p.add_argument("--s", type=int, default=s, help="sparsity")
    if isinstance(m, str):
        p.add_argument("--m", type=_m_list, default=_m_list(m),
                       help="measurement counts, comma separated")
    else:
        p.add_argument("--m", type=int, default=m, help="measurement count")
    if trials is not None:
        p.add_argument("--trials", type=int, default=trials)
    p.add_argument("--seed", type=int, default=0)


def _add_model(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dist", choices=("gaussian", "bernoulli"), default="gaussian")
    p.add_argument("--mag", choices=("unit_gaussian", "constant"), default="unit_gaussian")


def build_parser() -> argparse.ArgumentParser:
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
    ver.add_argument("--delta", type=float, default=None,
                     help="deviation threshold, read by the concentration and "
                          "uniform-concentration checks only.  The concentration "
                          "default is 0.02 at m = 20000 and scales as sqrt(20000/m), "
                          "as one trial's moment deviation does (standard deviation "
                          "sqrt(1 - 2/pi)/sqrt(m)); the uniform-concentration default "
                          "is 1.5 sqrt(s ln(2n/s)/m), as the largest deviation over "
                          "the sampled points scales; a given value is used as is, "
                          "and must be positive and finite")
    ver.set_defaults(func=cmd_verify, usage_error=ver.error)
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


def cmd_recover(args) -> int:
    rows = np.loadtxt(args.matrix, dtype=np.float64, ndmin=2)
    # recover rejects entries other than -1, 0 and 1
    y = np.loadtxt(args.signs, dtype=np.float64, ndmin=1)
    x_true = None
    if args.signal:
        x_true = np.loadtxt(args.signal, dtype=np.float64).ravel()
        if x_true.shape[0] != rows.shape[1]:
            raise ValueError("signal length does not match the matrix columns")
    res = recover(rows, y)
    cert = res.certificate
    sol = res.lp_solution
    print(f"m={rows.shape[0]} n={rows.shape[1]} status={sol.status} "
          f"iterations={sol.iterations} degenerate_pivots={sol.degenerate_pivots} "
          f"bland_switches={sol.bland_switches}")
    print(f"l1={np.abs(res.x_hat).sum():.6f} l1/l2={res.l1_over_l2:.6f} "
          f"max_violation={constraint_violation(rows, y, res.x_hat):.3e}")
    print(f"certificate: |T|={cert.support.size} |Omega|={cert.active_rows.size} "
          f"cardinality_ok={cert.cardinality_ok} kernel_residual={cert.kernel_residual:.3e} "
          f"normalization_residual={cert.normalization_residual:.3e}")
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
    """Run one check and judge it: every threshold and pass rule lives here."""
    check = args.check
    if args.delta is not None and not 0 < args.delta < math.inf:
        raise ValueError("threshold t must be positive and finite")
    t = DELTA_DEFAULTS.get(check) if args.delta is None else args.delta
    if check == "concentration":
        # one trial's moment deviation has standard deviation
        # sqrt(1 - 2/pi)/sqrt(m): the default threshold and the tolerance on
        # the mean over trials hold at m = 20000 and 100 trials and scale with
        # it (m < 1 is refused by verify_concentration)
        if args.delta is None:
            t *= math.sqrt(20000 / max(args.m, 1))
        rep = verify_concentration(args.n, args.m, args.trials, args.seed)
        exceedance = float((rep.deviations > t).mean())
        print(f"concentration: n={args.n} m={args.m} trials={args.trials}")
        print(f"mean_abs_moment={rep.mean_abs_moment:.6f} target={ROOT_TWO_OVER_PI:.6f}")
        print(f"exceedance@{t}={exceedance:.4f} decay_rate={rep.decay_rate:.3f}")
        passed = exceedance <= 0.05 and \
            abs(rep.mean_abs_moment - ROOT_TWO_OVER_PI) <= \
            0.005 * math.sqrt(20000 * 100 / (args.m * args.trials))
    elif check == "uniform-concentration":
        # the largest deviation over the sampled cap points scales as
        # sqrt(s ln(2n/s)/m), not as one point's sqrt(1 - 2/pi)/sqrt(m)
        # (other s, and m < 1, are refused by verify_uniform_concentration)
        if args.delta is None and 1 <= args.s <= args.n:
            t *= math.sqrt(args.s * math.log(2 * args.n / args.s) / max(args.m, 1))
        max_dev = verify_uniform_concentration(args.n, args.s, args.m, args.trials, args.seed)
        print(f"uniform concentration: n={args.n} s={args.s} m={args.m} "
              f"samples={args.trials}")
        print(f"max_deviation={max_dev:.6f} threshold={t}")
        passed = max_dev <= t
    elif check == "bernoulli-counterexample":
        rep = verify_bernoulli_counterexample(args.n, args.m, args.trials, args.seed)
        print(f"bernoulli counterexample: n={args.n} m={args.m} seeds={len(rep.seeds)}")
        print(f"identical sign patterns under +-1 rows: "
              f"{sum(rep.identical_per_seed)}/{len(rep.seeds)}")
        print(f"gaussian rows distinguish the pair: {rep.gaussian_differs}")
        passed = rep.all_identical and rep.gaussian_differs
    else:   # separation
        if args.n < 2:
            raise ValueError("need n >= 2")
        e1 = np.zeros(args.n)
        e1[0] = 1.0
        e2 = np.zeros(args.n)
        e2[1] = 1.0
        p_orth = single_hyperplane_separation_prob(e1, e2, args.trials, args.seed, margin=0.0)
        p_anti = single_hyperplane_separation_prob(e1, -e1, args.trials,
                                                   derive_seed(args.seed, 1), margin=0.0)
        print(f"separation: trials={args.trials}")
        print(f"orthogonal pair: estimate={p_orth:.5f} exact=0.25")
        print(f"antipodal pair:  estimate={p_anti:.5f} exact=0.5")
        if args.trials < SEPARATION_MIN_TRIALS:
            print(f"INCONCLUSIVE: at {args.trials} trials the 5 sigma band around 1/4 "
                  f"reaches 0, so no estimate can fail; use --trials "
                  f"{SEPARATION_MIN_TRIALS} or more")
            return 0
        passed = all(abs(est - p) <= 5 * np.sqrt(p * (1 - p) / args.trials)
                     for est, p in ((p_orth, 0.25), (p_anti, 0.5)))
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify" and args.delta is not None \
                and args.check not in DELTA_DEFAULTS:
            args.usage_error(f"--delta does not apply to --check {args.check}")
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
