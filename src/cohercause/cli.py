"""Command-line front end.

One binary, subcommand style. All randomness flows from a single --seed
flag (default 42, never time-based); the same configuration and seed
produce byte-identical output files at a fixed BLAS thread count. Across
thread counts that holds while every Gram has at most 95 rows (test --lags
47), as at the defaults, because OpenBLAS 0.3.31 splits dsyrk across
threads beyond that.
--jobs (at least 1; default: the CPUs this process may run on), which
the COHERCAUSE_JOBS environment variable overrides as a default: every
study's work is spread over --jobs threads; the result does not depend
on it. The work runs inside numpy calls, and the null law is drawn in
the calling thread. Of scipy, a run loads its small core package, the C
routine of lfilter for the generators, and scipy.special only for the
Bartlett law (test --method bartlett and nulldist). scipy.signal loads
only if that private routine cannot. No map draws a random number, so
map accepts --seed and ignores it. A --jobs or
COHERCAUSE_JOBS value that is not an integer >= 1 is a usage error, as is
a malformed --orders, --s-range, --t-range or --sizes value, and so is
giving both --fast (a preset number of replications) and --replications.
Exit codes: 0 success, 1 runtime error, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import experiments
from .experiments import (
    DEFAULT_ALPHA,
    DEFAULT_F,
    DEFAULT_M,
    DEFAULT_SIZE_GRID,
    DEFAULT_T,
    FAST_REPLICATIONS,
    calibrate_size,
    coherence_map,
    power_curve,
    roc_curve,
    write_map_csv,
    write_power_csv,
    write_roc_csv,
    write_summary_json,
)
from .inference import LagSpec, _row_views, _test_outcome, atomic_write, read_sequence_csv
from .nulldist import DEFAULT_N_MC, DEFAULT_SEED, WilksLambdaSpec, null_law
from .simulate import (
    BarnettModelSpec,
    MAFilterSpec,
    gen_barnett,
    gen_ma_case,
    write_sequence_csv,
)


def _default_jobs(parser: argparse.ArgumentParser) -> int:
    env = os.environ.get("COHERCAUSE_JOBS")
    if not env:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        if int(env) >= 1:
            return int(env)
    except ValueError:
        pass
    parser.error(f"COHERCAUSE_JOBS must be an integer >= 1, got {env!r}")


def _checked_jobs(parser: argparse.ArgumentParser, jobs: int | None) -> int:
    """A given --jobs value, which must be >= 1, else the default above."""
    if jobs is None:
        return _default_jobs(parser)
    if jobs < 1:
        parser.error(f"argument --jobs: must be >= 1, got {jobs}")
    return jobs


class _DefaultsHelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Appends an option's default to its help unless the default is None."""

    def _get_help_string(self, action):
        if action.default is None:
            return action.help
        return super()._get_help_string(action)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="master seed for every random stream",
    )
    sub.add_argument(
        "--jobs", type=int, default=None,
        help="every study's work is spread over --jobs threads; the result does not "
             "depend on it (default: COHERCAUSE_JOBS or the CPUs this process may use)",
    )


def _add_study_flags(sub: argparse.ArgumentParser) -> None:
    """The replication flags shared by power, roc and calibrate."""
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--replications", type=int,
                       default=experiments.DEFAULT_REPLICATIONS, help="Monte Carlo replications")
    group.add_argument("--fast", dest="replications", action="store_const",
                       const=FAST_REPLICATIONS, default=argparse.SUPPRESS,
                       help=f"desk preset: {FAST_REPLICATIONS} replications")
    sub.add_argument("--M", type=int, default=DEFAULT_M, help="samples per replication")
    sub.add_argument("--T", type=int, default=DEFAULT_T, help="lag depth")
    sub.add_argument("--n-mc", type=int, default=DEFAULT_N_MC, help="null-law draws")
    sub.add_argument("--window-mode", choices=["consecutive-windows", "independent-realizations"],
                     default="consecutive-windows", help="replication protocol")


def _parse_range(text: str) -> range:
    """Parse 'a..b' (inclusive) or a single integer into a range."""
    lo, sep, hi = text.partition("..")
    try:
        return range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or an inclusive range a..b, got {text!r}"
        ) from None


def _parse_sizes(text: str) -> tuple[float, ...]:
    """Parse a comma-separated list of numbers."""
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None


def _study_args(args) -> dict:
    """The arguments that power, roc and calibrate pass to their study and record."""
    return {k: getattr(args, k) for k in ("replications", "M", "T", "window_mode", "n_mc", "seed")}


def _emit_json(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if output:
        atomic_write(output, (text,))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohercause",
        description=(
            "Model-free causal-influence testing via partial coherence. "
            "Defaults reproduce the built-in experiment: alpha=0.05, T=10, "
            "M=1000, F=0.02."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        # every subcommand's --help shows the defaults
        return subs.add_parser(name, formatter_class=_DefaultsHelpFormatter, **kwargs)

    t = add_parser("test", help="test x -> y causal influence in a CSV sequence pair")
    t.add_argument("--input", required=True, help="CSV with header t,x,y")
    t.add_argument("--alpha", type=float, default=DEFAULT_ALPHA, help="significance level")
    t.add_argument("--lags", type=int, default=DEFAULT_T, help="lag depth T")
    t.add_argument("--method", choices=["wilks-mc", "bartlett"], default="wilks-mc",
                   help="null law: exact Monte Carlo or chi-squared approximation")
    t.add_argument("--n-mc", type=int, default=DEFAULT_N_MC, help="null-law draws")
    t.add_argument("--stride", type=int, default=1, help="column stride of the embedding")
    t.add_argument("--no-center", action="store_true", help="skip per-row mean removal")
    t.add_argument("--output", help="also write the JSON outcome to this file")
    _add_common(t)

    m = add_parser("map", help="pairwise partial-coherence map over (s, t)")
    src = m.add_mutually_exclusive_group(required=True)
    src.add_argument("--case", choices=["I", "II", "III", "barnett"],
                     help="built-in model for the analytic map")
    src.add_argument("--input", help="CSV pair for an estimated map")
    m.add_argument("--conditioning", choices=["past-of-x", "past-of-y"],
                   default="past-of-x", help="prima facie conditioning past")
    m.add_argument("--s-range", type=_parse_range, default="0..19", help="inclusive a..b")
    m.add_argument("--t-range", type=_parse_range, default="0..19", help="inclusive a..b")
    m.add_argument("--t-cond", type=int, default=20, help="conditioning depth")
    m.add_argument("--transfer-entropy", type=float, default=DEFAULT_F,
                   help="coupling strength of the ARMA pair")
    m.add_argument("--ma-order", type=int, default=1, help="MA order of the ARMA pair")
    m.add_argument("--output", required=True, help="CSV with columns s,t,rho2")
    m.add_argument("--summary", help="JSON run summary (default <output>.json)")
    _add_common(m)

    s = add_parser("simulate", help="generate a sequence pair to CSV")
    s.add_argument("--case", choices=["I", "II", "III", "barnett"], required=True,
                   help="built-in generative model")
    s.add_argument("--length", type=int, default=100_000, help="samples to generate")
    s.add_argument("--transfer-entropy", type=float, default=DEFAULT_F,
                   help="coupling strength of the ARMA pair")
    s.add_argument("--ma-order", type=int, default=1, help="MA order of the ARMA pair")
    s.add_argument("--output", required=True, help="CSV destination")
    _add_common(s)

    n = add_parser("nulldist", help="null-law critical value and p-values")
    n.add_argument("--p", type=int, required=True, help="x block dimension")
    n.add_argument("--q", type=int, required=True, help="y block dimension")
    n.add_argument("--r", type=int, required=True, help="z block dimension")
    n.add_argument("--M", type=int, required=True, help="sample count")
    n.add_argument("--alpha", type=float, default=DEFAULT_ALPHA, help="significance level")
    n.add_argument("--n-mc", type=int, default=DEFAULT_N_MC, help="null-law draws")
    n.add_argument("--stat", type=float, help="optionally report p-values for this statistic")
    n.add_argument("--output", help="also write the JSON result to this file")
    _add_common(n)

    p = add_parser("power", help="power versus MA order at fixed transfer entropy")
    p.add_argument("--orders", type=_parse_range, default="0..10", help="inclusive a..b")
    p.add_argument("--transfer-entropy", "--F", dest="transfer_entropy",
                   type=float, default=DEFAULT_F, help="coupling strength")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA, help="significance level")
    _add_study_flags(p)
    p.add_argument("--output", required=True, help="CSV power curve")
    p.add_argument("--summary", help="JSON run summary (default <output>.json)")
    _add_common(p)

    r = add_parser("roc", help="power versus size at fixed transfer entropy")
    r.add_argument("--transfer-entropy", "--F", dest="transfer_entropy",
                   type=float, default=DEFAULT_F, help="coupling strength")
    r.add_argument("--ma-order", type=int, default=1, help="MA order of the ARMA pair")
    r.add_argument("--sizes", type=_parse_sizes,
                   default=",".join(str(v) for v in DEFAULT_SIZE_GRID),
                   help="comma-separated size grid")
    _add_study_flags(r)
    r.add_argument("--output", required=True, help="CSV ROC curve")
    r.add_argument("--summary", help="JSON run summary (default <output>.json)")
    _add_common(r)

    c = add_parser("calibrate", help="achieved size under the null (coupling off)")
    c.add_argument("--alpha", type=float, default=DEFAULT_ALPHA, help="significance level")
    c.add_argument("--ma-order", type=int, default=1, help="MA order of the ARMA pair")
    _add_study_flags(c)
    c.add_argument("--output", help="also write the JSON result to this file")
    _add_common(c)

    return parser


def _cmd_test(args) -> int:
    data = read_sequence_csv(args.input)
    spec = LagSpec.influence_test(T=args.lags, stride=args.stride)
    # The Gram is gathered from views of the columns: no panel copy is made.
    views = _row_views(data["x"], data["y"], spec.rows, spec.stride)
    outcome = _test_outcome(
        views, spec.dims, args.alpha, args.method, args.n_mc, args.seed, not args.no_center
    )
    text = outcome.to_json() + "\n"
    sys.stdout.write(text)
    if args.output:
        atomic_write(args.output, (text,))
    return 0


def _cmd_map(args) -> int:
    if args.input:
        data = read_sequence_csv(args.input)
        model = (data["x"], data["y"])
        case = "data"
    elif args.case == "barnett":
        model = BarnettModelSpec(
            transfer_entropy=args.transfer_entropy, ma_order=args.ma_order
        )
        case = "barnett"
    else:
        model = MAFilterSpec.from_case(args.case)
        case = args.case
    cmap = coherence_map(
        model, args.s_range, args.t_range, conditioning=args.conditioning, T_cond=args.t_cond
    )
    write_map_csv(args.output, cmap)
    summary = {
        "command": "map",
        "case": case,
        "conditioning": args.conditioning,
        "s_range": [args.s_range.start, args.s_range.stop - 1],
        "t_range": [args.t_range.start, args.t_range.stop - 1],
        "t_cond": args.t_cond,
        "output": args.output,
    }
    if case == "barnett":
        # Only the Barnett model reads the coupling and the MA order.
        summary.update(transfer_entropy=args.transfer_entropy, ma_order=args.ma_order)
    write_summary_json(args.summary or args.output + ".json", summary)
    return 0


def _cmd_simulate(args) -> int:
    if args.case == "barnett":
        spec = BarnettModelSpec(
            transfer_entropy=args.transfer_entropy, ma_order=args.ma_order
        )
        x, y = gen_barnett(spec, args.length, args.seed)
    else:
        x, y = gen_ma_case(args.case, args.length, args.seed)
    write_sequence_csv(args.output, x, y)
    return 0


def _cmd_nulldist(args) -> int:
    wspec = WilksLambdaSpec(args.p, args.q, args.r, args.M)
    # One draw of the null law gives both the threshold and the p-value.
    threshold_at, p_value_of = null_law(wspec, n_mc=args.n_mc, seed=args.seed)
    payload = {
        "p": args.p,
        "q": args.q,
        "r": args.r,
        "M": args.M,
        "alpha": args.alpha,
        "n_mc": args.n_mc,
        "seed": args.seed,
        "critical_value": threshold_at(args.alpha),
        "bartlett_critical_value": null_law(wspec, "bartlett")[0](args.alpha),
    }
    if args.stat is not None:
        payload["stat"] = args.stat
        payload["p_value"] = p_value_of(args.stat)
    _emit_json(payload, args.output)
    return 0


def _cmd_power(args) -> int:
    study = _study_args(args)
    points = power_curve(
        args.orders, F=args.transfer_entropy, alpha=args.alpha, jobs=args.jobs, **study
    )
    write_power_csv(args.output, points)
    summary = {
        "command": "power",
        "orders": [pt.ma_order for pt in points],
        "transfer_entropy": args.transfer_entropy,
        "alpha": args.alpha,
        "output": args.output,
        **study,
    }
    write_summary_json(args.summary or args.output + ".json", summary)
    return 0


def _cmd_roc(args) -> int:
    study = _study_args(args)
    points = roc_curve(
        F=args.transfer_entropy, ma_order=args.ma_order, size_grid=args.sizes,
        jobs=args.jobs, **study,
    )
    write_roc_csv(args.output, points)
    summary = {
        "command": "roc",
        "transfer_entropy": args.transfer_entropy,
        "ma_order": args.ma_order,
        "sizes": list(args.sizes),
        "output": args.output,
        **study,
    }
    write_summary_json(args.summary or args.output + ".json", summary)
    return 0


def _cmd_calibrate(args) -> int:
    study = _study_args(args)
    est = calibrate_size(
        BarnettModelSpec(transfer_entropy=0.0, ma_order=args.ma_order),
        alpha=args.alpha, jobs=args.jobs, **study,
    )
    payload = {
        "command": "calibrate",
        "achieved_size": est.achieved,
        "std_error": est.std_error,
        "alpha": est.alpha,
        "ma_order": args.ma_order,
        **study,
    }
    _emit_json(payload, args.output)
    return 0


_COMMANDS = {
    "test": _cmd_test,
    "map": _cmd_map,
    "simulate": _cmd_simulate,
    "nulldist": _cmd_nulldist,
    "power": _cmd_power,
    "roc": _cmd_roc,
    "calibrate": _cmd_calibrate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.jobs = _checked_jobs(parser, args.jobs)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"cohercause: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
