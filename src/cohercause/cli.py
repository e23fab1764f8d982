"""Command-line front end.

One binary, subcommand style. All randomness flows from a single --seed
flag (default 42, never time-based); the same configuration and seed
produce byte-identical output files. --jobs (default: all cores), which
the COHERCAUSE_JOBS environment variable overrides as a default, sizes
the process pool of the independent-realization study replications; the
null law is drawn in the calling process. Exit codes: 0 success, 1
runtime error, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import experiments
from .experiments import (
    DEFAULT_SIZE_GRID,
    FAST_REPLICATIONS,
    atomic_write,
    calibrate_size,
    coherence_map,
    power_curve,
    roc_curve,
    write_map_csv,
    write_power_csv,
    write_roc_csv,
    write_summary_json,
)
from .inference import LagSpec, lag_embed, read_sequence_csv, test_causal_influence
from .nulldist import (
    DEFAULT_N_MC,
    _mc_p_value,
    _order_statistic_threshold,
    bartlett_critical_value,
    make_spec,
    sample_null,
)
from .simulate import (
    BarnettModelSpec,
    MAFilterSpec,
    gen_barnett,
    gen_ma_case,
    write_sequence_csv,
)

DEFAULT_SEED = 42
DEFAULT_ALPHA = 0.05
DEFAULT_T = 10
DEFAULT_M = 1000
DEFAULT_F = 0.02


def _default_jobs() -> int:
    env = os.environ.get("COHERCAUSE_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise SystemExit(f"COHERCAUSE_JOBS must be an integer, got {env!r}")
    return os.cpu_count() or 1


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="master seed for every random stream",
    )
    sub.add_argument(
        "--jobs", type=int, default=None,
        help="study replication workers (default: COHERCAUSE_JOBS or all cores)",
    )


def _add_study_flags(sub: argparse.ArgumentParser) -> None:
    """The replication flags shared by power, roc and calibrate."""
    sub.add_argument("--replications", type=int,
                     default=experiments.DEFAULT_REPLICATIONS, help="Monte Carlo replications")
    sub.add_argument("--fast", action="store_true",
                     help=f"desk preset: {FAST_REPLICATIONS} replications")
    sub.add_argument("--M", type=int, default=DEFAULT_M, help="samples per replication")
    sub.add_argument("--T", type=int, default=DEFAULT_T, help="lag depth")
    sub.add_argument("--n-mc", type=int, default=DEFAULT_N_MC, help="null-law draws")
    sub.add_argument("--window-mode", choices=["consecutive-windows", "independent-realizations"],
                     default="consecutive-windows", help="replication protocol")


def _parse_range(text: str) -> range:
    """Parse 'a..b' (inclusive) or a single integer into a range."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(int(lo), int(hi) + 1)
    v = int(text)
    return range(v, v + 1)


def _emit_json(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if output:
        atomic_write(output, text)


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
        return subs.add_parser(
            name, formatter_class=argparse.ArgumentDefaultsHelpFormatter, **kwargs
        )

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
    m.add_argument("--s-range", default="0..19", help="inclusive a..b")
    m.add_argument("--t-range", default="0..19", help="inclusive a..b")
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
    p.add_argument("--orders", default="0..10", help="inclusive a..b")
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
    r.add_argument("--sizes", default=",".join(str(v) for v in DEFAULT_SIZE_GRID),
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
    panel = lag_embed(data["x"], data["y"], spec)
    outcome = test_causal_influence(
        panel,
        alpha=args.alpha,
        method=args.method,
        n_mc=args.n_mc,
        seed=args.seed,
        center=not args.no_center,
    )
    text = outcome.to_json() + "\n"
    sys.stdout.write(text)
    if args.output:
        atomic_write(args.output, text)
    return 0


def _cmd_map(args) -> int:
    s_range = _parse_range(args.s_range)
    t_range = _parse_range(args.t_range)
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
        model, s_range, t_range, conditioning=args.conditioning, T_cond=args.t_cond
    )
    write_map_csv(args.output, cmap)
    summary = {
        "command": "map",
        "case": case,
        "conditioning": args.conditioning,
        "s_range": [s_range.start, s_range.stop - 1],
        "t_range": [t_range.start, t_range.stop - 1],
        "t_cond": args.t_cond,
        "transfer_entropy": args.transfer_entropy,
        "ma_order": args.ma_order,
        "seed": args.seed,
        "output": args.output,
    }
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
    wspec = make_spec(args.p, args.q, args.r, args.M)
    # One draw of the null law gives both the threshold and the p-value.
    samples = sample_null(wspec, args.n_mc, seed=args.seed)
    payload = {
        "p": args.p,
        "q": args.q,
        "r": args.r,
        "M": args.M,
        "alpha": args.alpha,
        "n_mc": args.n_mc,
        "seed": args.seed,
        "critical_value": _order_statistic_threshold(samples, args.alpha),
        "bartlett_critical_value": bartlett_critical_value(wspec, args.alpha),
    }
    if args.stat is not None:
        payload["stat"] = args.stat
        payload["p_value"] = _mc_p_value(samples, args.stat)
    _emit_json(payload, args.output)
    return 0


def _cmd_power(args) -> int:
    points = power_curve(
        _parse_range(args.orders),
        F=args.transfer_entropy,
        alpha=args.alpha,
        replications=args.replications,
        M=args.M,
        T=args.T,
        seed=args.seed,
        window_mode=args.window_mode,
        n_mc=args.n_mc,
        jobs=args.jobs,
    )
    write_power_csv(args.output, points)
    summary = {
        "command": "power",
        "orders": [pt.ma_order for pt in points],
        "transfer_entropy": args.transfer_entropy,
        "alpha": args.alpha,
        "replications": args.replications,
        "M": args.M,
        "T": args.T,
        "window_mode": args.window_mode,
        "n_mc": args.n_mc,
        "seed": args.seed,
        "output": args.output,
    }
    write_summary_json(args.summary or args.output + ".json", summary)
    return 0


def _cmd_roc(args) -> int:
    sizes = tuple(float(v) for v in args.sizes.split(","))
    points = roc_curve(
        F=args.transfer_entropy,
        ma_order=args.ma_order,
        replications=args.replications,
        M=args.M,
        T=args.T,
        size_grid=sizes,
        seed=args.seed,
        window_mode=args.window_mode,
        n_mc=args.n_mc,
        jobs=args.jobs,
    )
    write_roc_csv(args.output, points)
    summary = {
        "command": "roc",
        "transfer_entropy": args.transfer_entropy,
        "ma_order": args.ma_order,
        "sizes": list(sizes),
        "replications": args.replications,
        "M": args.M,
        "T": args.T,
        "window_mode": args.window_mode,
        "n_mc": args.n_mc,
        "seed": args.seed,
        "output": args.output,
    }
    write_summary_json(args.summary or args.output + ".json", summary)
    return 0


def _cmd_calibrate(args) -> int:
    est = calibrate_size(
        BarnettModelSpec(transfer_entropy=0.0, ma_order=args.ma_order),
        alpha=args.alpha,
        replications=args.replications,
        M=args.M,
        T=args.T,
        window_mode=args.window_mode,
        seed=args.seed,
        n_mc=args.n_mc,
        jobs=args.jobs,
    )
    payload = {
        "command": "calibrate",
        "achieved_size": est.achieved,
        "std_error": est.std_error,
        "alpha": est.alpha,
        "replications": est.replications,
        "window_mode": est.window_mode,
        "M": args.M,
        "T": args.T,
        "ma_order": args.ma_order,
        "n_mc": args.n_mc,
        "seed": args.seed,
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
    if getattr(args, "jobs", None) is None:
        args.jobs = _default_jobs()
    if getattr(args, "fast", False):
        args.replications = FAST_REPLICATIONS
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"cohercause: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
