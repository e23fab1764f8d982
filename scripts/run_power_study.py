#!/usr/bin/env python3
"""Reproduce the ARMA(r,1) power study end to end.

Writes the size calibration, the power-versus-MA-order curve and the ROC
curve as plot-ready CSVs plus a JSON summary holding every parameter and
the master seed. The full run uses 10,000 replications per point (at
least 1,000); --fast drops to 2,000 for a desk-scale pass and may not be
combined with --replications. The power curve and the ROC (MA order 1)
read one array of statistics, drawn once for orders 0..10, and both size
calibrations, power and the ROC read their thresholds from one draw of
the null law. --jobs is the CLI's flag: it spreads every study's work
over that many threads (at least 1; default: the CPUs this process may
use), and the outputs do not depend on it.
"""
import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from cohercause import BarnettModelSpec, write_power_csv, write_roc_csv, write_summary_json
from cohercause.cli import _add_jobs
from cohercause.experiments import (
    DEFAULT_ALPHA,
    DEFAULT_F,
    DEFAULT_M,
    DEFAULT_REPLICATIONS,
    DEFAULT_SIZE_GRID,
    DEFAULT_T,
    FAST_REPLICATIONS,
    _alternative,
    _power_points,
    _rejection_rate,
    _roc_points,
    _study_statistics,
    _study_threshold,
)
from cohercause.nulldist import DEFAULT_SEED


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--replications", type=int, default=DEFAULT_REPLICATIONS)
    group.add_argument("--fast", dest="replications", action="store_const",
                       const=FAST_REPLICATIONS, default=argparse.SUPPRESS)
    parser.add_argument("--transfer-entropy", type=float, default=DEFAULT_F)
    parser.add_argument("--M", type=int, default=DEFAULT_M)
    parser.add_argument("--T", type=int, default=DEFAULT_T)
    parser.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    _add_jobs(parser, "study threads (default: the CPUs this process may use)")
    args = parser.parse_args()

    reps = args.replications
    if reps < 1000:
        parser.error(f"--replications must be >= 1000 for the size calibration, got {reps}")
    os.makedirs(args.outdir, exist_ok=True)
    t0 = time.monotonic()

    # Every reading below takes its thresholds from this one draw of the null law.
    threshold_at = _study_threshold(args.T, args.M, args.seed)
    threshold = threshold_at(args.alpha)
    # calibrate_size in both window modes, from the same statistics and threshold.
    null = [BarnettModelSpec(transfer_entropy=0.0, ma_order=1)]
    (size_ind, se_ind), (size_con, se_con) = (
        _rejection_rate(
            _study_statistics(null, [0], reps, args.M, args.T, mode, args.seed, args.jobs)[0],
            threshold,
        )
        for mode in ("independent-realizations", "consecutive-windows")
    )
    print(f"achieved size: independent={size_ind:.4f} "
          f"(se {se_ind:.4f}), consecutive={size_con:.4f} "
          f"(se {se_con:.4f})")

    # power_curve(range(0, 11)) and roc_curve(ma_order=1) in consecutive-window
    # mode, from one draw of their statistics.
    orders = range(0, 11)
    mode = "consecutive-windows"
    specs, streams = _alternative(args.transfer_entropy, orders, mode)
    stats = _study_statistics(specs, streams, reps, args.M, args.T, mode, args.seed, args.jobs)
    points = _power_points(orders, stats, threshold, args.alpha, args.T, args.M)
    for pt in points:
        print(f"MA order {pt.ma_order:2d}: power {pt.power:.3f} "
              f"(se {pt.std_error:.4f})")
    write_power_csv(os.path.join(args.outdir, "power_vs_ma_order.csv"), points)

    roc = _roc_points(stats[1], threshold_at, DEFAULT_SIZE_GRID)
    for pt in roc:
        print(f"size {pt.size:.2f}: power {pt.power:.3f}")
    write_roc_csv(os.path.join(args.outdir, "roc.csv"), roc)

    write_summary_json(
        os.path.join(args.outdir, "power_study_summary.json"),
        {
            "seed": args.seed,
            "replications": reps,
            "transfer_entropy": args.transfer_entropy,
            "M": args.M,
            "T": args.T,
            "alpha": args.alpha,
            "achieved_size_independent": size_ind,
            "achieved_size_consecutive": size_con,
            "power": {pt.ma_order: pt.power for pt in points},
            "roc": {pt.size: pt.power for pt in roc},
            "elapsed_seconds": round(time.monotonic() - t0, 1),
        },
    )
    print(f"done in {time.monotonic() - t0:.0f}s -> {args.outdir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
