#!/usr/bin/env python3
"""Reproduce the ARMA(r,1) power study end to end.

Writes the size calibration, the power-versus-MA-order curve and the ROC
curve as plot-ready CSVs plus a JSON summary holding every parameter and
the master seed. The full run uses 10,000 replications per point;
--fast drops to 2,000 for a desk-scale pass and may not be combined with
--replications.
"""
import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from cohercause import BarnettModelSpec, calibrate_size, power_curve, roc_curve
from cohercause.experiments import (
    DEFAULT_SIZE_GRID,
    FAST_REPLICATIONS,
    write_power_csv,
    write_roc_csv,
    write_summary_json,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--seed", type=int, default=42)
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--replications", type=int, default=10_000)
    group.add_argument("--fast", dest="replications", action="store_const",
                       const=FAST_REPLICATIONS, default=argparse.SUPPRESS)
    parser.add_argument("--transfer-entropy", type=float, default=0.02)
    parser.add_argument("--M", type=int, default=1000)
    parser.add_argument("--T", type=int, default=10)
    parser.add_argument("--alpha", type=float, default=0.05)
    args = parser.parse_args()

    reps = args.replications
    os.makedirs(args.outdir, exist_ok=True)
    t0 = time.monotonic()

    size_ind = calibrate_size(
        BarnettModelSpec(transfer_entropy=0.0, ma_order=1),
        alpha=args.alpha, replications=reps, M=args.M, T=args.T,
        window_mode="independent-realizations", seed=args.seed,
    )
    size_con = calibrate_size(
        BarnettModelSpec(transfer_entropy=0.0, ma_order=1),
        alpha=args.alpha, replications=reps, M=args.M, T=args.T,
        window_mode="consecutive-windows", seed=args.seed,
    )
    print(f"achieved size: independent={size_ind.achieved:.4f} "
          f"(se {size_ind.std_error:.4f}), consecutive={size_con.achieved:.4f} "
          f"(se {size_con.std_error:.4f})")

    points = power_curve(
        range(0, 11), F=args.transfer_entropy, alpha=args.alpha,
        replications=reps, M=args.M, T=args.T, seed=args.seed,
    )
    for pt in points:
        print(f"MA order {pt.ma_order:2d}: power {pt.power:.3f} "
              f"(se {pt.std_error:.4f})")
    write_power_csv(os.path.join(args.outdir, "power_vs_ma_order.csv"), points)

    roc = roc_curve(
        F=args.transfer_entropy, ma_order=1, replications=reps,
        M=args.M, T=args.T, size_grid=DEFAULT_SIZE_GRID, seed=args.seed,
    )
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
            "achieved_size_independent": size_ind.achieved,
            "achieved_size_consecutive": size_con.achieved,
            "power": {pt.ma_order: pt.power for pt in points},
            "roc": {pt.size: pt.power for pt in roc},
            "elapsed_seconds": round(time.monotonic() - t0, 1),
        },
    )
    print(f"done in {time.monotonic() - t0:.0f}s -> {args.outdir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
