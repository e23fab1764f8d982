#!/usr/bin/env python3
"""Digest every output of a fixed CLI command set, to show which files move.

The commands below run through ``cohercause.cli.main`` in one process, in a
temporary directory, with BLAS pinned to one thread. They cover both
generators, ``test`` at three settings, the data map and the six analytic
maps, ``power`` at MA orders 0..3 and 0..10, ``roc``, both ``calibrate``
window modes and ``nulldist``.
The sha256 of every file they write is recorded with a stamp of the numeric
stack (Python, numpy, scipy, the BLAS build, the machine and the thread
count), because the same code can give other bits on another stack.

With no option the script rewrites output_digest.json at the repo root;
regenerate it, and list the moved files in CHANGES.md, when a change moves
output bits on purpose. ``--check`` recomputes the digests and compares them
with that file: it exits 0 when every file keeps its bytes and 1 otherwise,
naming each file that moved, or reporting a stamp mismatch when the stack is
not the stamped one, since digests from another stack say nothing.

    python scripts/output_digest.py            # regenerate output_digest.json
    python scripts/output_digest.py --check
"""
import os

# Before numpy loads: a Gram's bits depend on the BLAS thread count.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import argparse
import contextlib
import hashlib
import json
import platform
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

import numpy as np
import scipy

from cohercause import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGEST_FILE = os.path.join(ROOT, "output_digest.json")
STUDY = ["--replications", "1000", "--jobs", "1"]
COMMANDS = [
    ["simulate", "--case", "barnett", "--length", "20000", "--output", "barnett.csv"],
    ["simulate", "--case", "I", "--length", "20000", "--output", "case_I.csv"],
    ["test", "--input", "barnett.csv", "--output", "test.json"],
    ["test", "--input", "barnett.csv", "--stride", "3", "--method", "bartlett",
     "--output", "test_bartlett.json"],
    ["test", "--input", "barnett.csv", "--no-center", "--lags", "5",
     "--output", "test_no_center.json"],
    ["map", "--input", "case_I.csv", "--output", "map_data.csv"],
    *(["map", "--case", case, "--conditioning", cond, "--output", f"map_{case}_{cond}.csv"]
      for case in ("I", "II", "III") for cond in ("past-of-x", "past-of-y")),
    ["power", "--orders", "0..3", *STUDY, "--output", "power.csv"],
    # Every order of the power study's depth (T 10, MA orders up to 10).
    ["power", "--orders", "0..10", "--replications", "300", "--jobs", "1",
     "--output", "power_0_10.csv"],
    # A fine size grid: a window statistic that moves in its last digits
    # moves some rejection count with it.
    ["roc", "--sizes", ",".join(str(k / 100) for k in range(1, 100)), *STUDY,
     "--output", "roc.csv"],
    ["calibrate", *STUDY, "--output", "calibrate_consecutive.json"],
    ["calibrate", "--window-mode", "independent-realizations", *STUDY,
     "--output", "calibrate_independent.json"],
    ["nulldist", "--p", "3", "--q", "3", "--r", "2", "--M", "200", "--output", "nulldist.json"],
]


def stamp() -> dict:
    """The numeric stack the digests hold for."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def digests() -> dict:
    """sha256 of every file the commands write, by file name."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as sink:
        os.chdir(tmp)  # the summaries record the relative output names
        try:
            with contextlib.redirect_stdout(sink):
                for argv in COMMANDS:
                    if cli.main(argv) != 0:
                        raise SystemExit(f"command failed: cohercause {' '.join(argv)}")
        finally:
            os.chdir(home)
        return {
            name: hashlib.sha256(open(os.path.join(tmp, name), "rb").read()).hexdigest()
            for name in sorted(os.listdir(tmp))
        }


def compare(recorded: dict, fresh: dict) -> list[str]:
    """Why ``fresh`` does not reproduce ``recorded``; empty when it does."""
    if fresh["stamp"] != recorded["stamp"]:
        return [
            "stamp mismatch: the digests were recorded on another numeric stack",
            f"  recorded: {json.dumps(recorded['stamp'], sort_keys=True)}",
            f"  here:     {json.dumps(fresh['stamp'], sort_keys=True)}",
        ]
    old, new = recorded["digests"], fresh["digests"]
    return [
        f"moved: {name}" if name in old and name in new
        else f"{'missing' if name in old else 'new'}: {name}"
        for name in sorted(old.keys() | new.keys()) if old.get(name) != new.get(name)
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help=f"compare with {os.path.basename(DIGEST_FILE)} instead of writing it")
    args = parser.parse_args()
    fresh = {"stamp": stamp(), "digests": digests()}
    if not args.check:
        with open(DIGEST_FILE, "w") as fh:
            json.dump(fresh, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return 0
    with open(DIGEST_FILE) as fh:
        problems = compare(json.load(fh), fresh)
    print("\n".join(problems or [f"{len(fresh['digests'])} outputs keep their bytes"]))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
