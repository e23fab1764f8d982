"""cohercause benchmark runner.

Usage (from the repository root):

  python3 bench/run.py --workload NAME [--seed 42] [--seconds 16] [--trace 0|1]

Runs one workload through the real CLI entry point,
``cohercause.cli.main(argv)``, with every repetition in a fresh
interpreter (bench/rep.py) and the package imported from ./src. Load is
closed-loop: one repetition at a time, started only after the previous
one has ended. BLAS and OpenMP are pinned to one thread in every process.

Each run writes its input files from ``--seed``, runs one untimed
warm-up repetition whose outputs the oracles in bench/oracle.py check,
then runs timed repetitions until ``--seconds`` have passed (at least
MIN_REPS). A repetition counts as failed when it exits non-zero or its
outputs differ from the checked warm-up outputs (the CLI promises
byte-identical outputs for equal seeds).

With ``--trace 0`` the end-to-end metrics summarise the timed
repetitions (see ESTIMATOR). With ``--trace 1`` the repetitions alternate
untraced and traced (spans from bench/spans.py), and the per-layer
metrics are the medians over the traced ones; ``trace.overhead_s`` is
the traced minus the untraced median ``run_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record,
with sample counts, quartiles, the environment stamp and the exact work
counts, goes to bench/out/<workload>-seed<seed>-trace<t>.json.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

MIN_REPS = 3
# setup_s is a median over set-ups. Workloads with long repetitions get
# import-only processes after the timed ones, up to this many set-ups.
SETUP_SAMPLES = 6
# Every run must end well inside three minutes, warm-up and checks included.
HARD_LIMIT_S = 150.0
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MAP_CASES = [(case, cond) for case in ("I", "II", "III") for cond in ("past-of-x", "past-of-y")]


def _workload_argvs(name: str, seed: int) -> list[list[str]]:
    s = ["--seed", str(seed)]
    if name == "test-csv":
        return [["test", "--input", "../input/pair.csv", "--lags", "10", "--jobs", "2", *s]]
    if name == "maps":
        return [
            ["simulate", "--case", "I", "--length", "100000", "--output", "pair.csv", *s],
            ["map", "--input", "pair.csv", "--conditioning", "past-of-x",
             "--t-cond", "20", "--output", "data_map.csv", *s],
        ] + [
            ["map", "--case", case, "--conditioning", cond,
             "--output", f"map_{case}_{cond}.csv", *s]
            for case, cond in MAP_CASES
        ]
    if name == "power-consecutive":
        return [["power", "--orders", "0..10", "--fast", "--jobs", "1", "--output", "power.csv", *s]]
    return [["calibrate", "--window-mode", "independent-realizations", "--jobs", "2", *s]]


# Units of work one repetition completes, for throughput_per_s.
WORKLOADS = {
    "test-csv": (100_000, "input rows"),
    "maps": (400 * (1 + len(MAP_CASES)), "map grid cells"),
    "power-consecutive": (11 * 2000, "replications"),
    "size-independent": (10_000, "replications"),
}


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("COHERCAUSE_JOBS", None)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = SRC
    return env


def _spawn(argv: list[str], cwd: str, stdout: str, stderr: str, deadline: float) -> tuple:
    """Run a child to completion; return (exit code, rusage, spawn time, wall)."""
    with open(stdout, "w") as out, open(stderr, "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(), stdout=out, stderr=err)
    killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    killer.start()
    reaped = None
    try:
        # wait4, not Popen.wait: its rusage covers the child and its workers.
        reaped = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        if reaped is None:
            proc.kill()
            proc.wait()
    wall = time.monotonic() - t0
    _, status, usage = reaped
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, t0, wall


def _tree_digest(directory: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        if name == "stderr.txt":
            continue
        h.update(name.encode() + b"\0")
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "cohercause")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _git_commit() -> str | None:
    """HEAD of the checkout, read without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Run:
    """One benchmark run: set-up, warm-up, timed repetitions, checks."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.argvs = _workload_argvs(workload, seed)
        self.dir = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}")
        self.deadline = time.monotonic() + HARD_LIMIT_S
        shutil.rmtree(self.dir, ignore_errors=True)
        for sub in ("input", "warm", "rep", "meta"):
            os.makedirs(os.path.join(self.dir, sub))

    def _path(self, *parts: str) -> str:
        return os.path.join(self.dir, *parts)

    def oracle(self, *args: str) -> int:
        argv = [sys.executable, os.path.join(BENCH, "oracle.py"), *args]
        code, _, _, _ = _spawn(
            argv, self.dir, self._path("meta", "oracle.out"),
            self._path("meta", "oracle.err"), self.deadline,
        )
        return code

    def repetition(self, workdir: str, traced: bool, argvs: list | None = None) -> dict:
        for name in os.listdir(workdir):
            os.unlink(os.path.join(workdir, name))
        result = self._path("meta", "rep_result.json")
        if os.path.exists(result):
            os.unlink(result)
        spec = self._path("meta", "rep_spec.json")
        with open(spec, "w") as fh:
            json.dump({"argvs": self.argvs if argvs is None else argvs,
                       "trace": traced, "result": result}, fh)
        argv = [sys.executable, os.path.join(BENCH, "rep.py"), spec]
        code, usage, t0, wall = _spawn(
            argv, workdir, os.path.join(workdir, "stdout.txt"),
            os.path.join(workdir, "stderr.txt"), self.deadline,
        )
        rep = {
            "traced": traced,
            "exit_code": code,
            "total_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            # ru_maxrss of a reaped child is the largest peak of it and its
            # own reaped children: the largest single process, not a sum.
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }
        if code == 0 and os.path.exists(result):
            with open(result) as fh:
                timing = json.load(fh)
            rep.update(
                setup_s=timing["ready"] - t0,
                import_s=timing["ready"] - timing["import_start"],
                run_s=timing["run_s"],
                scipy_submodules=timing["scipy_submodules"],
                trace=timing.get("trace"),
            )
        rep["digest"] = _tree_digest(workdir)
        return rep

    def execute(self) -> dict:
        started = time.monotonic()
        prepared = self.oracle("prepare", self.workload, str(self.seed), "input") == 0
        warm = self.repetition(self._path("warm"), traced=False)
        report = self._path("meta", "check.json")
        self.oracle("check", self.workload, str(self.seed), "input", "warm", report)
        try:
            with open(report) as fh:
                check = json.load(fh)
        except (OSError, ValueError):
            check = {"problems": ["output check did not complete"], "versions": {}}
        if not prepared:
            check["problems"].append("input preparation failed")
        warm_ok = warm["exit_code"] == 0 and not check["problems"]

        reps: list[dict] = []
        t_start = time.monotonic()
        rep_cost = warm["total_s"]
        while len(reps) < MIN_REPS or time.monotonic() - t_start < self.seconds:
            if reps and time.monotonic() + rep_cost > self.deadline:
                break
            traced = self.trace and len(reps) % 2 == 1
            rep = self.repetition(self._path("rep"), traced)
            rep["ok"] = warm_ok and rep["exit_code"] == 0 and rep["digest"] == warm["digest"]
            reps.append(rep)
        measured = time.monotonic() - t_start
        setups = []
        while (not self.trace and len(reps) + len(setups) < SETUP_SAMPLES
               and time.monotonic() + 5 < self.deadline):
            setups.append(self.repetition(self._path("rep"), traced=False, argvs=[]))
        return {
            "warm": warm,
            "check": check,
            "reps": reps,
            "setups": [r["setup_s"] for r in setups if "setup_s" in r],
            "measured_s": measured,
            "elapsed_s": time.monotonic() - started,
        }


def _distribution(values: list[float]) -> dict:
    out = {"n": len(values), "mean": statistics.fmean(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    # Highest percentile with at least ten samples beyond it.
    for pct in (99, 95, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
            break
    return out


# The statistic reported per metric. setup_s is the median of the
# repeated set-ups (timed repetitions plus import-only processes). The
# other timings are the mean over the run: on a shared host each
# repetition lands in either a fast or a ~1.5x slower CPU state
# (neighbour load switching every few seconds), and the median of such a
# two-state sample jumps between the states from run to run, while the
# mean moves with the share of slow time only. Over ten runs per
# workload on a 2-vCPU VM, the run-to-run spread (IQR / median) of run_s
# was 0.30 / 0.13 / 0.15 / 0.09 for the median and 0.17 / 0.07 / 0.10 /
# 0.09 for the mean (test-csv / maps / power-consecutive / size-independent).
ESTIMATOR = {"setup_s": "median", "run_s": "mean", "total_s": "mean", "cpu_s": "mean",
             "peak_rss_mb": "mean"}


def end_to_end(reps: list[dict], setups: list[float], units: int) -> tuple[dict, dict]:
    """Per-metric values over the untraced repetitions, plus their distributions."""
    timed = [r for r in reps if r["ok"] and not r["traced"]] or [
        r for r in reps if not r["traced"] and "run_s" in r
    ]
    dists, values = {}, {}
    for key, estimator in ESTIMATOR.items():
        samples = [r[key] for r in timed if key in r]
        if key == "setup_s":
            samples += setups
        dists[key] = _distribution(samples) if samples else {"n": 0}
        values[key] = dists[key].get(estimator, 0.0)
    values["throughput_per_s"] = _ratio(units, values["run_s"])
    return values, dists


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


NOT_CALLED = {"calls": 0, "wall": 0.0, "self": 0.0, "cpu": 0.0, "work": 0, "errors": 0}


def layer_metrics(rep: dict) -> dict:
    """Per-layer numbers of one traced repetition."""
    funcs = rep["trace"]["functions"]

    def f(name: str) -> dict:
        return funcs.get(name, NOT_CALLED)

    m = {"package.import_s": rep["import_s"], "package.scipy_submodules": rep["scipy_submodules"]}
    for name in (
        "cli.main", "inference.read_sequence_csv", "simulate.write_sequence_csv",
        "inference.lag_embed", "inference.sample_covariance", "inference.test_causal_influence",
        "coherence.partial_coherence", "covariance.conditional_covariances",
        "nulldist.sample_null", "nulldist.critical_value", "simulate.gen_barnett",
        "simulate.gen_ma_case", "simulate.model_composite_covariance",
        "simulate.lag_window_covariance", "experiments.power_curve",
        "experiments.calibrate_size", "experiments.coherence_map",
    ):
        m[name + "_s"] = f(name)["wall"]
    m["inference.test_causal_influence_self_s"] = f("inference.test_causal_influence")["self"]
    for layer in ("cli", "inference", "coherence", "covariance", "nulldist", "simulate", "experiments"):
        m[f"{layer}.self_s"] = sum(
            (v["self"] for k, v in funcs.items() if k.startswith(layer + ".")), 0.0
        )
    read, write = f("inference.read_sequence_csv"), f("simulate.write_sequence_csv")
    gram, null = f("inference.sample_covariance"), f("nulldist.sample_null")
    gens = [f("simulate.gen_barnett"), f("simulate.gen_ma_case")]
    studies = [f("experiments.power_curve"), f("experiments.calibrate_size")]
    top = studies + [f("experiments.coherence_map")]
    m.update({
        "inference.csv_rows_per_s": _ratio(read["work"], read["wall"]),
        "simulate.csv_rows_written_per_s": _ratio(write["work"], write["wall"]),
        "inference.panel_mb": f("inference.lag_embed")["work"] / 1e6,
        "inference.gram_gflop": gram["work"] / 1e9,
        "inference.gram_gflop_per_s": _ratio(gram["work"] / 1e9, gram["wall"]),
        "coherence.partial_coherence_calls": f("coherence.partial_coherence")["calls"],
        "covariance.errors": f("covariance.conditional_covariances")["errors"]
        + f("coherence.partial_coherence")["errors"],
        "nulldist.draws": null["work"],
        "nulldist.draws_per_s": _ratio(null["work"], null["wall"]),
        "simulate.gen_samples": sum(g["work"] for g in gens),
        "simulate.gen_samples_per_s": _ratio(
            sum(g["work"] for g in gens), sum(g["wall"] for g in gens)
        ),
        "experiments.replications": sum(x["work"] for x in studies),
        "experiments.map_cells": f("experiments.coherence_map")["work"],
        "experiments.replications_per_s": _ratio(
            sum(x["work"] for x in studies), sum(x["wall"] for x in studies)
        ),
        "experiments.cpu_per_wall": _ratio(
            sum(x["cpu"] for x in top), sum(x["wall"] for x in top)
        ),
    })
    return m


# Exact counts, not clock readings. "computed" ones come from argument
# and result shapes, "counted" ones from calls and loaded modules.
EXACT_COUNTS = {
    "computed": ("inference.panel_mb", "inference.gram_gflop", "nulldist.draws",
                 "simulate.gen_samples", "experiments.replications", "experiments.map_cells"),
    "counted": ("package.scipy_submodules", "coherence.partial_coherence_calls",
                "covariance.errors"),
}


def _exact_counts(m: dict) -> dict:
    return {label: {k: m[k] for k in keys} for label, keys in EXACT_COUNTS.items()}


def per_layer(reps: list[dict], run_dir: str, workload: str) -> tuple[dict, dict, list[str]]:
    """Medians over traced repetitions, the count self-check and its problems."""
    problems: list[str] = []
    traced = [r for r in reps if r["traced"] and r.get("trace")]
    untraced = [r["run_s"] for r in reps if not r["traced"] and "run_s" in r]
    if not traced:
        return {}, {}, ["no traced repetition completed"]
    per_rep = [layer_metrics(r) for r in traced]
    metrics = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
    calls = [t for r in traced for t in r["trace"]["partial_coherence_calls_s"]]
    pc = _distribution(calls) if calls else {"n": 0, "median": 0.0}
    tail_key = next((k for k in ("p99", "p95", "p90", "p75") if k in pc), None)
    metrics["coherence.partial_coherence_p50_ms"] = pc["median"] * 1e3
    metrics["coherence.partial_coherence_tail_ms"] = pc[tail_key] * 1e3 if tail_key else 0.0
    traced_run = statistics.median(r["run_s"] for r in traced)
    metrics["trace.overhead_s"] = traced_run - statistics.median(untraced) if untraced else 0.0

    counts = _exact_counts(per_rep[0])
    for m in per_rep[1:]:
        if _exact_counts(m) != counts:
            problems.append("exact counts differ between traced repetitions")
    # Counts must also repeat between runs of the same source tree.
    ledger = os.path.join(run_dir, f"counts-{workload}-{_src_digest()[:16]}.json")
    if os.path.exists(ledger):
        with open(ledger) as fh:
            earlier = json.load(fh)
        if earlier != counts:
            problems.append(f"exact counts differ from an earlier run: {earlier} vs {counts}")
    else:
        with open(ledger, "w") as fh:
            json.dump(counts, fh, sort_keys=True)
    detail = {"partial_coherence_call_s": pc, "tail_percentile": tail_key,
              "traced_reps": len(traced), "exact_counts": counts}
    return metrics, detail, problems


def environment(result: dict, seed: int, seconds: int) -> dict:
    reps = result["reps"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **result["check"].get("versions", {}),
        "thread_settings": THREAD_PINS,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
        "run_seconds": seconds,
        "load": "closed loop, one repetition at a time",
        "repetitions": {
            "warm_up": 1,
            "timed": sum(not r["traced"] for r in reps),
            "traced": sum(r["traced"] for r in reps),
            "setup_only": len(result["setups"]),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cohercause", "cli.py")):
        print(f"benchmark: no package source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = run.execute()
    reps = result["reps"]
    units, unit_name = WORKLOADS[args.workload]
    e2e, e2e_stats = end_to_end(reps, result["setups"], units)
    problems = [f"oracle: {p}" for p in result["check"]["problems"]]
    record = {
        "workload": args.workload,
        "argvs": run.argvs,
        "throughput_unit": unit_name,
        "peak_rss_scope": "largest single process of the repetition's tree (wait4 ru_maxrss)",
        "environment": environment(result, args.seed, args.seconds),
        "check": result["check"],
        "end_to_end": e2e_stats,
        "error_rate": sum(not r["ok"] for r in reps) / len(reps),
        "measured_s": result["measured_s"],
        "elapsed_s": result["elapsed_s"],
        "repetitions": [{k: v for k, v in r.items() if k != "trace"} for r in reps],
    }
    values = e2e
    if args.trace:
        values, detail, count_problems = per_layer(reps, OUT, args.workload)
        problems += count_problems
        record["per_layer"] = values
        record["per_layer_detail"] = detail
    # BENCHMARK.json names the reported metrics and their units.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in listed}
    if values:
        problems += [f"metric {m} was not computed" for m in metrics if m not in values]
    record["problems"] = problems
    with open(run.dir + ".json", "w") as fh:
        json.dump(record, fh, indent=2)

    failed = sum(not r["ok"] for r in reps)
    for p in problems:
        print(f"problem: {p}")
    print(f"{args.workload}: {len(reps)} repetitions, {failed} failed; "
          f"record in {os.path.relpath(run.dir + '.json', ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
