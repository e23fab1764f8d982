"""Benchmark inputs and output checks, run in their own (untimed) process.

Usage:
  python3 bench/oracle.py prepare WORKLOAD SEED INPUT_DIR
  python3 bench/oracle.py check WORKLOAD SEED INPUT_DIR OUTPUT_DIR REPORT.json

``prepare`` writes the workload's input files from the seed. ``check``
validates one repetition's outputs against oracles that do not share the
code path under test, and writes a report with the problems found and
the numpy/scipy/BLAS versions. The bands are those of
tests/test_acceptance.py.
"""
import csv
import json
import math
import sys

import numpy as np
import scipy
from scipy import stats

import cohercause as cc

TEST_ROWS = 100_000
TEST_LAGS = 10
TEST_FIELDS = {
    "statistic", "threshold", "p_value", "alpha", "method", "reject_null",
    "p", "q", "r", "M", "seed",
}
# Standard errors allowed between a Monte Carlo estimate and its exact value.
MC_SIGMAS = 5.0
TEST_N_MC = 200_000  # the CLI's default --n-mc
# Data map against analytic map, from M columns: where rho2 > 0 the
# sample value is about normal with sd 2|rho|(1 - rho2)/sqrt(M) (delta
# method); where rho2 = 0, M times it is about chi2(1). The allowance is
# MAP_SIGMAS of the first plus MAP_CHI2 / M, where P(chi2(1) > 30) ~ 4e-8.
MAP_SIGMAS = 6.0
MAP_CHI2 = 30.0


def prepare(workload: str, seed: int, input_dir: str) -> None:
    if workload == "test-csv":
        spec = cc.BarnettModelSpec(transfer_entropy=0.02, ma_order=1)
        # Positional seed: gen_barnett's third parameter is the noise spec.
        x, y = cc.gen_barnett(spec, TEST_ROWS, seed)
        cc.write_sequence_csv(f"{input_dir}/pair.csv", x, y)


def _read_table(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_map(path: str) -> np.ndarray:
    rows = _read_table(path)
    values = np.zeros((20, 20))
    for row in rows:
        values[int(row["s"]), int(row["t"])] = float(row["rho2"])
    if len(rows) != 400:
        raise ValueError(f"{path}: expected 400 grid cells, got {len(rows)}")
    return values


def _x_onto_v_rho2(S: np.ndarray, p: int) -> float:
    """Partial coherence by regressing x onto v = (y, z), the route of
    ``partial_coherence_one_onto_two``: 1 - det(S_xx|v) / det(S_xx|z).
    Rows are ordered (x: p, y: 1, z: rest)."""

    def conditional_logdet(a: slice, b: slice) -> float:
        Sab = S[a, b]
        return np.linalg.slogdet(S[a, a] - Sab @ np.linalg.solve(S[b, b], Sab.T))[1]

    x = slice(0, p)
    return 1.0 - math.exp(conditional_logdet(x, slice(p, None)) - conditional_logdet(x, slice(p + 1, None)))


def _check_test(seed: int, input_dir: str, output_dir: str, problems: list) -> dict:
    with open(f"{output_dir}/stdout.txt") as fh:
        out = json.load(fh)
    if set(out) != TEST_FIELDS:
        problems.append(f"test JSON fields {sorted(out)} differ from the documented set")
        return out
    # The statistic by the x-onto-(y, z) route, on a panel built here from
    # the file, with numpy only.
    data = np.loadtxt(f"{input_dir}/pair.csv", delimiter=",", skiprows=1)
    x, y = data[:, 1], data[:, 2]
    T, n = TEST_LAGS, x.size
    rows = [x[T - k : n - k] for k in range(1, T + 1)]
    rows.append(y[T:])
    rows += [y[T - k : n - k] for k in range(1, T + 1)]
    D = np.array(rows)
    D = D - D.mean(axis=1, keepdims=True)
    oracle_stat = _x_onto_v_rho2(D @ D.T, T)
    if abs(out["statistic"] - oracle_stat) > 1e-10:
        problems.append(f"statistic {out['statistic']!r} vs oracle {oracle_stat!r}")
    expected = {"p": T, "q": 1, "r": T, "M": D.shape[1] - 1, "seed": seed,
                "alpha": 0.05, "method": "wilks-mc"}
    for key, value in expected.items():
        if out[key] != value:
            problems.append(f"test field {key}={out[key]!r}, expected {value!r}")
    # Exact q = 1 null law: 1 - statistic ~ Beta((m - p + 1)/2, p/2).
    p, alpha, m = T, out["alpha"], out["M"] - T - 1
    a, b = (m - p + 1) / 2.0, p / 2.0
    exact = 1.0 - stats.beta.ppf(alpha, a, b)
    density = stats.beta.pdf(1.0 - exact, a, b)
    se = math.sqrt(alpha * (1 - alpha) / TEST_N_MC) / density
    if abs(out["threshold"] - exact) > MC_SIGMAS * se:
        problems.append(
            f"threshold {out['threshold']:.6e} vs exact {exact:.6e} (se {se:.2e})"
        )
    if out["reject_null"] != (out["statistic"] > out["threshold"]):
        problems.append("reject_null disagrees with statistic > threshold")
    return {"statistic": out["statistic"], "oracle_statistic": oracle_stat,
            "threshold": out["threshold"], "exact_threshold": exact, "threshold_se": se}


def _check_maps(output_dir: str, problems: list) -> dict:
    n_rows = len(_read_table(f"{output_dir}/pair.csv"))
    if n_rows != TEST_ROWS:
        problems.append(f"simulated pair has {n_rows} rows, expected {TEST_ROWS}")
    maps = {
        (case, cond): _read_map(f"{output_dir}/map_{case}_{cond}.csv")
        for case in ("I", "II", "III") for cond in ("past-of-x", "past-of-y")
    }
    data = _read_map(f"{output_dir}/data_map.csv")
    for key, values in [*maps.items(), ("data", data)]:
        if not np.all((values >= 0) & (values <= 1)):
            problems.append(f"map {key} has values outside [0, 1]")
    s, t = np.meshgrid(np.arange(20), np.arange(20), indexing="ij")
    zeros = (s > t) | (s < t - 3)
    worst_zero = float(np.abs(maps["I", "past-of-x"][zeros]).max())
    if worst_zero >= 1e-10:
        problems.append(f"case I structural zeros reach {worst_zero:.2e} (>= 1e-10)")
    M = TEST_ROWS - 20
    rho2 = maps["I", "past-of-x"]
    allowed = MAP_SIGMAS * 2 * np.sqrt(rho2) * (1 - rho2) / math.sqrt(M) + MAP_CHI2 / M
    usage = float(np.max(np.abs(data - rho2) / allowed))
    if usage > 1.0:
        problems.append(f"data map departs from the analytic map by {usage:.2f}x the allowance")
    return {"case_I_worst_zero": worst_zero, "data_map_allowance_used": usage}


def _check_power(output_dir: str, problems: list) -> dict:
    rows = _read_table(f"{output_dir}/power.csv")
    orders = [int(r["ma_order"]) for r in rows]
    powers = [float(r["power"]) for r in rows]
    if orders != list(range(11)):
        problems.append(f"power orders {orders}, expected 0..10")
    if any(int(r["replications"]) != 2000 for r in rows):
        problems.append("power replications differ from 2000")
    if not all(0.83 <= v <= 0.97 for v in powers):
        problems.append(f"powers {powers} leave [0.83, 0.97]")
    return {"powers": powers}


def _check_size(output_dir: str, problems: list) -> dict:
    with open(f"{output_dir}/stdout.txt") as fh:
        out = json.load(fh)
    if out["replications"] != 10_000 or out["window_mode"] != "independent-realizations":
        problems.append(f"calibrate ran {out['replications']} {out['window_mode']}")
    if not 0.043 <= out["achieved_size"] <= 0.057:
        problems.append(f"achieved size {out['achieved_size']} leaves [0.043, 0.057]")
    return {"achieved_size": out["achieved_size"]}


def check(workload: str, seed: int, input_dir: str, output_dir: str) -> dict:
    problems: list[str] = []
    try:
        if workload == "test-csv":
            details = _check_test(seed, input_dir, output_dir, problems)
        elif workload == "maps":
            details = _check_maps(output_dir, problems)
        elif workload == "power-consecutive":
            details = _check_power(output_dir, problems)
        else:
            details = _check_size(output_dir, problems)
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"unreadable output: {exc!r}")
        details = {}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "problems": problems,
        "details": details,
        "versions": {
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "cohercause": cc.__version__,
        },
    }


def main() -> int:
    command, workload, seed, input_dir = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
    if command == "prepare":
        prepare(workload, seed, input_dir)
        return 0
    report = check(workload, seed, input_dir, sys.argv[5])
    with open(sys.argv[6], "w") as fh:
        json.dump(report, fh, indent=2, default=float)
    return 0


if __name__ == "__main__":
    sys.exit(main())
