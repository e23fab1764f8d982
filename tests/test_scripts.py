import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from cohercause import (
    BarnettModelSpec,
    calibrate_size,
    power_curve,
    roc_curve,
    write_power_csv,
    write_roc_csv,
)
from cohercause import experiments

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_run_coherence_maps(tmp_path):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_coherence_maps.py"),
         "--grid", "4", "--t-cond", "4", "--outdir", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    maps = sorted(p.name for p in tmp_path.glob("*.csv"))
    expected = sorted(
        [f"map_case_{case}_{cond}.csv" for case in ("I", "II", "III")
         for cond in ("past_of_x", "past_of_y")] + ["map_barnett_past_of_y.csv"]
    )
    assert maps == expected
    for name in maps:
        assert len((tmp_path / name).read_text().splitlines()) == 1 + 4 * 4
    summary = json.loads((tmp_path / "maps_summary.json").read_text())
    assert summary == {"grid": 4, "t_cond": 4, "panels": summary["panels"]}
    assert sorted(summary["panels"]) == expected


def _assert_curves_match_library(outdir, study):
    # The script reads power and the ROC from one draw of the statistics; the
    # files equal what power_curve and roc_curve write at the same arguments.
    write_power_csv(str(outdir / "ref_power.csv"), power_curve(range(0, 11), **study))
    write_roc_csv(str(outdir / "ref_roc.csv"), roc_curve(ma_order=1, **study))
    for name, ref in (("power_vs_ma_order.csv", "ref_power.csv"), ("roc.csv", "ref_roc.csv")):
        assert (outdir / name).read_bytes() == (outdir / ref).read_bytes()


def test_run_power_study(tmp_path):
    script = [sys.executable, str(SCRIPTS / "run_power_study.py"), "--replications", "1000"]
    done = subprocess.run(
        [*script, "--M", "60", "--T", "2", "--outdir", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "power_study_summary.json", "power_vs_ma_order.csv", "roc.csv",
    ]
    summary = json.loads((tmp_path / "power_study_summary.json").read_text())
    assert summary["replications"] == 1000
    assert len((tmp_path / "power_vs_ma_order.csv").read_text().splitlines()) == 1 + 11
    study = dict(replications=1000, M=60, T=2, seed=42)
    _assert_curves_match_library(tmp_path, study)
    # Both sizes, read at the script's one threshold, are calibrate_size's.
    null = BarnettModelSpec(transfer_entropy=0.0, ma_order=1)
    for key, mode in (("independent", "independent-realizations"),
                      ("consecutive", "consecutive-windows")):
        size = calibrate_size(null, window_mode=mode, **study)
        assert summary[f"achieved_size_{key}"] == size.achieved
    few = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_power_study.py"), "--replications", "999",
         "--outdir", str(tmp_path / "never")],
        capture_output=True, text=True, timeout=300,
    )
    assert few.returncode == 2
    assert "--replications must be >= 1000" in few.stderr
    clash = subprocess.run(
        [*script, "--fast", "--outdir", str(tmp_path / "never")],
        capture_output=True, text=True, timeout=300,
    )
    assert clash.returncode == 2
    assert "--fast" in clash.stderr and "--replications" in clash.stderr
    assert not (tmp_path / "never").exists()


def test_run_power_study_shared_core_route(tmp_path):
    # At T 4 the script's orders 0..10 read their Grams from the shared AR core
    # (30^2 < 11 * 10^2) while roc_curve's one order carves its own panel; the
    # files still equal the library's.
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_power_study.py"), "--replications", "1000",
         "--M", "60", "--T", "4", "--jobs", "2", "--outdir", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    _assert_curves_match_library(tmp_path, dict(replications=1000, M=60, T=4, seed=42))


def test_run_power_study_draws_one_null_law(tmp_path, monkeypatch):
    # Both size calibrations, power and the ROC read one draw of the null law.
    draws, real = [], experiments.null_law
    monkeypatch.setattr(experiments, "null_law", lambda *a, **k: draws.append(a) or real(*a, **k))
    monkeypatch.setattr(sys, "argv", [
        "run_power_study.py", "--replications", "1000", "--M", "60", "--T", "2", "--jobs", "1",
        "--outdir", str(tmp_path),
    ])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / "run_power_study.py"), run_name="__main__")
    assert done.value.code == 0
    assert len(draws) == 1


def test_run_power_study_jobs(tmp_path):
    # The script's files agree byte for byte at one and two threads, but for the elapsed time.
    script = [sys.executable, str(SCRIPTS / "run_power_study.py"), "--replications", "1000"]
    files = {}
    for jobs in ("1", "2"):
        outdir = tmp_path / jobs
        done = subprocess.run(
            [*script, "--M", "60", "--T", "2", "--jobs", jobs, "--outdir", str(outdir)],
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        files[jobs] = {p.name: p.read_text() for p in sorted(outdir.iterdir())}
        summary = json.loads(files[jobs]["power_study_summary.json"])
        del summary["elapsed_seconds"]
        files[jobs]["power_study_summary.json"] = summary
    assert files["1"] == files["2"]
    for jobs in ("0", "-3"):
        bad = subprocess.run(
            [*script, "--jobs", jobs, "--outdir", str(tmp_path / "never")],
            capture_output=True, text=True, timeout=300,
        )
        assert bad.returncode == 2
        assert f"argument --jobs: must be >= 1, got {jobs}" in bad.stderr
    assert not (tmp_path / "never").exists()


def test_outputs_keep_their_digests():
    # Every output of the digest command set keeps the bytes recorded in
    # output_digest.json; the failure names the moved files or the stamp mismatch.
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "output_digest.py"), "--check"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.endswith(" outputs keep their bytes\n")


def test_digest_comparison_names_moves_and_stamp_mismatch(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # the script pins these on load; restored after
    compare = runpy.run_path(str(SCRIPTS / "output_digest.py"))["compare"]
    recorded = {"stamp": {"numpy": "2.0"}, "digests": {"a.csv": "1", "b.csv": "2", "c.csv": "3"}}
    assert compare(recorded, recorded) == []
    fresh = {"stamp": {"numpy": "2.0"}, "digests": {"a.csv": "1", "b.csv": "9", "d.csv": "4"}}
    assert compare(recorded, fresh) == ["moved: b.csv", "missing: c.csv", "new: d.csv"]
    # On another stack the digests are not compared at all.
    other = {"stamp": {"numpy": "2.1"}, "digests": recorded["digests"]}
    problems = compare(recorded, other)
    assert problems[0].startswith("stamp mismatch") and len(problems) == 3
