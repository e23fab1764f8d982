import json
import subprocess
import sys
from pathlib import Path

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
    clash = subprocess.run(
        [*script, "--fast", "--outdir", str(tmp_path / "never")],
        capture_output=True, text=True, timeout=300,
    )
    assert clash.returncode == 2
    assert "--fast" in clash.stderr and "--replications" in clash.stderr
    assert not (tmp_path / "never").exists()
