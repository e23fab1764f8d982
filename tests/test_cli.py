import csv
import json

import pytest

from cohercause.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulateAndTest:
    def test_pipeline(self, tmp_path, capsys):
        pair = tmp_path / "pair.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--case", "barnett", "--length", "4000",
            "--transfer-entropy", "0.5", "--output", str(pair), "--seed", "7",
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "test", "--input", str(pair), "--alpha", "0.05",
            "--lags", "5", "--method", "bartlett", "--seed", "7",
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == [
            "statistic", "threshold", "p_value", "alpha", "method",
            "reject_null", "p", "q", "r", "M", "seed",
        ]
        assert payload["reject_null"] is True  # F = 0.5 is a strong coupling
        assert payload["p"] == 5 and payload["r"] == 5

    def test_output_file(self, tmp_path, capsys):
        pair = tmp_path / "pair.csv"
        run_cli(capsys, "simulate", "--case", "I", "--length", "2000",
                "--output", str(pair))
        out_json = tmp_path / "outcome.json"
        code, out, _ = run_cli(
            capsys, "test", "--input", str(pair), "--lags", "3",
            "--method", "bartlett", "--output", str(out_json),
        )
        assert code == 0
        assert json.loads(out_json.read_text()) == json.loads(out)

    def test_missing_input_is_runtime_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "test", "--input", str(tmp_path / "nope.csv"),
        )
        assert code == 1
        assert "error" in err

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,x,y\n0,1.0,2.0\n1,zap,0.5\n")
        code, _, err = run_cli(capsys, "test", "--input", str(bad))
        assert code == 1
        assert "line 3" in err

    def test_non_finite_csv_reports_line_and_column(self, tmp_path, capsys):
        bad = tmp_path / "pair.csv"
        bad.write_text("t,x,y\n0,1.0,2.0\n1,nan,0.5\n")
        code, out, err = run_cli(capsys, "test", "--input", str(bad))
        assert code == 1
        assert out == ""
        assert err == (
            f"cohercause: error: {bad}: line 3: non-finite value 'nan' in column 'x'\n"
        )

    def test_solvency_violation_names_dims(self, tmp_path, capsys):
        pair = tmp_path / "tiny.csv"
        rows = "".join(f"{i},{i * 0.1},{i * 0.2}\n" for i in range(25))
        pair.write_text("t,x,y\n" + rows)
        code, _, err = run_cli(capsys, "test", "--input", str(pair), "--lags", "10")
        assert code == 1
        for token in ("p=10", "q=1", "r=10"):
            assert token in err


class TestNulldist:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "nulldist", "--p", "2", "--q", "1", "--r", "2", "--M", "50",
            "--alpha", "0.05", "--n-mc", "20000", "--stat", "0.3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["critical_value"] > 0
        assert 0 <= payload["p_value"] <= 1
        assert payload["seed"] == 42

    def test_insolvent_dims_error(self, capsys):
        code, _, err = run_cli(
            capsys, "nulldist", "--p", "10", "--q", "1", "--r", "10", "--M", "21",
        )
        assert code == 1
        assert "insufficient" in err


class TestMap:
    def test_case_map(self, tmp_path, capsys):
        out_csv = tmp_path / "map.csv"
        code, _, _ = run_cli(
            capsys, "map", "--case", "I", "--s-range", "0..5", "--t-range",
            "0..5", "--t-cond", "8", "--output", str(out_csv),
        )
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 36
        summary = json.loads((tmp_path / "map.csv.json").read_text())
        assert summary["case"] == "I" and summary["seed"] == 42

    def test_data_map(self, tmp_path, capsys):
        pair = tmp_path / "pair.csv"
        run_cli(capsys, "simulate", "--case", "II", "--length", "20000",
                "--output", str(pair))
        out_csv = tmp_path / "map.csv"
        code, _, _ = run_cli(
            capsys, "map", "--input", str(pair), "--s-range", "0..2",
            "--t-range", "0..2", "--t-cond", "6", "--output", str(out_csv),
        )
        assert code == 0
        assert out_csv.exists()


class TestPowerRocCalibrate:
    def test_power_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "power.csv"
        code, _, _ = run_cli(
            capsys, "power", "--orders", "0..1", "--replications", "400",
            "--M", "150", "--T", "2", "--transfer-entropy", "0.1",
            "--n-mc", "20000", "--output", str(out_csv),
        )
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["ma_order"] for r in rows] == ["0", "1"]
        summary = json.loads((tmp_path / "power.csv.json").read_text())
        assert summary["replications"] == 400

    def test_roc_csv_and_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = (
            "roc", "--replications", "400", "--M", "150", "--T", "2",
            "--sizes", "0.05,0.2", "--n-mc", "20000", "--seed", "3",
        )
        assert run_cli(capsys, *args, "--output", str(a))[0] == 0
        assert run_cli(capsys, *args, "--output", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_calibrate_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "calibrate", "--replications", "1000", "--M", "150",
            "--T", "2", "--window-mode", "independent-realizations",
            "--n-mc", "20000",
        )
        assert code == 0
        payload = json.loads(out)
        assert 0.0 <= payload["achieved_size"] <= 0.15
        assert payload["window_mode"] == "independent-realizations"


class TestParser:
    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["map", "--case", "I", "--input", "x.csv", "--output", "m.csv"])
        assert exc.value.code == 2

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_help_documents_defaults(self):
        parser = build_parser()
        # defaults traceable to the built-in experiment parameters
        top = parser.format_help()
        assert "alpha=0.05" in top and "T=10" in top and "M=1000" in top
        assert "F=0.02" in top

    def test_jobs_env_override(self, monkeypatch, capsys):
        monkeypatch.setenv("COHERCAUSE_JOBS", "1")
        code, out, _ = run_cli(
            capsys, "nulldist", "--p", "1", "--q", "1", "--r", "0", "--M", "20",
            "--n-mc", "20000",
        )
        assert code == 0

    def test_bad_jobs_env(self, monkeypatch):
        monkeypatch.setenv("COHERCAUSE_JOBS", "lots")
        with pytest.raises(SystemExit):
            main(["nulldist", "--p", "1", "--q", "1", "--r", "0", "--M", "20"])
