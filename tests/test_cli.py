import ast
import csv
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cohercause import WilksLambdaSpec, cli, null_law, sample_null, write_sequence_csv
from cohercause import BarnettModelSpec, coherence_map, gen_barnett, inference, nulldist
from cohercause.cli import build_parser, main
from cohercause.experiments import write_map_csv

from helpers import DEGENERATE_BLOCKS, degenerate_pair

SRC = str(Path(__file__).resolve().parents[1] / "src")
# Peak RSS of default-replication `power --orders 0..1 --jobs 2`, as the README states.
POWER_PEAK_RSS_MB = 100
# Rise of `test`'s own VmHWM over its import baseline on a 100k-row pair. The
# CSV read peaks about 5 MiB above the baseline and leaves t, x and y (2.4 MB);
# above them the Gram holds one 1 MiB chunk, and the null law its 200k draws
# (1.6 MB) and two gamma buffers (1 MiB). Their sum, rounded up, is the bound.
# A 10 MiB Gram chunk would exceed it on its own, with t, x and y alive.
TEST_PEAK_RISE_MB = 10


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
        assert out == json.dumps(payload, indent=2) + "\n"
        assert payload["reject_null"] is True  # F = 0.5 is a strong coupling
        assert payload["p"] == 5 and payload["r"] == 5

    @pytest.mark.parametrize(
        "lags, stride, extra, options",
        [(10, 1, (), {}), (10, 3, (), {}), (30, 1, (), {}),
         (10, 1, ("--no-center",), {"center": False}),
         (10, 1, ("--method", "bartlett"), {"method": "bartlett"})],
    )
    def test_matches_library_without_a_panel(self, tmp_path, capsys, monkeypatch,
                                             lags, stride, extra, options):
        # `test` tests the lag_embed panel of the CSV columns, whose rows are views
        # of them, and prints what the library prints for the same embedding. A
        # small chunk size makes the Gram sum over many chunks.
        monkeypatch.setattr(inference, "_GRAM_CHUNK_BYTES", 2**14)
        pair = tmp_path / "pair.csv"
        run_cli(capsys, "simulate", "--case", "barnett", "--length", "3000",
                "--transfer-entropy", "0.05", "--output", str(pair), "--seed", "3")
        data = inference.read_sequence_csv(str(pair))
        panel = inference.lag_embed(
            data["x"], data["y"], inference.LagSpec.influence_test(lags, stride)
        )
        expected = inference.test_causal_influence(panel, seed=5, **options).to_json() + "\n"

        tested = []

        def spy(panel, *args, **kwargs):
            tested.append(panel)
            return inference.test_causal_influence(panel, *args, **kwargs)

        monkeypatch.setattr(cli, "test_causal_influence", spy)
        code, out, err = run_cli(
            capsys, "test", "--input", str(pair), "--lags", str(lags),
            "--stride", str(stride), "--seed", "5", *extra,
        )
        assert (code, err) == (0, "")
        assert out == expected
        [panel] = tested
        assert panel.dims == inference.LagSpec.influence_test(lags).dims
        assert not any(row.flags.owndata for row in panel.data)

    def test_lags_below_one_names_depth(self, tmp_path, capsys):
        pair = tmp_path / "pair.csv"
        run_cli(capsys, "simulate", "--case", "I", "--length", "200", "--output", str(pair))
        code, out, err = run_cli(capsys, "test", "--input", str(pair), "--lags", "0")
        assert code == 1
        assert out == ""
        assert err == "cohercause: error: T must be >= 1, got 0\n"

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

    def test_repeated_csv_column_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "pair.csv"
        bad.write_text("t,x,y,x\n0,1,5,100\n1,2,6,200\n2,4,7,300\n")
        code, out, err = run_cli(capsys, "test", "--input", str(bad))
        assert code == 1
        assert out == ""
        assert err == f"cohercause: error: {bad}: line 1: column 'x' appears more than once\n"

    @pytest.mark.parametrize("case", sorted(DEGENERATE_BLOCKS))
    def test_degenerate_input_names_block(self, tmp_path, capsys, case):
        pair = tmp_path / "pair.csv"
        write_sequence_csv(str(pair), *degenerate_pair(case, 300))
        code, out, err = run_cli(
            capsys, "test", "--input", str(pair), "--lags", "4", "--method", "bartlett"
        )
        assert code == 1
        assert out == ""
        assert err == f"cohercause: error: {DEGENERATE_BLOCKS[case]} is rank-deficient\n"

    @pytest.mark.parametrize(
        "argv",
        [
            # (2(T + h) + 2)^2 < 2 (2T + 2)^2: orders 9 and 10 share one core Gram.
            ("power", "--orders", "9..10", "--M", "300"),
            ("roc", "--ma-order", "10"),
            ("power", "--orders", "10", "--M", "300",
             "--window-mode", "independent-realizations"),
        ],
        ids=["shared-core", "per-order", "independent"],
    )
    def test_study_rank_error_names_order_and_T(self, tmp_path, capsys, argv):
        # At T 60 the order-10 windows are numerically singular on every route.
        code, out, err = run_cli(
            capsys, *argv, "--T", "60", "--fast", "--output", str(tmp_path / "out.csv"),
        )
        assert code == 1
        assert out == ""
        assert err == "cohercause: error: MA order 10 at T 60: x given z is rank-deficient\n"

    def test_too_few_null_draws_is_runtime_error(self, tmp_path, capsys):
        pair = tmp_path / "pair.csv"
        run_cli(capsys, "simulate", "--case", "barnett", "--length", "2000",
                "--transfer-entropy", "0.3", "--output", str(pair))
        code, out, err = run_cli(capsys, "test", "--input", str(pair), "--n-mc", "10")
        assert code == 1
        assert out == ""
        assert err == (
            "cohercause: error: n_mc=10 gives insufficient tail resolution for alpha=0.05\n"
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
        assert payload["stat"] == 0.3

    def test_one_null_draw_gives_both_numbers(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(
            nulldist, "sample_null", lambda *a, **k: calls.append(a) or sample_null(*a, **k)
        )
        code, out, _ = run_cli(
            capsys, "nulldist", "--p", "2", "--q", "1", "--r", "2", "--M", "50",
            "--alpha", "0.05", "--n-mc", "20000", "--stat", "0.3", "--seed", "5",
        )
        assert code == 0
        assert len(calls) == 1
        payload = json.loads(out)
        threshold_at, p_value_of = null_law(WilksLambdaSpec(2, 1, 2, 50), n_mc=20_000, seed=5)
        assert payload["critical_value"] == threshold_at(0.05)
        assert payload["p_value"] == p_value_of(0.3)

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
        # No map draws a random number, so the summary records no seed.
        assert summary["case"] == "I" and "seed" not in summary
        # Neither the coupling nor the MA order shapes a case I map.
        assert "transfer_entropy" not in summary and "ma_order" not in summary

    def test_barnett_map(self, tmp_path, capsys):
        out_csv, ref_csv = tmp_path / "map.csv", tmp_path / "ref.csv"
        code, _, _ = run_cli(
            capsys, "map", "--case", "barnett", "--transfer-entropy", "0.3",
            "--ma-order", "2", "--s-range", "0..3", "--t-range", "0..4",
            "--t-cond", "6", "--conditioning", "past-of-y", "--output", str(out_csv),
        )
        assert code == 0
        cmap = coherence_map(
            BarnettModelSpec(transfer_entropy=0.3, ma_order=2), range(0, 4), range(0, 5),
            conditioning="past-of-y", T_cond=6,
        )
        write_map_csv(str(ref_csv), cmap)
        assert out_csv.read_bytes() == ref_csv.read_bytes()
        summary = json.loads((tmp_path / "map.csv.json").read_text())
        assert summary["case"] == "barnett"
        assert summary["transfer_entropy"] == 0.3 and summary["ma_order"] == 2

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
        summary = json.loads((tmp_path / "map.csv.json").read_text())
        assert summary["case"] == "data"
        assert "transfer_entropy" not in summary and "ma_order" not in summary


class TestPowerRocCalibrate:
    def test_power_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "power.csv"
        code, _, _ = run_cli(
            capsys, "power", "--orders", "0..1", "--replications", "400",
            "--M", "150", "--T", "2", "--transfer-entropy", "0.1",
            "--output", str(out_csv),
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
            "--sizes", "0.05,0.2", "--seed", "3",
        )
        assert run_cli(capsys, *args, "--output", str(a))[0] == 0
        assert run_cli(capsys, *args, "--output", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_calibrate_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "calibrate", "--replications", "1000", "--M", "150",
            "--T", "2", "--window-mode", "independent-realizations",
        )
        assert code == 0
        payload = json.loads(out)
        assert 0.0 <= payload["achieved_size"] <= 0.15
        assert payload["window_mode"] == "independent-realizations"

    @pytest.mark.parametrize("window_mode", ["consecutive-windows", "independent-realizations"])
    @pytest.mark.parametrize(
        "command, replications",
        [("power", "0"), ("power", "-5"), ("roc", "0")],
    )
    def test_no_replications_names_replications(
        self, tmp_path, capsys, command, replications, window_mode
    ):
        out_csv = tmp_path / "out.csv"
        code, out, err = run_cli(
            capsys, command, "--replications", replications, "--M", "150", "--T", "2",
            "--window-mode", window_mode, "--output", str(out_csv),
        )
        assert code == 1
        assert out == ""
        assert err == (
            f"cohercause: error: replications must be >= 1, got {replications}\n"
        )
        assert not out_csv.exists()

    @pytest.mark.parametrize("command", ["power", "roc", "calibrate"])
    def test_too_small_M_names_sample_count(self, tmp_path, capsys, command):
        out_csv = tmp_path / "out.csv"
        code, out, err = run_cli(
            capsys, command, "--M", "15", "--T", "10", "--output", str(out_csv)
        )
        assert code == 1
        assert out == ""
        assert err == (
            "cohercause: error: insufficient samples: need M - r > p + q, "
            "got M=14, r=10, p=10, q=1\n"
        )
        assert not out_csv.exists()

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("calibrate", ("--replications", "1000")),
            ("roc", ("--replications", "450", "--sizes", "0.05,0.2")),
            ("power", ("--replications", "450", "--orders", "0..1")),
        ],
    )
    def test_independent_outputs_identical_across_jobs(
        self, tmp_path, capsys, command, extra
    ):
        outputs = []
        for jobs in ("1", "2"):
            out_file = tmp_path / f"{jobs}.out"
            code, out, _ = run_cli(
                capsys, command, *extra, "--M", "150", "--T", "2",
                "--window-mode", "independent-realizations", "--jobs", jobs,
                "--output", str(out_file),
            )
            assert code == 0
            outputs.append((out, out_file.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_consecutive_power_identical_across_jobs(self, tmp_path, capsys):
        # Four orders on one or two threads: the CSV and the summary agree byte for byte.
        out_csv = tmp_path / "power.csv"
        outputs = []
        for jobs in ("1", "2"):
            code, _, _ = run_cli(
                capsys, "power", "--orders", "0..3", "--replications", "300",
                "--M", "150", "--T", "2", "--jobs", jobs,
                "--output", str(out_csv),
            )
            assert code == 0
            outputs.append((out_csv.read_bytes(), (tmp_path / "power.csv.json").read_bytes()))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][0].splitlines()) == 1 + 4

    def test_order_zero_consecutive_calibrate_identical_across_jobs(self, capsys):
        # 1004 windows make blocks of 59 and a last block of 1 window, whose
        # second range at two jobs is empty and must not be carved.
        outputs = []
        for jobs in ("1", "2"):
            code, out, _ = run_cli(
                capsys, "calibrate", "--ma-order", "0", "--window-mode", "consecutive-windows",
                "--replications", "1004", "--jobs", jobs,
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_outputs_identical_across_blas_threads(self, tmp_path):
        # Equal seeds give byte-identical study files whether BLAS runs one thread or two,
        # and so does `test` up to its documented edge: --lags 47, a 95-row Gram.
        pair = tmp_path / "pair.csv"
        assert main(["simulate", "--case", "barnett", "--length", "100000",
                     "--output", str(pair)]) == 0
        runs = [
            ("test", "--input", str(pair), "--lags", "47", "--output", "test.json"),
            ("power", "--orders", "0..2", "--replications", "300", "--M", "200", "--T", "3",
             "--jobs", "1", "--output", "power.csv"),
            ("calibrate", "--window-mode", "independent-realizations", "--replications", "2000",
             "--M", "200", "--T", "3", "--jobs", "1",
             "--output", "calibrate.json"),
        ]
        path = [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
        outputs = {}
        for threads in ("1", "2"):
            cwd = tmp_path / threads
            cwd.mkdir()
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), OPENBLAS_NUM_THREADS=threads)
            for argv in runs:
                done = subprocess.run(
                    [sys.executable, "-m", "cohercause.cli", *argv], cwd=cwd, env=env,
                    capture_output=True, timeout=300,
                )
                assert done.returncode == 0, done.stderr
            outputs[threads] = {f.name: f.read_bytes() for f in sorted(cwd.iterdir())}
        assert sorted(outputs["1"]) == ["calibrate.json", "power.csv", "power.csv.json",
                                        "test.json"]
        assert outputs["1"] == outputs["2"]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_default_replication_power_peak_rss_bounded(self, tmp_path):
        # The orders share one streamed AR core, and each worker carves every order
        # through one reused panel, so peak memory does not grow with --replications,
        # even with two workers in flight.
        # The child reports its own VmHWM as it exits: the ru_maxrss that wait4
        # returns also counts the high-water RSS of this process at the spawn.
        hwm = tmp_path / "vmhwm_kib.txt"
        child = (
            "import atexit, runpy\n"
            "def report():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        kib = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))\n"
            f"    with open({str(hwm)!r}, 'w') as fh:\n"
            "        fh.write(kib)\n"
            "atexit.register(report)\n"
            "runpy.run_module('cohercause.cli', run_name='__main__')\n"
        )
        argv = [
            sys.executable, "-c", child, "power", "--orders", "0..1",
            "--replications", "10000", "--jobs", "2", "--output", str(tmp_path / "power.csv"),
        ]
        path = [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        proc = subprocess.run(argv, env=env, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 0, proc.stderr
        assert int(hwm.read_text()) / 1024 < POWER_PEAK_RSS_MB

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_test_peak_rss_rise_bounded(self, tmp_path):
        # The child reads its own VmHWM after importing the CLI and again after
        # `test` returns, so the rise is the command's alone.
        pair = tmp_path / "pair.csv"
        spec = BarnettModelSpec(transfer_entropy=0.02, ma_order=1)
        write_sequence_csv(str(pair), *gen_barnett(spec, 100_000, 42))
        child = (
            "import sys\n"
            "def vmhwm_kib():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        lines = [line for line in fh if line.startswith('VmHWM:')]\n"
            "    return int(lines[0].split()[1])\n"
            "from cohercause.cli import main\n"
            "base = vmhwm_kib()\n"
            "code = main(sys.argv[1:])\n"
            "print(base, vmhwm_kib(), file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        argv = [sys.executable, "-c", child, "test", "--input", str(pair), "--lags", "10"]
        path = [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["M"] == 100_000 - 11
        base, peak = map(int, proc.stderr.split())
        assert (peak - base) / 1024 < TEST_PEAK_RISE_MB

    @pytest.mark.parametrize(
        "command, extra, keys",
        [
            ("power", ("--orders", "0..1", "--replications", "400"),
             {"command", "orders", "transfer_entropy", "alpha", "output"}),
            ("roc", ("--sizes", "0.05,0.2", "--replications", "400"),
             {"command", "transfer_entropy", "ma_order", "sizes", "output"}),
            ("calibrate", ("--replications", "1000"),
             {"command", "achieved_size", "std_error", "alpha", "ma_order"}),
        ],
        ids=["power", "roc", "calibrate"],
    )
    def test_summary_keys(self, tmp_path, capsys, command, extra, keys):
        out_file = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, command, *extra, "--M", "150", "--T", "2", "--output", str(out_file),
        )
        assert code == 0
        summary = json.loads(
            out if command == "calibrate" else (tmp_path / "out.json").read_text()
        )
        study = {"replications", "M", "T", "window_mode", "seed"}
        assert set(summary) == keys | study

    def test_empty_order_range_rejected(self, tmp_path, capsys):
        out_csv = tmp_path / "power.csv"
        with pytest.raises(SystemExit) as exc:
            main(["power", "--orders", "5..2", "--output", str(out_csv)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(
            "error: argument --orders: expected an integer or an inclusive range a..b "
            "with b >= a, got '5..2'\n"
        )
        assert not out_csv.exists()


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

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_help_shows_no_none_default(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert ("--jobs" in text) == (command in ("test", "power", "roc", "calibrate"))
        assert "(default: None)" not in text

    def test_every_flag_is_read_and_has_one_spelling(self):
        # A command reads a flag as args.<dest> or through _study_args; main
        # resolves no argument, so a command that ignores a flag does not read it.
        study = set()

        class Recorder:
            def __getattr__(self, name):
                study.add(name)

        cli._study_args(Recorder())
        subs = next(a for a in build_parser()._actions if a.dest == "command").choices
        unread, many = set(), []
        for name, sub in subs.items():
            tree = ast.parse(inspect.getsource(cli._COMMANDS[name]))
            read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name) and node.value.id == "args"}
            if any(isinstance(node, ast.Name) and node.id == "_study_args"
                   for node in ast.walk(tree)):
                read |= study
            for action in sub._actions:
                if action.dest == "help":
                    continue
                if len(action.option_strings) != 1:
                    many.append((name, action.option_strings))
                if action.dest not in read:
                    unread.add((name, action.option_strings[0]))
        # Accepted and ignored, because the benchmark workloads pass them.
        ignored = {("test", "--jobs"), ("map", "--seed")}
        assert (many, unread) == ([], ignored)

    def test_default_jobs_counts_usable_cpus(self, monkeypatch):
        def default_jobs():
            return build_parser().parse_args(["calibrate"]).jobs

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert default_jobs() == 2
        monkeypatch.delattr(cli.os, "sched_getaffinity")
        assert default_jobs() == 8
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert default_jobs() == 1

    def test_bad_jobs_env(self, monkeypatch, capsys, tmp_path):
        # COHERCAUSE_JOBS is retired: no value of it is read or rejected.
        pair = str(tmp_path / "pair.csv")
        code, _, _ = run_cli(capsys, "simulate", "--case", "I", "--length", "500", "--output", pair)
        assert code == 0
        default = build_parser().parse_args(["calibrate"]).jobs
        for jobs in ("lots", "0", "-3"):
            monkeypatch.setenv("COHERCAUSE_JOBS", jobs)
            assert build_parser().parse_args(["calibrate", "--fast"]).jobs == default
            code, _, err = run_cli(capsys, "nulldist", "--p", "1", "--q", "1", "--r", "0",
                                   "--M", "20", "--n-mc", "20000")
            assert (code, err) == (0, "")
            code, _, err = run_cli(capsys, "test", "--input", pair, "--lags", "2",
                                   "--n-mc", "20000")
            assert (code, err) == (0, "")
        # A --jobs given to test is still checked.
        with pytest.raises(SystemExit) as exc:
            main(["test", "--input", pair, "--jobs", "0"])
        assert exc.value.code == 2
        assert "argument --jobs: must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["power", "--orders", "abc", "--output", "p.csv"], "--orders: expected "),
            (["power", "--orders", "-1", "--output", "p.csv"], "--orders: expected "),
            (["power", "--orders=-2..3", "--output", "p.csv"], "--orders: expected "),
            (["map", "--case", "I", "--s-range", "0..x", "--output", "m.csv"],
             "--s-range: expected "),
            (["map", "--case", "I", "--s-range", "3..-3", "--output", "m.csv"],
             "--s-range: expected "),
            (["map", "--case", "I", "--t-range=-1..-2", "--output", "m.csv"],
             "--t-range: expected "),
            (["map", "--case", "I", "--t-range", "1..2..3", "--output", "m.csv"],
             "--t-range: expected "),
            (["roc", "--sizes", "0.05,x", "--output", "r.csv"], "--sizes: expected "),
            (["map", "--case", "barnett", "--ma-order", "-1", "--output", "m.csv"],
             "--ma-order: must be >= 0, got -1"),
            (["simulate", "--case", "barnett", "--ma-order", "-1", "--output", "s.csv"],
             "--ma-order: must be >= 0, got -1"),
            (["roc", "--ma-order", "-1", "--output", "r.csv"], "--ma-order: must be >= 0, got -1"),
            (["calibrate", "--ma-order=-2"], "--ma-order: must be >= 0, got -2"),
            (["calibrate", "--jobs", "lots"], "--jobs: invalid int value: 'lots'"),
        ],
        ids=["orders", "orders-negative", "orders-from-negative", "s-range",
             "s-range-reversed", "t-range-reversed", "t-range", "sizes",
             "map-ma-order", "simulate-ma-order", "roc-ma-order", "calibrate-ma-order",
             "jobs-not-integer"],
    )
    def test_malformed_range_or_size_is_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["power", "roc", "calibrate"])
    def test_fast_and_replications_are_exclusive(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--fast", "--replications", "5000", "--output", "o.csv"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--fast" in err and "--replications" in err
        fast = build_parser().parse_args([command, "--fast", "--output", "o.csv"])
        assert fast.replications == cli.FAST_REPLICATIONS
        with pytest.raises(SystemExit):
            main([command, "--help"])
        [line] = [ln for ln in capsys.readouterr().out.splitlines() if "--fast " in ln]
        assert "(default:" not in line

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, jobs, capsys):
        # test ignores --jobs but still checks it.
        for argv in (["test", "--input", "pair.csv"], ["power", "--fast", "--output", "p.csv"],
                     ["roc", "--fast", "--output", "r.csv"], ["calibrate", "--fast"]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--jobs", jobs])
            assert exc.value.code == 2
            assert f"argument --jobs: must be >= 1, got {jobs}" in capsys.readouterr().err
