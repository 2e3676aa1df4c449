"""Command-line interface: subcommands, output formats, exit codes."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stlmine
from stlmine import boundary
from stlmine.cli import main
from stlmine.monitor import robustness
from stlmine.parser import parse_formula
from stlmine.traces import Dataset, Trace, load_csv_dir, save_csv_dir

TRACE_CSV = "time,x\n0.0,5.0\n1.0,5.0\n2.0,5.0\n"
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


@pytest.fixture
def flat_dataset_dir(tmp_path):
    ds = Dataset(
        [Trace({"x": [v, v, v]}, period=1.0) for v in (5.0, 5.0, 0.0, 0.0)],
        [1, 1, 0, 0],
    )
    out = tmp_path / "flat"
    save_csv_dir(ds, out)
    return out


def test_version_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "stlmine.cli", "--version"], capture_output=True, text=True
    )
    # argparse prints the version itself and exits 0
    assert proc.returncode == 0
    assert "0.1.0" in proc.stdout


@pytest.mark.skipif(
    not PYPROJECT.is_file(), reason="pyproject.toml not found beside tests/ (no source tree)"
)
def test_console_script_installed():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    assert "stlmine" in scripts, "pyproject.toml declares no stlmine console script"
    module, _, attr = scripts["stlmine"].partition(":")
    # run the entry point the way pip's generated console-script wrapper does,
    # so the check needs no install; an installed stlmine on PATH is checked too
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    commands = [[sys.executable, "-c", wrapper, "--version"]]
    installed = shutil.which("stlmine")
    if installed:
        commands.append([installed, "--version"])
    for cmd in commands:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"stlmine {stlmine.__version__}\n"


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["learn"])  # --data is required
    assert e.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["learn", "--max-length", "0"],
        ["learn", "--threshold", "1.5"],
        ["learn", "--delta", "0"],
        ["learn", "--delta", "0.0005"],  # below the fixed bisection tolerance
        ["learn", "--max-boundary-points", "0"],
        ["learn", "--max-boundary-points", "-1"],
        ["enumerate", "--signals", "x", "--max-length", "0"],
        ["learn", "--seed", "-1"],  # numpy rejects negative seeds
        ["gen-data", "--case", "steps", "--seed", "-1"],
    ],
)
def test_out_of_range_options_are_usage_errors(argv, flat_dataset_dir, tmp_path, capsys):
    out = tmp_path / "r.json"
    if argv[0] == "learn":
        argv = argv + ["--data", str(flat_dataset_dir), "--out", str(out)]
    if argv[0] == "gen-data":
        argv = argv + ["--out", str(out)]
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert f"usage: stlmine {argv[0]}" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_learn_writes_report(flat_dataset_dir, tmp_path, capsys):
    out = tmp_path / "result.json"
    code = main(["learn", "--data", str(flat_dataset_dir), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["found"] is True
    assert payload["template"] == "x > $p1"
    assert payload["mcr_train"] == 0.0
    assert payload["mcr_test"] is None  # no --split requested
    assert set(payload["stats"]) == {
        "templates_tried",
        "templates_pruned",
        "boundary_points",
        "elapsed_ms",
    }
    shown = capsys.readouterr().out
    assert "classifier: x > " in shown
    assert "mcr_train=0" in shown


def test_learn_quiet_silences_stdout(flat_dataset_dir, tmp_path, capsys):
    out = tmp_path / "result.json"
    assert main(["learn", "--data", str(flat_dataset_dir), "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_learn_split_reports_test_mcr(flat_dataset_dir, tmp_path):
    out = tmp_path / "result.json"
    code = main(
        ["learn", "--data", str(flat_dataset_dir), "--out", str(out), "--quiet",
         "--split", "0.5", "--seed", "0"]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["found"] is True
    assert payload["mcr_test"] == 0.0


def test_learn_dump_robustness(flat_dataset_dir, tmp_path):
    out = tmp_path / "result.json"
    dump = tmp_path / "rho.csv"
    code = main(
        ["learn", "--data", str(flat_dataset_dir), "--out", str(out), "--quiet",
         "--dump-robustness", str(dump)]
    )
    assert code == 0
    lines = dump.read_text().splitlines()
    assert lines[0] == "index,label,robustness"
    assert len(lines) == 5
    for line in lines[1:]:
        idx, label, rho = line.split(",")
        # the learned threshold separates: sign tracks the label
        assert (float(rho) > 0) == (label == "1")


def test_learn_dump_robustness_matches_per_trace_values(tmp_path):
    # three trace lengths, so the batch is evaluated in several groups
    rng = np.random.default_rng(5)
    traces = [Trace({"x": rng.uniform(lo, lo + 1.3, size=n)}, 0.1)
              for lo, n in [(4.0, 3), (4.0, 5), (4.0, 4), (0.0, 5), (0.0, 3), (0.0, 4)]]
    data = tmp_path / "data"
    save_csv_dir(Dataset(traces, [1, 1, 1, 0, 0, 0]), data)
    out = tmp_path / "result.json"
    dump = tmp_path / "rho.csv"
    code = main(
        ["learn", "--data", str(data), "--out", str(out), "--quiet",
         "--dump-robustness", str(dump)]
    )
    assert code == 0
    phi = parse_formula(json.loads(out.read_text())["formula"])
    ds = load_csv_dir(data)
    lines = ["index,label,robustness"] + [
        f"{i},{label},{robustness(phi, tr)!r}"
        for i, (tr, label) in enumerate(zip(ds.traces, ds.labels))
    ]
    assert dump.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_learn_hard_box_cap_exits_1(flat_dataset_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(boundary, "HARD_BOX_CAP", 0)
    code = main(["learn", "--data", str(flat_dataset_dir), "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "error: boundary search exceeded the hard cap" in capsys.readouterr().err


def test_learn_no_signatures_flag(flat_dataset_dir, tmp_path):
    out = tmp_path / "result.json"
    code = main(
        ["learn", "--data", str(flat_dataset_dir), "--out", str(out), "--quiet",
         "--no-signatures"]
    )
    assert code == 0
    assert json.loads(out.read_text())["stats"]["templates_pruned"] == 0


def test_learn_data_errors_exit_1(tmp_path, capsys):
    # single-class data
    ds = Dataset([Trace({"x": [1.0, 1.0]}, 1.0), Trace({"x": [2.0, 2.0]}, 1.0)], [1, 1])
    single = tmp_path / "single"
    save_csv_dir(ds, single)
    assert main(["learn", "--data", str(single), "--out", str(tmp_path / "r.json")]) == 1
    assert "error:" in capsys.readouterr().err
    # missing directory
    assert main(["learn", "--data", str(tmp_path / "nope"), "--out", "r.json"]) == 1
    capsys.readouterr()
    # other OSErrors: the report path is a directory, a manifest row names a
    # directory, and gen-data's output directory is an existing file
    ds = Dataset([Trace({"x": [5.0, 5.0]}, 1.0), Trace({"x": [0.0, 0.0]}, 1.0)], [1, 0])
    good = tmp_path / "good"
    save_csv_dir(ds, good)
    assert main(["learn", "--data", str(good), "--out", str(tmp_path), "--quiet"]) == 1
    (good / "sub").mkdir()
    (good / "labels.csv").write_text("file,label\ntrace_000.csv,1\nsub,0\n")
    assert main(["learn", "--data", str(good), "--out", str(tmp_path / "r.json")]) == 1
    assert main(["gen-data", "--case", "steps", "--out", str(good / "labels.csv")]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 3 and "Traceback" not in err
    # a manifest that is not UTF-8
    (good / "labels.csv").write_bytes(b"\xff\xfetrace_000.csv,1\n")
    assert main(["learn", "--data", str(good), "--out", str(tmp_path / "r.json")]) == 1
    assert f"error: {good / 'labels.csv'}: not UTF-8" in capsys.readouterr().err


def test_learn_bad_split_and_signals(flat_dataset_dir, tmp_path, capsys):
    base = ["learn", "--data", str(flat_dataset_dir), "--out", str(tmp_path / "r.json")]
    with pytest.raises(SystemExit) as e:
        main(base + ["--split", "1.5"])
    assert e.value.code == 2
    assert main(base + ["--signals", "zz"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("spec", [",", " , ", ""])
def test_signals_naming_no_signal_are_usage_errors(spec, flat_dataset_dir, tmp_path, capsys):
    out = tmp_path / "r.json"
    for argv in (["learn", "--data", str(flat_dataset_dir), "--out", str(out)],
                 ["enumerate", "--max-length", "2"]):
        with pytest.raises(SystemExit) as e:
            main(argv + ["--signals", spec])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert f"usage: stlmine {argv[0]}" in captured.err
        assert "--signals names no signal" in captured.err
        assert captured.out == ""
    assert not out.exists()


def test_repeated_signal_names_count_once(tmp_path, capsys):
    assert main(["enumerate", "--signals", "x,x", "--max-length", "1", "--quiet"]) == 0
    assert capsys.readouterr().out.splitlines() == ["1\tx > $p1", "1\tx < $p1"]
    assert main(["enumerate", "--signals", " y, x ,y", "--max-length", "1", "--quiet"]) == 0
    assert [ln.split("\t")[1] for ln in capsys.readouterr().out.splitlines()] == [
        "y > $p1", "y < $p1", "x > $p1", "x < $p1"]
    # x does not separate the labels, so every length-1 template is tried
    ds = Dataset([Trace({"x": [v, v], "y": [1.0, 1.0]}, 1.0) for v in (0.0, 1.0, 0.0, 1.0)],
                 [1, 1, 0, 0])
    save_csv_dir(ds, tmp_path / "data")
    reports = []
    for spec in ("x", "x,x", "x, x ,x"):
        out = tmp_path / "r.json"
        assert main(["learn", "--data", str(tmp_path / "data"), "--out", str(out),
                     "--max-length", "1", "--signals", spec, "--quiet"]) == 0
        report = json.loads(out.read_text())
        del report["stats"]["elapsed_ms"]
        reports.append(report)
    assert reports[0]["stats"]["templates_tried"] == 2
    assert reports[0]["found"] is False
    assert reports[1] == reports[2] == reports[0]


def test_learn_split_leaving_no_test_trace_exits_1(tmp_path, capsys):
    ds = Dataset([Trace({"x": [5.0, 5.0]}, 1.0), Trace({"x": [0.0, 0.0]}, 1.0)], [1, 0])
    data = tmp_path / "one_per_label"
    save_csv_dir(ds, data)
    out = tmp_path / "r.json"
    assert main(["learn", "--data", str(data), "--out", str(out), "--split", "0.5"]) == 1
    captured = capsys.readouterr()
    assert "error: split leaves the test set empty" in captured.err
    assert not out.exists()


def test_learn_trace_missing_time_zero_names_the_file(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    (data / "a.csv").write_text("time,x\n0.0,5.0\n0.1,5.0\n0.2,5.0\n")
    (data / "b.csv").write_text("time,x\n0.3,0.0\n0.4,0.0\n0.5,0.0\n")
    (data / "labels.csv").write_text("file,label\na.csv,1\nb.csv,0\n")
    out = tmp_path / "r.json"
    assert main(["learn", "--data", str(data), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "b.csv" in captured.err and "t=0" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_monitor_sat_and_unsat(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    trace.write_text(TRACE_CSV)
    assert main(["monitor", "--formula", "x > 3", "--trace", str(trace)]) == 0
    assert capsys.readouterr().out == "SAT robustness=2.0\n"
    assert main(["monitor", "--formula", "x > 7", "--trace", str(trace)]) == 0
    assert capsys.readouterr().out == "UNSAT robustness=-2.0\n"
    # zero robustness lands on the violating side
    assert main(["monitor", "--formula", "x > 5", "--trace", str(trace)]) == 0
    assert capsys.readouterr().out.startswith("UNSAT")


def test_monitor_evaluation_time(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    trace.write_text("time,x\n0.0,1.0\n1.0,9.0\n")
    assert main(["monitor", "--formula", "x > 5", "--trace", str(trace), "--time", "1.0"]) == 0
    assert capsys.readouterr().out == "SAT robustness=4.0\n"


def test_monitor_rejects_bad_formulas(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    trace.write_text(TRACE_CSV)
    assert main(["monitor", "--formula", "x >", "--trace", str(trace)]) == 2
    assert main(["monitor", "--formula", "x > $c", "--trace", str(trace)]) == 2
    assert "parameters" in capsys.readouterr().err
    assert main(["monitor", "--formula", "x > 1", "--trace", str(tmp_path / "no.csv")]) == 1
    capsys.readouterr()
    trace.write_bytes(b"\xff\xfe" + TRACE_CSV.encode())
    assert main(["monitor", "--formula", "x > 1", "--trace", str(trace)]) == 1
    assert f"error: {trace}: not UTF-8" in capsys.readouterr().err


def test_monitor_rejects_overflowing_literals(tmp_path, capsys):
    # 1e400 overflows to inf: a usage error with its position, not a traceback
    # from the window arithmetic or a silently saturated score
    trace = tmp_path / "t.csv"
    trace.write_text(TRACE_CSV)
    for formula in ("F[0,1e400](x > 0)", "x > 1e400"):
        assert main(["monitor", "--formula", formula, "--trace", str(trace)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --formula: 1:" in captured.err
        assert "out of the range of a float" in captured.err


def test_monitor_window_far_past_the_trace(tmp_path, capsys):
    # at a period of 0.5 the window end's sample index overflows a float; the
    # window clips to the trace
    trace = tmp_path / "t.csv"
    trace.write_text("time,x\n0.0,5.0\n0.5,5.0\n1.0,5.0\n")
    assert main(["monitor", "--formula", "F[0,1e308](x > 3)", "--trace", str(trace)]) == 0
    assert capsys.readouterr().out == "SAT robustness=2.0\n"


def test_enumerate_prints_length_and_template(capsys):
    assert main(["enumerate", "--signals", "x", "--max-length", "2", "--quiet"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # default grammar skips negated atoms whose complement is present
    assert lines[0] == "1\tx > $p1"
    assert lines[1] == "1\tx < $p1"
    assert len(lines) == 6
    assert all("\t" in ln for ln in lines)


def test_enumerate_flags(capsys):
    assert main(["enumerate", "--signals", "x", "--max-length", "3", "--no-negation",
                 "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "not" not in out
    assert main(["enumerate", "--signals", "x", "--max-length", "2",
                 "--two-sided-intervals", "--quiet"]) == 0
    assert "F[$p1,$p2](x > $p3)" in capsys.readouterr().out


def test_enumerate_reports_total_on_stderr(capsys):
    assert main(["enumerate", "--signals", "x", "--max-length", "1"]) == 0
    assert "emitted 2 templates" in capsys.readouterr().err


def test_gen_data_roundtrip(tmp_path, capsys):
    out = tmp_path / "osc"
    assert main(["gen-data", "--case", "oscillator", "--out", str(out)]) == 0
    assert "wrote 31 traces" in capsys.readouterr().out
    ds = load_csv_dir(out)
    assert ds.n == 31
    assert (out / "labels.csv").exists()
    assert (out / "trace_000.csv").exists()


def test_gen_data_unknown_case_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["gen-data", "--case", "weather", "--out", "x"])
    assert e.value.code == 2
    capsys.readouterr()
