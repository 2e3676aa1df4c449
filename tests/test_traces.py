"""Trace/Dataset model and CSV round-trips."""
from __future__ import annotations

import warnings

import numpy as np
import pytest

from stlmine.errors import DataFormatError, UnknownSignalError
from stlmine.traces import (
    Dataset,
    Trace,
    load_csv_dir,
    load_trace_csv,
    read_label_manifest,
    save_csv_dir,
    save_trace_csv,
    split_dataset,
)


def test_trace_basic_properties():
    tr = Trace({"x": [1.0, 2.0, 3.0], "y": [0.0, 0.5, 1.0]}, 0.5, start_time=1.0)
    assert tr.n_samples == 3
    assert tr.signal_names == ("x", "y")
    assert tr.duration == 1.0
    assert tr.end_time == 2.0
    assert list(tr.times()) == [1.0, 1.5, 2.0]
    assert tr.value_at("y", 1.5) == 0.5
    assert tr.contains_time(2.0) and not tr.contains_time(2.1)
    with pytest.raises(UnknownSignalError):
        tr.values("z")


def test_trace_rejects_bad_shapes():
    with pytest.raises(Exception):
        Trace({"x": [1.0, 2.0], "y": [1.0]}, 1.0)
    with pytest.raises(Exception):
        Trace({"x": []}, 1.0)
    with pytest.raises(Exception):
        Trace({"x": [1.0]}, 0.0)
    with pytest.raises(Exception):
        Trace({"x": [1.0, np.nan]}, 1.0)


def test_dataset_counts_and_selection():
    t = Trace({"x": [0.0]}, 1.0)
    ds = Dataset([t, t, t], [1, 0, 1])
    assert ds.n == 3
    assert ds.count(1) == 2 and ds.count(0) == 1
    assert len(ds.with_label(1)) == 2
    assert ds.signal_names == ("x",)
    with pytest.raises(Exception):
        Dataset([t], [2])
    with pytest.raises(Exception):
        Dataset([t, t], [1])


def test_trace_csv_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    tr = Trace(
        {"x": rng.standard_normal(17) * 1e3, "y": rng.standard_normal(17) * 1e-7},
        period=0.125,
        start_time=2.25,
    )
    path = tmp_path / "t.csv"
    save_trace_csv(tr, path)
    back = load_trace_csv(path)
    assert back.period == tr.period
    assert back.start_time == tr.start_time
    for name in ("x", "y"):
        assert np.array_equal(back.values(name), tr.values(name))


def test_load_trace_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("time,x\n0,1\n2,3\n")  # gap 2 after gap... single diff is fine
    load_trace_csv(p)  # two rows define the period
    p.write_text("time,x\n0,1\n1,2\n3,4\n")
    with pytest.raises(DataFormatError):
        load_trace_csv(p)  # non-uniform sampling
    p.write_text("x,y\n0,1\n")
    with pytest.raises(DataFormatError):
        load_trace_csv(p)  # missing time column
    p.write_text("time,x\n0,abc\n")
    with pytest.raises(DataFormatError):
        load_trace_csv(p)
    p.write_text("")
    with pytest.raises(DataFormatError):
        load_trace_csv(p)
    p.write_text("time,x\n1,5\n0,6\n")
    with pytest.raises(DataFormatError):
        load_trace_csv(p)  # decreasing timestamps
    p.write_bytes("time,x\n0,1\n".encode("utf-16"))
    with pytest.raises(DataFormatError, match=r"bad\.csv: not UTF-8"):
        load_trace_csv(p)


def test_load_trace_csv_errors_name_file_lines(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("time,x\n\n0,1\n1,abc\n")
    with pytest.raises(DataFormatError, match=r"t\.csv:4: "):
        load_trace_csv(p)


@pytest.mark.parametrize("body, message", [
    ("0,1\n1,nan\n", r"t\.csv:3: non-finite value 'nan' in column 'x'$"),
    ("0,1\n1,-inf\n", r"t\.csv:3: non-finite value '-inf' in column 'x'$"),
    ("0,1\n1, 1e400\n", r"t\.csv:3: non-finite value '1e400' in column 'x'$"),
    ("0,1\n\ninf,2\n", r"t\.csv:4: non-finite value 'inf' in column 'time'$"),
    ("nan,1\n", r"t\.csv:2: non-finite value 'nan' in column 'time'$"),
], ids=["nan", "-inf", "overflow", "inf-time", "one-nan-time"])
def test_non_finite_cells_name_the_file_line(tmp_path, body, message):
    p = tmp_path / "t.csv"
    p.write_text("time,x\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy warning on the way
        with pytest.raises(DataFormatError, match=message):
            load_trace_csv(p)


def test_trace_rejects_a_non_finite_start_time():
    for start in (np.nan, np.inf, -np.inf):
        with pytest.raises(DataFormatError, match="start time must be finite"):
            Trace({"x": [1.0]}, 1.0, start_time=start)


@pytest.mark.parametrize("header", ["time,x,", "time,,x", "time, "])
def test_empty_signal_names_are_refused(tmp_path, header):
    p = tmp_path / "t.csv"
    p.write_text(header + "\n" + ",".join(["0"] * len(header.split(","))) + "\n")
    with pytest.raises(DataFormatError, match=r"t\.csv: signal names must be non-empty"):
        load_trace_csv(p)


def test_a_header_without_samples_is_refused(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("time,x\n\n")
    with pytest.raises(DataFormatError, match=r"t\.csv: no samples after the header"):
        load_trace_csv(p)


def test_non_uniform_timestamps_name_the_file_line(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("time,x\n0,1\n\n1,2\n1.5,3\n")
    with pytest.raises(DataFormatError, match=r"\(line 5: gap"):
        load_trace_csv(p)


def test_non_uniform_timestamps_print_plain_numbers(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("time,x\n0,1\n1,2\n1.5,3\n")
    with pytest.raises(DataFormatError, match=r"gap 0\.5 vs period 1\.0\)$"):
        load_trace_csv(p)


def test_load_trace_csv_accepts_byte_order_mark(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes(b"\xef\xbb\xbftime,x\n0,1\n1,2\n")
    tr = load_trace_csv(p)
    assert tr.signal_names == ("x",)
    assert tr.values("x").tolist() == [1.0, 2.0]


def test_label_manifest_accepts_byte_order_mark(tmp_path):
    m = tmp_path / "labels.csv"
    m.write_bytes(b"\xef\xbb\xbffile,label\na.csv,1\nb.csv,0\n")
    assert read_label_manifest(m) == [("a.csv", 1), ("b.csv", 0)]


def test_label_manifest(tmp_path):
    m = tmp_path / "labels.csv"
    m.write_text("filename,label\na.csv,1\nb.csv,0\n")
    assert read_label_manifest(m) == [("a.csv", 1), ("b.csv", 0)]
    m.write_text("a.csv,1\n")  # header row optional
    assert read_label_manifest(m) == [("a.csv", 1)]
    m.write_text("a.csv,2\n")
    with pytest.raises(DataFormatError):
        read_label_manifest(m)
    m.write_text("a.csv\n")
    with pytest.raises(DataFormatError):
        read_label_manifest(m)
    m.write_bytes("a.csv,1\n".encode("utf-16"))
    with pytest.raises(DataFormatError, match=r"labels\.csv: not UTF-8"):
        read_label_manifest(m)


@pytest.mark.parametrize("header", ["filename,label", "file,label"])
def test_label_manifest_header_and_line_numbers(tmp_path, header):
    m = tmp_path / "labels.csv"
    m.write_text(f"{header}\na.csv,1\n\nb.csv,0\n")
    assert read_label_manifest(m) == [("a.csv", 1), ("b.csv", 0)]
    # errors name the line as it appears in the file, past the header and blanks
    m.write_text(f"{header}\na.csv,1\nb.csv,2\n")
    with pytest.raises(DataFormatError, match=r"labels\.csv:3: label must be 0 or 1"):
        read_label_manifest(m)
    m.write_text(f"{header}\n\na.csv,1\n\nb.csv\n")
    with pytest.raises(DataFormatError, match=r"labels\.csv:5: expected"):
        read_label_manifest(m)


def test_dataset_dir_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    traces = [Trace({"x": rng.standard_normal(9)}, 0.5) for _ in range(4)]
    ds = Dataset(traces, [1, 1, 0, 0])
    out = tmp_path / "d"
    save_csv_dir(ds, out)
    back = load_csv_dir(out)
    assert back.n == 4
    assert back.labels == [1, 1, 0, 0]
    for a, b in zip(back.traces, ds.traces):
        assert np.array_equal(a.values("x"), b.values("x"))
        assert a.period == b.period
    assert back.names == [f"trace_{i:03d}.csv" for i in range(4)]


def test_load_csv_dir_missing_file(tmp_path):
    (tmp_path / "labels.csv").write_text("filename,label\nnope.csv,1\n")
    with pytest.raises(DataFormatError):
        load_csv_dir(tmp_path)


def test_load_csv_dir_single_sample_with_float_rounded_periods(tmp_path):
    # 0.4 - 0.3 is 0.10000000000000003, a few ulps off the 0.1 of a.csv
    (tmp_path / "a.csv").write_text("time,x\n0.0,1\n0.1,2\n0.2,3\n")
    (tmp_path / "b.csv").write_text("time,x\n0.3,1\n0.4,2\n0.5,3\n")
    (tmp_path / "c.csv").write_text("time,x\n0.0,5\n")
    (tmp_path / "labels.csv").write_text("a.csv,1\nb.csv,0\nc.csv,1\n")
    ds = load_csv_dir(tmp_path)
    assert ds.traces[2].period == ds.traces[0].period == 0.1
    assert ds.traces[1].period != 0.1


def test_load_csv_dir_single_class_flag(tmp_path):
    t = Trace({"x": [1.0, 2.0]}, 1.0)
    save_csv_dir(Dataset([t, t], [1, 1]), tmp_path / "d")
    ds = load_csv_dir(tmp_path / "d")  # fine by default
    assert ds.count(1) == 2
    with pytest.raises(DataFormatError):
        load_csv_dir(tmp_path / "d", require_both_classes=True)


def test_split_dataset_stratified_deterministic():
    t = Trace({"x": [0.0]}, 1.0)
    ds = Dataset([t] * 10, [1] * 6 + [0] * 4)
    tr, te = split_dataset(ds, 0.5, seed=3)
    assert tr.count(1) == 3 and tr.count(0) == 2
    assert te.count(1) == 3 and te.count(0) == 2
    tr2, te2 = split_dataset(ds, 0.5, seed=3)
    assert tr2.labels == tr.labels and te2.labels == te.labels
    with pytest.raises(ValueError):
        split_dataset(ds, 1.5)


def test_split_keeps_at_least_one_per_side():
    t = Trace({"x": [0.0]}, 1.0)
    ds = Dataset([t, t, t], [1, 1, 0])
    tr, te = split_dataset(ds, 0.9, seed=0)
    assert te.n >= 1 and tr.n >= 1
