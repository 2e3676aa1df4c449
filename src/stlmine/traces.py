"""Uniformly sampled multi-signal traces, labeled datasets, and CSV I/O.

Trace CSV format: header ``time,<sig1>,<sig2>,...`` then one row per sample,
UTF-8, ``.`` decimal separator.  A label manifest is a CSV of ``filename,label``
rows with label 0 or 1; a ``filename,label`` or ``file,label`` header row is
optional.  Both may start with a UTF-8 byte-order mark, blank lines are
skipped, and error messages give file line numbers.
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DataFormatError, TraceDomainError, UnknownSignalError

# tolerated relative deviation between consecutive timestamp gaps and the period
TIMESTAMP_RTOL = 1e-6

# slack, in fractions of a sample index, when snapping times and window ends
# onto the sample grid (here and in the monitor)
_EPS = 1e-9

# tolerated relative difference between the periods of traces in one dataset
_PERIOD_RTOL = 1e-9


class Trace:
    """A finite, uniformly sampled recording of one or more named signals.

    Values between samples follow the previous sample (piecewise-constant hold).
    """

    __slots__ = ("_signals", "signal_names", "period", "start_time", "n_samples")

    def __init__(self, signals, period, start_time=0.0):
        period, start_time = float(period), float(start_time)
        if not (period > 0) or not math.isfinite(period):
            raise DataFormatError(f"period must be positive and finite, got {period}")
        if not math.isfinite(start_time):
            raise DataFormatError(f"start time must be finite, got {start_time}")
        store: dict[str, np.ndarray] = {}
        n = None
        for name, values in dict(signals).items():
            arr = np.asarray(values, dtype=np.float64).copy()
            if arr.ndim != 1 or arr.size == 0:
                raise DataFormatError(f"signal {name!r} must be a non-empty 1-d array")
            if not np.isfinite(arr).all():
                raise DataFormatError(f"signal {name!r} contains NaN or infinite samples")
            if n is None:
                n = arr.size
            elif arr.size != n:
                raise DataFormatError(
                    f"signal {name!r} has {arr.size} samples, expected {n}"
                )
            arr.setflags(write=False)
            store[name] = arr
        if not store:
            raise DataFormatError("a trace needs at least one signal")
        self._signals = store
        self.signal_names: tuple[str, ...] = tuple(store)
        self.period = period
        self.start_time = start_time
        self.n_samples = n

    @property
    def duration(self) -> float:
        return (self.n_samples - 1) * self.period

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration

    def times(self) -> np.ndarray:
        return self.start_time + self.period * np.arange(self.n_samples)

    def values(self, signal: str) -> np.ndarray:
        try:
            return self._signals[signal]
        except KeyError:
            raise UnknownSignalError(
                f"trace has no signal {signal!r} (has {', '.join(self._signals)})"
            ) from None

    def sample_index(self, t: float) -> int:
        """Index of the sample whose value holds at time t."""
        if not self.contains_time(t):
            raise TraceDomainError(
                f"t={t} outside trace domain [{self.start_time}, {self.end_time}]"
            )
        k = math.floor((t - self.start_time) / self.period + _EPS)
        return min(max(k, 0), self.n_samples - 1)

    def contains_time(self, t: float) -> bool:
        slack = _EPS * self.period
        return self.start_time - slack <= t <= self.end_time + slack

    def value_at(self, signal: str, t: float) -> float:
        return float(self.values(signal)[self.sample_index(t)])

    def __repr__(self):
        sigs = ",".join(self._signals)
        return (
            f"Trace({sigs}; n={self.n_samples}, period={self.period}, "
            f"start={self.start_time})"
        )


@dataclass
class Dataset:
    """Traces with binary labels. All traces share signal names and period."""

    traces: list[Trace]
    labels: list[int]
    names: list[str] = field(default_factory=list)  # optional per-trace file names

    def __post_init__(self):
        if len(self.traces) != len(self.labels):
            raise DataFormatError(
                f"{len(self.traces)} traces but {len(self.labels)} labels"
            )
        if not self.traces:
            raise DataFormatError("dataset has no traces")
        for lab in self.labels:
            if lab not in (0, 1):
                raise DataFormatError(f"labels must be 0 or 1, got {lab!r}")
        ref = self.traces[0]
        for tr in self.traces[1:]:
            if tr.signal_names != ref.signal_names:
                raise DataFormatError(
                    f"signal mismatch across traces: {tr.signal_names} vs {ref.signal_names}"
                )
            if not math.isclose(tr.period, ref.period, rel_tol=_PERIOD_RTOL):
                raise DataFormatError(
                    f"period mismatch across traces: {tr.period} vs {ref.period}"
                )
        if self.names and len(self.names) != len(self.traces):
            raise DataFormatError("names, when given, must match traces 1:1")

    @property
    def n(self) -> int:
        return len(self.traces)

    @property
    def signal_names(self) -> tuple[str, ...]:
        return self.traces[0].signal_names

    @property
    def period(self) -> float:
        return self.traces[0].period

    @cached_property
    def signal_ranges(self) -> dict[str, tuple[float, float]]:
        """(min, max) of each signal over all traces, computed once."""
        return {
            name: (
                min(float(tr.values(name).min()) for tr in self.traces),
                max(float(tr.values(name).max()) for tr in self.traces),
            )
            for name in self.signal_names
        }

    @cached_property
    def min_duration(self) -> float:
        """Duration of the shortest trace, computed once."""
        return min(tr.duration for tr in self.traces)

    def with_label(self, label: int) -> list[Trace]:
        return [tr for tr, lab in zip(self.traces, self.labels) if lab == label]

    def count(self, label: int) -> int:
        return sum(1 for lab in self.labels if lab == label)


# ---------------------------------------------------------------------------
# CSV I/O

def _utf8_csv(path):
    """Yield ``(file line number, row)`` for each non-blank row of a UTF-8 CSV
    file, a leading byte-order mark dropped; other bytes raise a
    DataFormatError naming the file."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if any(cell.strip() for cell in row):
                    yield reader.line_num, row
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def load_trace_csv(path) -> Trace:
    """Read one trace file. The sampling period is taken from the timestamps;
    a single-row file gets period 1.0 by convention."""
    rows = list(_utf8_csv(path))
    if not rows:
        raise DataFormatError(f"{path}: empty trace file")
    header = [c.strip() for c in rows[0][1]]
    if not header or header[0] != "time" or len(header) < 2:
        raise DataFormatError(f"{path}: header must be 'time,<sig1>,...', got {header}")
    sig_names = header[1:]
    if not all(sig_names) or len(set(sig_names)) != len(sig_names):
        raise DataFormatError(f"{path}: signal names must be non-empty and distinct, got {header}")
    if len(rows) == 1:
        raise DataFormatError(f"{path}: no samples after the header")
    data = []
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise DataFormatError(
                f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}"
            )
        try:
            data.append([float(cell) for cell in row])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
    arr = np.asarray(data, dtype=np.float64)
    if not np.isfinite(arr).all():  # 'nan', 'inf', or text like '1e400' that overflows
        i, j = np.argwhere(~np.isfinite(arr))[0]
        lineno, row = rows[i + 1]
        raise DataFormatError(
            f"{path}:{lineno}: non-finite value {row[j].strip()!r} in column {header[j]!r}")
    times = arr[:, 0]
    if arr.shape[0] == 1:
        period = 1.0
    else:
        diffs = np.diff(times)
        period = float(diffs[0])
        if period <= 0:
            raise DataFormatError(f"{path}: timestamps must be strictly increasing")
        if np.abs(diffs - period).max() > TIMESTAMP_RTOL * period:
            i = int(np.abs(diffs - period).argmax())
            # gap i ends at data row i + 1, which is rows[i + 2] past the header
            raise DataFormatError(
                f"{path}: non-uniform timestamps (line {rows[i + 2][0]}: gap "
                f"{float(diffs[i])!r} vs period {period!r})"
            )
    signals = {name: arr[:, j + 1] for j, name in enumerate(sig_names)}
    return Trace(signals, period=period, start_time=float(times[0]))


def save_trace_csv(trace: Trace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", *trace.signal_names])
        cols = [trace.times(), *(trace.values(name) for name in trace.signal_names)]
        # repr of a Python float round-trips bit-exactly through text
        writer.writerows(zip(*(map(repr, col.tolist()) for col in cols)))


def read_label_manifest(path) -> list[tuple[str, int]]:
    rows = list(_utf8_csv(path))
    if not rows:
        raise DataFormatError(f"{path}: empty label manifest")
    if [c.strip().lower() for c in rows[0][1]] in (["filename", "label"], ["file", "label"]):
        rows = rows[1:]
    out = []
    for lineno, row in rows:
        if len(row) != 2:
            raise DataFormatError(f"{path}:{lineno}: expected 'filename,label' rows")
        name, label_text = row[0].strip(), row[1].strip()
        if label_text not in ("0", "1"):
            raise DataFormatError(
                f"{path}:{lineno}: label must be 0 or 1, got {label_text!r}"
            )
        out.append((name, int(label_text)))
    if not out:
        raise DataFormatError(f"{path}: no labeled files")
    return out


def load_csv_dir(path, manifest=None, require_both_classes=False) -> Dataset:
    """Load every trace named by the manifest (default ``<path>/labels.csv``).

    Dataset order follows manifest order.  Files in the directory that the
    manifest does not mention are ignored.  Single-sample traces adopt the
    period of the first multi-sample trace, when all multi-sample periods
    agree within the dataset's tolerance, so mixed-length directories stay
    consistent.
    """
    manifest = manifest if manifest is not None else os.path.join(path, "labels.csv")
    entries = read_label_manifest(manifest)
    traces = []
    labels = []
    names = []
    for name, label in entries:
        fpath = os.path.join(path, name)
        if not os.path.exists(fpath):
            raise DataFormatError(f"{manifest}: referenced file {name!r} not found")
        traces.append(load_trace_csv(fpath))
        labels.append(label)
        names.append(name)
    periods = [tr.period for tr in traces if tr.n_samples > 1]
    # timestamps like 0.3, 0.4, 0.5 give a period a few ulps off 0.1
    if periods and all(math.isclose(p, periods[0], rel_tol=_PERIOD_RTOL) for p in periods):
        common = periods[0]
        traces = [
            Trace({s: tr.values(s) for s in tr.signal_names}, common, tr.start_time)
            if tr.n_samples == 1
            else tr
            for tr in traces
        ]
    ds = Dataset(traces, labels, names)
    if require_both_classes and (ds.count(0) == 0 or ds.count(1) == 0):
        raise DataFormatError("dataset must contain both label-0 and label-1 traces")
    return ds


def save_csv_dir(ds: Dataset, path) -> None:
    """Write ``trace_NNN.csv`` files plus a ``labels.csv`` manifest."""
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "labels.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["filename", "label"])
        for i, (trace, label) in enumerate(zip(ds.traces, ds.labels)):
            name = ds.names[i] if ds.names else f"trace_{i:03d}.csv"
            save_trace_csv(trace, os.path.join(path, name))
            writer.writerow([name, label])


def split_dataset(ds: Dataset, train_fraction: float, seed: int = 0):
    """Deterministic stratified split into (train, test)."""
    if not (0 < train_fraction < 1):
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    rng = np.random.default_rng([int(seed), 97])
    train_idx: list[int] = []
    test_idx: list[int] = []
    for label in (0, 1):
        idx = [i for i, lab in enumerate(ds.labels) if lab == label]
        if not idx:
            continue
        perm = rng.permutation(len(idx))
        cut = int(round(train_fraction * len(idx)))
        cut = min(max(cut, 1), len(idx) - 1) if len(idx) > 1 else 1
        train_idx.extend(idx[j] for j in perm[:cut])
        test_idx.extend(idx[j] for j in perm[cut:])
    train_idx.sort()
    test_idx.sort()
    if not test_idx:
        raise DataFormatError("split leaves the test set empty")

    def take(indices):
        return Dataset(
            [ds.traces[i] for i in indices],
            [ds.labels[i] for i in indices],
            [ds.names[i] for i in indices] if ds.names else [],
        )

    return take(train_idx), take(test_idx)
