"""CSV ingestion, chronological windowing, and synthetic series.

Rows are time steps, columns are variables.  Splits are chronological with
no shuffling across boundaries, and z-score statistics come from the rows
the training windows touch, never from validation or test rows.

A CSV is read once, as UTF-8 with or without a byte-order mark, and written
as UTF-8.  A plain numeric file is parsed by numpy's C reader; any other file
takes ``parse_csv``, the ``csv.reader`` and ``float`` path, which alone names
a defect.  Both give the same values and columns.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class SeriesDataset:
    values: np.ndarray
    columns: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError(f"series must be 2-d [rows, variables], got shape {self.values.shape}")
        if not self.columns:
            self.columns = [f"v{i}" for i in range(self.values.shape[1])]
        if len(self.columns) != self.values.shape[1]:
            raise ValueError(f"{len(self.columns)} column names for {self.values.shape[1]} variables")


# ASCII separators that numpy's reader strips around a number as whitespace, and float does not
_SEPARATORS = "\x1c\x1d\x1e\x1f"
# train, validation and test shares of the windows when none are given
DEFAULT_SPLIT = (0.7, 0.1, 0.2)


def load_csv(path: str, has_header: bool = False) -> SeriesDataset:
    """Read a numeric CSV as UTF-8 text.  A plain file is parsed by numpy's C
    reader; any other goes to ``parse_csv``, which gives the same values and
    names the first defect."""
    text = read_utf8(path)
    plain = _parse_plain(text, has_header)
    return plain if plain is not None else parse_csv(path, text, has_header)


def read_utf8(path: str) -> str:
    """The text of the file at ``path``, decoded as UTF-8 without one leading
    byte-order mark; a byte that is not UTF-8 is named by its offset in the file."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        return raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise ValueError(f"{path}: not UTF-8 text: byte 0x{raw[e.start]:02x} at offset {e.start} "
                         f"(line {line}): {e.reason}") from None


def _parse_plain(text: str, has_header: bool) -> SeriesDataset | None:
    """The series numpy's C reader reads from ``text``, or None for a file
    that only ``parse_csv`` reads right.

    The reader ends a line at LF or CRLF and fails on a CR inside one, skips
    only empty lines, takes no quote, and converts a cell with the function
    ``float`` calls, so it fails on underscores and non-ASCII digits.  It
    strips the ASCII separators as whitespace, which ``float`` does not, so
    a file holding one goes to the csv path.  Non-finite cells, a header
    whose width differs from the data's, and a header that is quoted or
    split by a lone CR go there too, to be named.
    """
    if any(c in text for c in _SEPARATORS):
        return None
    lines = text.split("\n")
    columns: list[str] = []
    if has_header:  # the first line with a non-blank cell; the blank ones before it are skipped
        k = next((k for k, line in enumerate(lines) if line.replace(",", "").strip()), None)
        if k is None:
            return None
        header = lines[k].removesuffix("\r")
        if '"' in header or "\r" in header:
            return None
        columns = [c.strip() for c in header.split(",")]
        del lines[:k + 1]
    if not any(map(str.strip, lines)):  # the reader warns on input with no data line
        return None
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    if not np.isfinite(data).all() or (has_header and len(columns) != data.shape[1]):
        return None
    return SeriesDataset(values=data, columns=columns)


def parse_csv(path: str, text: str, has_header: bool = False) -> SeriesDataset:
    """Parse CSV ``text``, read from ``path``, with ``csv.reader`` and ``float``,
    skipping blank rows.  A header must name as many columns as data row 0 has
    cells.  The first defect is named by row and column: rows in file order, a
    row's width before its cells, and a non-finite cell only once every cell
    parses."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = [row for row in reader if "".join(row).strip()]
    except csv.Error as e:  # a field longer than csv.field_size_limit()
        raise ValueError(f"{path}: line {reader.line_num}: {e}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    columns: list[str] = []
    if has_header:
        columns = [c.strip() for c in rows[0]]
        rows = rows[1:]
        if not rows:
            raise ValueError(f"{path}: header only, no data rows")
        if len(columns) != len(rows[0]):
            raise ValueError(f"{path}: header has {len(columns)} names, data row 0 has {len(rows[0])} cells")
    width = len(rows[0])
    cells: list[float] = []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{path}: row {i} has {len(row)} cells, expected {width}")
        for j, cell in enumerate(row):
            try:
                cells.append(float(cell))
            except ValueError:
                raise ValueError(f"{path}: non-numeric cell {cell.strip()!r} at row {i}, column {j}") from None
    data = np.array(cells, dtype=np.float64).reshape(len(rows), width)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"{path}: non-finite cell {rows[i][j].strip()!r} at row {i}, column {j}")
    return SeriesDataset(values=data, columns=columns)


def write_csv(path: str, values: np.ndarray, columns: list[str] | None = None) -> None:
    rows = np.atleast_2d(np.asarray(values)).tolist()
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        if columns:
            writer.writerow(columns)
        writer.writerows([format(v, ".10g") for v in row] for row in rows)


@dataclass
class WindowSplits:
    """Stride-1 history/target window pairs, split chronologically."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    mean: np.ndarray
    std: np.ndarray

    def counts(self) -> tuple[int, int, int]:
        return self.x_train.shape[0], self.x_val.shape[0], self.x_test.shape[0]


def window_count(rows: int, history: int, horizon: int) -> int:
    return rows - history - horizon + 1


def normalization_stats(values: np.ndarray, train_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-variable mean/std over the first ``train_rows`` rows; std floored."""
    seg = values[:train_rows]
    mean = seg.mean(axis=0)
    std = np.maximum(seg.std(axis=0), 1e-8)
    return mean, std


def check_split(split: tuple[float, float, float]) -> None:
    """Refuse split ratios that are not finite and nonnegative or that sum to more than 1."""
    if not (all(0 <= r < math.inf for r in split) and sum(split) <= 1.0 + 1e-9):
        raise ValueError(f"split ratios must be finite, nonnegative and sum to at most 1, got {split}")


def make_windows(ds: SeriesDataset, history: int, horizon: int,
                 split: tuple[float, float, float] = DEFAULT_SPLIT,
                 stats: tuple[np.ndarray, np.ndarray] | None = None) -> WindowSplits:
    """Slice a series into normalized (history, horizon) window pairs.

    With M = rows - history - horizon + 1 total stride-1 windows, each split
    receives floor(ratio * M) consecutive window start positions in
    chronological order; leftover windows at the end are dropped.  Pass
    ``stats`` to normalize with externally fixed mean/std (model reuse);
    otherwise the statistics come from the rows the training windows cover.
    """
    rows, width = ds.values.shape
    M = window_count(rows, history, horizon)
    if M <= 0:
        raise ValueError(f"series has {rows} rows; need at least history + horizon = {history + horizon}")
    check_split(split)
    n_tr = math.floor(split[0] * M)
    n_va = math.floor(split[1] * M)
    n_te = math.floor(split[2] * M)

    if stats is None:
        if n_tr == 0:
            raise ValueError("no training windows to compute normalization statistics from; "
                             "pass explicit stats or enlarge the training ratio")
        # rows touched by training windows: starts 0..n_tr-1, each spanning H+G rows
        mean, std = normalization_stats(ds.values, n_tr + history + horizon - 1)
    else:
        mean, std = (np.asarray(s, dtype=np.float64) for s in stats)
    z = (ds.values - mean) / std

    win = np.lib.stride_tricks.sliding_window_view(z, history + horizon, axis=0)
    win = win.transpose(0, 2, 1)  # [M, history+horizon, width]

    def take(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        w = win[lo:hi]
        return w[:, :history].copy(), w[:, history:].copy()

    x_tr, y_tr = take(0, n_tr)
    x_va, y_va = take(n_tr, n_tr + n_va)
    x_te, y_te = take(n_tr + n_va, n_tr + n_va + n_te)
    return WindowSplits(x_train=x_tr, y_train=y_tr, x_val=x_va, y_val=y_va,
                        x_test=x_te, y_test=y_te, mean=mean, std=std)


def denormalize(pred: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return pred * std + mean


def make_coupled_sinusoids(n_steps: int = 2000, noise: float = 0.05,
                           period: float = 24.0, seed: int = 0) -> SeriesDataset:
    """Two noisy sinusoids sharing a base oscillation, one phase-shifted.

    The second variable mixes a shifted copy of the oscillation with the
    first variable's clean base, so forecasting either benefits from the
    other; noise is i.i.d. Gaussian per step.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(n_steps, dtype=np.float64)
    base = np.sin(2.0 * np.pi * t / period)
    x1 = base + noise * rng.standard_normal(n_steps)
    x2 = 0.7 * np.sin(2.0 * np.pi * t / period + 1.0) + 0.3 * base \
        + noise * rng.standard_normal(n_steps)
    return SeriesDataset(values=np.stack([x1, x2], axis=1),
                         columns=["s1", "s2"])
