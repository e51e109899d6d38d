"""Windowing, normalization hygiene, CSV IO, and the fit metrics."""

import csv
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikescan import dataset
from spikescan.dataset import (SeriesDataset, denormalize, load_csv,
                               make_coupled_sinusoids, make_windows,
                               normalization_stats, parse_csv, window_count, write_csv)
from spikescan.metrics import r2, rrse


def series(rows, width=1, seed=0):
    vals = np.random.default_rng(seed).normal(size=(rows, width))
    return SeriesDataset(values=vals, columns=[f"v{i}" for i in range(width)])


def test_window_count_small_example():
    assert window_count(10, history=3, horizon=1) == 7


def test_all_windows_in_one_split():
    ds = series(10)
    w = make_windows(ds, history=3, horizon=1, split=(1.0, 0.0, 0.0))
    assert w.counts() == (7, 0, 0)
    assert w.x_train.shape == (7, 3, 1)
    assert w.y_train.shape == (7, 1, 1)
    z = (ds.values - w.mean) / w.std
    for i in range(7):
        assert np.array_equal(w.x_train[i], z[i:i + 3])
        assert np.array_equal(w.y_train[i], z[i + 3:i + 4])
    # the last target is exactly the last row
    assert np.array_equal(w.y_train[-1, -1], z[-1])


def test_too_short_series_is_rejected():
    with pytest.raises(ValueError, match="at least history"):
        make_windows(series(5), history=4, horizon=2)


def test_split_sizes_floor_and_drop_remainder():
    ds = series(32)  # M = 32 - 3 - 1 + 1 = 29
    w = make_windows(ds, history=3, horizon=1, split=(0.7, 0.1, 0.2))
    assert w.counts() == (20, 2, 5)  # floors of 20.3, 2.9, 5.8


def test_bad_ratios_are_rejected():
    ds = series(20)
    with pytest.raises(ValueError, match="ratios"):
        make_windows(ds, 3, 1, split=(0.8, 0.3, 0.2))
    with pytest.raises(ValueError, match="ratios"):
        make_windows(ds, 3, 1, split=(-0.1, 0.5, 0.2))


@pytest.mark.parametrize("split", [(float("nan"), 0.1, 0.2), (0.7, float("nan"), 0.2), (0.7, 0.1, float("inf"))])
def test_non_finite_ratios_are_rejected(split):
    """A NaN ratio used to fail converting a window count to an integer, naming no ratio."""
    with pytest.raises(ValueError, match=r"split ratios must be finite, nonnegative and sum to at most 1, got \("):
        make_windows(series(20), 3, 1, split=split)


def test_statistics_come_only_from_train_rows():
    ds = series(40, width=2)
    H, G = 4, 2
    w1 = make_windows(ds, H, G, split=(0.5, 0.2, 0.3))
    n_tr = w1.counts()[0]
    boundary = n_tr + H + G - 1  # last row a training window touches
    tampered = ds.values.copy()
    tampered[boundary:] += 100.0
    w2 = make_windows(SeriesDataset(tampered, ds.columns), H, G, split=(0.5, 0.2, 0.3))
    assert np.array_equal(w1.mean, w2.mean)
    assert np.array_equal(w1.std, w2.std)
    # touching a train-covered row must change them
    tampered2 = ds.values.copy()
    tampered2[boundary - 1] += 100.0
    w3 = make_windows(SeriesDataset(tampered2, ds.columns), H, G, split=(0.5, 0.2, 0.3))
    assert not np.array_equal(w1.mean, w3.mean)


def test_constant_column_std_is_floored():
    vals = np.ones((20, 1))
    mean, std = normalization_stats(vals, 20)
    assert std[0] == 1e-8
    assert mean[0] == 1.0


def test_external_stats_are_used_verbatim():
    ds = series(15)
    mean, std = np.array([3.0]), np.array([2.0])
    w = make_windows(ds, 3, 1, split=(0.0, 0.0, 1.0), stats=(mean, std))
    z = (ds.values - 3.0) / 2.0
    assert np.array_equal(w.x_test[0], z[0:3])


def test_empty_train_split_without_stats_is_an_error():
    with pytest.raises(ValueError, match="stats"):
        make_windows(series(15), 3, 1, split=(0.0, 0.0, 1.0))


def test_a_row_whose_normalized_squares_overflow_is_named():
    """A finite cell whose row's normalized squares overflow reached the forward, whose rmsnorm warned
    and forecast values near +-3e307; the windowing now refuses the row, unless only targets read it."""
    ds = series(15, width=2)
    stats = (np.zeros(2), np.ones(2))
    ds.values[5, 1] = 1e200
    with pytest.raises(ValueError, match=r"^cell 1e\+200 at row 5, column 1 is too large: the row's normalized "
                                         "squares do not sum to a finite float64$"):
        make_windows(ds, 3, 1, split=(1.0, 0.0, 0.0), stats=stats)
    ds.values[5] = 1.3e154, -1.2e154  # each square is finite, their sum is not
    with pytest.raises(ValueError, match=r"^cell 1\.3e\+154 at row 5, column 0 is too large"):
        make_windows(ds, 3, 1, split=(1.0, 0.0, 0.0), stats=stats)
    ds.values[5] = 1e152, 0.0  # a finite sum, though past the bound under which no row is summed
    assert make_windows(ds, 3, 1, split=(1.0, 0.0, 0.0), stats=stats).x_train[5, 0, 0] == 1e152
    ds.values[5] = 0.0
    ds.values[14, 0] = 1e200  # the last row, which only the last target reads
    assert make_windows(ds, 3, 1, split=(1.0, 0.0, 0.0), stats=stats).y_train[-1, 0, 0] == 1e200


@pytest.mark.parametrize("cell", [1e200, 1e308, -1e200])
def test_a_training_cell_that_overflows_the_statistics_is_named(cell):
    """A training cell of 1e200 overflowed the square in the std with numpy's warning, and its column's
    std turned inf, every normalized value in it 0; the windowing now refuses the cell of largest
    magnitude in that column's training rows, as it refuses a row whose squares overflow."""
    ds = make_coupled_sinusoids(260, seed=1)
    ds.values[100, 1] = cell
    ds.values[90, 1] = cell / 2  # also too large, but not the largest
    message = (f"^cell {re.escape(repr(cell))} at row 100, column 1 is too large: its column's mean or standard "
               "deviation over the training rows is not a finite float64$")
    with pytest.raises(ValueError, match=message):
        make_windows(ds, 8, 2)
    with pytest.raises(ValueError, match=message):
        normalization_stats(ds.values, 184)
    mean, std = normalization_stats(ds.values, 90)  # rows before either cell
    assert np.isfinite(mean).all() and np.isfinite(std).all()


def test_denormalize_inverts_normalization():
    ds = series(30, width=3, seed=4)
    w = make_windows(ds, 5, 2)
    back = denormalize(w.y_train, w.mean, w.std)
    start = w.y_train.shape[0]  # target i starts at row i + history
    for i in range(start):
        assert np.allclose(back[i], ds.values[i + 5:i + 7], atol=1e-12)


# --- CSV ------------------------------------------------------------------------


def test_csv_roundtrip(tmp_path):
    vals = np.random.default_rng(1).normal(size=(12, 3))
    p = str(tmp_path / "s.csv")
    write_csv(p, vals, columns=["a", "b", "c"])
    ds = load_csv(p, has_header=True)
    assert ds.columns == ["a", "b", "c"]
    assert np.max(np.abs(ds.values - vals)) < 1e-9  # %.10g round-trip


def test_csv_headerless_gets_default_names(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("1.0,2.0\n3.0,4.0\n")
    ds = load_csv(str(p))
    assert ds.columns == ["v0", "v1"]
    assert np.array_equal(ds.values, [[1, 2], [3, 4]])


def test_csv_skips_blank_lines(tmp_path):
    p = tmp_path / "b.csv"
    p.write_text("1.0\n\n2.0\n\n")
    assert load_csv(str(p)).values.shape == (2, 1)


def test_csv_names_the_bad_cell(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("t,v\n1.0,2.0\n1.5,oops\n")
    with pytest.raises(ValueError) as e:
        load_csv(str(p), has_header=True)
    msg = str(e.value)
    assert "'oops'" in msg and "row" in msg and "column" in msg


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_csv_rejects_non_finite_cells(tmp_path, cell):
    p = tmp_path / "nf.csv"
    p.write_text(f"t,v\n1.0,2.0\n1.5,2.5\n{cell},3.0\n")
    with pytest.raises(ValueError, match=f"non-finite cell '{cell}' at row 2, column 0"):
        load_csv(str(p), has_header=True)


def test_csv_rejects_ragged_rows(tmp_path):
    p = tmp_path / "rag.csv"
    p.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="has 1 cells, expected 2"):
        load_csv(str(p))


def load_error(path, has_header=False) -> str:
    with pytest.raises(ValueError) as e:
        load_csv(str(path), has_header=has_header)
    return str(e.value)


@pytest.mark.parametrize("text, has_header, message", [
    # rows are walked in file order: an earlier bad cell beats a later ragged row
    ("1,2\n1,oops\n3,4\n5\n", False, "non-numeric cell 'oops' at row 1, column 1"),
    # ... and an earlier ragged row beats a later bad cell
    ("1,2\n3\n4,oops\n", False, "row 1 has 1 cells, expected 2"),
    # within one row the width is checked before the cells
    ("1,2\n3,oops,5\n", False, "row 1 has 3 cells, expected 2"),
    ("1,2\n x ,y\n", False, "non-numeric cell 'x' at row 1, column 0"),
    # a non-finite cell is reported only once every cell parses
    ("nan,1\n1,2\n3,4\n5,6\n7,oops\n", False, "non-numeric cell 'oops' at row 4, column 1"),
    ("nan,1\n1,2\n3,4\n5\n", False, "row 3 has 1 cells, expected 2"),
    ("1,2\n3, inf\nnan,4\n", False, "non-finite cell 'inf' at row 1, column 1"),
    # row numbers count data rows: the header and blank rows are not counted
    ("a,b\n1,2\n\n , \n3,x\n", True, "non-numeric cell 'x' at row 1, column 1"),
    ("a,b\n1,2\n3\n", True, "row 1 has 1 cells, expected 2"),
    # a header is checked against data row 0 before any row
    ("a,b\n1,2,3\n4,5,6\n", True, "header has 2 names, data row 0 has 3 cells"),
    ("a,b,c\n1,2\n3,4,5\n", True, "header has 3 names, data row 0 has 2 cells"),
    ("\n  \n", False, "no data rows"),
    ("a,b\n\n", True, "header only, no data rows"),
])
def test_csv_reports_the_first_defect_in_file_order(tmp_path, text, has_header, message):
    p = tmp_path / "d.csv"
    p.write_text(text)
    assert load_error(p, has_header) == f"{p}: {message}"


def padded_cell(left: str, text: str, right: str, quoted: bool) -> tuple[str, str]:
    """A cell as written to the file, and the text ``csv.reader`` hands back."""
    raw = left + text + right
    return (f'"{raw}"' if quoted else raw), raw


FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
                   st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                                    1.7976931348623157e308]))
NUMBER_TEXT = st.one_of(st.builds(repr, FINITE),
                        # %.10g rounds doubles above 1.797693135e308 up to inf
                        st.builds("{:.10g}".format, FINITE.filter(lambda x: abs(x) <= 1e308)),
                        st.sampled_from(["-0", "+0.0", "1_0", "-1_000.5", "1e1_0", "007"]))
PAD = st.text(alphabet=" \t", max_size=2)
CELLS = st.builds(padded_cell, PAD, NUMBER_TEXT, PAD, st.booleans())
BLANK_ROWS = ["", " ", "\t", ",", " ,  ,\t", '"",""']


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), rows=st.integers(1, 5), width=st.integers(1, 4), has_header=st.booleans())
def test_csv_cells_parse_like_float_bit_for_bit(tmp_path_factory, data, rows, width, has_header):
    grid = data.draw(st.lists(st.lists(CELLS, min_size=width, max_size=width),
                              min_size=rows, max_size=rows))
    lines = [",".join(cell for cell, _ in row) for row in grid]
    for k in sorted(data.draw(st.lists(st.integers(0, len(lines)), max_size=3)), reverse=True):
        lines.insert(k, data.draw(st.sampled_from(BLANK_ROWS)))
    names = [f" c{j} " for j in range(width)]
    if has_header:
        lines.insert(0, ",".join(names))
    p = tmp_path_factory.mktemp("csv") / "p.csv"
    p.write_text("\n".join(lines) + "\n")
    ds = load_csv(str(p), has_header=has_header)
    expect = np.array([[float(text) for _, text in row] for row in grid], dtype=np.float64)
    assert ds.values.shape == (rows, width) and ds.values.dtype == np.float64
    assert ds.values.tobytes() == expect.tobytes()
    assert ds.columns == ([n.strip() for n in names] if has_header else [f"v{j}" for j in range(width)])


PLAIN_NUMBER = st.one_of(st.builds(repr, FINITE),
                        st.builds("{:.10g}".format, FINITE.filter(lambda x: abs(x) <= 1e308)))
PLAIN_CELLS = st.builds(lambda left, text, right: left + text + right, PAD, PLAIN_NUMBER, PAD)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), rows=st.integers(1, 5), width=st.integers(1, 4), has_header=st.booleans(),
       newline=st.sampled_from(["\n", "\r\n"]), final_newline=st.booleans())
def test_plain_files_load_like_the_csv_path(tmp_path_factory, data, rows, width, has_header, newline,
                                            final_newline):
    """A plain file takes numpy's reader and gives the bytes and columns of ``parse_csv``."""
    lines = [",".join(data.draw(st.lists(PLAIN_CELLS, min_size=width, max_size=width)))
             for _ in range(rows)]
    if has_header:
        lines.insert(0, ",".join(f" c{j} " for j in range(width)))
    for k in sorted(data.draw(st.lists(st.integers(0, len(lines)), max_size=3)), reverse=True):
        lines.insert(k, "")
    text = newline.join(lines) + (newline if final_newline else "")
    p = tmp_path_factory.mktemp("plain") / "p.csv"
    p.write_bytes(text.encode())
    assert dataset._parse_plain(text, has_header) is not None
    ds, ref = load_csv(str(p), has_header=has_header), parse_csv(str(p), text, has_header)
    assert ds.values.shape == ref.values.shape == (rows, width)
    assert ds.values.tobytes() == ref.values.tobytes()
    assert ds.columns == ref.columns


V = ["v0", "v1"]


@pytest.mark.parametrize("text, has_header, expect", [
    ('"1.5",2\n3,4\n', False, ([[1.5, 2.0], [3.0, 4.0]], V)),
    ("1_0,2\n", False, ([[10.0, 2.0]], V)),
    ("\uff11,2\n", False, ([[1.0, 2.0]], V)),  # a full-width digit
    ("1,2\n \t\n3,4\n", False, ([[1.0, 2.0], [3.0, 4.0]], V)),
    ("1,2\n,\n3,4\n", False, ([[1.0, 2.0], [3.0, 4.0]], V)),
    ("1,2\r3,4\r", False, ([[1.0, 2.0], [3.0, 4.0]], V)),
    ("a,b\r1,2\n", True, ([[1.0, 2.0]], ["a", "b"])),  # a lone CR ends the header
    ('"a,b",c\n1,2\n', True, ([[1.0, 2.0]], ["a,b", "c"])),
    ("1,2\nnan,3\n", False, "non-finite cell 'nan' at row 1, column 0"),
    ("1,2\n3, inf\n", False, "non-finite cell 'inf' at row 1, column 1"),
    ("1,2\n3\n", False, "row 1 has 1 cells, expected 2"),
    ("1,2#x\n", False, "non-numeric cell '2#x' at row 0, column 1"),
    # float strips no ASCII file separator, which numpy's reader takes for whitespace
    ("1\x1c,2\n", False, "non-numeric cell '1' at row 0, column 0"),
    ("a,b\n1,2,3\n", True, "header has 2 names, data row 0 has 3 cells"),
    ("", False, "no data rows"),
    ("\r\n", False, "no data rows"),
    ("a,b\r\n", True, "header only, no data rows"),
])
def test_files_that_are_not_plain_take_the_csv_path(tmp_path, text, has_header, expect):
    p = tmp_path / "f.csv"
    p.write_bytes(text.encode())
    assert dataset._parse_plain(text, has_header) is None
    if isinstance(expect, str):
        assert load_error(p, has_header) == f"{p}: {expect}"
    else:
        ds = load_csv(str(p), has_header=has_header)
        assert (ds.values.tolist(), ds.columns) == expect and ds.values.dtype == np.float64


def test_only_a_file_that_is_not_plain_reaches_the_csv_reader(tmp_path, monkeypatch):
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    plain.write_text("a,b\r\n1,2\r\n3,4\r\n")
    quoted.write_text('a,b\n"1",2\n3,4\n')
    assert load_csv(str(quoted), has_header=True).values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(dataset.csv, "reader", refuse)
    ds = load_csv(str(plain), has_header=True)
    assert ds.columns == ["a", "b"] and ds.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    with pytest.raises(AssertionError, match="csv.reader called"):
        load_csv(str(quoted), has_header=True)


def test_a_field_over_the_csv_size_limit_is_a_value_error(tmp_path):
    """A numeric cell of 200 000 digits loads when the file is plain; quoted, ``csv.reader``
    refuses it, and the refusal names the file and the line."""
    digits = "0" * 199_999 + "1"
    p = tmp_path / "long.csv"
    p.write_text(f"1,2\n3,{digits}\n")
    assert load_csv(str(p)).values.tolist() == [[1.0, 2.0], [3.0, 1.0]]
    p.write_text(f'1,2\n3,"{digits}"\n')
    assert load_error(p).startswith(f"{p}: line 2: field larger than field limit")


@pytest.mark.parametrize("body, has_header, expect", [
    (b"1.5,2\n3,4\n", False, ([[1.5, 2.0], [3.0, 4.0]], V)),  # numpy's reader
    (b'"1.5",2\n3,4\n', False, ([[1.5, 2.0], [3.0, 4.0]], V)),  # the csv path
    (b"s1,s2\n1,2\n", True, ([[1.0, 2.0]], ["s1", "s2"])),
    (b'"s1",s2\n1,2\n', True, ([[1.0, 2.0]], ["s1", "s2"])),
    (b"\xef\xbb\xbf1,2\n", False, "non-numeric cell '\\ufeff1' at row 0, column 0"),  # only one mark is dropped
    # a byte that is not UTF-8 is named by its offset in the file, the mark counted
    (b"1,2\n3,\xff\n", False, "not UTF-8 text: byte 0xff at offset 9 (line 2): invalid start byte"),
])
def test_a_leading_byte_order_mark_is_not_read_as_text(tmp_path, body, has_header, expect):
    """Spreadsheets save "CSV UTF-8" with a byte-order mark in front."""
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbf" + body)
    if isinstance(expect, str):
        assert load_error(p, has_header) == f"{p}: {expect}"
    else:
        ds = load_csv(str(p), has_header=has_header)
        assert (ds.values.tolist(), ds.columns) == expect


def test_csv_header_with_a_comma_round_trips(tmp_path):
    p = tmp_path / "q.csv"
    write_csv(str(p), np.array([[1.0, 2.0]]), columns=["load, kW", "temp"])
    assert p.read_text().splitlines()[0] == '"load, kW",temp'
    ds = load_csv(str(p), has_header=True)
    assert ds.columns == ["load, kW", "temp"]
    assert ds.values.tolist() == [[1.0, 2.0]]


def per_element_csv(values, columns=None) -> bytes:
    """The bytes of formatting each numpy element on its own, row by row."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    if columns:
        writer.writerow(columns)
    for row in np.atleast_2d(np.asarray(values)):
        writer.writerow([format(v, ".10g") for v in row])
    return buf.getvalue().encode()


@pytest.mark.parametrize("values, columns, expect", [
    (np.array([[-0.0, np.nan], [np.inf, -np.inf], [5e-324, 1.7976931348623157e308]]), ["a,b", "c"],
     b'"a,b",c\r\n-0,nan\r\ninf,-inf\r\n4.940656458e-324,1.797693135e+308\r\n'),
    (np.array([[1, -2], [3, 2 ** 40]]), None, b"1,-2\r\n3,1.099511628e+12\r\n"),
    (np.array([1.5, 2.5]), ["x"], b"x\r\n1.5,2.5\r\n"),
    (np.array([[0.1, 1 / 3]], dtype=np.float32), None, b"0.1000000015,0.3333333433\r\n"),
    (np.random.default_rng(5).normal(size=(7, 3)) * 1e5, ["u", "v", "w"], None),
])
def test_write_csv_bytes_match_the_per_element_rule(tmp_path, values, columns, expect):
    p = tmp_path / "w.csv"
    write_csv(str(p), values, columns)
    assert p.read_bytes() == per_element_csv(values, columns)
    if expect is not None:
        assert p.read_bytes() == expect


def test_dataset_requires_2d_values():
    with pytest.raises(ValueError):
        SeriesDataset(values=np.zeros(5), columns=["a"])


def test_dataset_requires_one_name_per_column():
    with pytest.raises(ValueError, match="^1 column names for 2 variables$"):
        SeriesDataset(values=np.zeros((5, 2)), columns=["a"])


# --- synthetic generator ----------------------------------------------------------


def test_sinusoids_shape_and_names():
    ds = make_coupled_sinusoids(n_steps=100)
    assert ds.values.shape == (100, 2)
    assert ds.columns == ["s1", "s2"]


def test_sinusoids_noise_free_structure():
    ds = make_coupled_sinusoids(n_steps=48, noise=0.0)
    t = np.arange(48.0)
    base = np.sin(2 * np.pi * t / 24.0)
    assert np.allclose(ds.values[:, 0], base, atol=1e-12)
    expect2 = 0.7 * np.sin(2 * np.pi * t / 24.0 + 1.0) + 0.3 * base
    assert np.allclose(ds.values[:, 1], expect2, atol=1e-12)
    # one full period back to the start
    assert ds.values[24, 0] == pytest.approx(ds.values[0, 0], abs=1e-12)


def test_sinusoids_are_seeded():
    a = make_coupled_sinusoids(n_steps=50, seed=3).values
    b = make_coupled_sinusoids(n_steps=50, seed=3).values
    c = make_coupled_sinusoids(n_steps=50, seed=4).values
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# --- metrics ------------------------------------------------------------------------


def test_metrics_hand_case():
    y = np.array([0.0, 1.0, 2.0])
    p = np.array([0.0, 1.0, 1.0])
    # ss_res = 1, ss_tot = 2
    assert r2(y, p) == pytest.approx(0.5)
    assert rrse(y, p) == pytest.approx(np.sqrt(0.5))


def test_perfect_prediction():
    y = np.random.default_rng(0).normal(size=(4, 3, 2))
    assert r2(y, y) == 1.0
    assert rrse(y, y) == 0.0


def test_metrics_identity():
    rng = np.random.default_rng(7)
    y = rng.normal(size=50)
    p = y + rng.normal(size=50) * 0.3
    assert rrse(y, p) ** 2 + r2(y, p) == pytest.approx(1.0, abs=1e-12)


def test_metrics_are_global_not_per_series():
    y = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
    p = y.copy()
    p[0, 0] += 1.0
    expect = 1.0 - 1.0 / np.sum((y - y.mean()) ** 2)
    assert r2(y, p) == pytest.approx(expect)


def test_constant_target_is_rejected():
    with pytest.raises(ValueError, match="constant"):
        r2(np.ones(5), np.zeros(5))


def test_shape_mismatch_is_rejected():
    with pytest.raises(ValueError):
        rrse(np.zeros(4), np.zeros(5))
