"""End-to-end command-line walkthrough against a tiny synthetic series."""

import contextlib
import io
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from spikescan import cli, ssm
from spikescan.activations import DEVIATION_BOUNDS, verify_deviation_bounds
from spikescan.dataset import load_csv, make_coupled_sinusoids, write_csv
from spikescan.train import convert_to_snn, load_checkpoint, save_checkpoint

HISTORY, HORIZON = 8, 2
ENERGY_TABLE = "e_acc = 0.9e-12\ne_mac = {}\ne_shift = 0.15e-12\ne_cmp = 0.1e-12\n"


def run(*argv, expect=0, env=None):
    proc = subprocess.run([sys.executable, "-m", "spikescan.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == expect, (
        f"exit {proc.returncode} != {expect}\nstdout:\n{proc.stdout}\nstderr:\n{proc.stderr}")
    return proc


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """One trained + one converted checkpoint, shared by the read-only tests."""
    d = tmp_path_factory.mktemp("cli")
    ds = make_coupled_sinusoids(n_steps=260, seed=1)
    write_csv(str(d / "series.csv"), ds.values, ds.columns)
    (d / "train.cfg").write_text(
        "# tiny model, just enough to exercise the pipeline\n"
        "d_hidden = 6\nstate_size = 2\nconv_kernel = 3\nblocks = 1\n"
        "max_epochs = 2\nbatch_size = 64\nlr = 1e-3\nseed = 0\n")
    (d / "energy.cfg").write_text(
        "e_acc = 0.9e-12\ne_mac = 4.6e-12\ne_shift = 0.15e-12\ne_cmp = 0.1e-12\n")
    run("train", "--data", str(d / "series.csv"), "--has-header",
        "--history", str(HISTORY), "--horizon", str(HORIZON),
        "--config", str(d / "train.cfg"), "--out", str(d / "ann.ckpt"))
    run("convert", "--in", str(d / "ann.ckpt"), "--out", str(d / "snn.ckpt"))
    return d


def test_train_reports_windows_and_saves(work):
    # the fixture already trained; retrain to capture the output
    out = run("train", "--data", str(work / "series.csv"), "--has-header",
              "--history", str(HISTORY), "--horizon", str(HORIZON),
              "--config", str(work / "train.cfg"), "--out", str(work / "ann2.ckpt")).stdout
    assert "windows:" in out and "saved" in out
    model, meta = load_checkpoint(str(work / "ann2.ckpt"))
    assert model.mode == "ann"
    assert meta["norm"] is not None


def test_convert_produces_snn_checkpoint(work):
    model, _ = load_checkpoint(str(work / "snn.ckpt"))
    assert model.mode == "snn"
    assert all(blk.sites is not None for blk in model.blocks)


def test_convert_rejects_converted_input(work):
    p = run("convert", "--in", str(work / "snn.ckpt"), "--out", str(work / "x.ckpt"),
            expect=2)
    assert "already" in p.stderr


def test_threshold_scale_needs_data(work):
    p = run("convert", "--in", str(work / "ann.ckpt"), "--out", str(work / "y.ckpt"),
            "--threshold-scale", expect=2)
    assert "--data" in p.stderr


@pytest.mark.parametrize("flags", [["--data", "series.csv"], ["--has-header"], ["--data", "series.csv", "--has-header"]])
def test_convert_flags_without_threshold_scale_are_usage_errors(work, capsys, flags):
    """``--data`` and ``--has-header`` serve only ``--threshold-scale``: without it they must not pass silently."""
    out = work / "ignored.ckpt"
    argv = [str(work / f) if f.endswith(".csv") else f for f in flags]
    assert cli.main(["convert", "--in", str(work / "ann.ckpt"), "--out", str(out), *argv]) == 2
    err = capsys.readouterr().err
    assert all(f in err for f in flags if f.startswith("--")) and "--threshold-scale" in err
    assert not out.exists()


def test_threshold_scale_runs_with_data(work):
    out = run("convert", "--in", str(work / "ann.ckpt"), "--out", str(work / "ts.ckpt"),
              "--threshold-scale", "--data", str(work / "series.csv"), "--has-header").stdout
    assert "threshold-scaled sites" in out or "no sites were threshold-scaled" in out


def test_threshold_scale_verifies_on_windows_it_did_not_probe(work, monkeypatch):
    calls = []

    def record(model, x, verify_x=None):
        calls.append((x, verify_x))
        return []

    monkeypatch.setattr(cli, "apply_threshold_scaling", record)
    assert cli.main(["convert", "--in", str(work / "ann.ckpt"), "--out", str(work / "held.ckpt"),
                     "--threshold-scale", "--data", str(work / "series.csv"), "--has-header"]) == 0
    [(probe, verify)] = calls
    assert len(probe) > 0 and verify is not None and len(verify) > 0
    assert not {w.tobytes() for w in probe} & {w.tobytes() for w in verify}


def test_threshold_scale_needs_two_windows(work):
    write_csv(str(work / "one_window.csv"), np.ones((HISTORY + HORIZON, 2)), ["a", "b"])
    p = run("convert", "--in", str(work / "ann.ckpt"), "--out", str(work / "one.ckpt"),
            "--threshold-scale", "--data", str(work / "one_window.csv"), "--has-header", expect=2)
    assert "one_window.csv: 1 window(s)" in p.stderr and "Traceback" not in p.stderr


def test_verify_passes_on_good_checkpoint(work):
    out = run("verify", "--model", str(work / "snn.ckpt"),
              "--data", str(work / "series.csv"), "--has-header").stdout
    assert "ann/snn forward equivalence" in out
    assert "FAIL" not in out
    assert "all" in out and "checks passed" in out
    # one line per deviation row: its maximum, the x where it occurs, and its bound
    rows = [line for line in out.splitlines() if line.startswith("pow2 deviation: ")]
    table = verify_deviation_bounds()
    assert len(rows) == len(table) == len(DEVIATION_BOUNDS)
    for line, (name, (peak, at)) in zip(rows, table.items()):
        assert line.split()[2:] == [name, "PASS", "max", f"{peak:.4f}", "at", f"x={at:+.4f},",
                                    "bound", str(DEVIATION_BOUNDS[name])]


def test_verify_fails_on_a_deviation_row_over_its_bound(monkeypatch, capsys):
    monkeypatch.setitem(DEVIATION_BOUNDS, "silu_grad", 0.25)
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    [row] = [line for line in out.splitlines() if "FAIL" in line]
    assert row.split()[2:4] == ["silu_grad", "FAIL"] and row.endswith("bound 0.25")
    assert "1 of" in out and "checks failed" in out


def test_verify_data_without_a_model_is_a_usage_error(tmp_path):
    """``--data`` feeds only the ann/snn check, which needs a checkpoint: alone it must not pass silently."""
    p = run("verify", "--data", str(tmp_path / "nope.csv"), expect=2)
    assert "--data needs --model" in p.stderr and "checks passed" not in p.stdout
    assert "Traceback" not in p.stderr


def test_verify_header_flag_without_data_is_a_usage_error(work, capsys):
    """``--has-header`` describes the ``--data`` CSV: without one it must not pass silently."""
    for argv in (["verify", "--has-header"], ["verify", "--model", str(work / "snn.ckpt"), "--has-header"]):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert "--has-header" in err and "--data" in err and "checks passed" not in out


def test_verify_fails_on_tampered_checkpoint(work):
    # a threshold-scaled site loads, but y codes mid-range, so scaling it breaks equivalence
    model, meta = load_checkpoint(str(work / "snn.ckpt"))
    model.blocks[0].sites["y"] = model.blocks[0].sites["y"].threshold_scale()
    bad = work / "bad.ckpt"
    save_checkpoint(str(bad), model, norm=meta["norm"])
    p = run("verify", "--model", str(bad),
            "--data", str(work / "series.csv"), "--has-header", expect=1)
    assert "FAIL" in p.stdout


def test_bad_spike_site_in_checkpoint_is_a_usage_error(work):
    model, meta = load_checkpoint(str(work / "snn.ckpt"))
    object.__setattr__(model.blocks[0].sites["h"], "T", 0)  # sites are frozen; this one bypasses the check
    bad = work / "bad_site.ckpt"
    save_checkpoint(str(bad), model, norm=meta["norm"])
    p = run("verify", "--model", str(bad), expect=2)
    assert "spike site block0.h: T must be >= 1, got 0" in p.stderr


def test_symmetric_quantizer_in_checkpoint_is_a_usage_error(work):
    raw = (work / "snn.ckpt").read_bytes()
    (mlen,) = struct.unpack_from("<I", raw, 8)
    meta = json.loads(raw[12:12 + mlen])
    meta["quantizers"][0]["y"]["symmetric"] = True
    blob = json.dumps(meta).encode()
    bad = work / "symmetric.ckpt"
    bad.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + mlen:])
    p = run("verify", "--model", str(bad), expect=2)
    assert "symmetric.ckpt" in p.stderr and "quantizer block0.y: symmetric" in p.stderr


def test_infinite_site_threshold_is_a_usage_error(work):
    raw = (work / "snn.ckpt").read_bytes()
    (mlen,) = struct.unpack_from("<I", raw, 8)
    meta = json.loads(raw[12:12 + mlen])
    meta["sites"][0]["h"]["theta"] = float("inf")
    blob = json.dumps(meta).encode()
    bad = work / "inf_theta.ckpt"
    bad.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + mlen:])
    p = run("forecast", "--model", str(bad), "--data", str(work / "series.csv"), "--has-header",
            "--out", str(work / "inf_theta.csv"), expect=2)
    assert "inf_theta.ckpt: spike site block0.h: theta must be finite and > 0, got inf" in p.stderr


def test_site_inconsistent_with_its_quantizer_is_a_usage_error(work):
    raw = (work / "snn.ckpt").read_bytes()
    (mlen,) = struct.unpack_from("<I", raw, 8)
    meta = json.loads(raw[12:12 + mlen])
    meta["sites"][0]["y"]["T"] = 2
    blob = json.dumps(meta).encode()
    bad = work / "y_window.ckpt"
    bad.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + mlen:])
    p = run("forecast", "--model", str(bad), "--data", str(work / "series.csv"), "--has-header",
            "--out", str(work / "y_window.csv"), expect=2)
    assert "y_window.ckpt: spike site block0.y: (theta, offset, T)" in p.stderr
    assert "Traceback" not in p.stderr


def _drop_std(norm):
    del norm["std"]


def _negate_std(norm):
    norm["std"] = [-v for v in norm["std"]]


def _one_mean(norm):
    norm["mean"] = norm["mean"][:1]


def _std_as_text(norm):
    norm["std"] = "1.0"


def _nan_mean(norm):
    norm["mean"][0] = float("nan")


def _huge_std(norm):
    norm["std"][0] = 10 ** 400  # a JSON int past the largest float64


@pytest.mark.parametrize("change, defect", [
    (_drop_std, "norm std must be a list of 2 finite numbers, got None"),
    (_negate_std, "norm std must be positive"),
    (_one_mean, "norm mean must be a list of 2 finite numbers"),
    (_std_as_text, "norm std must be a list of 2 finite numbers, got '1.0'"),
    (_nan_mean, "norm mean must be a list of 2 finite numbers, got \\[nan"),
    (_huge_std, "norm std must be a list of 2 finite numbers, got \\[1000"),
])
def test_malformed_norm_in_checkpoint_is_a_usage_error(work, capsys, change, defect):
    """Normalization statistics are checked on load: each defect exits 2 naming the file and the key,
    where it once ended in a traceback or forecast from a negative or broadcast scale."""
    raw = (work / "snn.ckpt").read_bytes()
    (mlen,) = struct.unpack_from("<I", raw, 8)
    meta = json.loads(raw[12:12 + mlen])
    change(meta["norm"])
    blob = json.dumps(meta).encode()
    bad = work / "bad_norm.ckpt"
    bad.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + mlen:])
    out = work / "bad_norm.csv"
    assert cli.main(["forecast", "--model", str(bad), "--data", str(work / "series.csv"), "--has-header",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.search("bad_norm.ckpt: " + defect, err), err
    assert not out.exists()


def test_a_checkpoint_without_norm_still_loads(work):
    raw = (work / "snn.ckpt").read_bytes()
    (mlen,) = struct.unpack_from("<I", raw, 8)
    meta = json.loads(raw[12:12 + mlen])
    meta["norm"] = None
    blob = json.dumps(meta).encode()
    bare = work / "no_norm.ckpt"
    bare.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + mlen:])
    model, got = load_checkpoint(str(bare))
    assert got["norm"] is None and model.mode == "snn"


def test_truncated_checkpoint_is_a_usage_error(work):
    bad = work / "six_bytes.ckpt"
    bad.write_bytes((work / "snn.ckpt").read_bytes()[:6])
    p = run("eval", "--model", str(bad), "--data", str(work / "series.csv"), "--has-header",
            expect=2)
    assert "six_bytes.ckpt: truncated header" in p.stderr and "Traceback" not in p.stderr


def test_eval_prints_metrics_per_step(work):
    out = run("eval", "--model", str(work / "snn.ckpt"),
              "--data", str(work / "series.csv"), "--has-header").stdout
    assert "overall" in out and "R2" in out and "RRSE" in out
    assert "step  1" in out and "step  2" in out


def test_eval_names_the_csv_whose_targets_are_constant(work):
    """Every metric is computed before a line is printed: constant targets print nothing to stdout and
    an error naming the CSV."""
    write_csv(str(work / "flat.csv"), np.ones((60, 2)), ["s1", "s2"])
    p = run("eval", "--model", str(work / "snn.ckpt"), "--data", str(work / "flat.csv"), "--has-header",
            expect=2)
    assert p.stdout == ""
    assert f"error: {work / 'flat.csv'}: targets are constant; relative metrics are undefined" in p.stderr


def test_eval_names_the_csv_whose_sums_of_squares_overflow(work, capsys):
    """One finite cell of 1e308 overflows the sums of squares: eval printed ``R2 = nan   RRSE = nan`` and
    exited 0.  The cell is in the last row, which only targets read."""
    values = make_coupled_sinusoids(n_steps=60, seed=1).values
    values[-1, 0] = 1e308
    write_csv(str(work / "huge.csv"), values, ["s1", "s2"])
    assert cli.main(["eval", "--model", str(work / "snn.ckpt"), "--data", str(work / "huge.csv"),
                     "--has-header"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {work / 'huge.csv'}: sums of squares are not finite; relative metrics are undefined\n"


@pytest.mark.parametrize("command, ckpt, extra", [
    ("forecast", "ann.ckpt", ("--out", "fc.csv")),
    ("forecast", "snn.ckpt", ("--out", "fc.csv")),
    ("plot-data", "snn.ckpt", ("--out", "pd.csv")),
    ("energy", "snn.ckpt", ("--table", "energy.cfg")),
    ("eval", "snn.ckpt", ()),
])
def test_a_cell_that_overflows_the_forward_is_named(work, capsys, command, ckpt, extra):
    """A finite cell of 1e308 in a row the input windows read overflowed block 0's rmsnorm: forecast,
    plot-data and energy exited 0 with values near +-3.3e307 and numpy's overflow warning, and eval
    refused only the metrics.  Each now refuses the CSV, naming the cell's row and column."""
    values = make_coupled_sinusoids(n_steps=260, seed=1).values
    values[100, 1] = 1e308
    write_csv(str(work / "huge_row.csv"), values, ["s1", "s2"])
    files = [extra[0], str(work / extra[1])] if extra else []
    assert cli.main([command, "--model", str(work / ckpt), "--data", str(work / "huge_row.csv"), "--has-header",
                     *files]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {work / 'huge_row.csv'}: cell 1e+308 at row 100, column 1 is too large: "
                   "the row's normalized squares do not sum to a finite float64\n")


def test_forecast_covers_every_window(work):
    out_csv = work / "fc.csv"
    run("forecast", "--model", str(work / "snn.ckpt"), "--data", str(work / "series.csv"),
        "--has-header", "--out", str(out_csv))
    fc = load_csv(str(out_csv), has_header=True)
    assert fc.values.shape[0] == 260 - HISTORY + 1
    assert fc.columns[0] == "t"
    assert f"s1_step{HORIZON}" in fc.columns and f"s2_step{HORIZON}" in fc.columns
    assert fc.values[0, 0] == HISTORY  # first forecast targets the row after the window
    assert fc.values[-1, 0] == 260


def test_forecast_needs_one_full_history(work):
    write_csv(str(work / "short.csv"), np.ones((HISTORY - 1, 2)), ["s1", "s2"])
    p = run("forecast", "--model", str(work / "snn.ckpt"), "--data", str(work / "short.csv"), "--has-header",
            "--out", str(work / "short_fc.csv"), expect=2)
    assert f"short.csv: series has {HISTORY - 1} rows; need at least history + horizon = {HISTORY}" in p.stderr
    assert "Traceback" not in p.stderr
    write_csv(str(work / "exact.csv"), np.ones((HISTORY, 2)), ["s1", "s2"])
    run("forecast", "--model", str(work / "snn.ckpt"), "--data", str(work / "exact.csv"), "--has-header",
        "--out", str(work / "exact_fc.csv"))
    fc = load_csv(str(work / "exact_fc.csv"), has_header=True)
    assert fc.values.shape == (1, 1 + 2 * HORIZON) and fc.values[0, 0] == HISTORY


def test_plot_data_emits_aligned_rows(work):
    out_csv = work / "plot.csv"
    run("plot-data", "--model", str(work / "snn.ckpt"), "--data", str(work / "series.csv"),
        "--has-header", "--out", str(out_csv), "--step", "2")
    pd = load_csv(str(out_csv), has_header=True)
    assert pd.columns == ["t", "variable", "true", "predicted"]
    n_windows = 260 - HISTORY - HORIZON + 1
    assert pd.values.shape[0] == n_windows * 2
    raw = load_csv(str(work / "series.csv"), has_header=True)
    t0, var0, true0 = int(pd.values[0, 0]), int(pd.values[0, 1]), pd.values[0, 2]
    assert t0 == HISTORY + 1  # step 2 lands one row later
    assert true0 == pytest.approx(raw.values[t0, var0], abs=1e-9)
    # every row holds the arrays eval scores, window by window and variable by variable
    model, meta = load_checkpoint(str(work / "snn.ckpt"))
    true, pred = cli._eval_model(model, meta, str(work / "snn.ckpt"), str(work / "series.csv"), True)
    expected = [[w + HISTORY + 1, j, true[w, 1, j], pred[w, 1, j]]
                for w in range(n_windows) for j in range(2)]
    lines = out_csv.read_text().splitlines()[1:]
    assert lines == [",".join(format(v, ".10g") for v in row) for row in expected]
    t, var = pd.values[:, 0].astype(int), pd.values[:, 1].astype(int)
    assert np.allclose(pd.values[:, 2], raw.values[t, var], rtol=0, atol=1e-9)


def test_plot_data_rejects_out_of_range_step(work):
    p = run("plot-data", "--model", str(work / "snn.ckpt"), "--data", str(work / "series.csv"),
            "--has-header", "--out", str(work / "z.csv"), "--step", "9", expect=2)
    assert "--step" in p.stderr


def test_energy_profile_and_kv_output(work):
    kv_path = work / "report.kv"
    out = run("energy", "--model", str(work / "snn.ckpt"), "--data", str(work / "series.csv"),
              "--has-header", "--table", str(work / "energy.cfg"), "--limit", "16",
              "--compare", "--out", str(kv_path)).stdout
    assert "total energy" in out
    assert "ratio (snn/ann)" in out
    kv = dict(line.split(" = ") for line in kv_path.read_text().splitlines())
    assert float(kv["total_joules"]) > 0
    assert float(kv["ops.acc"]) >= 0


def test_energy_compare_prices_the_profiled_run(work, monkeypatch, capsys):
    calls = []
    forward = ssm.block_forward_snn

    def counted(*args, **kw):
        calls.append(kw.get("tag"))
        return forward(*args, **kw)

    monkeypatch.setattr(ssm, "block_forward_snn", counted)
    assert cli.main(["energy", "--model", str(work / "snn.ckpt"), "--data", str(work / "series.csv"),
                     "--has-header", "--table", str(work / "energy.cfg"), "--limit", "16", "--compare"]) == 0
    assert "ratio (snn/ann)" in capsys.readouterr().out
    blocks = load_checkpoint(str(work / "snn.ckpt"))[0].cfg.blocks
    assert calls == [f"block{i}" for i in range(blocks)]  # one spiking forward, not a second for --compare


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_energy_rejects_a_limit_below_one(work, capsys, limit):
    # -5 would slice off the last 5 windows; 0 would price no window and print an infinite ratio
    assert cli.main(["energy", "--model", str(work / "snn.ckpt"), "--data", str(work / "series.csv"),
                     "--has-header", "--table", str(work / "energy.cfg"), "--limit", limit, "--compare"]) == 2
    out, err = capsys.readouterr()
    assert f"--limit must be >= 1, got {limit}" in err and "total energy" not in out


def test_energy_requires_snn_checkpoint(work):
    p = run("energy", "--model", str(work / "ann.ckpt"), "--data", str(work / "series.csv"),
            "--has-header", "--table", str(work / "energy.cfg"), expect=2)
    assert "snn" in p.stderr


def test_energy_table_must_be_complete(work):
    (work / "partial.cfg").write_text("e_acc = 1e-12\n")
    p = run("energy", "--model", str(work / "snn.ckpt"), "--data", str(work / "series.csv"),
            "--has-header", "--table", str(work / "partial.cfg"), expect=2)
    assert "e_mac" in p.stderr


def test_unknown_config_key_is_an_error(work):
    (work / "typo.cfg").write_text("d_hiden = 6\n")
    p = run("train", "--data", str(work / "series.csv"), "--has-header",
            "--history", "8", "--horizon", "2",
            "--config", str(work / "typo.cfg"), "--out", str(work / "t.ckpt"), expect=2)
    assert "d_hiden" in p.stderr and "known:" in p.stderr


def test_config_type_errors_name_the_key(work):
    (work / "badtype.cfg").write_text("max_epochs = soon\n")
    p = run("train", "--data", str(work / "series.csv"), "--has-header",
            "--history", "8", "--horizon", "2",
            "--config", str(work / "badtype.cfg"), "--out", str(work / "t.ckpt"), expect=2)
    assert "max_epochs" in p.stderr and "int" in p.stderr


def test_config_syntax_errors_carry_line_numbers(work):
    (work / "syntax.cfg").write_text("# fine\nnot a pair\n")
    p = run("train", "--data", str(work / "series.csv"), "--has-header",
            "--history", "8", "--horizon", "2",
            "--config", str(work / "syntax.cfg"), "--out", str(work / "t.ckpt"), expect=2)
    assert ":2:" in p.stderr


@pytest.mark.parametrize("text, message", [
    ("d_hidden = 6\nd_hidden 8\n", "2: expected 'key = value', got 'd_hidden 8'"),
    ("d_hidden = 6\nlr = fast\n", "2: key 'lr' expects float, got 'fast'"),
])
def test_load_config_names_the_line_of_a_bad_pair(tmp_path, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    with pytest.raises(ValueError) as e:
        cli.load_config(str(cfg), {**cli.MODEL_KEYS, **cli.TRAIN_KEYS})
    assert str(e.value) == f"{cfg}:{message}"


def config_command(work, command, cfg, *extra) -> int:
    """``train --config cfg`` or ``energy --table cfg`` on the fixture's series, in this process."""
    if command == "train":
        args = ["--history", str(HISTORY), "--horizon", str(HORIZON), "--config", str(cfg),
                "--out", str(work / "config.ckpt")]
    else:
        args = ["--model", str(work / "snn.ckpt"), "--table", str(cfg)]
    return cli.main([command, "--data", str(work / "series.csv"), "--has-header", *args, *extra])


# the POSIX locale with UTF-8 mode off, where text I/O without an encoding is ASCII
ASCII_LOCALE = {**os.environ, "LC_ALL": "POSIX", "PYTHONUTF8": "0"}


@pytest.mark.parametrize("command, text, message", [
    # each command takes only the keys it reads: train no energy entry, energy no training setting
    ("train", b"d_hidden = 6\ne_acc = 5\n", "2: unknown config key 'e_acc' (known: "),
    ("energy", ENERGY_TABLE.format("4.6e-12").encode() + b"lr = 7\n",
     "5: unknown config key 'lr' (known: e_acc, e_cmp, e_mac, e_shift)"),
    ("train", b"d_hidden = 6\n# wider\nd_hidden = 8\n", "3: key 'd_hidden' given twice"),
    ("train", b"d_hidden = 6\n# r\xe9glages\n", " not UTF-8 text: byte 0xe9 at offset 16 (line 2)"),
])
def test_config_errors_name_the_file_and_line(work, capsys, command, text, message):
    cfg = work / "refused.cfg"
    cfg.write_bytes(text)
    assert config_command(work, command, cfg) == 2
    assert f"error: {cfg}:{message}" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("e_acc = 0.9e-12\n", "energy table is missing entries: e_mac, e_shift, e_cmp"),
    (ENERGY_TABLE.format("nan"), "energy table entry e_mac must be finite and >= 0, got nan"),
])
def test_energy_table_errors_name_the_table(work, capsys, text, message):
    table = work / "refused_table.cfg"
    table.write_text(text)
    assert config_command(work, "energy", table) == 2
    assert f"error: {table}: {message}" in capsys.readouterr().err


def test_a_bad_split_in_a_train_config_names_the_config(work, capsys):
    """The split was checked only in windowing, after the CSV was read, and the error named the CSV."""
    cfg = work / "bad_split.cfg"
    cfg.write_text("max_epochs = 1\nsplit_val = -0.1\n")
    assert config_command(work, "train", cfg) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {cfg}: split ratios must be finite, nonnegative and sum to at most 1, "
                   "got (0.7, -0.1, 0.2)\n")


@pytest.mark.parametrize("cell", [1e200, 1e308])
def test_a_training_cell_that_overflows_the_statistics_is_a_usage_error(work, capsys, cell):
    """With a training cell of 1e200, ``train`` printed numpy's overflow warning, trained on a column
    whose std was inf, every normalized value in it 0, saved a checkpoint and exited 0."""
    values = make_coupled_sinusoids(n_steps=260, seed=1).values
    values[100, 1] = cell
    data = work / "huge_train_cell.csv"
    write_csv(str(data), values, ["s1", "s2"])
    cfg = work / "huge_train_cell.cfg"
    cfg.write_text("d_hidden = 4\nstate_size = 2\nmax_epochs = 2\n")
    out_path = work / "huge_train_cell.ckpt"
    assert cli.main(["train", "--data", str(data), "--has-header", "--history", str(HISTORY), "--horizon",
                     str(HORIZON), "--config", str(cfg), "--out", str(out_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not out_path.exists()
    assert err == (f"error: {data}: cell {cell!r} at row 100, column 1 is too large: its column's mean or "
                   "standard deviation over the training rows is not a finite float64\n")


def test_energy_compare_refuses_a_table_that_prices_the_dense_path_at_zero(work, capsys):
    """An all-zero table prices a profile, but its dense path costs 0 J: ``--compare`` printed
    ``ratio (snn/ann): inf`` and ``reduction: -inf%`` and exited 0."""
    table = work / "zero_table.cfg"
    table.write_text("e_acc = 0\ne_mac = 0\ne_shift = 0\ne_cmp = 0\n")
    assert config_command(work, "energy", table, "--limit", "4") == 0
    assert "total energy" in capsys.readouterr().out
    assert config_command(work, "energy", table, "--limit", "4", "--compare") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {table}: the dense path costs 0 J under this table, so the ratio (snn/ann) is undefined\n"


def test_a_config_may_start_with_a_byte_order_mark(work, capsys):
    cfg = work / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbf" + ENERGY_TABLE.format("4.6e-12").encode())
    assert config_command(work, "energy", cfg, "--limit", "4") == 0
    assert "total energy" in capsys.readouterr().out


def test_a_non_ascii_config_comment_reads_under_an_ascii_locale(work):
    (work / "accented.cfg").write_bytes("# réglages\n".encode() + (work / "train.cfg").read_bytes())
    run("train", "--data", str(work / "series.csv"), "--has-header", "--history", str(HISTORY),
        "--horizon", str(HORIZON), "--config", str(work / "accented.cfg"), "--out", str(work / "accented.ckpt"),
        env=ASCII_LOCALE)
    assert load_checkpoint(str(work / "accented.ckpt"))[0].cfg.d_hidden == 6


def test_a_forecast_with_non_ascii_column_names_is_written_as_utf8(work):
    """Under an ASCII locale the forecast CSV is still UTF-8, the encoding ``load_csv`` reads back."""
    ds = load_csv(str(work / "series.csv"), has_header=True)
    write_csv(str(work / "accented.csv"), ds.values, ["température", "débit"])
    out = work / "accented_fc.csv"
    run("forecast", "--model", str(work / "snn.ckpt"), "--data", str(work / "accented.csv"), "--has-header",
        "--out", str(out), env=ASCII_LOCALE)
    assert load_csv(str(out), has_header=True).columns[:3] == ["t", "température_step1", "débit_step1"]


def test_a_byte_order_mark_is_not_part_of_the_first_column(work, capsys):
    csv_path, out = work / "bom.csv", work / "bom_fc.csv"
    csv_path.write_bytes(b"\xef\xbb\xbf" + (work / "series.csv").read_bytes())
    assert cli.main(["forecast", "--model", str(work / "snn.ckpt"), "--data", str(csv_path), "--has-header",
                     "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("t,s1_step1,s2_step1,s1_step2,")


@pytest.mark.parametrize("command", ["train", "eval", "energy", "plot-data", "verify", "convert", "forecast"])
def test_a_csv_one_row_too_short_is_named(work, capsys, command):
    """Each command that windows a CSV names it when the series holds no window: ``forecast`` needs a
    history of rows, the others a history and a horizon."""
    rows = HISTORY - 1 if command == "forecast" else HISTORY + HORIZON - 1
    short, out = work / f"short_{command}.csv", str(work / f"short_{command}.out")
    write_csv(str(short), np.ones((rows, 2)), ["s1", "s2"])
    snn = str(work / "snn.ckpt")
    args = {"train": ["--history", str(HISTORY), "--horizon", str(HORIZON), "--out", out],
            "eval": ["--model", snn],
            "energy": ["--model", snn, "--table", str(work / "energy.cfg")],
            "plot-data": ["--model", snn, "--out", out],
            "verify": ["--model", snn],
            "convert": ["--in", str(work / "ann.ckpt"), "--threshold-scale", "--out", out],
            "forecast": ["--model", snn, "--out", out]}[command]
    assert cli.main([command, "--data", str(short), "--has-header", *args]) == 2
    message = f"error: {short}: series has {rows} rows; need at least history + horizon = {rows + 1}"
    assert message in capsys.readouterr().err
    assert not Path(out).exists()


def test_missing_data_file_is_a_usage_error(work):
    p = run("eval", "--model", str(work / "snn.ckpt"), "--data", str(work / "nope.csv"),
            expect=2)
    assert "nope.csv" in p.stderr


def test_non_finite_data_is_a_usage_error(work):
    (work / "nan.csv").write_text("s1,s2\n" + "0.5,0.25\n" * 20 + "0.5,nan\n")
    p = run("eval", "--model", str(work / "snn.ckpt"), "--data", str(work / "nan.csv"),
            "--has-header", expect=2)
    assert "non-finite cell 'nan' at row 20, column 1" in p.stderr


def test_a_csv_that_is_not_utf8_is_named(work, capsys):
    (work / "latin.csv").write_bytes(b"s1,s2\n" + b"0.5,0.25\n" * 20 + b"0.5,\xff\n")
    assert cli.main(["eval", "--model", str(work / "snn.ckpt"), "--data", str(work / "latin.csv"),
                     "--has-header"]) == 2
    err = capsys.readouterr().err
    assert f"error: {work / 'latin.csv'}: not UTF-8 text: byte 0xff at offset 190 (line 22)" in err


def test_energy_profiles_in_batches_and_reports_as_one_call(work, monkeypatch, capsys):
    """On a CSV of 591 windows, ``energy`` runs no forward on more than 256 windows, and its text and
    ``--out`` file are those of one ``profile`` call on every window."""
    ds = make_coupled_sinusoids(n_steps=600, seed=5)
    write_csv(str(work / "long.csv"), ds.values, ds.columns)
    batches = []
    forward = ssm.block_forward_snn

    def counted(x, *args, **kw):
        batches.append(len(x.data))
        return forward(x, *args, **kw)

    def energy(out: str, batch: int) -> tuple[str, str]:
        monkeypatch.setattr(cli, "BATCH", batch)
        assert cli.main(["energy", "--model", str(work / "snn.ckpt"), "--data", str(work / "long.csv"),
                         "--has-header", "--table", str(work / "energy.cfg"), "--compare",
                         "--out", str(work / out)]) == 0
        return capsys.readouterr().out.replace(str(work / out), "OUT"), (work / out).read_text()

    one = energy("one.kv", 10 ** 6)
    monkeypatch.setattr(ssm, "block_forward_snn", counted)
    assert energy("batched.kv", 256) == one
    assert batches == [256, 256, 79]


@pytest.mark.parametrize("command", ["forecast", "eval", "verify"])
def test_csv_with_the_wrong_column_count_is_a_usage_error(work, command):
    (work / "three.csv").write_text("s1,s2,s3\n" + "0.5,0.25,0.125\n" * 20)
    extra = ["--out", str(work / "three_fc.csv")] if command == "forecast" else []
    p = run(command, "--model", str(work / "snn.ckpt"), "--data", str(work / "three.csv"),
            "--has-header", *extra, expect=2)
    assert "three.csv: 3 columns, the model takes d_value = 2" in p.stderr


@pytest.mark.parametrize("rows", ["0.5,0.25,0.125\n", "0.5\n"])
def test_a_header_that_disagrees_with_the_data_is_a_usage_error(work, rows):
    (work / "named.csv").write_text("s1,s2\n" + rows * 20)
    p = run("eval", "--model", str(work / "snn.ckpt"), "--data", str(work / "named.csv"),
            "--has-header", expect=2)
    cells = rows.count(",") + 1
    assert f"named.csv: header has 2 names, data row 0 has {cells} cells" in p.stderr
    assert "Traceback" not in p.stderr


@pytest.mark.parametrize("setting, key", [
    ("state_size = 0\n", "state_size"), ("conv_kernel = 0\n", "conv_kernel"),
    ("batch_size = 0\n", "batch_size"), ("history = 0\n", "history"),
    ("blocks = 0\n", "blocks"),
])
def test_degenerate_sizes_are_usage_errors(work, setting, key):
    (work / "degenerate.cfg").write_text(setting)
    flags = [] if key == "history" else ["--history", "8"]
    p = run("train", "--data", str(work / "series.csv"), "--has-header", *flags, "--horizon", "2",
            "--config", str(work / "degenerate.cfg"), "--out", str(work / "t.ckpt"), expect=2)
    assert f"{key} must be >= 1, got 0" in p.stderr and "Traceback" not in p.stderr


@pytest.mark.parametrize("history", ["-3", "0"])
def test_a_bad_config_is_refused_before_the_csv_is_windowed(work, history):
    """``--history -3`` failed in numpy's windowing, naming the CSV and giving numpy's words, and
    ``--history 0`` printed the window counts before it failed: the configs are now built first."""
    p = run("train", "--data", str(work / "series.csv"), "--has-header", "--history", history, "--horizon", "2",
            "--config", str(work / "train.cfg"), "--out", str(work / "bad_history.ckpt"), expect=2)
    assert p.stdout == ""
    assert f"error: model config: history must be >= 1, got {history}" in p.stderr
    assert not (work / "bad_history.ckpt").exists()


def test_a_code_width_over_16_bits_is_a_usage_error(work):
    """Every code grid holds 2**bits table entries, rebuilt each step for a trainable quantizer."""
    out = work / "wide.ckpt"
    p = run("train", "--data", str(work / "series.csv"), "--has-header", "--history", "8", "--horizon", "2",
            "--bits", "17", "--config", str(work / "train.cfg"), "--out", str(out), expect=2)
    assert "model config: bits must be <= 16, got 17" in p.stderr and "Traceback" not in p.stderr
    assert not out.exists()


@pytest.mark.parametrize("setting, message", [
    ("max_epochs = 0\n", "max_epochs must be >= 1, got 0"),
    ("lr = -1\n", "lr must be finite and > 0, got -1"),
    ("beta2 = 1.0\n", "beta2 must be in [0, 1), got 1.0"),
])
def test_untrainable_settings_are_usage_errors(work, setting, message):
    """Each of these used to train (an untrained checkpoint, gradient ascent, a division by zero)."""
    (work / "untrainable.cfg").write_text(setting)
    out = work / "untrainable.ckpt"
    p = run("train", "--data", str(work / "series.csv"), "--has-header", "--history", "8", "--horizon", "2",
            "--config", str(work / "untrainable.cfg"), "--out", str(out), expect=2)
    assert f"train config: {message}" in p.stderr and "Traceback" not in p.stderr
    assert not out.exists()


@pytest.mark.parametrize("command, setting, message", [
    ("train", "eps = inf\n", "train config: eps must be finite and > 0, got inf"),
    ("train", "split_train = nan\n",
     "split ratios must be finite, nonnegative and sum to at most 1, got (nan, 0.1, 0.2)"),
    ("energy", ENERGY_TABLE.format("nan"), "energy table entry e_mac must be finite and >= 0, got nan"),
    ("energy", ENERGY_TABLE.format("inf"), "energy table entry e_mac must be finite and >= 0, got inf"),
])
def test_non_finite_config_values_are_usage_errors(work, command, setting, message):
    """Each of these used to run: a training step that moved nothing, an error naming no setting,
    and an energy report of nan joules, all but one exiting 0."""
    (work / "non_finite.cfg").write_text(setting)
    out = work / "non_finite.out"
    if command == "train":
        p = run("train", "--data", str(work / "series.csv"), "--has-header", "--history", "8", "--horizon", "2",
                "--config", str(work / "non_finite.cfg"), "--out", str(out), expect=2)
    else:
        p = run("energy", "--model", str(work / "snn.ckpt"), "--data", str(work / "series.csv"), "--has-header",
                "--table", str(work / "non_finite.cfg"), "--out", str(out), expect=2)
    assert message in p.stderr and "Traceback" not in p.stderr
    assert not out.exists()


def test_a_diverging_training_run_is_a_usage_error(work):
    ds = make_coupled_sinusoids(n_steps=400, seed=0)
    write_csv(str(work / "series400.csv"), ds.values, ds.columns)
    (work / "diverge.cfg").write_text("max_epochs = 2\nlr = 1e9\n")
    out = work / "diverged.ckpt"
    p = run("train", "--data", str(work / "series400.csv"), "--has-header", "--history", "12", "--horizon", "3",
            "--config", str(work / "diverge.cfg"), "--out", str(out), expect=2)
    assert "training diverged: loss nan at epoch 0, step 2; first non-finite parameter block0.A_log" in p.stderr
    assert "Traceback" not in p.stderr and not out.exists()


def test_missing_history_flags_are_reported(work):
    p = run("train", "--data", str(work / "series.csv"), "--has-header",
            "--out", str(work / "t.ckpt"), expect=2)
    assert "history" in p.stderr


def test_forecast_and_eval_agree_between_modes(work):
    """ann and snn checkpoints produce identical forecasts on the same data."""
    a, b = work / "fa.csv", work / "fb.csv"
    run("forecast", "--model", str(work / "ann.ckpt"), "--data", str(work / "series.csv"),
        "--has-header", "--out", str(a))
    run("forecast", "--model", str(work / "snn.ckpt"), "--data", str(work / "series.csv"),
        "--has-header", "--out", str(b))
    fa, fb = load_csv(str(a), has_header=True), load_csv(str(b), has_header=True)
    assert np.max(np.abs(fa.values - fb.values)) <= 1e-9


# --- mutated checkpoints through the command line ----------------------------------------

FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixture" / "readme_model.ckpt"
MUTATED_COMMANDS = {
    "forecast": ["forecast", "--model", "{ckpt}", "--data", "{csv}", "--has-header", "--out", "{dir}/f.csv"],
    "eval": ["eval", "--model", "{ckpt}", "--data", "{csv}", "--has-header"],
    "energy": ["energy", "--model", "{ckpt}", "--data", "{csv}", "--has-header", "--table", "{dir}/energy.cfg",
               "--limit", "8"],
    "convert": ["convert", "--in", "{ckpt}", "--out", "{dir}/converted.ckpt"],
    "verify": ["verify", "--model", "{ckpt}", "--data", "{csv}", "--has-header"],
}
BYTE_MUTATIONS = ("flip", "truncate")
KEY_MUTATIONS = ("drop", "str", "list", "null", "grow", "shrink", "nan", "inf", "huge")


@pytest.fixture(scope="module")
def mutation_inputs(tmp_path_factory):
    """A directory with a short series and an energy table, and the bytes of the benchmark
    fixture (a trained checkpoint) and of its converted copy."""
    d = tmp_path_factory.mktemp("mutated")
    ds = make_coupled_sinusoids(n_steps=40, seed=1)
    write_csv(str(d / "series.csv"), ds.values, ds.columns)
    (d / "energy.cfg").write_text("e_acc = 0.9e-12\ne_mac = 4.6e-12\ne_shift = 0.15e-12\ne_cmp = 0.1e-12\n")
    model, meta = load_checkpoint(str(FIXTURE))
    save_checkpoint(str(d / "snn.ckpt"), convert_to_snn(model), norm=meta["norm"], extra=meta["extra"])
    return d, {"ann": FIXTURE.read_bytes(), "snn": (d / "snn.ckpt").read_bytes()}


def with_metadata(raw: bytes, change) -> bytes:
    """The checkpoint ``raw`` with its JSON metadata passed through ``change``."""
    (mlen,) = struct.unpack_from("<I", raw, 8)
    meta = json.loads(raw[12:12 + mlen])
    change(meta)
    blob = json.dumps(meta).encode()
    return raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + mlen:]


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_a_non_finite_head_weight_in_the_fixture_is_a_usage_error(mutation_inputs, capsys, value):
    """The fixture's last float32 is ``head.b[2]``: made NaN or inf, ``forecast`` exits 2 and names it."""
    d, raw = mutation_inputs
    ckpt = d / "nonfinite.ckpt"
    ckpt.write_bytes(raw["ann"][:-4] + struct.pack("<f", value))
    assert cli.main(["forecast", "--model", str(ckpt), "--data", str(d / "series.csv"), "--has-header",
                     "--out", str(d / "nf.csv")]) == 2
    assert f"error: {ckpt}: non-finite weight {value} in head.b at flat index 2" in capsys.readouterr().err
    assert not (d / "nf.csv").exists()


def test_a_null_delta_rank_in_the_fixture_is_a_usage_error(mutation_inputs, capsys):
    """``ModelConfig(...)`` gives a ``None`` delta_rank its default, but a checkpoint holds every field:
    the fixture with ``"delta_rank": null`` loaded with that default; ``forecast`` now exits 2 naming
    the file and the field."""
    d, raw = mutation_inputs
    ckpt = d / "null.ckpt"
    ckpt.write_bytes(with_metadata(raw["ann"], lambda meta: meta["config"].update(delta_rank=None)))
    assert cli.main(["forecast", "--model", str(ckpt), "--data", str(d / "series.csv"), "--has-header",
                     "--out", str(d / "null.csv")]) == 2
    assert f"error: {ckpt}: model config: delta_rank must be an integer, got None" in capsys.readouterr().err
    assert not (d / "null.csv").exists()


def test_a_misspelled_quantizer_key_in_the_fixture_is_a_usage_error(mutation_inputs, capsys):
    """The fixture with an extra ``alpah`` key in ``block0.h``'s quantizer record loaded, the key ignored;
    ``forecast`` now exits 2 naming the file, the quantizer and the key."""
    d, raw = mutation_inputs
    ckpt = d / "alpah.ckpt"
    ckpt.write_bytes(with_metadata(raw["ann"], lambda meta: meta["quantizers"][0]["h"].update(alpah=0.5)))
    assert cli.main(["forecast", "--model", str(ckpt), "--data", str(d / "series.csv"), "--has-header",
                     "--out", str(d / "alpah.csv")]) == 2
    assert f"error: {ckpt}: quantizer block0.h: unknown field 'alpah'" in capsys.readouterr().err
    assert not (d / "alpah.csv").exists()


@pytest.mark.parametrize("alpha", [0.0, -0.5])
def test_a_step_of_zero_or_below_in_the_fixture_is_refused_at_load(mutation_inputs, capsys, alpha):
    """The fixture is an ann checkpoint without site records: with ``block0.y``'s step set to 0 or below
    it loaded, and its first forward refused the step naming no file; loading now refuses it, so
    ``forecast`` exits 2 naming the file and the quantizer."""
    d, raw = mutation_inputs
    ckpt = d / "step.ckpt"
    ckpt.write_bytes(with_metadata(raw["ann"], lambda meta: meta["quantizers"][0]["y"].update(alpha=alpha)))
    defect = f"{ckpt}: quantizer block0.y: step size must be positive, got {alpha}"
    with pytest.raises(ValueError) as e:
        load_checkpoint(str(ckpt))
    assert str(e.value) == defect
    assert cli.main(["forecast", "--model", str(ckpt), "--data", str(d / "series.csv"), "--has-header",
                     "--out", str(d / "step.csv")]) == 2
    assert f"error: {defect}" in capsys.readouterr().err
    assert not (d / "step.csv").exists()


def _mutate_key(meta, walk, how) -> None:
    """Apply ``how`` to the metadata entry ``walk`` leads to: each step picks a key or index of the
    current object or list (modulo its length); the walk stops at a leaf or an empty container."""
    parent, key, node = None, None, meta
    for i in walk:
        if not isinstance(node, (dict, list)) or not node:
            break
        parent, key = node, list(node)[i % len(node)] if isinstance(node, dict) else i % len(node)
        node = node[key]
    if parent is None:
        return
    if how == "drop":
        del parent[key]
    elif how in ("grow", "shrink"):
        parent[key] = _resized(node, how == "grow")
    else:
        parent[key] = {"str": "x", "list": [], "null": None, "nan": float("nan"), "inf": float("inf"),
                       "huge": 10 ** 400}[how]


def _resized(value, grow: bool):
    """``value`` one size up or down: a list or a string repeats or loses its last entry, a number grows
    a thousandfold or halves, a bool flips, an object stays."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (list, str)):
        return value + value[-1:] if grow else value[:-1]
    if isinstance(value, int):
        return value * 1000 + 1 if grow else value // 2
    if isinstance(value, float):
        return value * 1000 if grow else value / 2
    return value


def _mutated(raw: bytes, how: str, where: int, walk: list[int]) -> bytes:
    if how == "flip":
        b = bytearray(raw)
        b[where // 8 % len(b)] ^= 1 << (where % 8)
        return bytes(b)
    if how == "truncate":
        return raw[:where % len(raw)]
    (mlen,) = struct.unpack_from("<I", raw, 8)
    meta = json.loads(raw[12:12 + mlen])
    _mutate_key(meta, walk, how)
    blob = json.dumps(meta).encode()
    return raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + mlen:]


@settings(max_examples=800, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(source=st.sampled_from(["ann", "snn"]), command=st.sampled_from(sorted(MUTATED_COMMANDS)),
       how=st.sampled_from(BYTE_MUTATIONS + KEY_MUTATIONS), where=st.integers(0, 2 ** 20),
       walk=st.lists(st.integers(0, 15), min_size=1, max_size=4))
# a number no float64 holds: a quantizer's step size, a site's threshold and window, the history
@example(source="ann", command="forecast", how="huge", where=0, walk=[2, 0, 0, 1])
@example(source="snn", command="eval", how="huge", where=0, walk=[3, 0, 4, 1])
@example(source="snn", command="verify", how="huge", where=0, walk=[3, 0, 5, 4])
@example(source="ann", command="convert", how="huge", where=0, walk=[0, 1])
def test_a_mutated_checkpoint_exits_0_1_or_2_and_names_the_file(mutation_inputs, source, command, how,
                                                                 where, walk):
    """Flipped bits, a truncation, or a metadata key dropped, retyped, resized, made non-finite or too
    large for a float64: every command returns 0, 1 or 2 and raises nothing, and an exit 2 names the
    checkpoint or the CSV."""
    d, raw = mutation_inputs
    ckpt = d / "mutated.ckpt"
    ckpt.write_bytes(_mutated(raw[source], how, where, walk))
    argv = [a.format(ckpt=ckpt, csv=d / "series.csv", dir=d) for a in MUTATED_COMMANDS[command]]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), np.errstate(all="ignore"):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert "mutated.ckpt" in err.getvalue() or "series.csv" in err.getvalue(), err.getvalue()
