"""End-to-end command-line walkthrough against a tiny synthetic series."""

import json
import struct
import subprocess
import sys

import numpy as np
import pytest

from spikescan import cli, ssm
from spikescan.activations import DEVIATION_BOUNDS, verify_deviation_bounds
from spikescan.dataset import load_csv, make_coupled_sinusoids, write_csv
from spikescan.spike import threshold_scale
from spikescan.train import load_checkpoint, save_checkpoint

HISTORY, HORIZON = 8, 2


def run(*argv, expect=0):
    proc = subprocess.run([sys.executable, "-m", "spikescan.cli", *argv],
                          capture_output=True, text=True)
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


def test_verify_fails_on_tampered_checkpoint(work):
    # a threshold-scaled site loads, but y codes mid-range, so scaling it breaks equivalence
    model, meta = load_checkpoint(str(work / "snn.ckpt"))
    model.blocks[0].sites["y"] = threshold_scale(model.blocks[0].sites["y"])
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
    assert "block0.h" in p.stderr and "window length" in p.stderr


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
    assert "inf_theta.ckpt: spike site block0.h: threshold" in p.stderr


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
    assert f"short.csv: {HISTORY - 1} rows is shorter than the model history {HISTORY}" in p.stderr
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
    true, pred = cli._eval_model(model, meta, str(work / "series.csv"), True)
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


def test_missing_data_file_is_a_usage_error(work):
    p = run("eval", "--model", str(work / "snn.ckpt"), "--data", str(work / "nope.csv"),
            expect=2)
    assert "nope.csv" in p.stderr


def test_non_finite_data_is_a_usage_error(work):
    (work / "nan.csv").write_text("s1,s2\n" + "0.5,0.25\n" * 20 + "0.5,nan\n")
    p = run("eval", "--model", str(work / "snn.ckpt"), "--data", str(work / "nan.csv"),
            "--has-header", expect=2)
    assert "non-finite cell 'nan' at row 20, column 1" in p.stderr


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
