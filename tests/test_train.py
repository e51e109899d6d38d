"""Optimizer behavior, the training loop, conversion, checkpoints."""

import hashlib
import importlib
import json
import platform
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import spikescan.numerics as nm
from spikescan.dataset import SeriesDataset, make_coupled_sinusoids, make_windows
from spikescan.energy import OpCounters
from spikescan.quantize import ALPHA_FLOOR
from spikescan.ssm import SPIKE_SITES, ForecastModel, ModelConfig
from spikescan.train import (Adam, CALIBRATION_WINDOWS, CHECKPOINT_MAGIC, TrainConfig, apply_threshold_scaling,
                             convert_to_snn, load_checkpoint, save_checkpoint, train)


def reference_adam(p0, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook update with explicit bias-corrected moments."""
    p, m, v = float(p0), 0.0, 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        p -= lr * mhat / (np.sqrt(vhat) + eps)
        out.append(p)
    return out


def test_adam_matches_reference_trace():
    p = nm.tensor(np.array(5.0), trainable=True)
    opt = Adam([p], lr=0.1)
    rng = np.random.default_rng(3)
    gs = list(rng.normal(size=10))
    trace = []
    for g in gs:
        opt.step({p: np.array(g)})
        trace.append(float(p.data))
    ref = reference_adam(5.0, gs, lr=0.1)
    assert np.max(np.abs(np.array(trace) - np.array(ref))) < 1e-12


def test_adam_skips_parameters_without_gradients():
    a = nm.tensor(np.array([1.0, 2.0]), trainable=True)
    b = nm.tensor(np.array([3.0]), trainable=True)
    opt = Adam([a, b], lr=0.5)
    before = b.data.copy()
    for _ in range(4):
        opt.step({a: np.ones(2)})
    assert np.array_equal(b.data, before)
    assert not np.array_equal(a.data, np.array([1.0, 2.0]))


def per_tensor_adam(values, grad_steps, lr=1e-2, b1=0.9, b2=0.999, eps=1e-8):
    """The per-tensor update, one tensor at a time, in the flat Adam's operation order."""
    ps = [np.array(v, dtype=np.float64) for v in values]
    ms, vs = [np.zeros_like(p) for p in ps], [np.zeros_like(p) for p in ps]
    trail = []
    for t, grads in enumerate(grad_steps, start=1):
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for p, m, v, g in zip(ps, ms, vs, grads):
            if g is None:
                continue
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
        trail.append([p.tobytes() for p in ps])
    return trail


def test_flat_adam_matches_the_per_tensor_rule_bit_for_bit():
    """0-d, 1-d and 2-d tensors over 30 steps; the middle ones skip some steps, and a skipped tensor
    keeps its value and moments, so a later step resumes from them exactly."""
    rng = np.random.default_rng(11)
    values = [rng.normal(), rng.normal(size=5), rng.normal(size=(3, 4)), rng.normal(), rng.normal(size=(2, 3))]
    grad_steps = []
    for t in range(30):
        gs = [rng.normal(size=np.shape(v)) * 10.0 ** rng.integers(-6, 3) for v in values]
        if t % 3 == 1:
            gs[2] = None
        if t % 4 == 2:
            gs[1] = gs[3] = None
        grad_steps.append(gs)
    params = [nm.tensor(v, trainable=True) for v in values]
    opt = Adam(params, lr=1e-2)
    trail = []
    for gs in grad_steps:
        opt.step({p: g for p, g in zip(params, gs) if g is not None})
        trail.append([p.data.tobytes() for p in params])
    assert trail == per_tensor_adam(values, grad_steps)
    assert all(np.shares_memory(p.data, opt.flat) for p in params)
    assert [p.data.shape for p in params] == [np.shape(v) for v in values]


def test_adam_rejects_a_parameter_listed_twice():
    p = nm.tensor(np.zeros(2), trainable=True)
    with pytest.raises(ValueError, match="listed twice"):
        Adam([p, p])


def test_adam_refuses_a_parameter_whose_data_was_rebound():
    """A rebound ``data`` would leave the flat buffer: the step would stop moving it and the
    end-of-training restore would miss it, so the step says so instead."""
    a = nm.tensor(np.zeros(2), trainable=True, name="a")
    b = nm.tensor(np.zeros(3), trainable=True, name="b")
    opt = Adam([a, b], lr=1e-2)
    a.data[...] = 1.0  # in place: still the buffer's view
    opt.step({a: np.ones(2)})
    b.data = np.ones(3)
    before = opt.flat.copy()
    with pytest.raises(RuntimeError, match="data of b was rebound"):
        opt.step({a: np.ones(2)})
    assert opt.flat.tobytes() == before.tobytes()


def test_clamp_steps_lands_in_the_buffer_the_next_step_reads():
    cfg = small_cfg()
    x, y = make_data(cfg=cfg)
    m = ForecastModel.build(cfg, seed=0)
    m.calibrate(x)
    params = m.parameters()
    opt = Adam(params, lr=1e-2)
    alpha = m.blocks[0].quantizers["x_in"].alpha
    j = next(i for i, p in enumerate(params) if p is alpha)
    alpha.data[...] = -3.0  # as if an update overshot below zero
    m.clamp_steps()
    assert opt.flat[sum(p.data.size for p in params[:j])] == ALPHA_FLOOR
    g = np.asarray(0.5)
    opt.step({alpha: g})
    expect = per_tensor_adam([ALPHA_FLOOR], [[g]])[-1][0]
    assert alpha.data.tobytes() == expect


def test_zero_learning_rate_is_a_noop():
    p = nm.tensor(np.array([1.0, -2.0, 3.0]), trainable=True)
    opt = Adam([p], lr=0.0)
    snap = p.data.copy()
    for _ in range(3):
        opt.step({p: np.full(3, 7.0)})
    assert np.array_equal(p.data, snap)


class _ScalarFit:
    """Minimal model protocol: predict w * x."""

    def __init__(self, w0=0.0):
        self.w = nm.tensor(np.array(w0), trainable=True, name="w")

    def parameters(self):
        return [self.w]

    def forward(self, x, smooth=False, counters=None):
        return nm.mul(nm.tensor(np.asarray(x, dtype=np.float64)), self.w)


class _Frozen:
    """Predictions never change; every epoch ties the best loss."""

    def __init__(self):
        self.p = nm.tensor(np.array(0.0), trainable=True, name="p")

    def parameters(self):
        return [self.p]

    def forward(self, x, smooth=False, counters=None):
        return nm.tensor(np.asarray(x, dtype=np.float64))


def test_early_stop_counts_patience_exactly():
    m = _Frozen()
    x = np.ones((6, 1))
    res = train(m, x, 2 * x, x, 2 * x, TrainConfig(patience=5, max_epochs=100, batch_size=4))
    # epoch 0 sets the best; 5 non-improving epochs then stop
    assert res.epochs_run == 6
    assert res.best_epoch == 0
    assert len(res.val_losses) == 6


def test_improving_runs_never_stop_early():
    m = _ScalarFit(0.0)
    x = np.linspace(-1, 1, 12).reshape(-1, 1)
    res = train(m, x, 2 * x, x, 2 * x,
                TrainConfig(lr=1e-3, patience=3, max_epochs=25, batch_size=4))
    assert res.epochs_run == 25
    assert res.best_epoch == 24
    assert res.val_losses[-1] < res.val_losses[0]


def test_toy_regression_converges():
    m = _ScalarFit(0.0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(64, 1))
    res = train(m, x, 2.0 * x, np.empty((0, 1)), np.empty((0, 1)),
                TrainConfig(lr=0.05, max_epochs=300, patience=50, batch_size=16))
    assert abs(float(m.w.data) - 2.0) < 1e-2
    assert res.best_val < 1e-3


def test_best_snapshot_is_restored():
    m = _ScalarFit(1.9)
    x = np.ones((8, 1))
    # huge lr makes the iterates overshoot and oscillate
    res = train(m, x, 2 * x, x, 2 * x,
                TrainConfig(lr=1.5, patience=4, max_epochs=40, batch_size=8))
    pred = m.forward(x).data
    final = float(np.mean((pred - 2 * x) ** 2))
    assert final == pytest.approx(res.best_val, abs=1e-15)


class _Recorder(_ScalarFit):
    """``_ScalarFit`` that records the array and value of ``w`` at every untaped (validation) forward."""

    def __init__(self, w0):
        super().__init__(w0)
        self.seen = []

    def forward(self, x, smooth=False, counters=None):
        if nm.active_tape() is None:
            self.seen.append((self.w.data, float(self.w.data)))
        return super().forward(x, smooth, counters)


def test_train_restores_the_best_snapshot_into_the_same_arrays():
    m = _Recorder(1.9)
    x = np.ones((8, 1))
    res = train(m, x, 2 * x, x, 2 * x, TrainConfig(lr=1.5, patience=4, max_epochs=40, batch_size=8))
    assert res.best_epoch < res.epochs_run - 1  # the last epoch was not the best: a restore happened
    arrays = {id(a) for a, _ in m.seen}
    assert len(arrays) == 1 and id(m.w.data) in arrays
    assert float(m.w.data) == m.seen[res.best_epoch][1]


def small_cfg(**kw) -> ModelConfig:
    base = dict(d_value=2, history=8, horizon=2, d_hidden=4, state_size=2,
                conv_kernel=3, blocks=1, bits=2)
    base.update(kw)
    return ModelConfig(**base)


def make_data(n=24, cfg=None, seed=0):
    cfg = cfg or small_cfg()
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, cfg.history, cfg.d_value))
    y = rng.normal(size=(n, cfg.horizon, cfg.d_value)) * 0.1
    return x, y


def test_training_is_deterministic_for_a_seed():
    cfg = small_cfg()
    x, y = make_data(cfg=cfg)
    runs = []
    for _ in range(2):
        m = ForecastModel.build(cfg, seed=1)
        res = train(m, x, y, x[:6], y[:6], TrainConfig(max_epochs=3, batch_size=8, seed=5))
        runs.append((res.train_losses, [p.data.copy() for p in m.parameters()]))
    assert runs[0][0] == runs[1][0]
    for a, b in zip(runs[0][1], runs[1][1]):
        assert np.array_equal(a, b)


def test_shuffle_seed_changes_the_trajectory():
    cfg = small_cfg()
    x, y = make_data(n=20, cfg=cfg)
    losses = []
    for seed in (0, 1):
        m = ForecastModel.build(cfg, seed=1)
        res = train(m, x, y, x[:4], y[:4], TrainConfig(max_epochs=2, batch_size=8, seed=seed))
        losses.append(res.train_losses[-1])
    assert losses[0] != losses[1]


def test_train_refuses_no_training_windows():
    """A calibrated model trained on 0 windows ran every epoch with no step and reported a training
    loss of 0.0, and with no validation windows either a best validation loss of 0.0; it is refused
    before any parameter moves, in the wording of calibration's check."""
    cfg = ModelConfig(d_value=2, history=8, horizon=2, d_hidden=4, state_size=2, conv_kernel=2)
    m = ForecastModel.build(cfg, seed=0)
    x = np.random.default_rng(0).normal(size=(6, cfg.history, cfg.d_value))
    y = x[:, :cfg.horizon]
    m.calibrate(x)
    before = [p.data.copy() for p in m.parameters()]
    for x_val, y_val in ((x, y), (x[:0], y[:0])):
        with pytest.raises(ValueError, match="^train: expected at least one training window, got 0$"):
            train(m, x[:0], y[:0], x_val, y_val, TrainConfig(max_epochs=2))
    assert all(np.array_equal(p.data, b) for p, b in zip(m.parameters(), before))


def test_train_config_rejects_an_empty_batch():
    with pytest.raises(ValueError, match="train config: batch_size must be >= 1, got 0"):
        TrainConfig(batch_size=0)


@pytest.mark.parametrize("key, value, rule", [
    ("max_epochs", 0, ">= 1"), ("patience", 0, ">= 1"), ("patience", -3, ">= 1"),
    ("lr", -1.0, "finite and > 0"), ("lr", 0.0, "finite and > 0"), ("lr", float("inf"), "finite and > 0"),
    ("lr", float("nan"), "finite and > 0"), ("beta1", -0.1, "in \\[0, 1\\)"), ("beta1", 1.0, "in \\[0, 1\\)"),
    ("beta2", 1.0, "in \\[0, 1\\)"), ("beta2", float("nan"), "in \\[0, 1\\)"), ("eps", 0.0, "finite and > 0"),
    ("eps", -1e-8, "finite and > 0"), ("eps", float("nan"), "finite and > 0"), ("eps", float("inf"), "finite and > 0"),
    ("seed", -1, ">= 0"),
])
def test_train_config_validates_every_field(key, value, rule):
    with pytest.raises(ValueError, match=f"train config: {key} must be {rule}, got {value}"):
        TrainConfig(**{key: value})


@pytest.mark.parametrize("key, value, kind", [
    ("batch_size", 2.5, "an integer"), ("max_epochs", 2.5, "an integer"), ("patience", 3.0, "an integer"),
    ("seed", 1.5, "an integer"), ("seed", True, "an integer"), ("batch_size", "8", "an integer"),
    ("lr", True, "a number"), ("eps", False, "a number"), ("beta1", "0.9", "a number"),
])
def test_train_config_checks_the_type_of_every_field(key, value, kind):
    """A float count and a bool passed the range checks: a float batch size or seed failed later in
    ``train`` with a bare TypeError, and ``lr=True`` trained with lr 1."""
    with pytest.raises(ValueError) as e:
        TrainConfig(**{key: value})
    assert str(e.value) == f"train config: {key} must be {kind}, got {value!r}"


def test_train_config_accepts_the_edges_of_its_ranges():
    TrainConfig(max_epochs=1, patience=1, lr=1e9, beta1=0.0, beta2=0.0, eps=1e-300, seed=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows that make the loss NaN
def test_a_diverging_run_names_the_epoch_step_and_parameter():
    sp = make_windows(make_coupled_sinusoids(n_steps=400, seed=0), 12, 3)
    m = ForecastModel.build(ModelConfig(d_value=2, history=12, horizon=3), seed=0)
    with pytest.raises(ValueError, match="training diverged: loss nan at epoch 0, step 2; "
                                         "first non-finite parameter block0.A_log"):
        train(m, sp.x_train, sp.y_train, sp.x_val, sp.y_val, TrainConfig(lr=1e9, max_epochs=2))


def test_a_non_finite_loss_with_finite_parameters_says_so():
    x = np.ones((8, 1))
    y = 2 * x
    y[5] = np.nan  # the second batch of 4
    with pytest.raises(ValueError, match="loss nan at epoch 0, step 1; every parameter is finite"):
        train(_ScalarFit(1.0), x, y, x, 2 * x, TrainConfig(max_epochs=3, batch_size=4, seed=0))


def test_a_training_step_records_27_tape_ops():
    """README config, one block, batch 64: the block's ops, the head and the loss; the scan is one op,
    and so are the gate and the step's softplus, each with its quantizer."""
    cfg = ModelConfig(d_value=2, history=12, horizon=3)
    m = ForecastModel.build(cfg, seed=0)
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(64, 12, 2)), rng.normal(size=(64, 3, 2))
    m.calibrate(x)
    with nm.GradTape() as tape:
        nm.mse(m.forward(x), nm.tensor(y))
    assert len(tape) == 27


def test_train_autocalibrates_uninitialized_models():
    cfg = small_cfg()
    x, y = make_data(cfg=cfg)
    m = ForecastModel.build(cfg, seed=2)
    assert not m.calibrated()
    train(m, x, y, x[:4], y[:4], TrainConfig(max_epochs=1, batch_size=8))
    assert m.calibrated()


def test_train_calibrates_a_fresh_model_on_the_first_calibration_windows(monkeypatch):
    """``train`` fitted a fresh model's step sizes on every training window, in one forward whose copy
    of the scan states grew with the data; it now takes the first ``CALIBRATION_WINDOWS``, as
    ``spikescan train`` always did, and leaves a model calibrated beforehand as it is."""
    cfg = small_cfg()
    x, y = make_data(n=CALIBRATION_WINDOWS + 40, cfg=cfg)
    seen = []
    calibrate = ForecastModel.calibrate

    def recording_calibrate(model, windows):
        seen.append(windows.copy())
        calibrate(model, windows)

    monkeypatch.setattr(ForecastModel, "calibrate", recording_calibrate)
    tc = TrainConfig(max_epochs=1, batch_size=256)
    fresh = ForecastModel.build(cfg, seed=2)
    train(fresh, x, y, x[:0], y[:0], tc)
    assert len(seen) == 1 and np.array_equal(seen[0], x[:CALIBRATION_WINDOWS])
    ahead = ForecastModel.build(cfg, seed=2)
    ahead.calibrate(x[:CALIBRATION_WINDOWS])
    train(ahead, x, y, x[:0], y[:0], tc)
    assert len(seen) == 2  # the explicit call only
    assert all(a.data.tobytes() == b.data.tobytes() for a, b in zip(fresh.parameters(), ahead.parameters()))


def test_convert_requires_calibration():
    m = ForecastModel.build(small_cfg(), seed=0)
    with pytest.raises(RuntimeError) as e:
        convert_to_snn(m)
    assert "x_in" in str(e.value)


def test_conversion_after_training_stays_equivalent():
    cfg = small_cfg()
    x, y = make_data(cfg=cfg)
    m = ForecastModel.build(cfg, seed=3)
    train(m, x, y, x[:6], y[:6], TrainConfig(max_epochs=2, batch_size=8, lr=1e-3))
    ann = m.forward(x).data
    convert_to_snn(m)
    assert m.mode == "snn"
    snn = m.forward(x).data
    assert np.max(np.abs(ann - snn)) <= 1e-9
    assert all(blk.sites["x_in"].T == 2 ** cfg.bits - 1 for blk in m.blocks)


def test_double_conversion_is_rejected():
    cfg = small_cfg()
    x, _ = make_data(cfg=cfg)
    m = ForecastModel.build(cfg, seed=3)
    m.calibrate(x)
    convert_to_snn(m)
    with pytest.raises(RuntimeError):
        convert_to_snn(m)


def test_threshold_scaling_requires_snn_mode():
    cfg = small_cfg()
    x, _ = make_data(cfg=cfg)
    m = ForecastModel.build(cfg, seed=0)
    m.calibrate(x)
    with pytest.raises(RuntimeError):
        apply_threshold_scaling(m, x)


def _spike_totals(model, x):
    ct = OpCounters()
    model.forward(x, counters=ct)
    return {s: rec["spikes"] for s, rec in ct.sites.items()}


def test_threshold_scaling_preserves_outputs_and_cuts_windows():
    cfg = small_cfg()
    m = ForecastModel.build(cfg, seed=4)
    # saturating drive: every site lands on code 0 or full scale
    x = 50.0 * np.random.default_rng(8).normal(size=(12, cfg.history, cfg.d_value))
    m.calibrate(np.random.default_rng(9).normal(size=(12, cfg.history, cfg.d_value)))
    convert_to_snn(m)
    before_out = m.forward(x).data.copy()
    before_spikes = _spike_totals(m, x)
    scaled = apply_threshold_scaling(m, x)
    assert scaled, "expected at least one saturated site on extreme inputs"
    after_out = m.forward(x).data
    assert np.max(np.abs(after_out - before_out)) <= 1e-9
    after_spikes = _spike_totals(m, x)
    for s in after_spikes:
        assert after_spikes[s] <= before_spikes[s]
    for key in scaled:
        i, name = key.split(".", 1)
        assert m.blocks[int(i[5:])].sites[name].T == 1


def test_threshold_scaling_rolls_back_on_drift():
    cfg = small_cfg()
    m = ForecastModel.build(cfg, seed=4)
    rng = np.random.default_rng(9)
    m.calibrate(rng.normal(size=(12, cfg.history, cfg.d_value)))
    convert_to_snn(m)
    thetas = [{s: blk.sites[s].theta for s in blk.sites} for blk in m.blocks]
    # silent observation data marks every site eligible, but mid-range codes
    # on the verify set expose the collapse, so everything must roll back
    x_silent = np.zeros((4, cfg.history, cfg.d_value))
    x_mid = rng.normal(size=(12, cfg.history, cfg.d_value))
    baseline = m.forward(x_mid).data.copy()
    scaled = apply_threshold_scaling(m, x_silent, verify_x=x_mid)
    assert scaled == []
    for blk, saved in zip(m.blocks, thetas):
        for s, th in saved.items():
            assert blk.sites[s].theta == th
    assert np.array_equal(m.forward(x_mid).data, baseline)


def test_threshold_scaling_rolls_back_on_a_nan_drift():
    """The fixture with ``block0.x_in``'s step at 1e308: scaling its threshold by T overflows to inf,
    and the scaled model forecasts NaN, a drift that compares false against any bound.  The rewrite
    was kept, all six sites scaled; it is rolled back, and the forecasts keep their bytes."""
    m, meta = load_checkpoint(str(FIXTURE))
    norm = meta["norm"]
    x = make_windows(make_coupled_sinusoids(n_steps=300, seed=8675309), m.cfg.history, m.cfg.horizon,
                     (1.0, 0.0, 0.0), stats=(np.asarray(norm["mean"]), np.asarray(norm["std"]))).x_train[:64]
    m.blocks[0].quantizers["x_in"].set_alpha(1e308)
    convert_to_snn(m)
    with np.errstate(over="ignore", invalid="ignore"):  # the inf levels of the x_in site, and inf - inf
        before = m.forward(x).data
        assert apply_threshold_scaling(m, x) == []
        after = m.forward(x).data
    assert after.tobytes() == before.tobytes()
    assert scaled_sites(m) == []


def test_threshold_scaling_rolls_back_a_drift_between_the_bound_and_1e_3():
    """The fixture with its head shrunk by 1e-3, scaled on a flat series of 100.0 and verified on an
    unseen one: its five saturated sites collapse and the forecasts drift by about 9e-5, over the 1e-9
    bound though under 1e-3, so every site rolls back to the very grid it was."""
    m, meta = load_checkpoint(str(FIXTURE))
    m.W_head.data *= 1e-3
    m.b_head.data *= 1e-3
    stats = tuple(np.asarray(meta["norm"][k]) for k in ("mean", "std"))
    flat = make_windows(SeriesDataset(np.full((200, m.cfg.d_value), 100.0)), m.cfg.history, m.cfg.horizon,
                        (1.0, 0.0, 0.0), stats=stats).x_train[:4]
    unseen = make_windows(make_coupled_sinusoids(n_steps=600, seed=8675309), m.cfg.history, m.cfg.horizon,
                          (1.0, 0.0, 0.0), stats=stats).x_train
    convert_to_snn(m)
    before = [dict(blk.sites) for blk in m.blocks]
    baseline = m.forward(unseen).data.copy()
    assert apply_threshold_scaling(m, flat, verify_x=unseen) == []
    assert all(blk.sites[s] is site for blk, sites in zip(m.blocks, before) for s, site in sites.items())
    assert m.forward(unseen).data.tobytes() == baseline.tobytes()
    for s in ("conv", "delta_raw", "delta", "h", "y"):  # the sites the probe reads saturated
        m.blocks[0].sites[s] = m.blocks[0].sites[s].threshold_scale()
    drift = float(np.max(np.abs(m.forward(unseen).data - baseline)))
    assert 1e-9 < drift < 1e-3, drift


@pytest.mark.parametrize("kind", ["probe", "verification"])
def test_threshold_scaling_refuses_an_empty_probe_or_verification_set(kind):
    """With no verification windows, saturated fixture sites were scaled and then numpy's empty
    ``max`` raised, leaving them scaled and unchecked; with no probe windows every site with T > 1
    read as saturated.  Either is refused before any site changes."""
    m, meta = load_checkpoint(str(FIXTURE))
    convert_to_snn(m)
    x = np.full((4, m.cfg.history, m.cfg.d_value), 100.0)
    probe, verify_x = (x[:0], x) if kind == "probe" else (x, x[:0])
    before = [dict(blk.sites) for blk in m.blocks]
    with pytest.raises(ValueError, match=f"^apply_threshold_scaling: expected at least one {kind} window, got 0$"):
        apply_threshold_scaling(m, probe, verify_x=verify_x)
    assert [dict(blk.sites) for blk in m.blocks] == before
    assert scaled_sites(m) == []


def test_threshold_scaling_changes_nothing_when_no_site_can_collapse():
    """At 1 bit every site's window is one spike (T = 1), which no rewrite can shorten."""
    cfg = small_cfg(bits=1)
    x, _ = make_data(cfg=cfg)
    m = ForecastModel.build(cfg, seed=0)
    m.calibrate(x)
    convert_to_snn(m)
    before = [dict(blk.sites) for blk in m.blocks]
    assert apply_threshold_scaling(m, x) == []
    assert all(blk.sites[s] is site for blk, sites in zip(m.blocks, before) for s, site in sites.items())


def trained_snn(tmp_path, scale=False):
    cfg = small_cfg()
    x, y = make_data(cfg=cfg)
    m = ForecastModel.build(cfg, seed=6)
    train(m, x, y, x[:6], y[:6], TrainConfig(max_epochs=2, batch_size=8, lr=1e-3))
    convert_to_snn(m)
    if scale:
        apply_threshold_scaling(m, 50.0 * x)
    return m, x


def test_checkpoint_roundtrip_preserves_forward(tmp_path):
    m, x = trained_snn(tmp_path)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, m, norm={"mean": [0.0, 0.0], "std": [1.0, 1.0]},
                    extra={"note": "roundtrip"})
    m2, meta = load_checkpoint(path)
    assert meta["norm"]["std"] == [1.0, 1.0]
    assert meta["extra"]["note"] == "roundtrip"
    assert m2.mode == "snn"
    assert m2.cfg == m.cfg
    # weights pass through float32, so forwards agree after one save/load cycle
    save_checkpoint(str(tmp_path / "again.ckpt"), m2)
    a = (tmp_path / "again.ckpt").read_bytes()
    save_checkpoint(str(tmp_path / "m2.ckpt"), m2)
    assert a == (tmp_path / "m2.ckpt").read_bytes()
    m3, _ = load_checkpoint(str(tmp_path / "again.ckpt"))
    assert np.array_equal(m2.forward(x).data, m3.forward(x).data)


def test_checkpoint_resave_is_bit_identical(tmp_path):
    m, _ = trained_snn(tmp_path, scale=True)
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save_checkpoint(p1, m)
    m2, _ = load_checkpoint(p1)
    save_checkpoint(p2, m2)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_checkpoint_keeps_scaled_sites(tmp_path):
    m, x = trained_snn(tmp_path, scale=True)
    path = str(tmp_path / "scaled.ckpt")
    save_checkpoint(path, m)
    m2, _ = load_checkpoint(path)
    for b1, b2 in zip(m.blocks, m2.blocks):
        for s in b1.sites:
            assert b2.sites[s].T == b1.sites[s].T
            assert b2.sites[s].theta == b1.sites[s].theta


def scaled_sites(m) -> list[str]:
    """The sites of a converted model that are the ``threshold_scale`` of their quantizer's grid; every
    other site must be that grid object itself."""
    scaled = []
    for i, blk in enumerate(m.blocks):
        for s in SPIKE_SITES:
            grid = blk.quantizers[s].grid()
            if blk.sites[s] is not grid:
                assert blk.sites[s] == grid.threshold_scale(), f"block{i}.{s}"
                scaled.append(f"block{i}.{s}")
    return scaled


@pytest.mark.parametrize("scale", [False, True])
def test_conversion_and_loading_install_the_quantizers_own_grids(tmp_path, scale):
    """A converted block's spike sites are its quantizers' grid objects, or a grid's threshold_scale where
    threshold scaling collapsed the site; a loaded checkpoint installs the same: no site copies a grid."""
    m, _ = trained_snn(tmp_path, scale=scale)
    scaled = scaled_sites(m)
    assert bool(scaled) == scale
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, m)
    m2, _ = load_checkpoint(path)
    assert scaled_sites(m2) == scaled


def test_loading_converts_through_convert_to_snn(tmp_path, monkeypatch):
    """A converted and a threshold-scaled checkpoint each load through one ``convert_to_snn`` call, and
    every site is its quantizer's grid or that grid's threshold_scale: the loader states no conversion
    rule of its own."""
    calls = []

    def spy(model):
        calls.append(model)
        return convert_to_snn(model)

    monkeypatch.setattr(importlib.import_module("spikescan.train"), "convert_to_snn", spy)
    for scale in (False, True):
        m, _ = trained_snn(tmp_path, scale=scale)
        path = str(tmp_path / f"spy{scale}.ckpt")
        save_checkpoint(path, m)
        calls.clear()
        m2, _ = load_checkpoint(path)
        assert calls == [m2]
        assert scaled_sites(m2) == scaled_sites(m)
        assert bool(scaled_sites(m2)) == scale


def test_an_uncalibrated_model_is_not_saved(tmp_path):
    path = tmp_path / "fresh.ckpt"
    with pytest.raises(RuntimeError, match="^quantizer block0.x_in has no calibrated step size$"):
        save_checkpoint(str(path), ForecastModel.build(small_cfg(), seed=0))
    assert not path.exists()


def test_checkpoint_rejects_bad_magic(tmp_path):
    p = tmp_path / "x.ckpt"
    p.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(str(p))


def test_checkpoint_rejects_wrong_version(tmp_path):
    m, _ = trained_snn(tmp_path)
    p = tmp_path / "v.ckpt"
    save_checkpoint(str(p), m)
    raw = bytearray(p.read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(str(p))


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    m, _ = trained_snn(tmp_path)
    p = tmp_path / "t.ckpt"
    save_checkpoint(str(p), m)
    p.write_bytes(p.read_bytes() + b"junk")
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(str(p))


def test_magic_is_four_bytes():
    assert len(CHECKPOINT_MAGIC) == 4


FIXTURE = Path(__file__).resolve().parent.parent / "perfbench" / "fixture" / "readme_model.ckpt"


def test_benchmark_fixture_resaves_byte_identical(tmp_path):
    """The benchmark's frozen checkpoint survives a load/save cycle unchanged."""
    m, meta = load_checkpoint(str(FIXTURE))
    out = tmp_path / "fixture.ckpt"
    save_checkpoint(str(out), m, norm=meta["norm"], extra=meta["extra"])
    assert out.read_bytes() == FIXTURE.read_bytes()


# SHA-256 of the fixture's forecasts of 256 windows of an unseen series (seed 8675309), numpy 2.4.6
# with its bundled OpenBLAS; every mode and batch size gives these bytes, and any change of them is
# a change of the model's arithmetic
FIXTURE_FORECAST_SHA256 = "85c5d4c7292c84ae2bb704bb801d00831379fd7f308c4caf37e8eb02865cd886"


@pytest.mark.parametrize("batch", [1, 64, 256])
@pytest.mark.parametrize("mode", ["ann", "snn"])
def test_benchmark_fixture_forecasts_are_pinned_to_the_byte(mode, batch):
    m, meta = load_checkpoint(str(FIXTURE))
    norm = meta["norm"]
    x = make_windows(make_coupled_sinusoids(n_steps=300, seed=8675309), m.cfg.history, m.cfg.horizon,
                     (1.0, 0.0, 0.0), stats=(np.asarray(norm["mean"]), np.asarray(norm["std"]))).x_train[:256]
    if mode == "snn":
        convert_to_snn(m)
    out = np.concatenate([m.forward(x[i:i + batch]).data for i in range(0, len(x), batch)])
    assert out.shape == (256, m.cfg.horizon, m.cfg.d_value)
    assert hashlib.sha256(out.tobytes()).hexdigest() == FIXTURE_FORECAST_SHA256


@pytest.fixture(scope="module")
def small_ckpt(tmp_path_factory):
    """Bytes of a converted tiny model's checkpoint and a temporary directory."""
    d = tmp_path_factory.mktemp("ckpt")
    cfg = small_cfg()
    m = ForecastModel.build(cfg, seed=2)
    m.calibrate(make_data(n=8, cfg=cfg)[0])
    convert_to_snn(m)
    save_checkpoint(str(d / "ok.ckpt"), m)
    return d, (d / "ok.ckpt").read_bytes()


def with_metadata(raw: bytes, change) -> bytes:
    """``raw`` with its JSON metadata passed through ``change``."""
    (mlen,) = struct.unpack_from("<I", raw, 8)
    meta = json.loads(raw[12:12 + mlen])
    change(meta)
    blob = json.dumps(meta).encode()
    return raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + mlen:]


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cut=st.floats(0.0, 1.0, exclude_max=True))
@example(cut=0.999)  # inside the weight payload
def test_truncated_checkpoint_is_a_value_error(small_ckpt, cut):
    d, raw = small_ckpt
    p = d / "cut.ckpt"
    p.write_bytes(raw[:int(cut * len(raw))])
    with pytest.raises(ValueError, match=r"cut\.ckpt: (not a model checkpoint|truncated \w+)"):
        load_checkpoint(str(p))


def _drop_quantizers(meta):
    del meta["quantizers"]


def _null_sites(meta):
    meta["sites"] = [None]


def _rename_site(meta):
    meta["sites"][0]["state"] = meta["sites"][0].pop("h")


def _symmetric(meta):
    meta["quantizers"][0]["h"]["symmetric"] = True


def _extra_block(meta):
    meta["quantizers"].append(meta["quantizers"][0])


def _config_list(meta):
    meta["config"] = list(meta["config"])


def _unknown_mode(meta):
    meta["mode"] = "hybrid"


def _quantizer_bits(meta):
    meta["quantizers"][0]["h"]["bits"] = 5


def _site_window(meta):
    meta["sites"][0]["h"]["T"] = 7


def _site_scale(meta):
    meta["sites"][0]["y"]["scale"] *= 2


def _short(value) -> str:
    """``value`` for a test id; ``10 ** 400`` is 401 digits."""
    return "huge" if value == 10 ** 400 else str(value)


def _set(group, site, key, value):
    def change(meta):
        meta[group][0][site][key] = value
    change.__name__ = f"_{key}_{_short(value)}"
    return change


def _without(group, site, key):
    def change(meta):
        del meta[group][0][site][key]
    change.__name__ = f"_without_{key}"
    return change


def _config(key, value):
    def change(meta):
        meta["config"][key] = value
    change.__name__ = f"_config_{key}_{_short(value)}"
    return change


def _without_config(key):
    def change(meta):
        del meta["config"][key]
    change.__name__ = f"_config_without_{key}"
    return change


@pytest.mark.parametrize("change, defect", [
    (_drop_quantizers, "metadata is missing key 'quantizers'"),
    (_null_sites, "snn-mode checkpoint has no spike sites for block0"),
    (_rename_site, "block0 spike sites .*'state'"),
    (_symmetric, "quantizer block0.h: symmetric"),
    (_extra_block, "2 quantizer and 1 site entries for 1 blocks"),
    (_unknown_mode, "unknown mode 'hybrid'"),
    (_quantizer_bits, "quantizer block0.h: 5 bits, the config has 2"),
    (_site_window, r"spike site block0.h: \(theta, offset, T\) = \(.*, 7\) is neither the quantizer's"),
    (_site_scale, "spike site block0.y: decode scale .* differs from threshold"),
    (_set("quantizers", "conv", "alpha", float("inf")), "quantizer block0.conv: alpha must be finite, got inf"),
    (_set("quantizers", "x_in", "beta", float("nan")), "quantizer block0.x_in: beta must be finite, got nan"),
    (_set("sites", "h", "theta", float("inf")), "spike site block0.h: theta must be finite and > 0, got inf"),
    (_set("sites", "conv", "offset", -float("inf")), "spike site block0.conv: offset must be finite, got -inf"),
    (_set("sites", "y", "T", 2), r"spike site block0.y: \(theta, offset, T\) = .* is neither the quantizer's"),
    (_config("state_size", 0), "model config: state_size must be >= 1, got 0"),
    (_config("history", -3), "model config: history must be >= 1, got -3"),
    (_config("delta_rank", 0), "model config: delta_rank must be >= 1, got 0"),
    (_config("blocks", 0), "model config: blocks must be >= 1, got 0"),
    (_config("bits", 0), "model config: bits must be >= 1, got 0"),
    (_config("bits", 17), "model config: bits must be <= 16, got 17"),
    (_config("rmsnorm_eps", "x"), "model config: rmsnorm_eps must be a number, got 'x'"),
    (_config("rmsnorm_eps", -1.0), "model config: rmsnorm_eps must be finite and > 0, got -1.0"),
    (_config("rmsnorm_eps", 10 ** 400), "model config: rmsnorm_eps must be finite and > 0, got 1000"),
    # these loaded (true as 1, a missing field as its default, an unknown key ignored), or, 4.0,
    # failed as malformed metadata naming no key
    (_config("rmsnorm_eps", True), "model config: rmsnorm_eps must be a number, got True"),
    (_config("delta_rank", True), "model config: delta_rank must be an integer, got True"),
    (_config("d_hidden", 4.0), "model config: d_hidden must be an integer, got 4.0"),
    (_without_config("rmsnorm_eps"), "model config: missing field 'rmsnorm_eps'"),
    (_without_config("delta_rank"), "model config: missing field 'delta_rank'"),
    # null loaded as the default ceil(d_hidden / 8), which ModelConfig(...) still gives a None
    (_config("delta_rank", None), "model config: delta_rank must be an integer, got None"),
    (_config("rmsnorm_eps", None), "model config: rmsnorm_eps must be a number, got None"),
    (_config("dropout", 0.5), "model config: unknown field 'dropout'"),
    (_config_list, r"malformed metadata \(list indices must be integers or slices, not str\)"),
    (_config("history", 10 ** 400), r"truncated weight payload: \d+ of \d{400,} bytes"),
    (_set("quantizers", "h", "alpha", 10 ** 400), "quantizer block0.h: alpha must be finite, got 1000"),
    (_set("sites", "conv", "theta", 10 ** 400), "spike site block0.conv: theta must be finite and > 0, got 1000"),
    (_set("sites", "y", "T", 10 ** 400), r"spike site block0.y: \(theta, offset, T\) = .* is neither the quantizer's"),
    (_set("quantizers", "x_in", "rounding", "nearest"), "cannot convert, spike sites need floor rounding: block0.x_in"),
    # these loaded: bits 2.5 or "2" as 2, "no" as a trainable step, "0.5" as 0.5, T 3.9 or "3" as 3,
    # a null site name as 'None'
    (_set("quantizers", "h", "bits", 2.5), "quantizer block0.h: bits must be an integer, got 2.5"),
    (_set("quantizers", "h", "bits", "2"), "quantizer block0.h: bits must be an integer, got '2'"),
    (_set("quantizers", "h", "bits", True), "quantizer block0.h: bits must be an integer, got True"),
    (_set("quantizers", "conv", "train_alpha", "no"),
     "quantizer block0.conv: train_alpha must be true or false, got 'no'"),
    (_set("quantizers", "y", "train_beta", 1), "quantizer block0.y: train_beta must be true or false, got 1"),
    (_set("quantizers", "x_res", "symmetric", 0), "quantizer block0.x_res: symmetric must be true or false, got 0"),
    (_set("quantizers", "conv", "alpha", "0.5"), "quantizer block0.conv: alpha must be a number, got '0.5'"),
    (_set("quantizers", "delta", "beta", False), "quantizer block0.delta: beta must be a number, got False"),
    (_set("quantizers", "delta_int", "rounding", 7), "quantizer block0.delta_int: rounding must be a string, got 7"),
    (_set("quantizers", "h", "name", 7), "quantizer block0.h: name must be 'block0.h', got 7"),
    (_set("sites", "h", "T", 3.9), "spike site block0.h: T must be an integer, got 3.9"),
    (_set("sites", "h", "T", 3.0), "spike site block0.h: T must be an integer, got 3.0"),
    (_set("sites", "h", "T", "3"), "spike site block0.h: T must be an integer, got '3'"),
    (_set("sites", "conv", "theta", "1"), "spike site block0.conv: theta must be a number, got '1'"),
    (_set("sites", "y", "scale", None), "spike site block0.y: scale must be a number, got None"),
    (_set("sites", "h", "name", None), "spike site block0.h: name must be 'block0.h', got None"),
    # these failed as "metadata is missing key 'train_beta'" (or 'T'), naming no block or site
    (_without("quantizers", "h", "train_beta"), "quantizer block0.h: missing field 'train_beta'"),
    (_without("sites", "y", "T"), "spike site block0.y: missing field 'T'"),
    # these failed as "metadata is missing key 'name'"
    (_without("quantizers", "conv", "name"), "quantizer block0.conv: missing field 'name'"),
    (_without("sites", "delta", "name"), "spike site block0.delta: missing field 'name'"),
    # these loaded, the key ignored
    (_set("quantizers", "h", "alpah", 0.5), "quantizer block0.h: unknown field 'alpah'"),
    (_set("sites", "y", "thetaa", 0.5), "spike site block0.y: unknown field 'thetaa'"),
])
def test_malformed_metadata_is_named(small_ckpt, change, defect):
    d, raw = small_ckpt
    p = d / "bad.ckpt"
    p.write_bytes(with_metadata(raw, change))
    with pytest.raises(ValueError, match=r"bad\.ckpt: " + defect):
        load_checkpoint(str(p))


def test_the_payload_length_is_checked_before_the_model_is_built(small_ckpt, monkeypatch):
    """Metadata that claims a million channels fails on the payload length, from the config's shapes
    alone: the loader never allocates the weights it claims."""
    d, raw = small_ckpt
    p = d / "huge.ckpt"
    p.write_bytes(with_metadata(raw, _config("d_hidden", 10 ** 6)))

    def build(*args, **kwargs):
        raise AssertionError("the model was built before its payload length was checked")

    monkeypatch.setattr(ForecastModel, "build", build)
    with pytest.raises(ValueError, match=r"huge\.ckpt: truncated weight payload: \d+ of \d{8,} bytes"):
        load_checkpoint(str(p))


@pytest.mark.parametrize("tensor, index", [("block0.W", 5), ("head.b", 2)])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_a_non_finite_weight_is_refused_at_load(tmp_path, tensor, index, value):
    """The fixture with one float32 of a block weight or the head set non-finite: the loader names
    the file, the tensor and the entry."""
    raw = bytearray(FIXTURE.read_bytes())
    m, _ = load_checkpoint(str(FIXTURE))
    weights = [w for blk in m.blocks for w in blk.weight_tensors()] + [m.W_head, m.b_head]
    names = [w.name for w in weights]
    (mlen,) = struct.unpack_from("<I", raw, 8)
    before = sum(w.data.size for w in weights[:names.index(tensor)])
    struct.pack_into("<f", raw, 12 + mlen + 4 * (before + index), value)
    p = tmp_path / "nonfinite.ckpt"
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError) as e:
        load_checkpoint(str(p))
    assert str(e.value) == f"{p}: non-finite weight {value} in {tensor} at flat index {index}"


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bits=st.integers(1, 4), blocks=st.integers(1, 3), data=st.data())
def test_spike_sites_round_trip_and_any_other_site_is_refused(tmp_path, bits, blocks, data):
    """A converted model with any subset of sites threshold-scaled re-loads bit for bit;
    a stored site that is neither its quantizer's nor the threshold-scaled one is named."""
    cfg = small_cfg(bits=bits, blocks=blocks)
    m = ForecastModel.build(cfg, seed=bits + 4 * blocks)
    for w in [t for blk in m.blocks for t in blk.weight_tensors()] + [m.W_head, m.b_head]:
        w.data = w.data.astype(np.float32).astype(np.float64)  # as stored, so forecasts can match
    x = make_data(n=8, cfg=cfg, seed=blocks)[0]
    m.calibrate(x)
    ann = m.forward(x).data
    convert_to_snn(m)
    keys = [(i, s) for i in range(blocks) for s in SPIKE_SITES]
    for i, s in data.draw(st.lists(st.sampled_from(keys), unique=True), label="scaled"):
        m.blocks[i].sites[s] = m.blocks[i].sites[s].threshold_scale()
    snn = m.forward(x).data
    p = tmp_path / "rt.ckpt"
    save_checkpoint(str(p), m)
    raw = p.read_bytes()
    m2, _ = load_checkpoint(str(p))
    save_checkpoint(str(p), m2)
    assert p.read_bytes() == raw
    assert np.array_equal(m2.forward(x).data, snn)
    m2.mode = "ann"
    assert np.array_equal(m2.forward(x).data, ann)

    i, s = data.draw(st.sampled_from(keys), label="tampered")
    site = m.blocks[i].sites[s]
    changes = [("theta", site.theta * 1.5), ("offset", site.offset + 0.5)]
    changes += [("T", t) for t in range(1, 2 ** bits + 1) if t != site.T]  # up to one past the largest code
    for part, bad in changes:
        def change(meta):
            meta["sites"][i][s][part] = bad
            meta["sites"][i][s]["scale"] = meta["sites"][i][s]["theta"]  # the v1 key follows theta

        p.write_bytes(with_metadata(raw, change))
        with pytest.raises(ValueError, match=rf"rt\.ckpt: spike site block{i}\.{s}: (\(theta, offset, T\)|window T=)"):
            load_checkpoint(str(p))


# Minor page faults per step of a README training epoch, after calibration and a first epoch, in a fresh
# interpreter: the steps reuse heap memory only while glibc's dynamic mmap threshold sits above their
# transient arrays, and calibration's ``h`` fit freeing its [L, B, dh, n] buffer (3.1 MB here) is what
# raises it.  10 a step with that buffer, 716 when the fit kept its parts in arrays of their own.
SECOND_EPOCH_FAULTS = """
import resource
from spikescan.dataset import make_coupled_sinusoids, make_windows
from spikescan.ssm import ForecastModel, ModelConfig
from spikescan.train import CALIBRATION_WINDOWS, TrainConfig, train

sp = make_windows(make_coupled_sinusoids(2000, seed=0), 12, 3)
m = ForecastModel.build(ModelConfig(d_value=2, history=12, horizon=3, conv_kernel=3), seed=0)
m.calibrate(sp.x_train[:CALIBRATION_WINDOWS])
tc = TrainConfig(max_epochs=1, patience=1, lr=5e-4, batch_size=64, seed=0)
train(m, sp.x_train, sp.y_train, sp.x_val, sp.y_val, tc)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(m, sp.x_train, sp.y_train, sp.x_val, sp.y_val, tc)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults / -(-sp.x_train.shape[0] // tc.batch_size))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the fault counts follow glibc's malloc")
def test_a_readme_training_epoch_takes_few_page_faults_a_step():
    """A README training step runs at about 15 k windows/s only while its arrays reuse the heap; page
    faulted afresh each step, it slowed by 17 %.  Counted in a fresh interpreter's second epoch."""
    proc = subprocess.run([sys.executable, "-c", SECOND_EPOCH_FAULTS], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 100, proc.stdout
