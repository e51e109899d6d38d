"""Selective-scan block: dense oracles, conversion equivalence, gradients."""

import itertools
import math
import sys
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import spikescan.activations as activations
import spikescan.numerics as nm
import spikescan.quantize as quantize
import spikescan.ssm as ssm
from spikescan.activations import pow2_silu, pow2_softplus
from spikescan.quantize import Quantizer
from spikescan.ssm import (EXP_HI, EXP_LO, QUANT_SITES, ForecastModel, ModelConfig, SPIKE_SITES,
                           block_forward_ann, pow2_round_ste, selective_scan)
from spikescan.energy import EnergyTable, OpCounters, profile
from spikescan.train import TrainConfig, _quantizer_record, _read_config, convert_to_snn, train
from ssm_oracle import (apply_kernel, dense_ssm_reference, multi_pass_calibrate, quantize_values, reference_scan,
                        ssm_kernel, taped_forward)

RNG = np.random.default_rng(99)


def test_dense_reference_impulse_response():
    # scalar system x' = 0.5 x + u, y = x: impulse response 1, 1/2, 1/4, ...
    A = np.array([[0.5]])
    B = np.array([[1.0]])
    C = np.array([[1.0]])
    u = np.zeros((6, 1))
    u[0, 0] = 1.0
    y = dense_ssm_reference(A, B, C, None, u)
    assert np.allclose(y[:, 0], [1, 0.5, 0.25, 0.125, 0.0625, 0.03125], atol=1e-15)


def test_dense_reference_validates_shapes():
    with pytest.raises(ValueError):
        dense_ssm_reference(np.ones((2, 2)), np.ones((3, 1)), np.ones((1, 2)), None, np.ones((4, 1)))


def test_recurrence_equals_kernel_convolution():
    for _ in range(50):
        n = int(RNG.integers(1, 5))
        m = int(RNG.integers(1, 3))
        p = int(RNG.integers(1, 3))
        L = int(RNG.integers(2, 33))
        # keep eigenvalues inside the unit circle so nothing blows up
        A = RNG.normal(size=(n, n))
        rho = np.max(np.abs(np.linalg.eigvals(A)))
        A *= 0.8 / max(rho, 1e-9)
        B = RNG.normal(size=(n, m))
        C = RNG.normal(size=(p, n))
        D = RNG.normal(size=(p, m))
        u = RNG.normal(size=(L, m))
        direct = dense_ssm_reference(A, B, C, D, u)
        viaconv = apply_kernel(u, ssm_kernel(A, B, C, L), D)
        assert np.max(np.abs(direct - viaconv)) < 1e-10


def test_selective_scan_constant_step_matches_kernel():
    B_, L, dh, n = 2, 12, 3, 4
    A = -np.exp(RNG.normal(size=(dh, n)))
    step = np.full((B_, L, dh), 1.0)
    Bseq = np.tile(RNG.normal(size=(1, 1, n)), (B_, L, 1))
    Cseq = np.tile(RNG.normal(size=(1, 1, n)), (B_, L, 1))
    D = RNG.normal(size=dh)
    u = RNG.normal(size=(B_, L, dh))
    y = selective_scan(step, A, Bseq, Cseq, D, u)
    # per channel the scan is a diagonal time-invariant system
    for b in range(B_):
        for d in range(dh):
            e = np.clip(np.rint(1.0 * A[d]), EXP_LO, EXP_HI)
            Ad = np.diag(np.exp2(e))
            Bd = (1.0 * Bseq[b, 0])[:, None]
            Cd = Cseq[b, 0][None, :]
            ref = dense_ssm_reference(Ad, Bd, Cd, np.array([[D[d]]]), u[b, :, d][:, None])
            assert np.max(np.abs(y[b, :, d] - ref[:, 0])) < 1e-10


H_SITE = ssm.Quantizer(bits=2, alpha=0.3, beta=-0.2, rounding="floor", name="h")  # a scan hook's grid


def floor_h(h):
    """A scan hook: ``H_SITE``'s values of the state, in its slot."""
    quantize_values(h, H_SITE, out=h)


def scan_inputs(rng, batch, L, dh, n):
    """Random scan operands ``(step, A, B_seq, C_seq, D, u)``."""
    # quarter-step grid: step * A lands on rint ties, and past EXP_LO, as well as between
    step = rng.integers(1, 48, size=(batch, L, dh)) / 4.0
    A = -np.exp(rng.uniform(-2.0, 2.0, size=(dh, n)))
    B_seq, C_seq, u = (rng.normal(size=s) for s in ((batch, L, n), (batch, L, n), (batch, L, dh)))
    return step, A, B_seq, C_seq, rng.normal(size=dh), u


def assert_scan_matches_reference(args, smooth, hook):
    """Bit for bit the out-of-place scan: the readout and every state the hook sees."""
    seen = {"scan": [], "reference": []}

    def make_hook(key):
        def encode_h(h):
            seen[key].append(h.copy())
            if hook == "floor":
                quantize_values(h, H_SITE, smooth, out=h)
        return None if hook == "none" else encode_h

    y = selective_scan(*args, make_hook("scan"), smooth)
    ref = reference_scan(*args, make_hook("reference"), smooth)
    # bytes, not values: a signed zero or a NaN payload that differs counts
    assert y.tobytes() == ref.tobytes()
    assert len(seen["scan"]) == len(seen["reference"]) == (0 if hook == "none" else args[-1].shape[1])
    for h, h_ref in zip(seen["scan"], seen["reference"]):
        assert h.tobytes() == h_ref.tobytes()


# n up to 9 crosses 8, where numpy's sum over the state axis stops adding in index order
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(batch=st.integers(1, 5), L=st.integers(1, 16), dh=st.integers(1, 8), n=st.integers(1, 9),
       smooth=st.booleans(), hook=st.sampled_from(["none", "floor", "keep"]), seed=st.integers(0, 2**32 - 1))
def test_selective_scan_matches_the_out_of_place_reference(batch, L, dh, n, smooth, hook, seed):
    """Bit for bit the out-of-place scan: the readout and every state the hook sees."""
    assert_scan_matches_reference(scan_inputs(np.random.default_rng(seed), batch, L, dh, n), smooth, hook)


# at the README size (dh 16, n 4): the whole window in one chunk, several chunks,
# a partial last chunk, one step per chunk
@pytest.mark.parametrize("batch, L, span", [(1, 12, 12), (64, 12, 4), (100, 13, 2), (256, 12, 1)])
@pytest.mark.parametrize("hook", ["none", "floor", "keep"])
@pytest.mark.parametrize("smooth", [False, True])
def test_selective_scan_chunk_boundaries_match_the_reference(batch, L, span, hook, smooth):
    assert min(L, ssm.SCAN_CHUNK // (batch * 16 * 4)) == span
    rng = np.random.default_rng(batch * 100 + L)
    assert_scan_matches_reference(scan_inputs(rng, batch, L, 16, 4), smooth, hook)


def nan_exponent_inputs(case: str, batch: int):
    """README-size scan operands whose exponent ``step * A`` is NaN somewhere: a NaN step at one token
    (in the third chunk at batch 64), a NaN entry of ``A``, or a zero step against ``A = -inf``."""
    step, A, *rest = scan_inputs(np.random.default_rng(7), batch, 12, 16, 4)
    if case == "step":
        step[batch - 1, 9, 3] = np.nan
    elif case == "A":
        A[3, 1] = np.nan
    else:
        step[0, 9, 3] = 0.0
        A[3, 1] = -np.inf
    return (step, A, *rest)


@pytest.mark.parametrize("batch", [1, 64])
@pytest.mark.parametrize("case", ["step", "A", "zero times inf"])
def test_a_nan_exponent_makes_a_nan_state(case, batch):
    """The state shifts by int32 exponents, which hold no NaN: a chunk whose exponents do decays by
    multiplying with 2**e, so its states turn NaN as the out-of-place scan's do, with no warning
    (pytest turns an invalid cast's RuntimeWarning into an error; ``0 * inf`` itself warns, in the
    reference too)."""
    args = nan_exponent_inputs(case, batch)
    with np.errstate(invalid="ignore" if case == "zero times inf" else "raise"):
        for hook in ("none", "floor"):
            assert_scan_matches_reference(args, False, hook)
        y = selective_scan(*args)
        assert np.isnan(y).any()
        # the taped scan keeps the factors 2**e for its backward, NaN where the exponent is
        keep = ssm.ScanKeep((12, batch, 16, 4))
        assert selective_scan(*args, keep=keep).tobytes() == y.tobytes()
        step, A = args[:2]
        x = step.swapaxes(0, 1)[..., None] * A
        assert keep.abar.tobytes() == np.exp2(np.clip(np.rint(x), EXP_LO, EXP_HI)).tobytes()
        assert np.array_equal(keep.live, (x >= EXP_LO) & (x <= EXP_HI))


@pytest.mark.parametrize("case", ["step", "A_log"])
def test_a_nan_exponent_reaches_the_forecast(monkeypatch, case):
    """A NaN step at one token of window 2 makes that window's forecast NaN and leaves every other
    window's bits; a NaN ``A_log`` entry makes every forecast NaN.  So in the real-arithmetic forward,
    on and off the tape, and the spiking one; the counted forward refuses the first window whose
    state turned NaN."""
    m, x = readme_model()
    x = x[:6]
    clean = m.forward(x).data
    if case == "A_log":
        m.blocks[0].A_log.data[3, 1] = np.nan
        nan_windows = [True] * 6
    else:
        scan = ssm.selective_scan

        def nan_step(step, *args, **kwargs):
            step = step.copy()
            step[2, 5, 3] = np.nan
            return scan(step, *args, **kwargs)

        monkeypatch.setattr(ssm, "selective_scan", nan_step)
        nan_windows = [w == 2 for w in range(6)]

    def check(y):
        assert np.isnan(y).all(axis=(1, 2)).tolist() == nan_windows
        assert not np.isnan(y[~np.array(nan_windows)]).any()
        assert y[~np.array(nan_windows)].tobytes() == clean[~np.array(nan_windows)].tobytes()

    check(m.forward(x).data)
    with nm.GradTape():
        check(m.forward(x).data)
    convert_to_snn(m)
    check(m.forward(x).data)
    table = EnergyTable(e_acc=1e-12, e_mac=4e-12, e_shift=1e-13, e_cmp=1e-13)
    with pytest.raises(ValueError, match=f"spike site block0.h: window {nan_windows.index(True)} has NaN"):
        profile(m, x, table)


@pytest.mark.parametrize("n", range(1, 8))
def test_index_order_sum_is_numpys_sum_below_eight_entries(n):
    """Why the scan's readout keeps the bits of ``.sum(axis=-1)`` at the README's n = 4."""
    rng = np.random.default_rng(n)
    p = rng.normal(size=(64, 16, n)) * np.exp2(rng.integers(-60, 60, size=(64, 16, n)))
    p[0] = -0.0
    p[1, :, 0] = -0.0
    p[2, :, -1] = 5e-324
    p[3, :, 0] = np.inf
    ordered = np.add(0.0, p[..., 0])
    for i in range(1, n):
        ordered += p[..., i]
    assert ordered.tobytes() == p.sum(axis=-1).tobytes()


def test_selective_scan_memory_does_not_grow_with_the_window():
    """Beyond ``y`` the scan's peak heap is its chunk buffers: the same at L = 12 and L = 48."""
    peaks = []
    for L in (12, 48):
        args = scan_inputs(np.random.default_rng(L), 256, L, 16, 4)
        tracemalloc.start()
        try:
            y = selective_scan(*args, floor_h)
            peaks.append(tracemalloc.get_traced_memory()[1] - y.nbytes)
        finally:
            tracemalloc.stop()
    assert abs(peaks[0] - peaks[1]) <= 4096, peaks


# one chunk of 12 steps, chunks of 4 steps, one step per chunk
@pytest.mark.parametrize("batch", [1, 64, 256])
def test_selective_scan_writes_no_slot_itself(monkeypatch, batch):
    """The hook encodes the state in its slot, so the scan copies nothing into a slot."""
    args = scan_inputs(np.random.default_rng(batch), batch, 12, 16, 4)
    writes = []

    class Slots(np.ndarray):
        def __setitem__(self, index, value):
            writes.append(index)
            super().__setitem__(index, value)

    empty = np.empty
    with monkeypatch.context() as mp:
        mp.setattr(np, "empty", lambda shape, dtype=float: empty(shape, dtype).view(Slots))
        y = np.asarray(selective_scan(*args, floor_h))
    assert writes == []
    assert y.tobytes() == reference_scan(*args, floor_h).tobytes()


def test_pow2_round_forward_is_exact_powers():
    x = nm.tensor(RNG.normal(size=(4, 5)) * 3, trainable=True)
    out = pow2_round_ste(x)
    logs = np.log2(out.data)
    assert np.array_equal(logs, np.rint(logs))
    assert np.all(out.data <= 1.0) and np.all(out.data >= 2.0 ** EXP_LO)


def test_pow2_round_ste_gradient():
    x = nm.tensor(np.array([-1.3, -0.4, 5.0, -40.0]), trainable=True)
    with nm.GradTape() as tape:
        out = nm.sum_all(pow2_round_ste(x))
    g = nm.backward(tape, output=out)[x]
    val = np.exp2(np.clip(np.rint(x.data), EXP_LO, EXP_HI))
    expect = val * math.log(2.0) * np.array([1, 1, 0, 0])  # clipped entries blocked
    assert np.allclose(g, expect)


def small_cfg(**kw) -> ModelConfig:
    base = dict(d_value=2, history=10, horizon=3, d_hidden=6, state_size=3,
                conv_kernel=3, blocks=1, bits=2)
    base.update(kw)
    return ModelConfig(**base)


def calibrated_model(cfg=None, seed=0, batch=12):
    cfg = cfg or small_cfg()
    m = ForecastModel.build(cfg, seed=seed)
    x = np.random.default_rng(seed + 100).normal(size=(batch, cfg.history, cfg.d_value))
    m.calibrate(x)
    return m, x


def test_config_defaults():
    cfg = ModelConfig(d_value=3, history=12, horizon=3, d_hidden=20)
    assert cfg.delta_rank == math.ceil(20 / 8)
    assert _read_config(asdict(cfg)) == cfg


@pytest.mark.parametrize("key", ["d_value", "history", "horizon", "d_hidden", "state_size",
                                 "conv_kernel", "delta_rank", "blocks", "bits"])
def test_config_rejects_sizes_below_one(key):
    with pytest.raises(ValueError, match=f"model config: {key} must be >= 1, got 0"):
        ModelConfig(**{"d_value": 3, "history": 12, "horizon": 3, key: 0})


def test_calibration_touches_every_site_and_freezes_constants():
    m, _ = calibrated_model()
    assert m.calibrated()
    q = m.blocks[0].quantizers
    assert float(q["delta_int"].alpha.data) == 1.0 and not q["delta_int"].alpha.trainable
    assert q["delta_int"].parameters() == []
    assert float(q["delta"].beta.data) == pow2_softplus(0.0)
    assert q["delta"].parameters() == [q["delta"].alpha]
    for s in SPIKE_SITES:
        assert float(q[s].alpha.data) > 0


def test_forward_validates_input_shape():
    m, _ = calibrated_model()
    with pytest.raises(ValueError) as e:
        m.forward(np.zeros((2, 5, 2)))
    assert "10" in str(e.value)


def test_forward_on_an_empty_batch_returns_an_empty_forecast():
    m, x = calibrated_model()
    assert m.forward(x[:0]).data.shape == (0, m.cfg.horizon, m.cfg.d_value)
    convert_to_snn(m)
    ct = OpCounters()
    assert m.forward(x[:0], counters=ct).data.shape == (0, m.cfg.horizon, m.cfg.d_value)
    assert ct.total("acc") == 0


def test_forward_names_the_first_non_finite_window():
    m, x = calibrated_model()
    for bad in (np.nan, -np.inf):
        xb = x.copy()
        xb[3, 4, 1] = bad
        xb[7, 0, 0] = bad
        with pytest.raises(ValueError, match="forward: window 3 holds NaN or inf"):
            m.forward(xb)


def test_calibration_rejects_a_site_that_collected_nothing(monkeypatch):
    """A site the forward never reaches fails calibration instead of getting a made-up step."""
    scan = ssm.selective_scan
    monkeypatch.setattr(ssm, "selective_scan", lambda step, A, B_seq, C_seq, D, u, encode_h=None, smooth=False,
                        keep=None: scan(step, A, B_seq, C_seq, D, u, None, smooth, keep))  # h is never encoded
    m = ForecastModel.build(small_cfg(), seed=0)
    with pytest.raises(RuntimeError, match="block0.h"):
        m.calibrate(np.random.default_rng(0).normal(size=(4, 10, 2)))


@pytest.mark.parametrize("bad", ["nan", "inf", "shape"])
def test_calibration_checks_its_windows_as_the_forward_does(bad):
    """Calibration used to take a NaN window, fitting NaN step sizes that then forecast NaN on clean
    input, and windows of the wrong length; it now refuses them with the forward's message."""
    cfg = small_cfg()
    m = ForecastModel.build(cfg, seed=0)
    x = np.random.default_rng(0).normal(size=(16, cfg.history, cfg.d_value))
    if bad == "shape":
        x = x[:4, 1:]
    else:
        x[5, 3, 1] = float(bad)
    with pytest.raises(ValueError) as forward:
        m.forward(x)
    with pytest.raises(ValueError) as calibrate:
        m.calibrate(x)
    assert str(forward.value).startswith("forward: ")
    assert str(calibrate.value) == "calibrate: " + str(forward.value).removeprefix("forward: ")
    assert not any(blk.quantizers[s].initialized for blk in m.blocks for s in SPIKE_SITES)


def test_calibration_refuses_no_windows():
    """Calibrating on 0 windows returned, every step size the mean of nothing, NaN, and the model
    calibrated and forecasting NaN; training on no windows did the same.  Both are now refused."""
    cfg = small_cfg()
    m = ForecastModel.build(cfg, seed=0)
    x = np.zeros((0, cfg.history, cfg.d_value))
    with pytest.raises(ValueError, match="^calibrate: expected at least one window, got 0$"):
        m.calibrate(x)
    with pytest.raises(ValueError, match="^calibrate: "):
        train(m, x, x[:, :cfg.horizon], x, x[:, :cfg.horizon])
    assert not m.calibrated()
    assert not any(blk.quantizers[s].initialized for blk in m.blocks for s in SPIKE_SITES)


def test_calibration_runs_each_block_once(monkeypatch):
    calls = []
    forward = ssm.block_forward_ann
    monkeypatch.setattr(ssm, "block_forward_ann", lambda x, p, *a, **kw: calls.append(p) or forward(x, p, *a, **kw))
    m = ForecastModel.build(small_cfg(blocks=3), seed=0)
    m.calibrate(np.random.default_rng(0).normal(size=(4, 10, 2)))
    assert m.calibrated() and [id(p) for p in calls] == [id(b) for b in m.blocks]


def test_calibration_keeps_the_scan_states_once():
    """At a shape where the states dominate (B 256, L 32, dh 16, n 8), calibration's traced peak stays
    under 2.5 times the [L, B, dh, n] state sequence: its collecting scan writes the states into one
    buffer, which the ``h`` fit consumes in place (a list of copies, their join, the offset-shifted copy
    and its magnitudes made about 3.6 times)."""
    B, L, dh, n = 256, 32, 16, 8
    m = ForecastModel.build(small_cfg(history=L, d_hidden=dh, state_size=n), seed=0)
    x = np.random.default_rng(0).normal(size=(B, L, m.cfg.d_value))
    tracemalloc.start()
    try:
        m.calibrate(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.calibrated() and peak < 2.5 * L * B * dh * n * 8, peak


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(bits=st.integers(1, 4), blocks=st.integers(1, 3), state_size=st.integers(1, 4),
       conv_kernel=st.integers(2, 4), d_hidden=st.integers(1, 7), batch=st.integers(1, 6),
       history=st.integers(2, 10), offsets=st.booleans(), seed=st.integers(0, 2 ** 31))
def test_one_pass_calibration_matches_the_multi_pass_oracle(bits, blocks, state_size, conv_kernel,
                                                            d_hidden, batch, history, offsets, seed):
    """Every step size equals the one a full forward per site, in forward order, gives it."""
    cfg = small_cfg(bits=bits, blocks=blocks, state_size=state_size, conv_kernel=conv_kernel,
                    d_hidden=d_hidden, history=history)
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.5, 2.0) * rng.normal(size=(batch, history, cfg.d_value))
    models = [ForecastModel.build(cfg, seed=seed) for _ in range(2)]
    if offsets:
        betas = rng.choice([-1.0, 1.0], size=(blocks, 5)) * rng.uniform(0.05, 1.0, size=(blocks, 5))
        for m in models:
            for blk, bs in zip(m.blocks, betas):
                for s, b in zip(("x_in", "conv", "delta_raw", "h", "y"), bs):
                    blk.quantizers[s].set_beta(b)
    models[0].calibrate(x)
    multi_pass_calibrate(models[1], x)
    for got, want in zip(*(m.blocks for m in models)):
        for s in QUANT_SITES:
            assert np.array_equal(got.quantizers[s].alpha.data, want.quantizers[s].alpha.data), s
            assert np.array_equal(got.quantizers[s].beta.data, want.quantizers[s].beta.data), s


def straight_line_block(x, p, cfg):
    """Independent numpy replay of one block's real-arithmetic forward."""
    dh, n, r = cfg.d_hidden, cfg.state_size, cfg.delta_rank
    q = p.quantizers

    def site(v, name):
        qq = q[name]
        a, b = float(qq.alpha.data), float(qq.beta.data)
        t = (v - b) / a
        if qq.rounding == "floor":
            codes = np.floor(t + 1e-9)
        else:
            codes = np.sign(t) * np.floor(np.abs(t) + 0.5)
        codes = np.clip(codes, 0, 2 ** cfg.bits - 1)
        return a * codes + b

    B, L, dv = x.shape
    rms = x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + cfg.rmsnorm_eps)
    xn = rms * p.g_norm.data
    proj = xn @ p.W_in.data
    x_in, x_res = proj[..., :dh], proj[..., dh:]
    s_in = site(x_in, "x_in")

    K = cfg.conv_kernel
    pad = np.pad(s_in, ((0, 0), (K - 1, 0), (0, 0)))
    conv = np.zeros_like(s_in)
    for t in range(L):
        for j in range(K):
            conv[:, t] += pad[:, t + j] * p.conv_k.data[:, j]
    s = site(conv, "conv")

    pbc = s @ p.W.data + p.b.data
    d_raw, B_seq, C_seq = pbc[..., :r], pbc[..., r:r + n], pbc[..., r + n:]
    d_sp = site(d_raw, "delta_raw")
    step_int = site(d_sp @ p.W_delta.data + p.b_delta.data, "delta_int")
    step = site(pow2_softplus(step_int), "delta")

    A = -np.exp(p.A_log.data)
    h = np.zeros((B, dh, n))
    ys = []
    for t in range(L):
        st = step[:, t][:, :, None]
        Abar = np.exp2(np.clip(np.rint(st * A), EXP_LO, EXP_HI))
        h = site(Abar * h + (st * B_seq[:, t][:, None, :]) * s[:, t][:, :, None], "h")
        y = (h * C_seq[:, t][:, None, :]).sum(axis=2) + p.D.data * s[:, t]
        ys.append(site(y, "y"))
    y = np.stack(ys, axis=1)
    gate = pow2_silu(site(x_res, "x_res"))
    return x + (y * gate) @ p.W_out.data + p.b_out.data


def test_block_forward_matches_straight_line_oracle():
    m, x = calibrated_model()
    got = block_forward_ann(nm.tensor(x), m.blocks[0], m.cfg).data
    want = straight_line_block(x, m.blocks[0], m.cfg)
    assert np.max(np.abs(got - want)) < 1e-9


def test_zero_out_projection_gives_pure_residual():
    m, x = calibrated_model()
    m.blocks[0].W_out.data[:] = 0.0
    m.blocks[0].b_out.data[:] = 0.0
    out = block_forward_ann(nm.tensor(x), m.blocks[0], m.cfg).data
    assert np.array_equal(out, x)


def test_strongly_negative_gate_closes_the_block():
    m, x = calibrated_model()
    blk = m.blocks[0]
    # steer the residual half of the input projection far negative
    blk.quantizers["x_res"].set_beta(-60.0)
    blk.quantizers["x_res"].set_alpha(1e-3)
    out = block_forward_ann(nm.tensor(x), blk, m.cfg).data
    assert np.max(np.abs(out - x)) < 1e-12  # pow2_silu(-60) is below double precision


def test_state_stays_bounded_on_long_inputs():
    cfg = small_cfg(history=64)
    m, _ = calibrated_model(cfg)
    x = np.random.default_rng(5).normal(size=(4, 64, 2)) * 3
    out = m.forward(x).data
    assert np.all(np.isfinite(out))
    assert np.max(np.abs(out)) < 1e3


def test_ann_snn_equivalence_on_random_models():
    for seed in range(10):
        cfg = small_cfg(d_hidden=int(RNG.integers(4, 17)), state_size=int(RNG.integers(1, 5)),
                        history=int(RNG.integers(4, 17)), d_value=int(RNG.integers(1, 5)))
        m, x = calibrated_model(cfg, seed=seed)
        convert_to_snn(m)
        snn = m.forward(x).data
        m.mode = "ann"
        ann = m.forward(x).data
        assert np.max(np.abs(ann - snn)) <= 1e-9


@pytest.mark.parametrize("mode", ["ann", "snn"])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(bits=st.integers(1, 3), blocks=st.integers(1, 2), state_size=st.integers(1, 9),
       d_hidden=st.integers(2, 16), history=st.integers(1, 14), seed=st.integers(0, 2 ** 31),
       start=st.integers(0, 256 - 37), pick=st.integers(0, 36))
@example(bits=2, blocks=1, state_size=4, d_hidden=16, history=12, seed=0, start=219, pick=36)  # README size
def test_a_windows_forecast_does_not_depend_on_its_batch(mode, bits, blocks, state_size, d_hidden, history,
                                                         seed, start, pick):
    """Alone, in a batch of 37 and in a batch of 256, a window's forecast has the same bytes: a BLAS
    kernel or a chunk layout that changed with the batch could flip a spike at a threshold."""
    cfg = small_cfg(bits=bits, blocks=blocks, state_size=state_size, d_hidden=d_hidden, history=history)
    m, _ = calibrated_model(cfg, seed=seed % 1000)
    if mode == "snn":
        convert_to_snn(m)
    x = 1.5 * np.random.default_rng(seed).normal(size=(256, history, cfg.d_value))  # not the calibration data
    full = m.forward(x).data
    assert m.forward(x[start:start + 37]).data.tobytes() == full[start:start + 37].tobytes()
    i = start + pick
    assert m.forward(x[i:i + 1]).data.tobytes() == full[i:i + 1].tobytes()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(bits=st.integers(1, 4), blocks=st.integers(1, 3), state_size=st.integers(1, 4),
       conv_kernel=st.integers(2, 4), d_hidden=st.integers(2, 8), seed=st.integers(0, 2 ** 31))
def test_ann_snn_equivalence_on_unseen_inputs(bits, blocks, state_size, conv_kernel, d_hidden, seed):
    rng = np.random.default_rng(seed)
    cfg = small_cfg(bits=bits, blocks=blocks, state_size=state_size, conv_kernel=conv_kernel,
                    d_hidden=d_hidden, history=int(rng.integers(4, 11)),
                    d_value=int(rng.integers(1, 4)))
    m = ForecastModel.build(cfg, seed=seed)
    for blk in m.blocks:
        for s in ("x_in", "conv", "delta_raw", "h", "y"):
            blk.quantizers[s].set_beta(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 1.0))
    m.calibrate(rng.normal(size=(8, cfg.history, cfg.d_value)))
    convert_to_snn(m)
    x = 2.0 * rng.normal(size=(6, cfg.history, cfg.d_value))  # not the calibration data
    ct = OpCounters()
    snn = m.forward(x, counters=ct).data
    m.mode = "ann"
    ann = m.forward(x).data
    assert np.array_equal(ann, snn)
    # criterion 10: accumulates == spike count x fan-out, per block
    n, r, dh, K = state_size, cfg.delta_rank, d_hidden, conv_kernel
    for i in range(blocks):
        sp = {s: ct.sites[f"block{i}.{s}"]["spikes"] for s in ("x_in", "conv", "delta_raw", "h", "y")}
        predicted = (sp["x_in"] * K + sp["conv"] * (r + 2 * n) + sp["conv"] * (n + 1)
                     + sp["delta_raw"] * dh + sp["h"] + sp["y"])
        measured = sum(row["acc"] for layer, row in ct.layers.items() if layer.startswith(f"block{i}."))
        assert measured == predicted


def _zero_row(**kinds):
    return {"acc": 0, "acc_bias": 0, "mac": 0, "shift": 0, "cmp": 0, **kinds}


# criterion 10 checks only the acc identity, so these literals are what fix
# the scan's mac and shift tallies and every site's cmp count and spikes
PINNED_LAYERS = {
    "block0.rmsnorm": _zero_row(mac=160), "block0.in_proj": _zero_row(mac=960),
    "block0.x_in": _zero_row(cmp=720), "block0.conv": _zero_row(acc=114, acc_bias=240, cmp=720),
    "block0.proj": _zero_row(acc=399, acc_bias=560), "block0.delta_raw": _zero_row(cmp=120),
    "block0.delta_proj": _zero_row(acc_bias=720, shift=240), "block0.delta": _zero_row(cmp=720),
    "block0.scan": _zero_row(acc=373, mac=1440, shift=142), "block0.h": _zero_row(cmp=2160),
    "block0.y": _zero_row(cmp=720), "block0.gate": _zero_row(acc=21, acc_bias=240, shift=240),
    "block0.out_proj": _zero_row(acc_bias=80, mac=480),
    "block1.rmsnorm": _zero_row(mac=160), "block1.in_proj": _zero_row(mac=960),
    "block1.x_in": _zero_row(cmp=720), "block1.conv": _zero_row(acc=171, acc_bias=240, cmp=720),
    "block1.proj": _zero_row(acc=49, acc_bias=560), "block1.delta_raw": _zero_row(cmp=120),
    "block1.delta_proj": _zero_row(acc=198, acc_bias=720, shift=240), "block1.delta": _zero_row(cmp=720),
    "block1.scan": _zero_row(acc=328, mac=1440, shift=276), "block1.h": _zero_row(cmp=2160),
    "block1.y": _zero_row(cmp=720), "block1.gate": _zero_row(acc=7, acc_bias=240, shift=240),
    "block1.out_proj": _zero_row(acc_bias=80, mac=480),
    "head": _zero_row(acc_bias=24, mac=240),
}
PINNED_SITES = {
    "block0.x_in": (38, 240, 38), "block0.conv": (57, 240, 57), "block0.delta_raw": (0, 40, 0),
    "block0.delta": (0, 240, 0), "block0.h": (145, 720, 144), "block0.y": (21, 240, 21),
    "block1.x_in": (57, 240, 57), "block1.conv": (7, 240, 7), "block1.delta_raw": (33, 40, 33),
    "block1.delta": (0, 240, 0), "block1.h": (300, 720, 300), "block1.y": (7, 240, 7),
}


def pinned_model():
    """A converted seeded two-block model with negative site offsets, and an unseen input."""
    cfg = small_cfg(blocks=2)
    m = ForecastModel.build(cfg, seed=7)
    rng = np.random.default_rng(7)
    for blk in m.blocks:
        for s in ("x_in", "conv", "delta_raw", "h", "y"):
            blk.quantizers[s].set_beta(-rng.uniform(0.05, 0.5))
    m.calibrate(rng.normal(size=(16, cfg.history, cfg.d_value)))
    convert_to_snn(m)
    return m, 2.0 * rng.normal(size=(4, cfg.history, cfg.d_value))


def test_spiking_tallies_are_pinned():
    """Every layer's op tally and every site's spikes on a seeded two-block model."""
    m, x = pinned_model()
    ct = OpCounters()
    m.forward(x, counters=ct)
    assert list(ct.layers.items()) == list(PINNED_LAYERS.items())
    assert ct.sites == {name: {"spikes": sp, "neurons": nr, "mid": mid, "T": 3}
                        for name, (sp, nr, mid) in PINNED_SITES.items()}


def test_spike_site_drives_equal_the_real_arithmetic_ones(monkeypatch):
    """At every encode point, each spike site reads bit for bit the drive its quantizer's grid reads in
    the real-arithmetic forward, and it is that grid object: both go through ``CodeGrid.read``, the one
    entry of both modes."""
    m, x = pinned_model()
    names = [f"block{i}.{s}" for i in range(2) for s in SPIKE_SITES]
    drives = {"ann": {}, "snn": {}}
    read = quantize.CodeGrid.read

    def recording(grid, drive, fn=None, observe=None):
        if grid.name in names:  # delta_int and x_res read their quantizers' grids in both modes
            block, site = grid.name.split(".")
            assert grid is m.blocks[int(block[5:])].quantizers[site].grid(), (m.mode, grid)
            drives[m.mode].setdefault(grid.name, []).append(drive.copy())  # the scan reuses h's array
        return read(grid, drive, fn, observe)

    monkeypatch.setattr(quantize.CodeGrid, "read", recording)
    m.forward(x)
    m.mode = "ann"
    m.forward(x)
    assert sorted(drives["snn"]) == sorted(drives["ann"]) == sorted(names)
    for name in names:
        ann, snn = drives["ann"][name], drives["snn"][name]
        assert len(ann) == len(snn), name
        assert all(np.array_equal(a, s) for a, s in zip(ann, snn)), name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow that makes the NaN
def test_a_window_that_overflows_to_nan_forecasts_the_same_bytes_alone():
    """A window of 1.7e308 with rmsnorm gains of 4 overflows to inf and then NaN, which reaches every
    site. Alone its drives are small enough for a threshold search, which would count NaN as T; they
    take the arithmetic instead, so the forecast has the bytes of the batch-256 and real-arithmetic
    forwards."""
    cfg = small_cfg()
    m, _ = calibrated_model(cfg)
    x = np.random.default_rng(3).normal(size=(256, cfg.history, cfg.d_value))  # not the calibration data
    x[5, 2] = 1.7e308
    m.blocks[0].g_norm.data[:] = 4.0
    ann = m.forward(x[5:6]).data
    convert_to_snn(m)
    alone = m.forward(x[5:6]).data
    assert np.isnan(alone).all()
    assert alone.tobytes() == m.forward(x).data[5:6].tobytes() == ann.tobytes()


with np.errstate(invalid="ignore"):
    DEFAULT_NAN = np.subtract(np.inf, np.inf)  # the platform's NaN, which an overflow makes


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(T=st.integers(1, 15), rounding=st.sampled_from(["nearest", "floor"]), log_theta=st.floats(-8.0, 3.0),
       offset=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3)),
       fn=st.sampled_from([None, pow2_silu, pow2_softplus]), blocks=st.integers(2, 3), bits=st.integers(1, 4),
       d_hidden=st.integers(2, 8), state_size=st.integers(1, 4), batch=st.integers(2, 64),
       seed=st.integers(0, 2 ** 32 - 1))
def test_a_read_into_its_drive_and_an_overflowing_window_keep_the_arithmetics_bytes(
        T, rounding, log_theta, offset, fn, blocks, bits, d_hidden, state_size, batch, seed):
    """A drive of at most ``SEARCH_MAX`` entries read into itself, ``fn`` of the values or the values,
    holds the bytes of ``fn(decode(codes(x)))`` or ``decode(codes(x))``, at and around every threshold,
    at +-0, +-inf, subnormals, the float64 extremes and the default NaN, which reads the table's last
    entry.  That NaN is every NaN the model makes: on random 2-3-block models a window that overflows
    forecasts the same bytes alone (every drive searched), in a batch and in real arithmetic, and
    every NaN it forecasts is the default NaN."""
    grid = quantize.CodeGrid("g", 10.0 ** log_theta, offset, T, rounding)
    rng = np.random.default_rng(seed)
    tau = grid.thresholds()
    around, up, down = [tau], tau, tau
    for _ in range(3):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        around += [up, down]
    specials = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310,
                1.7976931348623157e308, -1.7976931348623157e308, DEFAULT_NAN, DEFAULT_NAN]
    spread = grid.offset + grid.theta * rng.uniform(-2.0, T + 2.0, size=200)
    wide = rng.choice([-1.0, 1.0], size=100) * 10.0 ** rng.uniform(-320.0, 308.0, size=100)
    drive = rng.permutation(np.concatenate([*around, specials, spread, wide]))
    cuts = np.cumsum(rng.integers(1, quantize.SEARCH_MAX + 1, size=drive.size))
    for piece in np.split(drive, cuts[cuts < drive.size]):
        piece = piece.reshape(1, 1, -1) if piece.size % 2 else piece
        with np.errstate(over="ignore"):  # the arithmetic and fn on inputs near the float64 extremes
            want = grid.decode(grid.codes(piece.copy()))
            if fn is not None:
                want = fn(want)
            got = piece.copy()
            codes = grid.read(got, fn, observe=np.copy)
        assert codes.dtype == np.intp  # searched
        assert np.array_equal(codes[np.isnan(piece)], np.full(np.isnan(piece).sum(), T + 1))
        assert got.tobytes() == want.tobytes()

    cfg = small_cfg(blocks=blocks, bits=bits, d_hidden=d_hidden, state_size=state_size)
    m, _ = calibrated_model(cfg, seed=seed % 1000)
    x = rng.normal(size=(batch, cfg.history, cfg.d_value))
    w = int(rng.integers(batch))
    x[w, int(rng.integers(cfg.history))] = 1.7e308
    m.blocks[0].g_norm.data[:] = 4.0
    with np.errstate(over="ignore", invalid="ignore"):  # the overflow that makes the NaN
        ann = m.forward(x).data
        ann_alone = m.forward(x[w:w + 1]).data
        convert_to_snn(m)
        snn = m.forward(x).data
        alone = m.forward(x[w:w + 1]).data
    assert np.isnan(alone).any()
    assert alone.tobytes() == snn[w:w + 1].tobytes() == ann_alone.tobytes() == ann[w:w + 1].tobytes()
    assert snn.tobytes() == ann.tobytes()
    assert (alone[np.isnan(alone)].view(np.uint64) == DEFAULT_NAN.view(np.uint64)).all()


def readme_model() -> tuple[ForecastModel, np.ndarray]:
    """The README configuration, calibrated, and an unseen batch of 64."""
    m = ForecastModel.build(ModelConfig(d_value=2, history=12, horizon=3, conv_kernel=3), seed=0)
    rng = np.random.default_rng(0)
    m.calibrate(rng.normal(size=(64, 12, 2)))
    return m, rng.normal(size=(64, 12, 2))


def test_only_a_taped_forward_records_backward_closures(monkeypatch):
    """An untaped forward, real-arithmetic or spiking, calls no Tensor primitive and no ``quantize``:
    each calls ``record_op`` wherever it runs, so a wrapped ``record_op`` sees any that slips into an
    untaped forward.  A taped README step records its 27 ops through it.  Under ``smooth`` the gate
    and the step's softplus stay one ``quantize`` op each, computed, not read.  Calibration runs the
    Tensor primitives, off the tape, so the model is calibrated before ``record_op`` is wrapped."""
    recorded = []
    record_op = nm.record_op

    def counting(out, vjp):
        recorded.append(out)
        return record_op(out, vjp)

    m, x = readme_model()
    monkeypatch.setattr(nm, "record_op", counting)
    m.forward(x)
    assert recorded == []
    for smooth in (True, False):
        recorded.clear()
        with nm.GradTape() as tape:
            nm.mse(m.forward(x, smooth=smooth), nm.tensor(np.zeros((64, 3, 2))))
        assert len(recorded) == len(tape) == 27, smooth
    convert_to_snn(m)
    m.forward(x)
    m.forward(x[:1])
    profile(m, x[:1], EnergyTable(e_acc=1.0, e_mac=1.0, e_shift=1.0, e_cmp=1.0))
    assert len(recorded) == 27


def test_a_warmed_spiking_forward_reads_the_gate_and_step_from_tables(monkeypatch):
    """Once its grids' tables are built, the spiking forward gets ``x_res``'s gate and ``delta_int``'s
    softplus by reading them, at batch 1 (search) and 256 (arithmetic codes), with the same bytes:
    neither the quantizer's own path nor the activations run.  A grid's table is ``fn`` of its levels,
    kept per ``fn``: the activations the forward passes are counted, and run only to build the tables."""
    m, _ = readme_model()
    x = np.random.default_rng(1).normal(size=(256, 12, 2))
    convert_to_snn(m)
    calls = []

    def counted(fn):
        def activation(v):
            calls.append(fn.__name__)
            return fn(v)
        return activation

    for name in ("pow2_silu", "pow2_softplus"):
        monkeypatch.setattr(ssm, name, counted(getattr(ssm, name)))
    m.forward(x[:1])  # builds the tables
    assert sorted(calls) == ["pow2_silu", "pow2_softplus"]
    want = [m.forward(xb).data for xb in (x[:1], x)]

    def forbidden(*args, **kwargs):
        raise AssertionError("a warmed spiking forward reads its gate and step from tables")

    for owner, name in ((ssm, "quantize"), (ssm, "quantize_codes"), (quantize, "quantize_codes"),
                        (ssm, "pow2_silu_t"), (ssm, "pow2_softplus_t"), (activations, "pow2_silu"),
                        (activations, "pow2_softplus")):
        monkeypatch.setattr(owner, name, forbidden)
    got = [m.forward(xb).data for xb in (x[:1], x)]
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    assert len(calls) == 2


def test_a_changed_quantizer_rebuilds_its_table():
    """A quantizer's grid, and with it the grid's tables, holds for its step, offset, bits and rounding:
    an in-place write to the step (as Adam makes) or a new offset builds a new one on the next spiking
    forward, which still gives the real-arithmetic forward's bytes."""
    m, x = readme_model()
    convert_to_snn(m)
    blk = m.blocks[0]

    def forecasts():
        snn = [m.forward(xb).data.tobytes() for xb in (x[:1], x)]
        m.mode = "ann"
        ann = [m.forward(xb).data.tobytes() for xb in (x[:1], x)]
        m.mode = "snn"
        assert snn == ann
        return snn

    qs = blk.quantizers
    before, grids = forecasts(), {s: qs[s].grid() for s in ("x_res", "delta_int")}
    qs["x_res"].alpha.data[...] *= 1.5
    after = forecasts()
    assert after != before
    assert qs["x_res"].grid() is not grids["x_res"] and qs["delta_int"].grid() is grids["delta_int"]
    qs["delta_int"].set_beta(2.0)
    forecasts()
    assert qs["delta_int"].grid() is not grids["delta_int"]
    built = qs["delta_int"].grid()._tables  # the forward built the softplus table of the new grid
    assert built[pow2_softplus][:-1].tobytes() == pow2_softplus(np.arange(4.0) + 2.0).tobytes()  # then NaN's


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN through the arithmetic
@pytest.mark.parametrize("fn, fn_grad, fn_t", [(pow2_silu, activations.pow2_silu_grad, activations.pow2_silu_t),
                                               (pow2_softplus, activations.pow2_softplus_grad,
                                                activations.pow2_softplus_t)])
@pytest.mark.parametrize("frozen", [False, True])
def test_a_taped_activation_from_tables_is_the_two_ops_bit_for_bit(fn, fn_grad, fn_t, frozen):
    """In training the gate and the step's softplus are one ``quantize`` op reading value and slope
    from the grid's tables: its value and gradients are those of the quantizer and the activation taped
    as two ops, a drive with NaN included (it takes the arithmetic), and so is the ``smooth``
    surrogate's (all arithmetic); a frozen step size gets none."""
    rng = np.random.default_rng(5)
    q = Quantizer(bits=2, alpha=nm.Tensor(0.6, trainable=not frozen), beta=-0.2, rounding="nearest")
    for smooth, nan in itertools.product((False, True), repeat=2):
        x = 2.0 * rng.normal(size=(3, 7, 5))
        if nan:
            x[1, 2, 3] = np.nan
        g = rng.normal(size=x.shape)
        got = []
        for op in (lambda t: quantize.quantize(t, q, smooth, fn=fn, fn_grad=fn_grad),
                   lambda t: fn_t(quantize.quantize(t, q, smooth))):
            t = nm.tensor(x, trainable=True)
            with nm.GradTape() as tape:
                out = op(t)
            grads = nm.backward(tape, loss_grad=g, output=out)
            got.append([out.data.tobytes()] + [grads[p].tobytes() if p in grads else None
                                               for p in (t, q.alpha, q.beta)])
        assert got[0] == got[1], (smooth, nan)
        assert (got[0][2] is None) == frozen


# Python function calls of one untaped batch-1 spiking forward at the README size, numpy 2.4
# (265 when every site encoded by arithmetic and every primitive built its backward closure,
# 157 while the gate and the step's softplus were computed rather than read from tables,
# 133 while each read returned fresh values that a Tensor wrapped or the scan copied into its slot,
# 94 while the block ran the Tensor primitives off the tape and the state hook was handed its step,
# 59 while the scan built its decay factors through a Python-level ``spike.pow2_shift``)
BATCH_1_CALLS = 58
# and of the same forward counting its ops into an ``OpCounters``, each site's tally an observer of its
# one read (196 while each site record summed its counts through ``ndarray.sum`` and ``np.count_nonzero``,
# and while a counted read took a path of its own and the caller decoded a large drive; 145 while
# the step projection and the gate each tallied in two calls, 143 before the decay's ``pow2_shift``
# was numpy's ``ldexp`` itself)
BATCH_1_COUNTED_CALLS = 142


def batch_1_calls(counted: bool) -> int:
    """The ``sys.setprofile`` call events of one batch-1 README-size spiking forward, counting its ops
    into a fresh ``OpCounters`` when ``counted``, after a first forward has built the grids' tables."""
    m, x = readme_model()
    convert_to_snn(m)
    m.forward(x[:1])  # builds the grids' thresholds and tables
    counters = OpCounters() if counted else None
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    before = sys.getprofile()
    sys.setprofile(count)
    try:
        m.forward(x[1:2], counters=counters)
    finally:
        sys.setprofile(before)
    return calls


def test_a_batch_1_spiking_forward_makes_few_python_calls():
    """Streaming latency is per-call overhead, so a change that adds Python calls to the batch-1
    spiking forward fails here without a timing test; counted as ``sys.setprofile`` call events."""
    assert batch_1_calls(counted=False) <= BATCH_1_CALLS


def test_a_counted_batch_1_forward_makes_few_python_calls():
    """Op counting observes the plain read, so a per-site closure or a second read on the counting path
    fails here as a higher count."""
    assert batch_1_calls(counted=True) <= BATCH_1_COUNTED_CALLS


def test_a_batch_1_spiking_forward_builds_three_tensors():
    """Tensors belong to the tape: off it the window, the block's output and the head's are the only
    ones, so a primitive slipping back into the untaped block fails here; counted as the
    ``sys.setprofile`` call events of ``Tensor.__init__``."""
    m, x = readme_model()
    convert_to_snn(m)
    m.forward(x[:1])  # builds the grids' thresholds and tables
    init = nm.Tensor.__init__.__code__
    built = 0

    def count(frame, event, arg):
        nonlocal built
        built += event == "call" and frame.f_code is init

    before = sys.getprofile()
    sys.setprofile(count)
    try:
        m.forward(x[1:2])
    finally:
        sys.setprofile(before)
    assert built <= 3


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(bits=st.integers(1, 4), blocks=st.integers(1, 3), batch=st.sampled_from([1, 2, 64]),
       offsets=st.booleans(), seed=st.integers(0, 2 ** 31))
def test_taped_and_untaped_forwards_give_the_same_bytes(bits, blocks, batch, offsets, seed):
    """Off the tape a block runs the array kernels its taped primitives wrap, one kernel per primitive,
    so a real-arithmetic forward gives the same bytes under a ``GradTape`` and off it, with and
    without ``smooth``.  The converted model's spiking forward gives the taped forward's bytes too: off
    the tape both modes read every site through ``CodeGrid.read``, and on it every site codes by
    arithmetic (``quantize_codes``), so the two modes stay checked against an independent side."""
    rng = np.random.default_rng(seed)
    m = ForecastModel.build(small_cfg(bits=bits, blocks=blocks), seed=seed)
    if offsets:
        for blk in m.blocks:
            for s in ("x_in", "conv", "delta_raw", "h", "y"):
                blk.quantizers[s].set_beta(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 1.0))
    m.calibrate(rng.normal(size=(16, m.cfg.history, m.cfg.d_value)))
    x = rng.uniform(0.5, 3.0) * rng.normal(size=(batch, m.cfg.history, m.cfg.d_value))
    for smooth in (False, True):
        off = m.forward(x, smooth=smooth)
        with nm.GradTape() as tape:
            on = m.forward(x, smooth=smooth)
        assert len(tape) > 0
        assert on.data.tobytes() == off.data.tobytes(), smooth
        if not smooth:
            taped = on.data.tobytes()
    convert_to_snn(m)
    assert m.forward(x).data.tobytes() == taped


class OperandLog(np.ndarray):
    """An array that logs the operand types of every ufunc call it takes part in."""

    calls: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        OperandLog.calls.append((ufunc.__name__, tuple(type(v) for v in inputs)))
        plain = tuple(v.view(np.ndarray) if isinstance(v, OperandLog) else v for v in inputs)
        if out is not None:
            kwargs["out"] = tuple(o.view(np.ndarray) if isinstance(o, OperandLog) else o for o in out)
        result = getattr(ufunc, method)(*plain, **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return result.view(OperandLog) if isinstance(result, np.ndarray) else result


def test_hot_path_ufuncs_take_no_python_scalar_operands():
    """Site encodes and decodes, quantizers, the decay exponent, its shift and both activations pass
    numpy only arrays: a Python ``float`` or ``int`` operand is converted anew on every call, which
    at batch 1 costs about as much as the arithmetic."""
    rng = np.random.default_rng(12)

    def drive():
        return rng.normal(scale=2.0, size=(2, 3, 4)).view(OperandLog)

    def into_itself(fn):
        def call():
            d = drive()
            return fn(d, d)
        return call

    site = quantize.CodeGrid("s", 0.4, -0.1, 3)
    exponents = rng.integers(EXP_LO, EXP_HI + 1, size=(2, 3, 4), dtype=np.int32)
    qs = [Quantizer(bits=2, alpha=0.4, beta=-0.1, rounding=r, name=r) for r in ("floor", "nearest")]
    calls = {
        "codes": lambda: site.codes(drive()),
        "codes in place": into_itself(lambda d, o: site.codes(d, out=o)),
        "decode": lambda: site.decode(drive()),
        "decode in place": into_itself(lambda d, o: site.decode(d, out=o)),
        "exponent": lambda: ssm._exponent(drive(), False),
        "smooth exponent": lambda: ssm._exponent(drive(), True),
        "pow2_shift in place": into_itself(lambda d, o: ssm.pow2_shift(d, exponents, out=o)),
        "pow2_softplus": lambda: pow2_softplus(drive()),
        "pow2_silu": lambda: pow2_silu(drive()),
    }
    for q in qs:
        for smooth in (False, True):
            calls[f"quantize_values {q.name} {smooth}"] = lambda q=q, s=smooth: quantize_values(drive(), q, s)
            calls[f"quantize_values {q.name} {smooth} in place"] = into_itself(
                lambda d, o, q=q, s=smooth: quantize_values(d, q, s, out=o))
    # a single clip and a single ldexp; every other entry makes at least two calls
    fewest = {"smooth exponent": 1, "pow2_shift in place": 1}
    for name, call in calls.items():
        OperandLog.calls.clear()
        call()
        assert len(OperandLog.calls) >= fewest.get(name, 2), name  # the logging array reached the arithmetic
        scalars = [(ufunc, types) for ufunc, types in OperandLog.calls
                   if not all(issubclass(t, np.ndarray) for t in types)]
        assert not scalars, (name, scalars)


def test_hot_path_calls_neither_np_clip_nor_np_pad(monkeypatch):
    """Calibration, a taped training step, both forwards and the energy profile run without the
    wrapper-heavy ``np.clip`` and ``np.pad``, whose Python layers cost more than the work at batch 1."""
    def forbidden(*args, **kwargs):
        raise AssertionError("np.clip and np.pad are too slow for the forward and training paths")

    monkeypatch.setattr(np, "clip", forbidden)
    monkeypatch.setattr(np, "pad", forbidden)
    m, x = calibrated_model(small_cfg(blocks=2))
    y = np.random.default_rng(5).normal(size=(x.shape[0], m.cfg.horizon, m.cfg.d_value))
    res = train(m, x, y, x[:0], y[:0], TrainConfig(max_epochs=1, batch_size=x.shape[0]))
    assert res.epochs_run == 1 and np.isfinite(res.train_losses[0])
    ann = m.forward(x[:1]).data
    convert_to_snn(m)
    assert np.array_equal(m.forward(x[:1]).data, ann)
    table = EnergyTable(e_acc=1e-12, e_mac=4e-12, e_shift=1e-13, e_cmp=1e-13)
    assert profile(m, x, table).total_joules > 0


@pytest.mark.parametrize("batch, history", [(1, 10), (3, 10), (256, 10), (1, 1)])
def test_no_forward_writes_into_its_callers_arrays(batch, history):
    """Sites encode into their own dead drives, never into the caller's windows, a weight or an earlier
    call's output; at history 1 and batch 1 a ``split_last`` piece is a view of its parent's buffer."""
    m, _ = calibrated_model(small_cfg(history=history, blocks=2))
    rng = np.random.default_rng(batch + history)
    x, x2 = (rng.normal(size=(batch, history, 2)) for _ in range(2))
    kept = x.copy()
    table = EnergyTable(e_acc=1.0, e_mac=2.0, e_shift=0.5, e_cmp=0.25)

    def model_bytes():
        ws = [t.data.tobytes() for blk in m.blocks for t in blk.weight_tensors()]
        qs = [_quantizer_record(blk.quantizers[s]) for blk in m.blocks for s in QUANT_SITES]
        return ws + [m.W_head.data.tobytes(), m.b_head.data.tobytes()], qs, [blk.sites for blk in m.blocks]

    def check(forward):
        before = model_bytes()
        first = forward(x)
        first_kept = first.copy()
        forward(x2)
        assert x.tobytes() == kept.tobytes()
        assert first.tobytes() == first_kept.tobytes()
        assert model_bytes() == before

    check(lambda a: m.forward(a).data)
    check(lambda a: m.forward(nm.Tensor(a)).data)
    convert_to_snn(m)
    check(lambda a: m.forward(a).data)
    check(lambda a: m.forward(a, counters=OpCounters()).data)
    check(lambda a: np.array(list(profile(m, a, table).per_layer.values())))


@pytest.mark.parametrize("mode, counted", [("ann", False), ("snn", False), ("snn", True)])
def test_batch_forward_heap_peaks_under_seven_drives(mode, counted):
    """At the README size a batch-256 forward's heap peaks below seven [B, L, dh] arrays: each site
    encodes in its dead drive and y's encode runs after the scan's inputs die (7.8 in the
    real-arithmetic and 8.9 in the spiking forward while every encode allocated its own)."""
    cfg = ModelConfig(d_value=2, history=12, horizon=3, d_hidden=16, state_size=4, conv_kernel=3)
    m = ForecastModel.build(cfg, seed=0)
    rng = np.random.default_rng(0)
    m.calibrate(rng.normal(size=(256, 12, 2)))
    if mode == "snn":
        convert_to_snn(m)
    x = rng.normal(size=(256, 12, 2))

    def forward():
        return m.forward(x, counters=OpCounters() if counted else None)

    forward()
    tracemalloc.start()
    try:
        forward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * x.shape[0] * cfg.history * cfg.d_hidden * 8, peak


def test_multi_block_equivalence():
    m, x = calibrated_model(small_cfg(blocks=3))
    convert_to_snn(m)
    snn = m.forward(x).data
    m.mode = "ann"
    ann = m.forward(x).data
    assert np.array_equal(ann, snn)


def assert_gradients_match_the_taped_oracle(cfg, batch, smooth, rng, seed):
    """Every parameter gradient of one taped step within 1e-9 relative of the per-step taped oracle;
    returns the step's gradients as bytes, in parameter order."""
    m = ForecastModel.build(cfg, seed=seed)
    for blk in m.blocks:
        for s in ("x_in", "conv", "delta_raw", "h", "y"):
            blk.quantizers[s].set_beta(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 1.0))
    m.calibrate(rng.normal(size=(8, cfg.history, cfg.d_value)))
    for blk in m.blocks:
        blk.A_log.data[:, 0] = math.log(40.0)  # step >= 1, so this exponent clips at EXP_LO
        blk.A_log.data[:, 1:] += rng.uniform(-1.0, 3.0, size=(cfg.d_hidden, cfg.state_size - 1))
        blk.quantizers["h"].set_alpha(0.3 * float(blk.quantizers["h"].alpha.data))  # codes clip high
    x = 2.0 * rng.normal(size=(batch, cfg.history, cfg.d_value))
    y = rng.normal(size=(batch, cfg.horizon, cfg.d_value))
    grads = []
    for forward in (m.forward, lambda v, smooth: taped_forward(m, v, smooth)):
        with nm.GradTape() as tape:
            loss = nm.mse(forward(x, smooth=smooth), nm.tensor(y))
        grads.append(nm.backward(tape, output=loss))
    for p in m.parameters():
        got, want = (np.asarray(g.get(p, np.zeros_like(p.data))) for g in grads)
        scale = max(np.max(np.abs(got)), np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= 1e-9 * scale, p.name
    return [np.asarray(grads[0][p]).tobytes() if p in grads[0] else None for p in m.parameters()]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(bits=st.integers(1, 4), blocks=st.integers(1, 3), state_size=st.integers(1, 4),
       d_hidden=st.integers(1, 7), batch=st.integers(1, 6), smooth=st.booleans(), seed=st.integers(0, 2 ** 31))
# batch, history, d_hidden and state all differ, so no contraction over a swapped axis passes by symmetry
@example(bits=2, blocks=1, state_size=3, d_hidden=5, batch=4, smooth=False, seed=3)  # history 7
@example(bits=2, blocks=2, state_size=3, d_hidden=5, batch=4, smooth=True, seed=3)
@example(bits=2, blocks=1, state_size=9, d_hidden=5, batch=4, smooth=False, seed=3)  # past numpy's pairwise sum
def test_gradients_match_the_per_step_taped_oracle(bits, blocks, state_size, d_hidden, batch, smooth, seed):
    """The scan's one tape op gives the gradients of the scan unrolled into primitives."""
    rng = np.random.default_rng(seed)
    cfg = small_cfg(bits=bits, blocks=blocks, state_size=state_size, d_hidden=d_hidden,
                    history=int(rng.integers(3, 9)))
    assert_gradients_match_the_taped_oracle(cfg, batch, smooth, rng, seed)


@pytest.mark.parametrize("smooth", [False, True])
def test_gradients_match_the_taped_oracle_across_scan_chunks(smooth, monkeypatch):
    """README size at batch 64: the taped forward's scan runs three chunks of 4 steps, and its
    gradients are the same bytes with one step per chunk or the whole window in one."""
    cfg = ModelConfig(d_value=2, history=12, horizon=3, d_hidden=16, state_size=4, conv_kernel=3)
    step = 64 * 16 * 4  # state entries per step
    assert ssm.SCAN_CHUNK // step == 4
    grads = {}
    for span in (4, 1, 12):
        monkeypatch.setattr(ssm, "SCAN_CHUNK", span * step)
        grads[span] = assert_gradients_match_the_taped_oracle(cfg, 64, smooth, np.random.default_rng(13), 13)
    assert grads[1] == grads[4] == grads[12]


def fd_check_parameters(model, x, y, entries=3, eps=1e-5, tol=1e-3):
    params = model.parameters()
    with nm.GradTape() as tape:
        loss = nm.mse(model.forward(x, smooth=True), nm.tensor(y))
    grads = nm.backward(tape, output=loss)
    rng = np.random.default_rng(0)
    checked = skipped = 0

    def loss_at():
        return float(nm.mse(model.forward(x, smooth=True), nm.tensor(y)).data)

    for p in params:
        g = grads.get(p, np.zeros_like(p.data))
        flat = p.data.ravel()
        gflat = np.asarray(g).ravel()
        idxs = rng.choice(flat.size, size=min(entries, flat.size), replace=False)
        for i in idxs:
            orig = flat[i]

            def fd(h):
                flat[i] = orig + h
                up = loss_at()
                flat[i] = orig - h
                dn = loss_at()
                flat[i] = orig
                return (up - dn) / (2 * h)

            f1, f2 = fd(eps), fd(2 * eps)
            # smooth entries agree across step sizes to ~1e-8; a clip mask
            # flipping inside the window shows up at the scale of the slope jump
            if abs(f1 - f2) > 1e-4 * max(1e-3, abs(f1), abs(f2)):
                skipped += 1
                continue
            scale = max(1e-6, abs(f1), abs(gflat[i]))
            assert abs(gflat[i] - f1) / scale < tol, (p.name, i, gflat[i], f1)
            checked += 1
    assert checked > 3 * skipped, f"too many boundary skips ({skipped} vs {checked})"
    return checked


def test_full_model_gradients_match_finite_differences():
    m, x = calibrated_model(small_cfg(d_hidden=4, state_size=2, history=6), batch=4)
    y = np.random.default_rng(2).normal(size=(4, 3, 2))
    # nudge every parameter off the freshly calibrated point: silent (all-zero)
    # activations sit exactly on the code-0 edge of downstream sites, where the
    # true derivative is one-sided and central differences see the average
    jit = np.random.default_rng(7)
    for w in m.parameters():
        if w.name.endswith(".alpha"):  # step sizes must stay positive
            w.data *= 1.0 + 0.1 * jit.uniform(-1.0, 1.0, size=w.data.shape)
        else:
            w.data += 1e-3 * jit.standard_normal(w.data.shape)
    checked = fd_check_parameters(m, x, y)
    assert checked >= 40
