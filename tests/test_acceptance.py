"""Acceptance suite: the eleven release criteria, one pass/fail line each.

Verdict lines collect in RESULTS; the conftest terminal-summary hook prints
them after the run so a plain ``pytest -v`` always shows all eleven.
"""

import time

import numpy as np
import pytest

import spikescan.numerics as nm
from spikescan.activations import (SILU_GRAD_BOUND, SILU_VALUE_BOUND,
                                   SOFTPLUS_GRAD_BOUND, SOFTPLUS_VALUE_BOUND,
                                   branch_continuity_gaps, pow2_silu_t,
                                   pow2_softplus_t, verify_deviation_bounds)
from spikescan.dataset import denormalize, make_coupled_sinusoids, make_windows
from spikescan.energy import EnergyTable, OpCounters
from spikescan.metrics import r2, rrse
from spikescan.quantize import CodeGrid, Quantizer, quantize, quantize_with_context
from spikescan.spike import simulate_if
from spikescan.ssm import ForecastModel, ModelConfig
from spikescan.train import TrainConfig, apply_threshold_scaling, convert_to_snn, train
from ssm_oracle import apply_kernel, dense_ssm_reference, round_half_away, ssm_kernel


RESULTS: list[str] = []


def report(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {verdict}  {detail}"
    RESULTS.append(line)
    print(line)


def random_model(rng: np.random.Generator, bits=None, blocks=None):
    cfg = ModelConfig(
        d_value=int(rng.integers(1, 4)),
        history=int(rng.integers(4, 11)),
        horizon=int(rng.integers(1, 4)),
        d_hidden=int(rng.integers(2, 9)),
        state_size=int(rng.integers(1, 4)),
        conv_kernel=int(rng.integers(2, 5)),
        blocks=blocks if blocks is not None else int(rng.integers(1, 3)),
        bits=bits if bits is not None else int(rng.integers(1, 4)),
    )
    m = ForecastModel.build(cfg, seed=int(rng.integers(0, 2 ** 31)))
    x = rng.normal(size=(4, cfg.history, cfg.d_value))
    m.calibrate(x)
    return m, x


def test_criterion_01_softplus_deviation_bounds():
    t0 = time.perf_counter()
    table = verify_deviation_bounds(lo=-10.0, hi=10.0, step=1e-3)
    dt = time.perf_counter() - t0
    (value, _), (grad, _) = table["softplus_value"], table["softplus_grad"]
    ok = value <= SOFTPLUS_VALUE_BOUND and grad <= SOFTPLUS_GRAD_BOUND and dt < 1.0
    report(1, ok, f"softplus value {value:.4f} <= {SOFTPLUS_VALUE_BOUND}, "
                  f"grad {grad:.4f} <= {SOFTPLUS_GRAD_BOUND}, {dt:.2f}s")
    assert ok


def test_criterion_02_silu_deviation_bounds():
    t0 = time.perf_counter()
    table = verify_deviation_bounds(lo=-10.0, hi=10.0, step=1e-3)
    dt = time.perf_counter() - t0
    (value, _), (grad, _) = table["silu_value"], table["silu_grad"]
    ok = value <= SILU_VALUE_BOUND and grad <= SILU_GRAD_BOUND and dt < 1.0
    report(2, ok, f"silu value {value:.4f} <= {SILU_VALUE_BOUND}, "
                  f"grad {grad:.4f} <= {SILU_GRAD_BOUND}, {dt:.2f}s")
    assert ok


def test_criterion_03_branch_continuity():
    gaps = branch_continuity_gaps()
    worst = max(gaps.values())
    ok = worst <= 1e-12
    report(3, ok, f"max branch gap {worst:.2e} <= 1e-12 across {len(gaps)} cuts")
    assert ok


def test_criterion_04_conversion_soundness():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        m, x = random_model(rng)
        ann = m.forward(x).data
        convert_to_snn(m)
        snn = m.forward(x).data
        worst = max(worst, float(np.max(np.abs(ann - snn))))
    ok = worst <= 1e-9
    report(4, ok, f"100 random models, max |ann - snn| = {worst:.2e} <= 1e-9")
    assert ok


def test_criterion_05_scan_matches_kernel():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        m_in = int(rng.integers(1, 3))
        p_out = int(rng.integers(1, 3))
        L = int(rng.integers(2, 33))
        A = rng.normal(size=(n, n))
        A *= 0.85 / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-9)
        B = rng.normal(size=(n, m_in))
        C = rng.normal(size=(p_out, n))
        D = rng.normal(size=(p_out, m_in))
        u = rng.normal(size=(L, m_in))
        direct = dense_ssm_reference(A, B, C, D, u)
        viaconv = apply_kernel(u, ssm_kernel(A, B, C, L), D)
        worst = max(worst, float(np.max(np.abs(direct - viaconv))))
    ok = worst <= 1e-10
    report(5, ok, f"50 random systems (n<=4, L<=32), max gap {worst:.2e} <= 1e-10")
    assert ok


def test_criterion_06_average_if_fidelity():
    rng = np.random.default_rng(13)
    exact = True
    for _ in range(1000):
        T = int(rng.integers(1, 9))
        theta = float(rng.uniform(0.01, 3.0))
        drive = np.asarray([rng.uniform(-theta, (T + 1.5) * theta)])
        got = CodeGrid("c06", theta, 0.0, T).codes(drive)[0]
        if got != simulate_if(drive, T, theta).sum():
            exact = False
            break
    grid_ok = True
    for _ in range(200):
        T = int(rng.integers(1, 9))
        theta = float(rng.uniform(0.01, 3.0))
        m = int(rng.integers(0, T + 1))
        if int(CodeGrid("c06", theta, 0.0, T).codes(np.asarray([m * theta]))[0]) != m:
            grid_ok = False
            break
    ok = exact and grid_ok
    report(6, ok, "1000 cases bit-exact vs step-by-step simulator; "
                  "m*theta encodes to exactly m spikes")
    assert ok


def _fd(f, x0, eps):
    return (f(x0 + eps) - f(x0 - eps)) / (2 * eps)


def _primitive_fd_worst() -> float:
    """Max relative gradient error across the taped building blocks."""
    rng = np.random.default_rng(14)
    worst = 0.0

    def check(build, arrs):
        nonlocal worst
        ts = [nm.tensor(a.copy(), trainable=True) for a in arrs]
        with nm.GradTape() as tape:
            out = nm.sum_all(build(*ts))
        grads = nm.backward(tape, output=out)
        for t in ts:
            g = np.asarray(grads[t])
            flat = t.data.ravel()
            for idx in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                orig = flat[idx]

                def at(v):
                    flat[idx] = v
                    r = float(nm.sum_all(build(*ts)).data)
                    flat[idx] = orig
                    return r

                fd = _fd(at, orig, 1e-6)
                scale = max(1e-4, abs(fd), abs(g.ravel()[idx]))
                worst = max(worst, abs(g.ravel()[idx] - fd) / scale)

    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 5))
    check(lambda x, w: nm.linear(x, w), [a, b])
    check(lambda x, y: nm.mul(x, y), [rng.normal(size=(2, 3)), rng.normal(size=(1, 3))])
    check(lambda x: nm.rmsnorm(x, nm.tensor(np.ones(4)), 1e-6), [rng.normal(size=(2, 5, 4))])
    check(lambda x, k: nm.depthwise_conv1d(x, k), [rng.normal(size=(2, 6, 3)), rng.normal(size=(3, 3))])
    check(pow2_softplus_t, [rng.normal(size=(40,)) * 2 + 0.3])
    check(pow2_silu_t, [rng.normal(size=(40,)) * 2 + 0.3])
    q = Quantizer(bits=2, alpha=0.7, beta=-0.2, name="fd")
    check(lambda x: quantize(x, q, smooth=True), [rng.uniform(-0.1, 1.9, size=(30,))])
    return worst


def _block_fd_worst(entries=3, eps=1e-5) -> tuple[float, int]:
    cfg = ModelConfig(d_value=2, history=6, horizon=2, d_hidden=4, state_size=2,
                      conv_kernel=3, blocks=1, bits=2)
    m = ForecastModel.build(cfg, seed=21)
    rng = np.random.default_rng(22)
    x = rng.normal(size=(4, cfg.history, cfg.d_value))
    m.calibrate(x)
    for w in m.parameters():  # leave the exactly-on-edge init point
        if w.name.endswith(".alpha"):  # step sizes must stay positive
            w.data *= 1.0 + 0.1 * rng.uniform(-1.0, 1.0, size=w.data.shape)
        else:
            w.data += 1e-3 * rng.standard_normal(w.data.shape)
    y = rng.normal(size=(4, cfg.horizon, cfg.d_value))

    def loss():
        return float(nm.mse(m.forward(x, smooth=True), nm.tensor(y)).data)

    with nm.GradTape() as tape:
        out = nm.mse(m.forward(x, smooth=True), nm.tensor(y))
    grads = nm.backward(tape, output=out)
    worst, checked = 0.0, 0
    for p in m.parameters():
        g = np.asarray(grads.get(p, np.zeros_like(p.data))).ravel()
        flat = p.data.ravel()
        for idx in rng.choice(flat.size, size=min(entries, flat.size), replace=False):
            orig = flat[idx]

            def at(v):
                flat[idx] = v
                r = loss()
                flat[idx] = orig
                return r

            f1, f2 = _fd(at, orig, eps), _fd(at, orig, 2 * eps)
            if abs(f1 - f2) > 1e-4 * max(1e-3, abs(f1), abs(f2)):
                continue  # a clip kink sits inside the probe window
            scale = max(1e-6, abs(f1), abs(g[idx]))
            worst = max(worst, abs(g[idx] - f1) / scale)
            checked += 1
    return worst, checked


def test_criterion_07_gradients_match_finite_differences():
    t0 = time.perf_counter()
    prim = _primitive_fd_worst()
    blk, checked = _block_fd_worst()
    dt = time.perf_counter() - t0
    ok = prim <= 1e-4 and blk <= 1e-3 and checked >= 40 and dt < 30.0
    report(7, ok, f"primitives worst rel err {prim:.2e} <= 1e-4; "
                  f"full block {blk:.2e} <= 1e-3 over {checked} entries; {dt:.1f}s")
    assert ok


def saturate_site(model: ForecastModel, block: int = 0, name: str = "x_in") -> None:
    site = model.blocks[block].sites[name]
    model.blocks[block].sites[name] = CodeGrid(site.name, site.theta, site.offset - 1e4 * site.theta, site.T)


def test_criterion_08_threshold_scaling():
    rng = np.random.default_rng(15)
    worst_gap, rate_ok, spikes_ok, scaled_any = 0.0, True, True, 0
    for _ in range(20):
        m, x = random_model(rng, bits=int(rng.integers(2, 4)), blocks=1)
        convert_to_snn(m)
        T = 2 ** m.cfg.bits - 1
        # drive one site to full rate so a guaranteed-saturated case is present
        saturate_site(m)
        before_ct = OpCounters()
        baseline = m.forward(x, counters=before_ct).data.copy()
        assert before_ct.spike_rate("block0.x_in") == 1.0
        scaled = apply_threshold_scaling(m, x)
        after_ct = OpCounters()
        out = m.forward(x, counters=after_ct).data
        worst_gap = max(worst_gap, float(np.max(np.abs(out - baseline))))
        if "block0.x_in" in scaled:
            scaled_any += 1
            if after_ct.spike_rate("block0.x_in") > 1.0 / T + 1e-12:
                rate_ok = False
        if after_ct.total_spikes() > before_ct.total_spikes():
            spikes_ok = False
    ok = worst_gap <= 1e-9 and rate_ok and spikes_ok and scaled_any == 20
    report(8, ok, f"20 models: max output drift {worst_gap:.2e} <= 1e-9, spike totals "
                  f"nonincreasing, saturated site rate 1.0 -> <= 1/T ({scaled_any} scaled)")
    assert ok


def test_criterion_09_desk_scale_training():
    t0 = time.perf_counter()
    ds = make_coupled_sinusoids(n_steps=2000, seed=0)
    sp = make_windows(ds, history=12, horizon=3)
    cfg = ModelConfig(d_value=2, history=12, horizon=3, d_hidden=16, state_size=4,
                      conv_kernel=3, blocks=1, bits=2)
    model = ForecastModel.build(cfg, seed=0)
    tc = TrainConfig(lr=5e-4, batch_size=64, patience=20, max_epochs=120, seed=0)
    res = train(model, sp.x_train, sp.y_train, sp.x_val, sp.y_val, tc)
    convert_to_snn(model)
    pred = np.concatenate([model.forward(sp.x_test[i:i + 256]).data
                           for i in range(0, sp.x_test.shape[0], 256)])
    true = denormalize(sp.y_test, sp.mean, sp.std)
    pred = denormalize(pred, sp.mean, sp.std)
    score_r2, score_rrse = r2(true, pred), rrse(true, pred)
    dt = time.perf_counter() - t0
    ok = score_r2 >= 0.9 and score_rrse <= 0.35 and dt < 300.0
    report(9, ok, f"snn test R2 = {score_r2:.4f} >= 0.9, RRSE = {score_rrse:.4f} <= 0.35 "
                  f"({res.epochs_run} epochs, {dt:.0f}s < 300s)")
    assert ok


def test_criterion_10_accumulate_exactness():
    rng = np.random.default_rng(16)
    ident_ok = True
    for _ in range(20):
        m, x = random_model(rng)
        convert_to_snn(m)
        ct = OpCounters()
        m.forward(x, counters=ct)
        dh, n, r, K = m.cfg.d_hidden, m.cfg.state_size, m.cfg.delta_rank, m.cfg.conv_kernel
        for i in range(m.cfg.blocks):
            sp = {s: ct.sites[f"block{i}.{s}"]["spikes"]
                  for s in ("x_in", "conv", "delta_raw", "h", "y")}
            predicted = (sp["x_in"] * K + sp["conv"] * (r + 2 * n) + sp["conv"] * (n + 1)
                         + sp["delta_raw"] * dh + sp["h"] + sp["y"])
            measured = sum(row["acc"] for layer, row in ct.layers.items()
                           if layer.startswith(f"block{i}."))
            if measured != predicted:
                ident_ok = False
    table = EnergyTable(e_acc=1e-12, e_mac=3e-12, e_shift=2e-13, e_cmp=1e-13)
    double = EnergyTable(e_acc=2e-12, e_mac=6e-12, e_shift=4e-13, e_cmp=2e-13)
    tot = ct.totals()
    linear_ok = (double.cost(tot) == 2.0 * table.cost(tot)
                 and EnergyTable(1e-12, 0, 0, 0).cost(tot)
                 == (tot["acc"] + tot["acc_bias"]) * 1e-12)
    ok = ident_ok and linear_ok
    report(10, ok, "20 models: accumulates == spike-count x fan-out identity, "
                   "energy exactly linear in the table")
    assert ok


def test_criterion_11_quantizer_laws():
    rng = np.random.default_rng(17)
    ok = True
    # floor sites: code = clip(floor((x - b)/a + snap), 0, 2^bits - 1)
    q = Quantizer(bits=2, alpha=0.5, beta=0.0, rounding="floor", name="flo")
    xs = rng.uniform(-1.0, 3.0, size=2000)
    xq, ctx = quantize_with_context(xs, q)
    codes = np.clip(np.floor(xs / 0.5 + 1e-9), 0, 3)
    ok &= np.array_equal(ctx.codes, codes) and np.array_equal(xq, 0.5 * codes)
    # exact grid values survive floor untouched
    grid = 0.5 * rng.integers(0, 4, size=500)
    ok &= np.array_equal(quantize_with_context(grid, q)[0], grid)
    # nearest sites: round half away from zero
    qn = Quantizer(bits=2, alpha=1.0, beta=0.0, name="near", rounding="nearest")
    ok &= np.array_equal(round_half_away(np.array([0.5, 1.5, 2.5, -0.5])),
                         np.array([1.0, 2.0, 3.0, -1.0]))
    xq2, _ = quantize_with_context(np.array([0.49, 0.5, 2.5, 3.7]), qn)
    ok &= np.array_equal(xq2, np.array([0.0, 1.0, 3.0, 3.0]))
    # worked example: 0.7 at step 0.5 floors to code 1, decodes to 0.5
    xq3, ctx3 = quantize_with_context(np.array([0.7]), q)
    ok &= ctx3.codes[0] == 1 and xq3[0] == 0.5
    # offsets shift the whole grid: quantizing beta + grid is a fixed point
    qb = Quantizer(bits=3, alpha=0.25, beta=-0.3, rounding="floor", name="off")
    gridb = -0.3 + 0.25 * rng.integers(0, 8, size=300)
    ok &= np.array_equal(quantize_with_context(gridb, qb)[0], gridb)
    # idempotence of both roundings
    for qq, data in ((q, xs), (qn, rng.uniform(-2, 6, size=500))):
        once, _ = quantize_with_context(data, qq)
        twice, _ = quantize_with_context(once, qq)
        ok &= np.array_equal(once, twice)
    report(11, bool(ok), "floor-with-snap, round-half-away, clip range, decode, "
                         "grid fixed points and idempotence all exact")
    assert ok
