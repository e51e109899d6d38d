"""Op counting identities and energy pricing."""

from pathlib import Path

import numpy as np
import pytest

from spikescan.dataset import make_coupled_sinusoids, make_windows
from spikescan.energy import (EnergyTable, OpCounters, ann_op_counts,
                              compare_ann_energy, profile)
from spikescan.quantize import SEARCH_MAX, CodeGrid
from spikescan.spike import threshold_scale
from spikescan.ssm import ForecastModel, ModelConfig
from spikescan.train import convert_to_snn, load_checkpoint

TABLE = EnergyTable(e_acc=0.9e-12, e_mac=4.6e-12, e_shift=0.15e-12, e_cmp=0.1e-12)


def snn_model(seed=0, **kw):
    base = dict(d_value=2, history=8, horizon=2, d_hidden=5, state_size=2,
                conv_kernel=3, blocks=1, bits=2)
    base.update(kw)
    cfg = ModelConfig(**base)
    m = ForecastModel.build(cfg, seed=seed)
    x = np.random.default_rng(seed + 50).normal(size=(6, cfg.history, cfg.d_value))
    m.calibrate(x)
    convert_to_snn(m)
    return m, x


# --- OpCounters ---------------------------------------------------------------


def test_add_validates_kind_and_sign():
    ct = OpCounters()
    with pytest.raises(ValueError, match="unknown op kind"):
        ct.add("l", bogus=1)
    with pytest.raises(ValueError, match="nonnegative"):
        ct.add("l", acc=-1)


def test_spike_rate_uses_the_pass_window():
    ct = OpCounters()
    ct.record_site("s", np.array([3, 0, 3, 0]), T=3)
    assert ct.spike_rate("s") == pytest.approx(6 / 12)
    ct.record_site("s", np.array([3, 3]), T=3)
    assert ct.spike_rate("s") == pytest.approx(12 / 18)


@pytest.mark.parametrize("scaled", [False, True])
@pytest.mark.parametrize("T", range(1, 16))
def test_record_site_tallies_what_the_boolean_formula_counts(T, scaled):
    """``mid`` counts the nonzero codes less those at T; on a site's searched (intp) codes and its
    arithmetic (float) codes, and on a threshold-scaled site's single spikes tallied against the
    model's window, every tally equals the formula it replaced: spikes the sum, neurons the size,
    ``mid`` the count of ``(counts > 0) & (counts < T)``."""
    rng = np.random.default_rng(T)
    site = CodeGrid("s", 0.3, -0.2, T)
    if scaled:
        site = threshold_scale(site)
    for size in (SEARCH_MAX, SEARCH_MAX + 4, 4 * SEARCH_MAX):
        # codes across the window, with a share of both ends
        drive = site.offset + site.theta * site.T * rng.uniform(-0.3, 1.3, size=(size // 4, 4))
        seen = []
        site.read(drive, observe=lambda c: seen.append(c.copy()))  # an arithmetic read decodes in place
        codes = seen[0]
        assert codes.dtype.kind == ("i" if size <= SEARCH_MAX else "f")
        ct = OpCounters()
        assert ct.record_site("s", codes, T) == int(codes.sum())
        assert ct.sites["s"] == {"spikes": int(codes.sum()), "neurons": codes.size,
                                 "mid": int(np.count_nonzero((codes > 0) & (codes < T))), "T": T}
        assert all(type(v) is int for v in ct.sites["s"].values())
        assert 0 < ct.sites["s"]["mid"] < codes.size or T == 1


# --- EnergyTable ---------------------------------------------------------------


def test_table_requires_every_entry():
    with pytest.raises(ValueError) as e:
        EnergyTable.from_config({"e_acc": 1e-12, "e_cmp": 1e-13})
    assert "e_mac" in str(e.value) and "e_shift" in str(e.value)


def test_table_rejects_negative_energies():
    with pytest.raises(ValueError, match="e_mac"):
        EnergyTable(e_acc=1e-12, e_mac=-1.0, e_shift=0.0, e_cmp=0.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), True, "1", None])
def test_table_rejects_non_finite_energies(value):
    """A NaN or infinite entry used to price every report at nan or inf joules; ``True`` priced every
    op at 1 J, and a string or ``None`` raised a ``TypeError`` that named no entry."""
    rule = "be finite and >= 0" if isinstance(value, float) else "be a number"
    with pytest.raises(ValueError) as e:
        EnergyTable.from_config({"e_acc": 1e-12, "e_mac": 1e-12, "e_shift": value, "e_cmp": 0.0})
    assert str(e.value) == f"energy table entry e_shift must {rule}, got {value!r}"


def test_cost_is_exactly_linear():
    row = {"acc": 10, "acc_bias": 5, "mac": 3, "shift": 7, "cmp": 100}
    assert TABLE.cost(row) == (15 * 0.9e-12 + 3 * 4.6e-12 + 7 * 0.15e-12 + 100 * 0.1e-12)
    doubled = EnergyTable(e_acc=2 * TABLE.e_acc, e_mac=TABLE.e_mac,
                          e_shift=TABLE.e_shift, e_cmp=TABLE.e_cmp)
    assert doubled.cost(row) - TABLE.cost(row) == pytest.approx(15 * 0.9e-12, rel=1e-12)


# --- instrumented forward -------------------------------------------------------


def block_acc_identity(ct: OpCounters, cfg: ModelConfig, i: int) -> tuple[int, int]:
    """Spike-driven accumulates of block i, measured and predicted."""
    tag = f"block{i}"
    sp = {s: ct.sites[f"{tag}.{s}"]["spikes"] for s in
          ("x_in", "conv", "delta_raw", "delta", "h", "y")}
    dh, n, r, K = cfg.d_hidden, cfg.state_size, cfg.delta_rank, cfg.conv_kernel
    predicted = (sp["x_in"] * K + sp["conv"] * (r + 2 * n) + sp["conv"] * (n + 1)
                 + sp["delta_raw"] * dh + sp["h"] + sp["y"])
    measured = sum(row["acc"] for layer, row in ct.layers.items()
                   if layer.startswith(tag + "."))
    return measured, predicted


@pytest.mark.parametrize("seed", range(5))
def test_accumulate_count_equals_spike_fanout_identity(seed):
    m, x = snn_model(seed=seed, d_hidden=int(np.random.default_rng(seed).integers(3, 9)),
                     blocks=1 + seed % 3)
    ct = OpCounters()
    m.forward(x, counters=ct)
    for i in range(m.cfg.blocks):
        measured, predicted = block_acc_identity(ct, m.cfg, i)
        assert measured == predicted


def test_silent_input_drives_no_accumulates():
    m, _ = snn_model(seed=1)
    ct = OpCounters()
    m.forward(np.zeros((3, m.cfg.history, m.cfg.d_value)), counters=ct)
    assert ct.total("acc") == 0
    assert ct.total("acc_bias") > 0  # offsets and biases are input-independent
    assert ct.total("cmp") > 0
    assert all(rec["spikes"] == 0 for rec in ct.sites.values())


def test_comparison_count_is_window_times_neurons():
    m, x = snn_model(seed=2)
    ct = OpCounters()
    m.forward(x, counters=ct)
    expected = 0
    for i, blk in enumerate(m.blocks):
        for s, site in blk.sites.items():
            expected += ct.sites[f"block{i}.{s}"]["neurons"] * site.T
    assert ct.total("cmp") == expected


def test_profile_rejects_unconverted_models():
    cfg = ModelConfig(d_value=2, history=8, horizon=2, d_hidden=4)
    m = ForecastModel.build(cfg, seed=0)
    with pytest.raises(RuntimeError, match="snn"):
        profile(m, np.zeros((1, 8, 2)), TABLE)


def test_profile_totals_price_the_counters():
    m, x = snn_model(seed=3)
    ct = OpCounters()
    rep = profile(m, x, TABLE, counters=ct)
    assert rep.total_joules == pytest.approx(TABLE.cost(ct.totals()), rel=1e-12)
    assert rep.total_joules == pytest.approx(sum(rep.per_layer.values()), rel=1e-12)
    assert rep.T == 3
    assert all(0.0 <= r <= 1.0 for r in rep.spike_rates.values())
    kv = rep.to_kv()
    assert kv["total_joules"] == rep.total_joules
    assert "rate.block0.h" in kv
    assert "total energy" in rep.to_text()


def test_report_is_linear_in_the_table():
    m, x = snn_model(seed=4)
    r1 = profile(m, x, TABLE)
    half = EnergyTable(e_acc=TABLE.e_acc / 2, e_mac=TABLE.e_mac / 2,
                       e_shift=TABLE.e_shift / 2, e_cmp=TABLE.e_cmp / 2)
    r2 = profile(m, x, half)
    assert r2.total_joules == pytest.approx(r1.total_joules / 2, rel=1e-12)


def test_threshold_scaling_lowers_comparisons():
    from spikescan.train import apply_threshold_scaling
    m, x = snn_model(seed=5)
    before = profile(m, x, TABLE)
    scaled = apply_threshold_scaling(m, x)
    after = profile(m, x, TABLE)
    if scaled:
        assert after.op_totals["cmp"] < before.op_totals["cmp"]
    assert after.op_totals["acc"] <= before.op_totals["acc"]


def test_dense_comparison_reports_both_sides():
    m, x = snn_model(seed=6)
    report = profile(m, x, TABLE)
    cmp_ = compare_ann_energy(report, m.cfg, x.shape[0], TABLE)
    assert cmp_.snn_joules == report.total_joules and cmp_.snn_ops == report.op_totals
    assert cmp_.ann_joules > 0 and cmp_.snn_joules > 0
    assert cmp_.ratio == pytest.approx(cmp_.snn_joules / cmp_.ann_joules, rel=1e-12)
    assert cmp_.reduction_pct == pytest.approx((1 - cmp_.ratio) * 100, rel=1e-9)
    assert cmp_.ann_ops["acc"] == 0  # the dense path has no spike-driven adds
    assert cmp_.ann_ops["cmp"] == 0


def test_saturated_single_spike_layer_matches_dense_macs():
    # degenerate sanity point: a 1-bit site firing on every neuron makes the
    # following spiking linear do exactly one add per weight, the same count
    # as the dense layer's multiplies
    m, x = snn_model(seed=7, bits=1)
    blk = m.blocks[0]
    blk.sites["x_in"] = CodeGrid("block0.x_in", 1e-9, -100.0, 1)
    ct = OpCounters()
    m.forward(x, counters=ct)
    assert ct.spike_rate("block0.x_in") == 1.0
    ann = ann_op_counts(m.cfg, batch=x.shape[0])
    assert ct.layers["block0.conv"]["acc"] == ann.layers["block0.conv"]["mac"]
    parity = EnergyTable(e_acc=1e-12, e_mac=1e-12, e_shift=0.0, e_cmp=0.0)
    snn_j = parity.cost({**ct.layers["block0.conv"], "acc_bias": 0, "cmp": 0})
    ann_j = parity.cost(ann.layers["block0.conv"])
    assert snn_j == ann_j


@pytest.mark.parametrize("kw", [dict(), dict(blocks=2, bits=3, state_size=5, d_hidden=9, d_value=3)])
def test_dense_counts_follow_the_spiking_tallies(kw):
    """Each dense row of ``ann_op_counts`` is what the spiking forward tallies on the same batch,
    with every spike-driven layer's fan-in read as that layer's input neurons (its site's count)."""
    m, _ = snn_model(seed=8, **kw)
    cfg = m.cfg
    x = np.random.default_rng(9).normal(size=(37, cfg.history, cfg.d_value))
    ct = OpCounters()
    m.forward(x, counters=ct)
    dense = ann_op_counts(cfg, batch=37).layers
    dh, n, r, K = cfg.d_hidden, cfg.state_size, cfg.delta_rank, cfg.conv_kernel
    layers = ("rmsnorm", "in_proj", "conv", "proj", "delta_proj", "scan", "gate", "out_proj")
    assert list(dense) == [f"block{i}.{layer}" for i in range(cfg.blocks) for layer in layers] + ["head"]
    assert dense["head"] == ct.layers["head"]
    for i in range(cfg.blocks):
        tag = f"block{i}"
        d, sp = {k[len(tag) + 1:]: v for k, v in dense.items() if k.startswith(tag)}, ct.layers

        def neurons(site):
            return ct.sites[f"{tag}.{site}"]["neurons"]

        for layer in ("rmsnorm", "in_proj", "out_proj"):
            assert d[layer] == sp[f"{tag}.{layer}"], layer
        assert d["conv"] == dict(acc=0, acc_bias=0, mac=neurons("x_in") * K, shift=0, cmp=0)
        assert d["proj"] == dict(acc=0, acc_bias=sp[f"{tag}.proj"]["acc_bias"] // 2,
                                 mac=neurons("conv") * (r + 2 * n), shift=0, cmp=0)
        assert 2 * d["proj"]["acc_bias"] == sp[f"{tag}.proj"]["acc_bias"]
        assert d["delta_proj"] == dict(acc=0, acc_bias=2 * sp[f"{tag}.delta_proj"]["acc_bias"] // 3,
                                       mac=neurons("delta_raw") * dh, shift=sp[f"{tag}.delta_proj"]["shift"],
                                       cmp=0)
        assert 3 * d["delta_proj"]["acc_bias"] == 2 * sp[f"{tag}.delta_proj"]["acc_bias"]
        assert d["gate"] == dict(acc=0, acc_bias=sp[f"{tag}.gate"]["acc_bias"], mac=neurons("y"),
                                 shift=sp[f"{tag}.gate"]["shift"], cmp=0)
        assert d["scan"] == dict(acc=0, acc_bias=0, mac=5 * neurons("h") + neurons("conv"), shift=0, cmp=0)


@pytest.mark.parametrize("batch, window, scaled", [(1, 0, False), (256, 5, False), (1, 0, True), (256, 5, True)],
                         ids=["1-0", "256-5", "1-0-scaled", "256-5-scaled"])
def test_a_window_that_overflows_to_nan_names_its_site_and_window(batch, window, scaled):
    """A window of 1.7e308 with rmsnorm gains of 4 overflows to inf and then NaN at every site;
    ``profile`` names the first site and the window, alone or in a batch.  So it does when that site
    is threshold-scaled, where a searched NaN's code, T + 1 = 2, lies inside the pass window's 0..3."""
    m, _ = snn_model(seed=3)
    if scaled:
        sites = m.blocks[0].sites
        sites["x_in"] = threshold_scale(sites["x_in"])
    x = np.random.default_rng(3).normal(size=(256, m.cfg.history, m.cfg.d_value))
    x[5, 2] = 1.7e308
    m.blocks[0].g_norm.data[:] = 4.0
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match=rf"^spike site block0\.x_in: window {window} has NaN spike counts"):
        profile(m, x[5:6] if batch == 1 else x, TABLE)


def test_a_batch_after_the_first_names_the_window_by_its_place_in_the_run():
    """One ``OpCounters`` over batches of 100: the overflowing window 205 is named 205, not 5."""
    m, _ = snn_model(seed=3)
    x = np.random.default_rng(3).normal(size=(256, m.cfg.history, m.cfg.d_value))
    x[205, 2] = 1.7e308
    m.blocks[0].g_norm.data[:] = 4.0
    ct = OpCounters()
    profile(m, x[:100], TABLE, ct)
    profile(m, x[100:200], TABLE, ct)
    assert ct.windows == 200
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match=r"^spike site block0\.x_in: window 205 has NaN spike counts"):
        profile(m, x[200:], TABLE, ct)


def test_analytic_counts_scale_with_batch():
    cfg = ModelConfig(d_value=2, history=8, horizon=2, d_hidden=4)
    one = ann_op_counts(cfg, batch=1).totals()
    four = ann_op_counts(cfg, batch=4).totals()
    assert {k: 4 * v for k, v in one.items()} == four


FIXTURE = Path(__file__).resolve().parent.parent / "perfbench" / "fixture" / "readme_model.ckpt"


@pytest.mark.parametrize("batch", [1, 256])
def test_a_counted_and_an_uncounted_forward_make_the_same_reads(batch, monkeypatch):
    """Op counting only observes the codes the plain read makes: with ``counters`` and without, a fixture
    forward makes the same ``CodeGrid.read`` calls (drive size and ``fn``) and gives the same bytes, at
    batch 1, where every drive is searched, and at batch 256, where every one takes the arithmetic."""
    m, _ = load_checkpoint(str(FIXTURE))
    convert_to_snn(m)
    x = np.random.default_rng(5).normal(size=(batch, m.cfg.history, m.cfg.d_value))
    read, reads = CodeGrid.read, []

    def logged(grid, drive, fn=None, observe=None):
        reads.append((drive.size, fn))
        return read(grid, drive, fn, observe)

    monkeypatch.setattr(CodeGrid, "read", logged)
    runs = []
    for counters in (None, OpCounters()):
        out = m.forward(x, counters=counters).data.tobytes()
        runs.append((reads[:], out))
        reads.clear()
    assert runs[0] == runs[1]
    assert all((size <= SEARCH_MAX) == (batch == 1) for size, _ in runs[0][0])


def test_a_batch_tallies_what_its_windows_tally_one_by_one():
    """At batch 256 every site drive takes the arithmetic, alone every one the threshold search:
    the tallies of 256 unseen fixture windows are the same either way, layer by layer and site by site."""
    m, meta = load_checkpoint(str(FIXTURE))
    norm = meta["norm"]
    x = make_windows(make_coupled_sinusoids(n_steps=300, seed=20261018), m.cfg.history, m.cfg.horizon,
                     (1.0, 0.0, 0.0), stats=(np.asarray(norm["mean"]), np.asarray(norm["std"]))).x_train[:256]
    convert_to_snn(m)
    cfg = m.cfg
    # the largest drive of one window, and the smallest of the batch (delta_raw's)
    assert cfg.history * cfg.d_hidden <= SEARCH_MAX < 256 * cfg.history * cfg.delta_rank
    whole, alone = OpCounters(), OpCounters()
    report = profile(m, x, TABLE, counters=whole)
    for i in range(len(x)):
        profile(m, x[i:i + 1], TABLE, counters=alone)
    assert list(whole.layers.items()) == list(alone.layers.items())
    assert whole.sites == alone.sites
    assert sum(TABLE.cost(row) for row in alone.layers.values()) == report.total_joules
