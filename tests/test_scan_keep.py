"""The sequences a taped scan keeps for its backward, reused across training steps.

Each block keeps at most one spare ``ScanKeep`` set, sized for the largest
batch it has taped.  A taped scan takes it (or builds one) and its backward
puts it back, so pending tapes never share buffers, a dropped tape's set is
collected with it, a smaller batch takes prefixes of the same buffers, and a
gradient a backward returned never aliases a buffer the next step overwrites.
``train`` drops the spare sets when it returns or raises.
"""

import gc
import weakref

import numpy as np
import pytest

import spikescan.numerics as nm
import spikescan.ssm as ssm
from spikescan.dataset import make_coupled_sinusoids, make_windows
from spikescan.quantize import floor_with_snap
from spikescan.ssm import QUANT_SITES, ForecastModel, ModelConfig
from spikescan.train import TrainConfig, train


def readme_model(blocks: int = 1):
    m = ForecastModel.build(ModelConfig(d_value=2, history=12, horizon=3, blocks=blocks), seed=0)
    rng = np.random.default_rng(0)
    m.calibrate(rng.normal(size=(64, 12, 2)))
    return m, rng


def batch(rng, size: int = 64):
    return rng.normal(size=(size, 12, 2)), rng.normal(size=(size, 3, 2))


def taped(m, x, y):
    with nm.GradTape() as tape:
        loss = nm.mse(m.forward(x), nm.tensor(y))
    return tape, loss


def grads(m, x, y) -> list[bytes]:
    """One forward and backward: every parameter's gradient, as bytes, in parameter order."""
    tape, loss = taped(m, x, y)
    return as_bytes(m, nm.backward(tape, output=loss))


def as_bytes(m, g) -> list[bytes]:
    return [g[p].tobytes() if p in g else None for p in m.parameters()]


def test_two_pending_tapes_get_the_gradients_of_separate_runs():
    m, rng = readme_model()
    (x1, y1), (x2, y2) = batch(rng), batch(rng)
    g1, g2 = grads(m, x1, y1), grads(m, x2, y2)
    tape1, loss1 = taped(m, x1, y1)
    tape2, loss2 = taped(m, x2, y2)  # the block's spare is held by tape1: this one gets fresh buffers
    blk = m.blocks[0]
    assert blk.scan_keep is None
    assert as_bytes(m, nm.backward(tape2, output=loss2)) == g2
    second = blk.scan_keep
    assert as_bytes(m, nm.backward(tape1, output=loss1)) == g1
    assert blk.scan_keep is second  # one spare: the set put back later is no larger, and is dropped
    assert grads(m, x1, y1) == g1


def test_a_dropped_tape_frees_its_buffers_for_the_next_step():
    """A tape dropped before its backward takes its set with it: that set is never handed out again,
    and the next step builds a fresh one with unchanged gradients."""
    m, rng = readme_model()
    (x1, y1), (x2, y2) = batch(rng), batch(rng)
    g2 = grads(m, x2, y2)
    blk = m.blocks[0]
    gone = weakref.ref(blk.scan_keep)
    tape, loss = taped(m, x1, y1)
    assert blk.scan_keep is None
    del tape, loss  # never replayed
    gc.collect()
    assert gone() is None
    assert grads(m, x2, y2) == g2
    assert blk.scan_keep is not None


def test_a_failed_forward_leaves_the_next_step_correct():
    m, rng = readme_model()
    x, y = batch(rng)
    g = grads(m, x, y)
    with pytest.raises(ValueError):
        with nm.GradTape():
            nm.mse(m.forward(x), nm.tensor(np.zeros((64, 2, 2))))  # the loss's shape check fails
    assert grads(m, x, y) == g


def test_returned_gradients_survive_the_next_step():
    m, rng = readme_model(blocks=2)
    (x1, y1), (x2, y2) = batch(rng), batch(rng)
    tape, loss = taped(m, x1, y1)
    g = nm.backward(tape, output=loss)
    before = as_bytes(m, g)
    grads(m, x2, y2)
    assert as_bytes(m, g) == before


def buffers(keep) -> list[int]:
    """Where each of a set's four sequences starts, each checked to be contiguous."""
    seqs = (keep.abar, keep.v, keep.codes, keep.live)
    assert all(a.flags.c_contiguous for a in seqs)
    return [a.ctypes.data for a in seqs]


def test_the_last_short_batch_of_an_epoch_reuses_the_full_batchs_set():
    """The short batch views the first entries of the full batch's buffers, with a fresh model's
    gradients; taped the other way round, the full batch replaces the short batch's smaller set."""
    m, rng = readme_model()
    fresh, _ = readme_model()
    (x1, y1), (x2, y2) = batch(rng, 64), batch(rng, 46)
    grads(m, x1, y1)
    kept = m.blocks[0].scan_keep
    starts = buffers(kept)
    assert grads(m, x2, y2) == grads(fresh, x2, y2)
    assert m.blocks[0].scan_keep is kept and kept.abar.shape == (12, 46, 16, 4)
    assert buffers(kept) == starts and kept.size == 12 * 64 * 16 * 4
    small = fresh.blocks[0].scan_keep
    assert grads(m, x1, y1) == grads(fresh, x1, y1)
    assert m.blocks[0].scan_keep is kept
    assert fresh.blocks[0].scan_keep is not small and fresh.blocks[0].scan_keep.size == kept.size


def test_a_warmed_step_reuses_the_same_buffers(monkeypatch):
    """Also while the replayed tapes are still referenced: the scan's backward puts its set back."""
    m, rng = readme_model(blocks=2)
    handed = []
    scan_vjp = ssm._scan_vjp
    monkeypatch.setattr(ssm, "_scan_vjp", lambda *a: handed.append(a[-2]) or scan_vjp(*a))
    held = []
    for _ in range(4):
        tape, loss = taped(m, *batch(rng))
        nm.backward(tape, output=loss)
        held.append(tape)
    kept = [blk.scan_keep for blk in m.blocks]
    assert None not in kept
    assert handed == kept * 4  # each step, block by block, the block's own set


def test_untaped_forwards_keep_no_buffers():
    m, rng = readme_model()
    m.forward(batch(rng)[0])
    assert m.blocks[0].scan_keep is None


def test_frozen_step_sizes_and_offsets_receive_no_gradient(monkeypatch):
    """``delta_int``'s step size and offset and ``delta``'s offset are frozen; with ``h``'s frozen too,
    no backward closure hands any of them a gradient, while every trainable one gets its own."""
    m, rng = readme_model()
    q = m.blocks[0].quantizers
    q["h"].alpha.trainable = q["h"].beta.trainable = False
    reached = set()
    record_op = nm.record_op

    def logging(out, vjp):
        def logged(g, accumulate):
            def acc(t, *a):
                reached.add(id(t))
                return accumulate(t, *a)
            return vjp(g, acc)
        return record_op(out, logged)

    monkeypatch.setattr(nm, "record_op", logging)
    tape, loss = taped(m, *batch(rng))
    nm.backward(tape, output=loss)
    leaves = [(s, part, getattr(q[s], part)) for s in QUANT_SITES for part in ("alpha", "beta")]
    assert {(s, part) for s, part, t in leaves if not t.trainable} == {
        ("delta_int", "alpha"), ("delta_int", "beta"), ("delta", "beta"), ("h", "alpha"), ("h", "beta")}
    for s, part, t in leaves:
        assert (id(t) in reached) == t.trainable, (s, part)


def test_the_backward_decodes_with_the_forward_grid():
    """An optimizer writes ``h``'s step size in place between a taped forward and its backward: the
    backward decodes the kept codes by the grid the forward encoded with, so the gradients are those
    of an unwritten step."""
    m, rng = readme_model()
    x, y = batch(rng)
    g = grads(m, x, y)
    alpha = m.blocks[0].quantizers["h"].alpha
    tape, loss = taped(m, x, y)
    np.multiply(alpha.data, 1.5, out=alpha.data)
    assert as_bytes(m, nm.backward(tape, output=loss)) == g


def test_a_kept_set_holds_the_decay_factors_the_mask_and_the_site_drives_and_codes():
    """Two float64 sequences, the float32 codes and one bool sequence of [L, B, dh, n]: the states are
    kept as their codes alone."""
    m, rng = readme_model()
    grads(m, *batch(rng))
    keep = m.blocks[0].scan_keep
    seqs = (keep.abar, keep.v, keep.codes, keep.live)
    assert {a.shape for a in seqs} == {(12, 64, 16, 4)}
    assert [a.dtype for a in seqs] == [np.float64, np.float64, np.float32, np.bool_]
    size = 12 * 64 * 16 * 4
    assert sum(a.nbytes for a in seqs) == (8 + 8 + 4 + 1) * size


def handed_sets(monkeypatch) -> list:
    """The sets the taped scans hand their backwards, in recording order."""
    handed = []
    scan_vjp = ssm._scan_vjp
    monkeypatch.setattr(ssm, "_scan_vjp", lambda *a: handed.append(a[-2]) or scan_vjp(*a))
    return handed


@pytest.mark.parametrize("smooth", [False, True])
def test_the_kept_codes_are_float32_and_float64_under_smooth(monkeypatch, smooth):
    """float32 holds every integer code exactly; ``smooth``'s codes are not integers and stay float64.
    Either way they are the codes of the kept drives, and a set of the other kind is not reused."""
    m, rng = readme_model()
    grads(m, *batch(rng))
    other = m.blocks[0].scan_keep
    handed = handed_sets(monkeypatch)
    x, y = batch(rng)
    with nm.GradTape() as tape:
        loss = nm.mse(m.forward(x, smooth=smooth), nm.tensor(y))
    [keep] = handed
    assert keep.codes.dtype == (np.float64 if smooth else np.float32)
    rule = np.positive if smooth else floor_with_snap
    assert np.array_equal(keep.codes, np.clip(rule(keep.v), 0, m.blocks[0].quantizers["h"].code_max))
    assert np.array_equal(keep.codes, np.floor(keep.codes)) != smooth
    assert (keep is other) != smooth
    nm.backward(tape, output=loss)
    assert m.blocks[0].scan_keep is keep


def test_a_nan_state_reaches_the_backward_as_nan(monkeypatch):
    """A NaN ``A_log`` entry makes that state entry NaN at every step: its float32 codes keep the NaN,
    the backward decodes them to NaN states, and no cast warns (pytest turns a warning into an error)."""
    m, rng = readme_model()
    m.blocks[0].A_log.data[3, 1] = np.nan
    handed = handed_sets(monkeypatch)
    tape, loss = taped(m, *batch(rng))
    [keep] = handed
    nan = np.zeros(keep.codes.shape, bool)
    nan[:, :, 3, 1] = True
    assert np.array_equal(np.isnan(keep.codes), nan)
    nm.backward(tape, output=loss)
    assert np.array_equal(np.isnan(keep.v), nan)  # the decoded states, in the drives' buffer


def readme_training(m, sp, **kw):
    """Trains ``m`` on ``sp``, noting after each step whether its block holds a spare set."""
    held = []
    clamp = m.clamp_steps
    m.clamp_steps = lambda: held.append(m.blocks[0].scan_keep is not None) or clamp()
    try:
        return train(m, sp.x_train, sp.y_train, sp.x_val, sp.y_val, TrainConfig(**kw)), held
    finally:
        assert held and all(held)


def test_a_trained_model_holds_no_scan_keep():
    sp = make_windows(make_coupled_sinusoids(n_steps=400, seed=0), 12, 3)
    m = ForecastModel.build(ModelConfig(d_value=2, history=12, horizon=3, blocks=2), seed=0)
    res, held = readme_training(m, sp, max_epochs=1)
    assert res.epochs_run == 1 and len(held) == -(-sp.x_train.shape[0] // 64)
    assert [blk.scan_keep for blk in m.blocks] == [None, None]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows that make the loss NaN
def test_a_diverged_training_holds_no_scan_keep():
    sp = make_windows(make_coupled_sinusoids(n_steps=400, seed=0), 12, 3)
    m = ForecastModel.build(ModelConfig(d_value=2, history=12, horizon=3), seed=0)
    with pytest.raises(ValueError, match="training diverged"):
        readme_training(m, sp, lr=1e9, max_epochs=2)
    assert m.blocks[0].scan_keep is None
