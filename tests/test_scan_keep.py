"""The sequences a taped scan keeps for its backward, reused across training steps.

Each block keeps a list of spare ``ScanKeep`` sets per batch shape.  A taped
scan pops one (or builds one) and its backward puts it back, so pending tapes
never share buffers, a dropped tape's set is collected with it, and a gradient
a backward returned never aliases a buffer the next step overwrites.
"""

import gc
import weakref

import numpy as np
import pytest

import spikescan.numerics as nm
import spikescan.ssm as ssm
from spikescan.ssm import QUANT_SITES, ForecastModel, ModelConfig


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
    [spares] = m.blocks[0].scan_keeps.values()
    assert spares == []
    assert as_bytes(m, nm.backward(tape2, output=loss2)) == g2
    assert as_bytes(m, nm.backward(tape1, output=loss1)) == g1
    assert len(spares) == 2 and spares[0] is not spares[1]  # both backwards put their sets back
    assert grads(m, x1, y1) == g1


def test_a_dropped_tape_frees_its_buffers_for_the_next_step():
    """A tape dropped before its backward takes its set with it: that set is never handed out again,
    and the next step builds a fresh one with unchanged gradients."""
    m, rng = readme_model()
    (x1, y1), (x2, y2) = batch(rng), batch(rng)
    g2 = grads(m, x2, y2)
    [spares] = m.blocks[0].scan_keeps.values()
    gone = weakref.ref(spares[0])
    tape, loss = taped(m, x1, y1)
    assert spares == []
    del tape, loss  # never replayed
    gc.collect()
    assert gone() is None
    assert grads(m, x2, y2) == g2
    assert len(spares) == 1


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


def test_the_last_short_batch_of_an_epoch_keeps_its_own_set():
    m, rng = readme_model()
    fresh, _ = readme_model()
    (x1, y1), (x2, y2) = batch(rng, 64), batch(rng, 46)
    grads(m, x1, y1)
    assert grads(m, x2, y2) == grads(fresh, x2, y2)
    assert sorted(m.blocks[0].scan_keeps) == [(12, 46, 16, 4), (12, 64, 16, 4)]
    assert grads(m, x1, y1) == grads(fresh, x1, y1)


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
    assert all(len(spares) == 1 for blk in m.blocks for spares in blk.scan_keeps.values())
    kept = [spares[0] for blk in m.blocks for spares in blk.scan_keeps.values()]
    assert handed == kept * 4  # each step, block by block, the block's own set


def test_untaped_forwards_keep_no_buffers():
    m, rng = readme_model()
    m.forward(batch(rng)[0])
    assert m.blocks[0].scan_keeps == {}


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
