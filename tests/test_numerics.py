"""Tape and primitive gradients against central finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spikescan.numerics as nm

RNG = np.random.default_rng(42)
FD_EPS = 1e-6
FD_TOL = 1e-4


def fd_gradient(scalar_fn, arrays, which, eps=FD_EPS):
    """Central-difference gradient of scalar_fn(*arrays) w.r.t. arrays[which]."""
    base = [np.array(a, dtype=np.float64) for a in arrays]
    grad = np.zeros_like(base[which])
    flat = grad.ravel()
    for i in range(flat.size):
        up = [a.copy() for a in base]
        dn = [a.copy() for a in base]
        up[which].ravel()[i] += eps
        dn[which].ravel()[i] -= eps
        flat[i] = (scalar_fn(*up) - scalar_fn(*dn)) / (2 * eps)
    return grad


def taped_gradients(tensor_fn, arrays):
    """Analytic grads of sum(tensor_fn(*tensors)) for every input."""
    ts = [nm.tensor(a, trainable=True) for a in arrays]
    with nm.GradTape() as tape:
        out = nm.sum_all(tensor_fn(*ts))
    grads = nm.backward(tape, output=out)
    return [grads.get(t, np.zeros_like(t.data)) for t in ts]


def check_op(tensor_fn, numpy_fn, arrays, tol=FD_TOL):
    analytic = taped_gradients(tensor_fn, arrays)
    for i in range(len(arrays)):
        fd = fd_gradient(lambda *xs: float(np.sum(numpy_fn(*xs))), arrays, i)
        scale = max(1.0, float(np.max(np.abs(fd))))
        assert np.max(np.abs(analytic[i] - fd)) / scale < tol, f"input {i} gradient mismatch"


def test_add_sub_mul_gradients_with_broadcasting():
    shapes = [((3, 4), (3, 4)), ((3, 4), (4,)), ((3, 1), (1, 4)), ((2, 3, 4), (4,))]
    for sa, sb in shapes:
        a, b = RNG.normal(size=sa), RNG.normal(size=sb)
        check_op(nm.add, np.add, [a, b])
        check_op(nm.sub, np.subtract, [a, b])
        check_op(nm.mul, np.multiply, [a, b])


def test_neg_scale_exp_unary():
    x = RNG.normal(size=(5, 3))
    check_op(nm.neg, np.negative, [x])
    check_op(lambda t: nm.scale(t, 2.5), lambda a: 2.5 * a, [x])
    check_op(nm.exp, np.exp, [x * 0.3])
    check_op(lambda t: nm.unary(t, np.sin, np.cos), np.sin, [x])


def test_linear_matches_dense_oracle():
    x = RNG.normal(size=(2, 5, 3))
    w = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(4,))
    out = nm.linear(nm.tensor(x), nm.tensor(w), nm.tensor(b))
    expect = np.einsum("bld,do->blo", x, w) + b
    assert np.allclose(out.data, expect, atol=1e-12)
    check_op(nm.linear, lambda xx, ww, bb: xx @ ww + bb, [x, w, b])
    check_op(lambda t, u: nm.linear(t, u), lambda xx, ww: xx @ ww, [x, w])


def test_linear_shape_error_names_both_shapes():
    with pytest.raises(ValueError) as e:
        nm.linear(nm.tensor(np.zeros((2, 3))), nm.tensor(np.zeros((4, 5))))
    assert "(2, 3)" in str(e.value) and "(4, 5)" in str(e.value)


def test_linear_refuses_a_bias_of_the_wrong_shape():
    with pytest.raises(ValueError, match=r"^linear: bias shape \(4,\) does not match weight shape \(3, 5\)$"):
        nm.linear(nm.tensor(np.zeros((2, 3))), nm.tensor(np.zeros((3, 5))), nm.tensor(np.zeros(4)))


@pytest.mark.parametrize("x_shape, k_shape, message", [
    ((4, 3), (3, 2), r"^depthwise_conv1d: expected \[B, L, D\] input, got shape \(4, 3\)$"),
    ((2, 4, 3), (2, 2), r"^depthwise_conv1d: kernel shape \(2, 2\) does not match input shape \(2, 4, 3\)$"),
])
def test_depthwise_conv_refuses_mismatched_shapes(x_shape, k_shape, message):
    with pytest.raises(ValueError, match=message):
        nm.depthwise_conv1d(nm.tensor(np.zeros(x_shape)), nm.tensor(np.zeros(k_shape)))


def brute_causal_depthwise(x, k):
    B, L, D = x.shape
    K = k.shape[1]
    out = np.zeros_like(x)
    for b in range(B):
        for t in range(L):
            for d in range(D):
                for j in range(K):
                    src = t - (K - 1 - j)
                    if src >= 0:
                        out[b, t, d] += k[d, j] * x[b, src, d]
    return out


def test_depthwise_conv_matches_brute_force():
    x = RNG.normal(size=(2, 7, 3))
    k = RNG.normal(size=(3, 4))
    out = nm.depthwise_conv1d(nm.tensor(x), nm.tensor(k))
    assert np.allclose(out.data, brute_causal_depthwise(x, k), atol=1e-12)


def test_depthwise_conv_last_tap_is_current_step():
    # an impulse at t=0 must appear at the output at t=0 through k[:, -1]
    x = np.zeros((1, 5, 2))
    x[0, 0] = 1.0
    k = RNG.normal(size=(2, 3))
    out = nm.depthwise_conv1d(nm.tensor(x), nm.tensor(k)).data
    assert np.allclose(out[0, 0], k[:, -1])
    assert np.allclose(out[0, 1], k[:, -2])


def test_depthwise_conv_gradients():
    x = RNG.normal(size=(2, 6, 3))
    k = RNG.normal(size=(3, 4))
    check_op(nm.depthwise_conv1d, brute_causal_depthwise, [x, k])


def sliding_window_conv(x, k, g):
    """The conv as one einsum over [B, L, D, K] windows, and its backward the same way."""
    K = k.shape[1]
    xwin = np.lib.stride_tricks.sliding_window_view(np.pad(x, ((0, 0), (K - 1, 0), (0, 0))), K, axis=1)
    gwin = np.lib.stride_tricks.sliding_window_view(np.pad(g, ((0, 0), (0, K - 1), (0, 0))), K, axis=1)
    return (np.einsum("bldk,dk->bld", xwin, k), np.einsum("bldk,dk->bld", gwin, k[:, ::-1]),
            np.einsum("bld,bldk->dk", g, xwin))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(B=st.integers(1, 5), L=st.integers(1, 5), D=st.integers(1, 5), K=st.integers(1, 5),
       seed=st.integers(0, 2 ** 31))
def test_depthwise_conv_equals_the_sliding_window_einsum(B, L, D, K, seed):
    """The K ordered shifted taps give the einsum's bits, forward and backward.

    With one channel the windows' tap axis is contiguous and einsum sums it
    in another order, so there the forward agrees to rounding only.
    """
    rng = np.random.default_rng(seed)
    x, k, g = rng.normal(size=(B, L, D)), rng.normal(size=(D, K)), rng.normal(size=(B, L, D))
    xt, kt = nm.tensor(x, trainable=True), nm.tensor(k, trainable=True)
    with nm.GradTape() as tape:
        out = nm.depthwise_conv1d(xt, kt)
    grads = nm.backward(tape, loss_grad=g, output=out)
    want_out, want_gx, want_gk = sliding_window_conv(x, k, g)
    if D > 1:
        assert np.array_equal(out.data, want_out)
    else:
        assert np.allclose(out.data, want_out, rtol=1e-14, atol=1e-15)
    assert np.array_equal(grads[xt], want_gx)
    assert np.array_equal(grads[kt], want_gk)


def test_rmsnorm_gradient_and_scale_invariance():
    x = RNG.normal(size=(2, 4, 3)) + 0.5
    g = RNG.normal(size=(3,)) + 1.0

    def np_rms(xx, gg):
        r = 1.0 / np.sqrt(np.mean(xx * xx, axis=-1, keepdims=True) + 1e-6)
        return xx * r * gg

    check_op(lambda t, u: nm.rmsnorm(t, u, 1e-6), np_rms, [x, g], tol=2e-4)
    a = nm.rmsnorm(nm.tensor(x), nm.tensor(g), 0.0).data
    b = nm.rmsnorm(nm.tensor(7.0 * x), nm.tensor(g), 0.0).data
    assert np.max(np.abs(a - b)) < 1e-10


def test_rmsnorm_refuses_a_gain_of_the_wrong_shape():
    with pytest.raises(ValueError, match=r"^rmsnorm: gain shape \(2,\) does not match input shape \(2, 4, 3\)$"):
        nm.rmsnorm(nm.tensor(np.ones((2, 4, 3))), nm.tensor(np.ones(2)))


def test_split_last_refuses_sizes_that_miss_the_last_axis():
    with pytest.raises(ValueError, match=r"^split_last: sizes \(2, 3\) do not sum to last axis of \(2, 6\)$"):
        nm.split_last(nm.tensor(np.zeros((2, 6))), [2, 3])


def test_reshape_permute_split_stack_take():
    x = RNG.normal(size=(2, 6, 4))

    def roundtrip(t):
        p = nm.permute(t, (0, 2, 1))
        r = nm.reshape(p, (2, 24))
        return nm.reshape(r, (2, 4, 6))

    check_op(roundtrip, lambda a: a.transpose(0, 2, 1).reshape(2, 24).reshape(2, 4, 6), [x])

    def splitter(t):
        lo, hi = nm.split_last(t, [1, 3])
        return nm.add(nm.sum_all(lo), nm.scale(nm.sum_all(hi), 3.0))

    fd = fd_gradient(lambda a: float(a[..., :1].sum() + 3.0 * a[..., 1:].sum()), [x], 0)
    (analytic,) = taped_gradients(splitter, [x])
    assert np.allclose(analytic, fd, atol=1e-6)

    def restack(t):
        cols = [nm.take_axis1(t, i) for i in range(x.shape[1])]
        return nm.stack_axis1(list(reversed(cols)))

    check_op(restack, lambda a: a[:, ::-1], [x])


@pytest.mark.parametrize("handed_first", [True, False])
def test_split_gradients_add_into_a_buffer_the_tape_owns(handed_first):
    """A piece's gradient lands in its slice; an array a vjp hands over is never written into."""
    x = nm.tensor(RNG.normal(size=(2, 3, 6)), trainable=True)
    handed = RNG.normal(size=x.shape)
    kept = handed.copy()
    w = [RNG.normal(size=(2, 3, k)) for k in (1, 2, 3)]

    def hand_over():  # an op whose backward gives x the array ``handed`` itself
        out = nm.Tensor(x.data.copy())
        nm.record_op(out, lambda g, accumulate: accumulate(x, handed))
        return nm.sum_all(out)

    with nm.GradTape() as tape:
        # the tape replays in reverse: recorded last, the handed array reaches x first
        early = None if handed_first else hand_over()
        a, b, c = nm.split_last(x, [1, 2, 3])  # b gets no gradient
        total = nm.add(nm.sum_all(nm.mul(a, w[0])), nm.sum_all(nm.mul(c, w[2])))
        total = nm.add(total, hand_over() if handed_first else early)
    g = nm.backward(tape, output=total)[x]
    assert np.array_equal(handed, kept)
    assert np.array_equal(g, handed + np.concatenate([w[0], np.zeros_like(w[1]), w[2]], axis=-1))


def test_sum_mean_mse():
    x = RNG.normal(size=(3, 4))
    y = RNG.normal(size=(3, 4))
    check_op(lambda t: nm.sum_axis(t, 1), lambda a: a.sum(axis=1), [x])
    check_op(nm.mean_all, lambda a: np.mean(a), [x])
    assert float(nm.mse(nm.tensor(x), nm.tensor(y)).data) == pytest.approx(np.mean((x - y) ** 2))
    ts = [nm.tensor(x, trainable=True)]
    with nm.GradTape() as tape:
        loss = nm.mse(ts[0], nm.tensor(y))
    grads = nm.backward(tape, output=loss)
    assert np.allclose(grads[ts[0]], 2.0 * (x - y) / x.size)


def test_gradients_are_linear_in_seed():
    # backward with loss_grad=c equals c times backward with loss_grad=1
    x = RNG.normal(size=(4, 3))
    t = nm.tensor(x, trainable=True)
    with nm.GradTape() as tape:
        out = nm.sum_all(nm.mul(t, t))
    g1 = nm.backward(tape, output=out)[t]
    t2 = nm.tensor(x, trainable=True)
    with nm.GradTape() as tape2:
        out2 = nm.sum_all(nm.mul(t2, t2))
    g3 = nm.backward(tape2, loss_grad=3.0, output=out2)[t2]
    assert np.max(np.abs(g3 - 3.0 * g1)) < 1e-10


def test_tape_cannot_replay():
    t = nm.tensor(np.ones(3), trainable=True)
    with nm.GradTape() as tape:
        out = nm.sum_all(nm.mul(t, t))
    nm.backward(tape, output=out)
    with pytest.raises(RuntimeError):
        nm.backward(tape, output=out)


def test_backward_needs_recorded_ops():
    with nm.GradTape() as tape:
        pass
    with pytest.raises(RuntimeError):
        nm.backward(tape)


def test_ops_outside_tape_do_not_record():
    t = nm.tensor(np.ones(3), trainable=True)
    out = nm.mul(t, t)  # no active tape
    assert np.allclose(out.data, 1.0)
    with nm.GradTape() as tape:
        inside = nm.mul(t, t)
        _ = nm.sum_all(inside)
    assert len(tape) == 2


def test_a_tensor_keeps_a_float64_c_contiguous_array_and_converts_the_rest():
    a = np.arange(6.0).reshape(2, 3)
    assert nm.Tensor(a).data is a
    zero_d = np.array(2.5)
    assert nm.Tensor(zero_d).data is zero_d and nm.Tensor(2.5).data.shape == ()

    class Sub(np.ndarray):
        pass

    for given in ([[1, 2, 3], [4, 5, 6]], a.astype(np.float32), np.asfortranarray(a), a.astype(">f8"),
                  np.arange(12.0).reshape(2, 6)[:, ::2], a.view(Sub)):
        data = nm.Tensor(given).data
        assert type(data) is np.ndarray and data.dtype == np.float64 and data.flags.c_contiguous
        assert np.array_equal(data, np.asarray(given, dtype=np.float64))
