"""Dense float64 tensor core with a minimal reverse-mode gradient tape.

Everything downstream (quantizers, spike codecs, the selective scan) builds
on the primitives defined here.  A forward pass executed under an active
``GradTape`` records one closure per primitive; ``backward`` replays the
closures in reverse order and returns a gradient for every trainable leaf.

Values are always float64 and row-major.  Tensors belong to the tape.  A
primitive's arithmetic is an unchecked array kernel, a module attribute named
``<primitive>_kernel`` (``rmsnorm``, ``linear``, ``split_last``,
``depthwise_conv1d``, ``permute``, ``exp``, ``neg``, ``mul`` and ``add``); the
primitive is its shape checks, that kernel and its tape closure, so a taped
and an untaped forward agree bit for bit by construction.  Off the tape a
forward skips the primitives: a block unwraps its input Tensor once, runs the
kernels on bare arrays and wraps its output once.  A primitive called with
no tape active gives the same values; ``record_op`` drops its closure.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = ["Tensor", "GradTape", "backward", "tensor", "record_op", "active_tape", "add",
           "sub", "mul", "neg", "scale", "unary", "exp", "linear", "depthwise_conv1d",
           "rmsnorm", "split_last", "permute", "reshape", "take_axis1", "stack_axis1",
           "sum_axis", "sum_all", "mean_all", "mse", "operand", "ZERO", "ONE",
           "add_kernel", "mul_kernel", "neg_kernel", "exp_kernel", "linear_kernel",
           "depthwise_conv1d_kernel", "rmsnorm_kernel", "split_last_kernel", "permute_kernel"]


_F64 = np.dtype(np.float64)


class Tensor:
    """A named, optionally trainable wrapper around a float64 ndarray."""

    __slots__ = ("data", "trainable", "name")

    def __init__(self, data, trainable: bool = False, name: str | None = None):
        # the forwards hand over float64 C-contiguous arrays, which need no conversion
        if type(data) is not np.ndarray or data.dtype is not _F64 or not data.flags.c_contiguous:
            data = np.asarray(data, dtype=np.float64)
            if not data.flags.c_contiguous:
                data = np.ascontiguousarray(data)
        self.data = data
        self.trainable = trainable
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, trainable={self.trainable})"


def tensor(data, trainable: bool = False, name: str | None = None) -> Tensor:
    return Tensor(data, trainable=trainable, name=name)


def operand(value) -> np.ndarray:
    """``value`` as a read-only 0-d float64 array, a ufunc operand to build once.

    numpy converts a Python ``float`` or ``int`` operand anew on every ufunc
    call, which costs about as much as the arithmetic on a batch-1 array; a
    0-d float64 array needs no conversion and gives the same result.
    """
    a = np.array(value, dtype=np.float64)
    a.flags.writeable = False
    return a


ZERO, ONE = operand(0.0), operand(1.0)


# --- tape machinery ---------------------------------------------------------

_TAPE_STACK: list["GradTape"] = []


class GradTape:
    """Ordered record of primitive applications from one forward pass.

    Use as a context manager; every primitive executed inside appends a
    backward closure.  A tape can be replayed exactly once.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, Callable]] = []
        self._spent = False

    def __enter__(self) -> "GradTape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self

    def record(self, out: Tensor, vjp: Callable) -> None:
        """Append one record. ``vjp(grad_out, accumulate)`` must scatter
        gradients to the op's inputs via ``accumulate(tensor, grad)``, or
        ``accumulate(tensor, grad, index)`` for a gradient of ``tensor[index]`` alone."""
        self._records.append((out, vjp))

    def __len__(self) -> int:
        return len(self._records)


def active_tape() -> GradTape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def record_op(out: Tensor, vjp: Callable) -> None:
    """Attach a custom backward closure to the active tape, if any.

    This is the hook other modules (quantizers, spike sites) use to register
    straight-through or otherwise non-standard gradients.
    """
    t = active_tape()
    if t is not None:
        t.record(out, vjp)


def backward(tape: GradTape, loss_grad=1.0, output: Tensor | None = None) -> dict[Tensor, np.ndarray]:
    """Replay ``tape`` in reverse and return {trainable leaf: gradient}.

    ``loss_grad`` seeds the gradient of ``output`` (default: the output of
    the last recorded op, i.e. the loss of a completed forward pass).
    """
    if tape._spent:
        raise RuntimeError("gradient tape already replayed; record a fresh forward pass")
    if not tape._records:
        raise RuntimeError("backward called on an empty tape (no forward pass recorded)")
    tape._spent = True

    if output is None:
        output = tape._records[-1][0]

    grads: dict[Tensor, np.ndarray] = {}
    seed = np.broadcast_to(np.asarray(loss_grad, dtype=np.float64), output.data.shape)
    grads[output] = np.array(seed, dtype=np.float64)
    owned: set[Tensor] = set()  # gradients held in an array this replay made, so it may add into them

    def accumulate(t: Tensor, g: np.ndarray, index=None) -> None:
        if index is not None:
            if t not in owned:  # a zero buffer, or a copy of the array some vjp handed over
                grads[t] = np.array(grads[t], dtype=np.float64) if t in grads else np.zeros(t.data.shape)
                owned.add(t)
            grads[t][index] += g
        elif t in grads:
            grads[t] = grads[t] + g
        else:
            grads[t] = np.asarray(g, dtype=np.float64)

    for out, vjp in reversed(tape._records):
        g = grads.get(out)
        if g is None:
            continue
        vjp(g, accumulate)

    return {t: g for t, g in grads.items() if t.trainable}


# --- shape helpers ----------------------------------------------------------


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _data(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _pad_time(x: np.ndarray, before: int, after: int) -> np.ndarray:
    """``x`` [B, L, D] with zero rows added along time, written into a zeroed buffer (``np.pad`` costs far more)."""
    B, L, D = x.shape
    out = np.zeros((B, before + L + after, D))
    out[:, before:before + L] = x
    return out


def _rms_scale(x: np.ndarray, eps: float) -> np.ndarray:
    """``1 / sqrt(mean(x**2) + eps)`` over the last axis, kept as a length-1 axis."""
    ms = np.add.reduce(x * x, axis=-1, keepdims=True)
    ms /= x.shape[-1]  # np.mean's sum and division, without its Python layers
    return 1.0 / np.sqrt(ms + eps)


# --- array kernels ----------------------------------------------------------
# Each primitive's arithmetic on bare float64 arrays, unchecked: the caller
# guarantees the shapes (weights are checked at build and load, windows by the
# model).  The elementwise ones are numpy's ufuncs themselves.

add_kernel, mul_kernel, neg_kernel, exp_kernel = np.add, np.multiply, np.negative, np.exp


def linear_kernel(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """``x @ w`` over the last axis, plus ``b`` when given."""
    y = x @ w
    if b is not None:
        # a new array, not `y += b`: across processes the in-place add cost batch-256 forwards 20 %
        y = y + b
    return y


def depthwise_conv1d_kernel(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Causal depthwise convolution of ``x`` [B, L, D] by ``k`` [D, K] along time."""
    L, K = x.shape[1], k.shape[1]
    xpad = _pad_time(x, K - 1, 0)
    # tap j's weights as a whole [L, D] time row, so a product runs over L * D entries at a time
    # instead of broadcasting a D-wide vector along time
    taps = k.T[:, None].repeat(L, axis=1)
    # K shifted multiply-adds in tap order: the sum order of sum_j k[:, j] x[t - K+1 + j]
    y = xpad[:, 0:L] * taps[0]
    for j in range(1, K):
        y += xpad[:, j:j + L] * taps[j]
    return y


def rmsnorm_kernel(x: np.ndarray, g: np.ndarray, eps: float) -> np.ndarray:
    """``x * g`` scaled by the reciprocal root mean square of ``x`` over the last axis."""
    return x * g * _rms_scale(x, eps)


def split_last_kernel(x: np.ndarray, sizes: Sequence[int]) -> list[np.ndarray]:
    """Consecutive chunks of the last axis of the given sizes, each C-contiguous (a view when it already is)."""
    outs = []
    hi = 0
    for size in sizes:
        lo, hi = hi, hi + size
        outs.append(np.ascontiguousarray(x[..., lo:hi]))
    return outs


def permute_kernel(x: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """``x`` with its axes reordered, copied C-contiguous."""
    return np.ascontiguousarray(x.transpose(axes))  # the method: np.transpose adds two frames


# --- elementwise primitives -------------------------------------------------


def add(a, b) -> Tensor:
    out = Tensor(add_kernel(_data(a), _data(b)))

    def vjp(g, accumulate):
        if isinstance(a, Tensor):
            accumulate(a, _unbroadcast(g, a.data.shape))
        if isinstance(b, Tensor):
            accumulate(b, _unbroadcast(g, b.data.shape))

    record_op(out, vjp)
    return out


def sub(a, b) -> Tensor:
    out = Tensor(_data(a) - _data(b))

    def vjp(g, accumulate):
        if isinstance(a, Tensor):
            accumulate(a, _unbroadcast(g, a.data.shape))
        if isinstance(b, Tensor):
            accumulate(b, _unbroadcast(-g, b.data.shape))

    record_op(out, vjp)
    return out


def mul(a, b) -> Tensor:
    da, db = _data(a), _data(b)
    out = Tensor(mul_kernel(da, db))

    def vjp(g, accumulate):
        if isinstance(a, Tensor):
            accumulate(a, _unbroadcast(g * db, a.data.shape))
        if isinstance(b, Tensor):
            accumulate(b, _unbroadcast(g * da, b.data.shape))

    record_op(out, vjp)
    return out


def neg(x: Tensor) -> Tensor:
    out = Tensor(neg_kernel(x.data))
    record_op(out, lambda g, accumulate: accumulate(x, -g))
    return out


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(x.data * c)
    record_op(out, lambda g, accumulate: accumulate(x, g * c))
    return out


def unary(x: Tensor, fn: Callable[[np.ndarray], np.ndarray], grad_fn: Callable[[np.ndarray], np.ndarray]) -> Tensor:
    """Generic differentiable elementwise op: out = fn(x), d out/dx = grad_fn(x)."""
    out = Tensor(fn(x.data))
    record_op(out, lambda g, accumulate: accumulate(x, g * grad_fn(x.data)))
    return out


def exp(x: Tensor) -> Tensor:
    e = exp_kernel(x.data)
    out = Tensor(e)
    record_op(out, lambda g, accumulate: accumulate(x, g * e))
    return out


# --- linear algebra ---------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map over the last axis: out[..., j] = sum_i x[..., i] w[i, j] (+ b[j])."""
    if x.data.shape[-1] != w.data.shape[0]:
        raise ValueError(
            f"linear: input shape {x.data.shape} does not match weight shape {w.data.shape}"
        )
    if b is not None and b.data.shape != (w.data.shape[1],):
        raise ValueError(
            f"linear: bias shape {b.data.shape} does not match weight shape {w.data.shape}"
        )
    out = Tensor(linear_kernel(x.data, w.data, None if b is None else b.data))

    def vjp(g, accumulate):
        accumulate(x, g @ w.data.T)
        x2 = x.data.reshape(-1, x.data.shape[-1])
        g2 = g.reshape(-1, g.shape[-1])
        accumulate(w, x2.T @ g2)
        if b is not None:
            accumulate(b, g2.sum(axis=0))

    record_op(out, vjp)
    return out


def depthwise_conv1d(x: Tensor, k: Tensor) -> Tensor:
    """Causal depthwise convolution along the time axis.

    x: [B, L, D], k: [D, K].  The input is left-padded with K-1 zeros so
    out[:, t, d] = sum_j k[d, j] * x[:, t - (K-1) + j, d]; tap j = K-1 reads
    the current timestep.
    """
    if x.data.ndim != 3:
        raise ValueError(f"depthwise_conv1d: expected [B, L, D] input, got shape {x.data.shape}")
    if k.data.ndim != 2 or k.data.shape[0] != x.data.shape[-1]:
        raise ValueError(
            f"depthwise_conv1d: kernel shape {k.data.shape} does not match input shape {x.data.shape}"
        )
    out = Tensor(depthwise_conv1d_kernel(x.data, k.data))
    L, K = x.data.shape[1], k.data.shape[1]
    kd = k.data

    def vjp(g, accumulate):
        # out[t] reads x[t - K+1 + j] through tap j, so x[s] collects g[s + K-1 - j] k[:, j]
        gpad = _pad_time(g, 0, K - 1)
        gx = gpad[:, 0:L] * kd[:, K - 1]
        for i in range(1, K):
            gx += gpad[:, i:i + L] * kd[:, K - 1 - i]
        accumulate(x, gx)
        gk = np.empty_like(kd)
        xpad = _pad_time(x.data, K - 1, 0)
        for j in range(K):
            gk[:, j] = np.einsum("bld,bld->d", g, xpad[:, j:j + L])
        accumulate(k, gk)

    record_op(out, vjp)
    return out


def rmsnorm(x: Tensor, g: Tensor, eps: float = 1e-6) -> Tensor:
    """Root-mean-square normalization over the last axis with gain ``g``."""
    if g.data.shape != (x.data.shape[-1],):
        raise ValueError(
            f"rmsnorm: gain shape {g.data.shape} does not match input shape {x.data.shape}"
        )
    out = Tensor(rmsnorm_kernel(x.data, g.data, eps))
    d = x.data.shape[-1]

    def vjp(grad, accumulate):
        # out_i = x_i g_i r with r = (mean_j x_j^2 + eps)^(-1/2)
        r = _rms_scale(x.data, eps)
        inner = np.sum(grad * g.data * x.data, axis=-1, keepdims=True)
        accumulate(x, grad * g.data * r - x.data * (r ** 3) * inner / d)
        accumulate(g, _unbroadcast(grad * x.data * r, g.data.shape))

    record_op(out, vjp)
    return out


# --- shape ops --------------------------------------------------------------


def split_last(x: Tensor, sizes: Sequence[int]) -> tuple[Tensor, ...]:
    """Split the last axis into consecutive chunks of the given sizes."""
    if sum(sizes) != x.data.shape[-1]:
        raise ValueError(f"split_last: sizes {tuple(sizes)} do not sum to last axis of {x.data.shape}")
    outs = tuple(Tensor(piece) for piece in split_last_kernel(x.data, sizes))
    hi = 0
    for size, piece in zip(sizes, outs):
        lo, hi = hi, hi + size

        def vjp(g, accumulate, index=(..., slice(lo, hi))):
            accumulate(x, g, index)

        record_op(piece, vjp)
    return outs


def permute(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    out = Tensor(permute_kernel(x.data, axes))
    # the inverse permutation is found only when a backward needs it
    record_op(out, lambda g, accumulate: accumulate(x, g.transpose(np.argsort(axes))))
    return out


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    out = Tensor(x.data.reshape(shape))
    record_op(out, lambda g, accumulate: accumulate(x, g.reshape(x.data.shape)))
    return out


def take_axis1(x: Tensor, t: int) -> Tensor:
    """Select index ``t`` along axis 1 (the time axis of [B, L, ...] tensors)."""
    out = Tensor(np.ascontiguousarray(x.data[:, t]))

    def vjp(g, accumulate):
        full = np.zeros_like(x.data)
        full[:, t] = g
        accumulate(x, full)

    record_op(out, vjp)
    return out


def stack_axis1(xs: Sequence[Tensor]) -> Tensor:
    """Stack same-shaped tensors along a new axis 1."""
    out = Tensor(np.stack([x.data for x in xs], axis=1))

    def vjp(g, accumulate):
        for i, x in enumerate(xs):
            accumulate(x, g[:, i])

    record_op(out, vjp)
    return out


# --- reductions -------------------------------------------------------------


def sum_axis(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))

    def vjp(g, accumulate):
        if not keepdims:
            g = np.expand_dims(g, axis)
        accumulate(x, np.broadcast_to(g, x.data.shape).copy())

    record_op(out, vjp)
    return out


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum())
    record_op(out, lambda g, accumulate: accumulate(x, np.broadcast_to(g, x.data.shape).copy()))
    return out


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    out = Tensor(x.data.mean())
    record_op(out, lambda g, accumulate: accumulate(x, np.broadcast_to(g / n, x.data.shape).copy()))
    return out


def mse(pred: Tensor, target) -> Tensor:
    """Mean squared error over all elements."""
    t = _data(target)
    if pred.data.shape != t.shape:
        raise ValueError(f"mse: prediction shape {pred.data.shape} does not match target shape {t.shape}")
    diff = pred.data - t
    out = Tensor(np.mean(diff * diff))
    n = diff.size

    def vjp(g, accumulate):
        accumulate(pred, (2.0 / n) * diff * g)
        if isinstance(target, Tensor):
            accumulate(target, -(2.0 / n) * diff * g)

    record_op(out, vjp)
    return out
