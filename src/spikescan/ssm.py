"""Spiking selective state-space block and forecaster.

One block is a gated selective scan over quantized activations:

    x_norm            = rmsnorm(x)
    x_in, x_res       = split(W_in @ x_norm)
    s_in              = SN(x_in)
    s                 = SN(causal_depthwise_conv(s_in))
    d_raw, B, C       = split(W @ s + b)
    step_int          = Q_int(W_d @ SN(d_raw) + b_d)        # integer codes
    step              = SN(pow2_softplus(step_int))          # > 0
    A                 = -exp(A_log)
    for t:  e_t       = clip(rint(step_t * A), lo, hi)       # int32 exponents
            h_t       = SN(h_{t-1} * 2 ** e_t + (step_t * B_t) * s_t)   # an exact shift
            y_t       = sum_n C_t * h_t + D * s_t
    out               = x + W_out @ (SN(y) * pow2_silu(Q(x_res))) + b_out

``SN`` is a spike-encode site.  During training and real-arithmetic
inference it quantizes onto the site grid with integrate-and-fire floor
semantics; after conversion the same site emits spike counts by the same
floor rule, so the counts are the codes, and decodes them once,
``offset + theta * count`` (the quantizer's ``beta + alpha * code``).
Off the tape both forwards run one array block body, ``_block``, which
reads every site, the gate and the step's softplus from their quantizers'
grids, and the state, through one code-grid read (``CodeGrid.read``): a
converted block's spike sites are those grids themselves, so both forwards
make the same reads bit for bit (a threshold-scaled site, the grid's
``threshold_scale``, only while it saturates); ``x_res`` and ``delta_int``
stay quantizers in both.  A read writes the values into the drive itself,
so a site's or activation's output is its input array, and the state's its
slot; the block unwraps its input once and wraps its output once.  Tensors belong to the tape: training, its
``smooth`` surrogate and calibration run the same body on the Tensor
primitives, each site one ``quantize`` op, which records nothing off the tape;
calibration fits each site's step size to a copy of its drive, and the
``h`` site's to one buffer of the states of a scan that leaves them
unencoded, which the fit consumes in place.
The recurrence runs in ``selective_scan``,
the one loop over time, which decays the state by shifting it by its int32
exponents (``exp2`` and a multiply only under ``smooth``, whose exponents
are not integers, or where an exponent is NaN) and re-encodes ``h`` in place
through a per-step hook given the state alone; since ``y`` never feeds back,
its site encodes the whole readout once.  In training the scan is one
tape op whose hand-written backward walks the steps in reverse, reading what
its forward kept: the decay factors, the exponent's straight-through mask
and the ``h`` site's scaled drives and codes, which it decodes into the
states, in whole-sequence buffers each block keeps per batch shape across
steps (``ScanKeep``).  The gate and the step's softplus are each one
``quantize`` op too, reading their values and slopes from their quantizer
grid's tables.  The model ends in a real-arithmetic head mapping the L
history positions to the forecast horizon per variable.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import typing
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
# perfbench's tracer looks these names up on this module; the model calls neither the ``_t``
# wrappers nor ``quantize_with_context``, which stay as its spans and as test oracles
from .activations import (LN2, pow2_silu, pow2_silu_grad, pow2_silu_t, pow2_softplus, pow2_softplus_grad,
                          pow2_softplus_t)
from .fields import AT_LEAST_1, POSITIVE, check_fields
from .quantize import (ALPHA_FLOOR, CodeGrid, Quantizer, clip_inplace, clip_mask, lsq_terms, pass_through,
                       quantize, quantize_codes, quantize_with_context)
from .spike import pow2_shift

EXP_LO = -32
EXP_HI = 0
_EXP_LO, _EXP_HI = nm.operand(EXP_LO), nm.operand(EXP_HI)
SCAN_CHUNK = 16384  # state entries per scan chunk buffer: 128 KiB of float64

# Each code grid's tables hold 2**bits entries, rebuilt every step for a trainable quantizer: a
# README-size taped step took 4.9 ms at 8 bits, 7.7 at 16, 17 at 18 and 59 at 20 (shared 2-vCPU Xeon)
MAX_BITS = 16

SPIKE_SITES = ("x_in", "conv", "delta_raw", "delta", "h", "y")
QUANT_SITES = SPIKE_SITES + ("delta_int", "x_res")


@dataclass
class ModelConfig:
    d_value: int
    history: int
    horizon: int
    d_hidden: int = 16
    state_size: int = 4
    conv_kernel: int = 4
    delta_rank: int | None = None
    blocks: int = 1
    bits: int = 2
    rmsnorm_eps: float = 1e-6

    def __post_init__(self):
        if self.delta_rank is None and isinstance(self.d_hidden, int):  # else the check names d_hidden
            self.delta_rank = max(1, math.ceil(self.d_hidden / 8))
        check_fields(self, "model config: ", d_value=AT_LEAST_1, history=AT_LEAST_1, horizon=AT_LEAST_1,
                     d_hidden=AT_LEAST_1, state_size=AT_LEAST_1, conv_kernel=AT_LEAST_1, delta_rank=AT_LEAST_1,
                     blocks=AT_LEAST_1, bits=AT_LEAST_1, rmsnorm_eps=POSITIVE)
        if self.bits > MAX_BITS:
            raise ValueError(f"model config: bits must be <= {MAX_BITS}, got {self.bits}")


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(max(1, fan_in))
    return rng.uniform(-bound, bound, size=shape)


def _log_spaced_decay(d_hidden: int, n: int) -> np.ndarray:
    """A_log rows so -exp(A_log) spans [-1, -1/n] log-uniformly."""
    if n == 1:
        mags = np.array([1.0])
    else:
        mags = (1.0 / n) * (float(n) ** (np.arange(n) / (n - 1)))
    return np.tile(np.log(mags), (d_hidden, 1))


def _make_quantizers(bits: int, prefix: str) -> dict[str, Quantizer]:
    # The step site can never reach zero: its grid floor is pow2_softplus(0), frozen.
    offsets = {"delta": nm.Tensor(float(pow2_softplus(0.0)))}
    qs = {s: Quantizer(bits=bits, beta=offsets.get(s, 0.0), rounding="floor", name=f"{prefix}.{s}")
          for s in SPIKE_SITES}
    # Inputs of the pow2 softplus must be integers: frozen unit step.
    qs["delta_int"] = Quantizer(bits=bits, alpha=nm.Tensor(1.0), beta=nm.Tensor(0.0),
                                rounding="nearest", name=f"{prefix}.delta_int")
    qs["x_res"] = Quantizer(bits=bits, rounding="nearest", name=f"{prefix}.x_res")
    return qs


@dataclass
class BlockParams:
    """Weights and per-site quantizers of one selective-scan block."""

    W_in: nm.Tensor
    conv_k: nm.Tensor
    W: nm.Tensor
    b: nm.Tensor
    W_delta: nm.Tensor
    b_delta: nm.Tensor
    A_log: nm.Tensor
    D: nm.Tensor
    g_norm: nm.Tensor
    W_out: nm.Tensor
    b_out: nm.Tensor
    quantizers: dict[str, Quantizer]
    sites: dict[str, CodeGrid] | None = None  # conversion's: each quantizer's grid, or its threshold_scale
    # per [L, B, dh, n] shape, the spare sets of sequences a taped scan keeps for its backward
    scan_keeps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @staticmethod
    def shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
        """Each weight field's shape under ``cfg``, in ``WEIGHT_FIELDS`` order."""
        dv, dh, n, r, K = cfg.d_value, cfg.d_hidden, cfg.state_size, cfg.delta_rank, cfg.conv_kernel
        return {"W_in": (dv, 2 * dh), "conv_k": (dh, K), "W": (dh, r + 2 * n), "b": (r + 2 * n,),
                "W_delta": (r, dh), "b_delta": (dh,), "A_log": (dh, n), "D": (dh,), "g_norm": (dv,),
                "W_out": (dh, dv), "b_out": (dv,)}

    @classmethod
    def build(cls, cfg: ModelConfig, rng: np.random.Generator, index: int) -> "BlockParams":
        s = cls.shapes(cfg)
        init = {  # the draws in this order
            "W_in": _uniform(rng, s["W_in"], cfg.d_value),
            "conv_k": _uniform(rng, s["conv_k"], cfg.conv_kernel),
            "W": _uniform(rng, s["W"], cfg.d_hidden),
            "b": np.zeros(s["b"]),
            "W_delta": _uniform(rng, s["W_delta"], cfg.delta_rank),
            "b_delta": np.zeros(s["b_delta"]),
            "A_log": _log_spaced_decay(*s["A_log"]),
            "D": np.ones(s["D"]),
            "g_norm": np.ones(s["g_norm"]),
            "W_out": _uniform(rng, s["W_out"], cfg.d_hidden),
            "b_out": np.zeros(s["b_out"]),
        }
        name = f"block{index}"
        return cls(**{k: nm.tensor(v, trainable=True, name=f"{name}.{k}") for k, v in init.items()},
                   quantizers=_make_quantizers(cfg.bits, name))

    def weight_tensors(self) -> list[nm.Tensor]:
        return [getattr(self, f) for f in self.WEIGHT_FIELDS]

    def parameters(self) -> list[nm.Tensor]:
        ps = self.weight_tensors()
        for s in QUANT_SITES:
            ps.extend(self.quantizers[s].parameters())
        return ps


# the weight tensors in declaration order, the order parameters() and the checkpoint payload walk
BlockParams.WEIGHT_FIELDS = tuple(k for k, t in typing.get_type_hints(BlockParams).items() if t is nm.Tensor)
# a block's weights in that order, as Tensors for the taped primitives or as their arrays for the kernels
_WEIGHT_TENSORS = operator.attrgetter(*BlockParams.WEIGHT_FIELDS)
_WEIGHT_ARRAYS = operator.attrgetter(*(f"{k}.data" for k in BlockParams.WEIGHT_FIELDS))


def _exponent(x: np.ndarray, smooth: bool) -> np.ndarray:
    """The decay exponent of ``x = step * A``, in place in ``x``: clip(rint(x)), or clip(x) when ``smooth``."""
    if not smooth:
        np.rint(x, out=x)
    return clip_inplace(x, _EXP_LO, _EXP_HI)


def pow2_round_ste(x: nm.Tensor, smooth: bool = False) -> nm.Tensor:
    """2**clip(rint(x), EXP_LO, EXP_HI) with a straight-through rounding gradient.

    Forward snaps the exponent to an integer (round half to even) so the
    result is an exact power of two; backward treats the rounding as
    identity, passing ln(2) * out inside the clamp and zero outside.
    ``selective_scan`` applies the same rule to its decay.
    """
    val = np.exp2(_exponent(x.data.copy(), smooth))
    out = nm.Tensor(val)
    mask = (x.data >= EXP_LO) & (x.data <= EXP_HI)

    def vjp(g, accumulate):
        accumulate(x, g * val * LN2 * mask)

    nm.record_op(out, vjp)
    return out


# --- the block ------------------------------------------------------------------


class ScanKeep:
    """What a taped scan keeps for its backward, time-major [L, B, dh, n] sequences.

    ``abar`` holds the decay factors, ``live`` the exponent's straight-through
    mask (``EXP_LO <= step * A <= EXP_HI``), and ``v`` and ``codes`` the
    ``h`` site's scaled drives and codes, the states' only record.  A taped
    scan takes a set from its block's spares (``BlockParams.scan_keeps``), or
    builds one, and its backward puts the set back: two pending tapes hold
    two sets, and a dropped tape's set is collected with it.
    """

    def __init__(self, shape: tuple[int, ...]):
        self.abar, self.v, self.codes = (np.empty(shape) for _ in range(3))
        self.live = np.empty(shape, dtype=bool)


def selective_scan(step: np.ndarray, A: np.ndarray, B_seq: np.ndarray, C_seq: np.ndarray,
                   D: np.ndarray, u: np.ndarray, encode_h=None, smooth: bool = False,
                   keep: ScanKeep | None = None) -> np.ndarray:
    """The selective scan over [B, L, ...] arrays; returns the readout y [B, L, dh].

    Each step decays the state by the exact power of two
    ``Abar_t = 2 ** clip(rint(step_t * A))``, adds ``(step_t * B_t) * u_t``,
    encodes the state in place through ``encode_h(h)`` when given, and
    reads out ``sum_n C_t h_t + D u_t``.  Both forwards re-encode the state
    through their ``h`` site in the hook; without one the scan is the bare
    time-varying linear recurrence.  ``smooth`` keeps the
    exponent unrounded (the finite-difference surrogate of ``quantize``).

    Time runs in chunks of ``span`` steps, as many as fit ``SCAN_CHUNK``
    entries of state (at least one, at most L), so no buffer grows with L.
    Only the state update is sequential: a chunk's exponents (rounded and
    clipped, then cast to int32), its input terms and, after its last step,
    its readout are one call each over time-major [span, B, dh, n] buffers,
    allocated once per scan.  A step is then the shift
    ``pow2_shift(h, e_t)``, bit for bit ``h * 2**e_t``, plus its term.  Only
    exponents that are not all integers take ``exp2`` and a multiply: under
    ``smooth``, and in a chunk where some exponent is NaN (a NaN step or
    ``A`` entry, or ``0 * inf``), whose state turns NaN as ``NaN * h`` does,
    where an int32 exponent would shift it to zero.  Every product runs on
    whole [k, B, dh, n] operands: each chunk first repeats
    ``step`` and ``u`` along the state axis and ``B_t``, ``C_t`` along the
    channel axis, since a ufunc that broadcasts a length-1 axis against the
    short state axis costs several times the arithmetic.  ``y`` starts as
    ``D u``, written once per scan, and each chunk adds its readout onto it,
    the state entries added in index order from +0.0, the order numpy's
    ``sum`` takes over fewer than 8 entries.  Each step
    writes its state into the chunk's slot ``hs[j]``, and that slot is the
    ``h`` the hook receives, step by step in time order: the hook encodes
    the state in its slot, and whatever it returns is ignored.  The slot is
    a working array the scan overwrites in a later chunk, so a hook that
    keeps it must copy it.

    With ``keep`` (the taped scan) the decay factors 2**e
    (``pow2_shift(1, e)``) are written into its whole-sequence buffer
    ``keep.abar`` and the exponent's straight-through mask into
    ``keep.live``, so the backward reads them instead of recomputing them.
    The states stay in the chunk slots in every mode.
    """
    B, L, dh = u.shape
    n = A.shape[1]
    span = max(1, min(L, SCAN_CHUNK // max(1, B * dh * n)))  # B = 0 takes one chunk of empty steps
    term, hs = np.empty((span, B, dh, n)), np.empty((span, B, dh, n))
    expo = np.empty((span, B, dh, n), np.int32)
    # time-major views, so a chunk of each is one slice
    step_t, u_t = step.swapaxes(0, 1)[..., None], u.swapaxes(0, 1)[..., None]
    B_t, C_t = B_seq.swapaxes(0, 1)[:, :, None], C_seq.swapaxes(0, 1)[:, :, None]
    y = np.multiply(u, D)  # D u_t, which each chunk's readout is added onto
    y_t = y.swapaxes(0, 1)
    h = nm.ZERO  # the zero initial state, broadcast by the first step
    for t0 in range(0, L, span):
        k = min(span, L - t0)
        if k < span:  # the last chunk is short: its buffers are the first k slots
            term, hs, expo = term[:k], hs[:k], expo[:k]
        ts = slice(t0, t0 + k)
        st = step_t[ts].repeat(n, axis=3)
        x = np.multiply(st, A, out=term if keep is None else keep.abar[ts])  # this chunk's exponents
        if keep is not None:
            live = np.greater_equal(x, _EXP_LO, out=keep.live[ts])
            live &= np.less_equal(x, _EXP_HI)
        _exponent(x, smooth)
        # each rounded exponent lies in [EXP_LO, EXP_HI] or is NaN, so their sum is NaN just where one
        # is (np.vdot, a BLAS call, would slow the next few products by up to 2x at batch 256)
        if smooth or math.isnan(np.add.reduce(x, None)):
            # not all integers: multiply by the factors 2**e, so a NaN exponent makes a NaN state
            shift, factor = np.multiply, np.exp2(x, out=None if keep is None else x)
        else:
            shift, factor = pow2_shift, expo
            np.copyto(expo, x, casting="unsafe")  # integers in [EXP_LO, EXP_HI]: exact
            if keep is not None:
                pow2_shift(nm.ONE, expo, out=x)  # the factors 2**e the backward reads
        bu = np.multiply(st, B_t[ts].repeat(dh, axis=2), out=term)
        del st
        bu *= u_t[ts].repeat(n, axis=3)
        for j in range(k):
            h = shift(h, factor[j], out=hs[j])
            h += bu[j]
            if encode_h is not None:
                encode_h(h)
        hc = np.multiply(hs, C_t[ts].repeat(dh, axis=2), out=term)
        readout = np.add(nm.ZERO, hc[..., 0])
        for i in range(1, n):
            readout += hc[..., i]
        y_ts = y_t[ts]
        y_ts += readout
    return y


def _block(x, p: BlockParams, cfg: ModelConfig, sites=None, counters=None, tag: str = "block", hooks=None):
    """One block's dataflow, the same in both forwards and on and off the tape.

    Without ``hooks`` ``x`` is an array (off the tape): the block runs the
    unchecked array kernels on its weight arrays, and every site reads through
    ``sites[name]`` (its quantizer's grid, or a threshold-scaled one), the
    gate and the step's softplus through their quantizers' grids and the state
    through ``sites["h"]`` at every step, each by ``CodeGrid.read`` into its
    dead drive.  ``counters``, unless ``None``, observes each read's codes and
    gets each layer's op tally right after the layer.  With ``hooks``, the
    real-arithmetic forward's ``(encode, apply, scan)`` for the Tensor
    primitives a tape records, ``x`` is a Tensor: ``encode(name, t)`` returns
    site ``name``'s values and ``None``, ``apply(name, t, fn, fn_grad)`` the
    activation ``fn`` (derivative ``fn_grad``) of quantizer ``name``'s values
    of ``t``, and ``scan(step, A, B_seq, C_seq, D, u, u_spikes)`` the readout.
    Either way each value passes through the same kernel, so the two agree
    bit for bit; each drive is encoded after its last other reader.
    """
    dv, dh, n, r = cfg.d_value, cfg.d_hidden, cfg.state_size, cfg.delta_rank
    if hooks is not None:
        rmsnorm, linear, split, conv, exp, neg, mul, add = (
            nm.rmsnorm, nm.linear, nm.split_last, nm.depthwise_conv1d, nm.exp, nm.neg, nm.mul, nm.add)
        weights = _WEIGHT_TENSORS(p)
        encode, apply, scan = hooks
    else:
        rmsnorm, linear, split, conv, exp, neg, mul, add = (
            nm.rmsnorm_kernel, nm.linear_kernel, nm.split_last_kernel, nm.depthwise_conv1d_kernel,
            nm.exp_kernel, nm.neg_kernel, nm.mul_kernel, nm.add_kernel)
        weights = _WEIGHT_ARRAYS(p)

        def count(site, layer, counts):
            """Observer of ``site``'s read: tallies its counts under ``layer`` before they are decoded;
            returns its spike total."""
            counters.add(layer, cmp=counts.size * site.T)
            # a searched NaN is code T + 1 (an arithmetic one stays NaN): the tally refuses it as NaN
            if counts.dtype.kind == "i" and counts.size and counts.item(counts.argmax()) > site.T:
                counts = np.where(counts > site.T, np.nan, counts)
            # rate is spikes per (neuron, timestep) slot of the pass window, so a
            # threshold-scaled site with a collapsed T reports a lower rate
            spikes = counters.record_site(layer, counts, 2 ** cfg.bits - 1)
            if spikes is None:  # a counters object that keeps no site record returns no total
                spikes = int(counts.sum())
            return spikes

        def encode(name, t):
            site = sites[name]
            observe = None if counters is None else functools.partial(count, site, f"{tag}.{name}")
            return t, site.read(t, observe=observe)

        def apply(name, t, fn, fn_grad):
            p.quantizers[name].grid().read(t, fn)
            return t

        def scan(step, A, B_seq, C_seq, D, u, u_spikes):
            if counters is None:
                return selective_scan(step, A, B_seq, C_seq, D, u, sites["h"].read)
            spikes = [0]  # per step, the state's spikes; it starts at 0 with none
            site = sites["h"]
            count_h = functools.partial(count, site, f"{tag}.h")

            def encode_h(h_pre):
                # step * A and step * B products; one shift per surviving state spike
                counters.add(f"{tag}.scan", mac=2 * h_pre.size, shift=spikes[-1])
                spikes.append(site.read(h_pre, observe=count_h))

            y = selective_scan(step, A, B_seq, C_seq, D, u, encode_h)
            # one readout accumulate per state spike; each input spike feeds n terms B u and one D u
            counters.add(f"{tag}.scan", acc=sum(spikes) + u_spikes * (cfg.state_size + 1))
            return y
    W_in, conv_k, W, b, W_delta, b_delta, A_log, D, g_norm, W_out, b_out = weights

    xn = rmsnorm(x, g_norm, cfg.rmsnorm_eps)
    if counters is not None:
        counters.add(f"{tag}.rmsnorm", mac=2 * xn.size)
    proj = linear(xn, W_in)
    if counters is not None:
        counters.add(f"{tag}.in_proj", mac=xn.size * 2 * dh)
    x_in, x_res = split(proj, [dh, dh])
    # each `del` drops an intermediate after its last reader: off the tape that halves
    # the forward's transient heap, which glibc would otherwise trim and re-fault every call
    del xn, proj

    s_in, c_in = encode("x_in", x_in)
    conv_pre = conv(s_in, conv_k)
    del x_in, s_in
    if counters is not None:
        counters.add(f"{tag}.conv", acc=c_in * cfg.conv_kernel, acc_bias=conv_pre.size)
    s, c_s = encode("conv", conv_pre)
    del c_in, conv_pre

    pbc = linear(s, W, b)
    if counters is not None:
        counters.add(f"{tag}.proj", acc=c_s * (r + 2 * n), acc_bias=2 * pbc.size)
    d_raw, B_seq, C_seq = split(pbc, [r, n, n])
    del pbc
    d_spikes, c_dr = encode("delta_raw", d_raw)
    dproj = linear(d_spikes, W_delta, b_delta)
    step_pt = apply("delta_int", dproj, pow2_softplus, pow2_softplus_grad)
    if counters is not None:
        counters.add(f"{tag}.delta_proj", acc=c_dr * dh, shift=step_pt.size, acc_bias=2 * dproj.size + step_pt.size)
    del d_raw, d_spikes, c_dr, dproj
    step, _ = encode("delta", step_pt)
    del step_pt

    A = neg(exp(A_log))  # [dh, n]
    y = scan(step, A, B_seq, C_seq, D, s, c_s)
    del s, c_s, B_seq, C_seq, step  # before y's encode, so its peak holds none of the scan's inputs
    y, y_spikes = encode("y", y)  # y never feeds back

    gate = apply("x_res", x_res, pow2_silu, pow2_silu_grad)
    del x_res
    gated = mul(y, gate)
    if counters is not None:
        counters.add(f"{tag}.gate", acc=y_spikes, shift=gate.size, acc_bias=gate.size)
    z = linear(gated, W_out, b_out)
    if counters is not None:
        counters.add(f"{tag}.out_proj", mac=gated.size * dv, acc_bias=z.size)
    return add(x, z)


def _scan_vjp(step, A, B_seq, C_seq, D, u, q: Quantizer, keep: ScanKeep, spares: list):
    """Backward of the taped scan, reading the sequences its forward kept in ``keep``.

    Under the straight-through estimator the state gradient runs back through
    the linear recurrence ``g_{t-1} = Abar_t * ste(g_t + C_t dy_t)``, one
    reverse loop that only adds, masks and decays; every other gradient is
    one contraction over the whole sequence.  The ``h`` site's mask and LSQ
    terms come from ``ste_backward``'s helpers, and its step-size and offset
    gradients are per-step sums of the same products, added in reverse step
    order; then the codes are decoded in place into the states, by the grid
    taken when the op is recorded (an optimizer may write the step size before
    the replay).  Time-major arrays keep each step's slice contiguous.  The
    backward puts ``keep`` back on ``spares`` when done.
    """
    grid = q.grid()

    def vjp(gy, accumulate):
        st, us, Bs, Cs, dy = (np.ascontiguousarray(a.swapaxes(0, 1))
                              for a in (step.data, u.data, B_seq.data, C_seq.data, gy))
        dh, n = A.data.shape
        abar, v = keep.abar, keep.v
        L = len(v)
        # [t]: the gradient of the state before step t's encode, first the readout's share dy_t * C_t
        g_pre = dy[..., None].repeat(n, axis=3)
        g_pre *= Cs[:, :, None].repeat(dh, axis=2)
        clipped, passed = clip_mask(v, q.code_max)  # the site passes no gradient where it clips
        g = np.empty(v.shape[1:])
        for t in range(L - 1, 0, -1):  # g_pre[t] is now the gradient of step t's drive
            pass_through(g_pre[t], passed[t], out=g)
            g *= abar[t]
            g_pre[t - 1] += g
        if q.alpha.trainable:
            per_entry = lsq_terms(v, keep.codes, passed, out=v)
            accumulate(q.alpha, np.asarray(_step_sums(np.multiply(per_entry, g_pre, out=per_entry))))
        if q.beta.trainable:
            accumulate(q.beta, np.asarray(_step_sums(np.multiply(g_pre, clipped, out=v))))
        hs = grid.decode(keep.codes, out=keep.codes)  # the encoded states
        pass_through(g_pre, passed, out=g_pre)
        g_bu = np.matmul(g_pre, Bs[..., None])[..., 0]  # through (step_t * B_t) * u_t
        accumulate(B_seq, np.matmul((st * us)[:, :, None, :], g_pre)[:, :, 0].swapaxes(0, 1))
        accumulate(C_seq, np.matmul(dy[:, :, None, :], hs)[:, :, 0].swapaxes(0, 1))
        accumulate(D, np.einsum("lbd,lbd->d", dy, us))
        accumulate(u, (st * g_bu + dy * D.data).swapaxes(0, 1))
        # the exponent of step t scales h_{t-1} (zero before the first step) by ln2 * Abar_t
        np.multiply(abar, 0.0, out=abar, where=~keep.live)  # abar * live, bit for bit: only dead entries change
        g_x = g_pre[1:]
        g_x *= hs[:-1]
        g_x *= abar[1:]
        g_step = us * g_bu
        g_step[1:] += LN2 * np.einsum("lbdn,dn->lbd", g_x, A.data)
        accumulate(step, g_step.swapaxes(0, 1))
        accumulate(A, LN2 * np.einsum("lbdn,lbd->dn", g_x, st[1:]))
        spares.append(keep)

    return vjp


def _step_sums(products: np.ndarray) -> float:
    """The sum of each step's [B, dh, n] products, the steps added in reverse order from 0.0 as Python
    floats; one reduction over each step's contiguous entries sums them as ``products[t].sum()`` does."""
    total = 0.0
    for s in products.sum(axis=(1, 2, 3))[::-1].tolist():
        total += s
    return total


def block_forward_ann(x: nm.Tensor, p: BlockParams, cfg: ModelConfig,
                      smooth: bool = False, calibrate: bool = False) -> nm.Tensor:
    """Real-arithmetic forward of one block, a Tensor in and a Tensor out.

    Off the tape, with neither ``smooth`` nor ``calibrate``, it runs the
    spiking forward's array block, each site reading its quantizer's grid,
    the very grid a converted block's spike site is.  Otherwise
    every site, the gate and the step's softplus included, is one ``quantize``
    op on Tensors, which an active tape records; ``smooth`` leaves the codes
    unrounded (the finite-difference surrogate of the taped forward).  On the
    tape the scan is one op and keeps what its backward reads in one of the
    block's spare buffer sets (``ScanKeep``); off it the scan codes and
    decodes the state in its slot.

    With ``calibrate`` a site that has no step size yet first fits one to the
    values arriving at it (``Quantizer.calibrate``, which consumes them: a
    site drive is handed over as a copy), then quantizes as usual.  The
    ``h`` site fits on the states of an extra scan that leaves them
    unencoded, written into one time-major [L, B, dh, n] buffer the fit then
    consumes.  Sites are reached in forward order, so every site upstream already
    quantizes and each step size is fit to the values it will actually see.
    """
    q = p.quantizers
    if not (smooth or calibrate) and nm.active_tape() is None:
        return nm.Tensor(_block(x.data, p, cfg, {s: q[s].grid() for s in SPIKE_SITES}))

    def encode(name, t, fn=None, fn_grad=None):
        if calibrate and not q[name].initialized:
            q[name].calibrate(t.data.copy())  # calibrate consumes its values; the drive is read below
        return quantize(t, q[name], smooth, fn, fn_grad), None

    def apply(name, t, fn, fn_grad):
        return encode(name, t, fn, fn_grad)[0]

    def scan(step, A, B_seq, C_seq, D, u, u_spikes):
        args = tuple(a.data for a in (step, A, B_seq, C_seq, D, u))
        qh = q["h"]
        shape = (u.shape[1], u.shape[0]) + A.shape  # [L, B, dh, n], time-major as the scan runs
        if calibrate and not qh.initialized:
            # h feeds back into itself: fit it on the states of a scan that leaves them unencoded,
            # each copied out of its reused slot into one sequence, which the fit then consumes
            states, steps = np.empty(shape), itertools.count()
            selective_scan(*args, lambda h: np.copyto(states[next(steps)], h), smooth)
            filled = next(steps)
            if filled:  # a scan that never calls its hook leaves h to the model's check
                qh.calibrate(states[:filled])
            del states
        grid = qh.grid()
        if nm.active_tape() is None:  # calibration or the untaped surrogate: no backward to keep for
            return nm.Tensor(selective_scan(
                *args, lambda h: grid.decode(quantize_codes(h, qh, smooth, h)[1], out=h), smooth))
        spares = p.scan_keeps.setdefault(shape, [])
        kept = spares.pop() if spares else ScanKeep(shape)
        slots = zip(kept.v, kept.codes)  # each step's own, in step order

        def encode_h(h_pre):  # v and the codes into the kept buffers, the state in place
            v, codes = next(slots)
            grid.decode(quantize_codes(h_pre, qh, smooth, v, codes)[1], out=h_pre)

        y = nm.Tensor(selective_scan(*args, encode_h, smooth, kept))
        nm.record_op(y, _scan_vjp(step, A, B_seq, C_seq, D, u, qh, kept, spares))
        return y

    return _block(x, p, cfg, hooks=(encode, apply, scan))


def block_forward_snn(x: nm.Tensor, p: BlockParams, cfg: ModelConfig, counters=None,
                      tag: str = "block") -> nm.Tensor:
    """Spike-driven forward of one converted block, a Tensor in and a Tensor out (no tape).

    The block runs on arrays, the untaped real-arithmetic forward's body.
    Each spike site emits counts and decodes them once, ``offset + theta *
    count``, into its drive.  ``delta_int`` and ``x_res`` stay quantizers,
    whose activations (the step's softplus and the gate) are read through
    their grids' tables into theirs.  With ``counters`` each site's read shows
    its counts to the op counters before it decodes them; counted or not,
    every site runs the same read.
    """
    if p.sites is None:
        raise RuntimeError("block has no spike sites; convert the model first")
    return nm.Tensor(_block(x.data, p, cfg, p.sites, counters, tag))


# --- forecaster ---------------------------------------------------------------


def forecast_head(z: nm.Tensor, W_head: nm.Tensor, b_head: nm.Tensor) -> nm.Tensor:
    """Map [B, L, d_v] -> [B, horizon, d_v] with a shared linear over time; off the tape on arrays."""
    if nm.active_tape() is not None:
        return nm.permute(nm.linear(nm.permute(z, (0, 2, 1)), W_head, b_head), (0, 2, 1))
    zp = nm.permute_kernel(z.data, (0, 2, 1))
    return nm.Tensor(nm.permute_kernel(nm.linear_kernel(zp, W_head.data, b_head.data), (0, 2, 1)))


@dataclass
class ForecastModel:
    cfg: ModelConfig
    blocks: list[BlockParams]
    W_head: nm.Tensor
    b_head: nm.Tensor
    mode: str = "ann"

    @staticmethod
    def head_shapes(cfg: ModelConfig) -> tuple[tuple[int, int], tuple[int]]:
        """The shapes of ``W_head`` and ``b_head`` under ``cfg``."""
        return (cfg.history, cfg.horizon), (cfg.horizon,)

    @classmethod
    def weight_count(cls, cfg: ModelConfig) -> int:
        """How many weights a model of ``cfg`` holds, from the shapes alone: nothing is allocated."""
        block = sum(math.prod(s) for s in BlockParams.shapes(cfg).values())
        return cfg.blocks * block + sum(math.prod(s) for s in cls.head_shapes(cfg))

    @classmethod
    def build(cls, cfg: ModelConfig, seed: int = 0) -> "ForecastModel":
        rng = np.random.default_rng(seed)
        blocks = [BlockParams.build(cfg, rng, i) for i in range(cfg.blocks)]
        w_shape, b_shape = cls.head_shapes(cfg)
        W_head = nm.tensor(_uniform(rng, w_shape, cfg.history), trainable=True, name="head.W")
        b_head = nm.tensor(np.zeros(b_shape), trainable=True, name="head.b")
        return cls(cfg=cfg, blocks=blocks, W_head=W_head, b_head=b_head)

    def parameters(self) -> list[nm.Tensor]:
        ps: list[nm.Tensor] = []
        for b in self.blocks:
            ps.extend(b.parameters())
        ps.extend([self.W_head, self.b_head])
        return ps

    def calibrated(self) -> bool:
        return all(b.quantizers[s].initialized for b in self.blocks for s in QUANT_SITES)

    def calibrate(self, x: np.ndarray) -> None:
        """Initialize every quantizer step size in one forward pass over ``x``.

        Each block runs once with ``calibrate``.  Sites are reached in forward
        order, so each fits its step size to the activations it will actually
        see, every site upstream of it already quantizing.
        """
        h = self._windows(x, "calibrate")
        if h.shape[0] == 0:  # every step size would be the mean of nothing, NaN
            raise ValueError("calibrate: expected at least one window, got 0")
        for blk in self.blocks:
            h = block_forward_ann(h, blk, self.cfg, calibrate=True)
        for q in (blk.quantizers[s] for blk in self.blocks for s in QUANT_SITES):
            if not q.initialized:
                raise RuntimeError(f"calibration: quantizer {q.name} collected no values")

    def clamp_steps(self) -> None:
        """Keep every quantizer step size positive after an optimizer update."""
        for blk in self.blocks:
            for s in QUANT_SITES:
                q = blk.quantizers[s]
                if q.initialized and q.alpha.trainable:
                    np.maximum(q.alpha.data, ALPHA_FLOOR, out=q.alpha.data)

    def _windows(self, x, caller: str) -> nm.Tensor:
        """``x`` as a Tensor, checked to be finite [B, history, d_value] windows; an error names ``caller``."""
        t = x if isinstance(x, nm.Tensor) else nm.tensor(x)
        if t.shape[1:] != (self.cfg.history, self.cfg.d_value):  # a shape of another length differs too
            raise ValueError(f"{caller}: expected [B, {self.cfg.history}, {self.cfg.d_value}] input, got {t.shape}")
        if not np.isfinite(t.data).all():
            finite = np.isfinite(t.data).all(axis=(1, 2))
            raise ValueError(f"{caller}: window {int(np.argmin(finite))} holds NaN or inf")
        return t

    def forward(self, x, smooth: bool = False, counters=None) -> nm.Tensor:
        """x: [B, history, d_value] -> predictions [B, horizon, d_value]."""
        t = self._windows(x, "forward")
        snn = self.mode == "snn"
        for i, blk in enumerate(self.blocks):
            t = (block_forward_snn(t, blk, self.cfg, counters=counters, tag=f"block{i}") if snn
                 else block_forward_ann(t, blk, self.cfg, smooth=smooth))
        out = forecast_head(t, self.W_head, self.b_head)
        if snn and counters is not None:  # a real-arithmetic forward counts no ops
            counters.add("head", mac=out.data.size * self.cfg.history, acc_bias=out.data.size)  # history MACs an output
        return out
