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
    for t:  Abar_t    = 2 ** clip(rint(step_t * A), lo, hi)  # exact powers of two
            h_t       = SN(Abar_t * h_{t-1} + (step_t * B_t) * s_t)
            y_t       = SN(sum_n C_t * h_t + D * s_t)
    out               = x + W_out @ (y * pow2_silu(Q(x_res))) + b_out

``SN`` is a spike-encode site.  During training and real-arithmetic
inference it quantizes onto the site grid with integrate-and-fire floor
semantics; after conversion the same site emits spike counts by the same
floor rule, so the counts are the codes.  The spiking forward decodes each
site's counts once, ``offset + theta * count`` (the quantizer's
``beta + alpha * code``), and runs the real-arithmetic forward's numpy ops on
the decoded values, so every site drive, and with it every output, agrees
bit for bit (a threshold-scaled site only while it saturates).  It runs the
recurrence in ``selective_scan``, the only numpy copy of the scan, and
re-encodes ``h`` through a per-step hook; since ``y`` never feeds back, it
encodes the whole readout once.
The model ends in a real-arithmetic head mapping the L history positions to
the forecast horizon per variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .activations import LN2, pow2_silu, pow2_silu_t, pow2_softplus, pow2_softplus_t
from .quantize import Quantizer, quantize, quantize_with_context
from .spike import SpikeSite, pow2_shift

EXP_LO = -32
EXP_HI = 0

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
        if self.delta_rank is None:
            self.delta_rank = max(1, math.ceil(self.d_hidden / 8))

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**{k: d[k] for k in cls.__dataclass_fields__ if k in d})


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
    qs: dict[str, Quantizer] = {}
    for s in SPIKE_SITES:
        qs[s] = Quantizer(bits=bits, rounding="floor", name=f"{prefix}.{s}")
    # Inputs of the pow2 softplus must be integers: frozen unit step.
    qs["delta_int"] = Quantizer(bits=bits, alpha=nm.Tensor(1.0), beta=nm.Tensor(0.0),
                                rounding="nearest", name=f"{prefix}.delta_int")
    qs["x_res"] = Quantizer(bits=bits, rounding="nearest", name=f"{prefix}.x_res")
    # The step site can never reach zero: its grid floor is pow2_softplus(0).
    qs["delta"].set_beta(pow2_softplus(0.0))
    qs["delta"].beta.trainable = False
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
    sites: dict[str, SpikeSite] | None = None  # populated by conversion

    WEIGHT_FIELDS = ("W_in", "conv_k", "W", "b", "W_delta", "b_delta", "A_log", "D", "g_norm", "W_out", "b_out")

    @classmethod
    def build(cls, cfg: ModelConfig, rng: np.random.Generator, index: int) -> "BlockParams":
        dv, dh, n, r, K = cfg.d_value, cfg.d_hidden, cfg.state_size, cfg.delta_rank, cfg.conv_kernel
        name = f"block{index}"
        p = cls(
            W_in=nm.tensor(_uniform(rng, (dv, 2 * dh), dv), trainable=True, name=f"{name}.W_in"),
            conv_k=nm.tensor(_uniform(rng, (dh, K), K), trainable=True, name=f"{name}.conv_k"),
            W=nm.tensor(_uniform(rng, (dh, r + 2 * n), dh), trainable=True, name=f"{name}.W"),
            b=nm.tensor(np.zeros(r + 2 * n), trainable=True, name=f"{name}.b"),
            W_delta=nm.tensor(_uniform(rng, (r, dh), r), trainable=True, name=f"{name}.W_delta"),
            b_delta=nm.tensor(np.zeros(dh), trainable=True, name=f"{name}.b_delta"),
            A_log=nm.tensor(_log_spaced_decay(dh, n), trainable=True, name=f"{name}.A_log"),
            D=nm.tensor(np.ones(dh), trainable=True, name=f"{name}.D"),
            g_norm=nm.tensor(np.ones(dv), trainable=True, name=f"{name}.g_norm"),
            W_out=nm.tensor(_uniform(rng, (dh, dv), dh), trainable=True, name=f"{name}.W_out"),
            b_out=nm.tensor(np.zeros(dv), trainable=True, name=f"{name}.b_out"),
            quantizers=_make_quantizers(cfg.bits, name),
        )
        return p

    def weight_tensors(self) -> list[nm.Tensor]:
        return [getattr(self, f) for f in self.WEIGHT_FIELDS]

    def parameters(self) -> list[nm.Tensor]:
        ps = self.weight_tensors()
        for s in QUANT_SITES:
            ps.extend(self.quantizers[s].parameters())
        return ps


def pow2_round_ste(x: nm.Tensor, smooth: bool = False) -> nm.Tensor:
    """2**clip(rint(x), EXP_LO, EXP_HI) with a straight-through rounding gradient.

    Forward snaps the exponent to an integer (round half to even) so the
    result is an exact power of two; backward treats the rounding as
    identity, passing ln(2) * out inside the clamp and zero outside.
    """
    e = np.clip(x.data if smooth else np.rint(x.data), EXP_LO, EXP_HI)
    val = np.exp2(e)
    out = nm.Tensor(val)
    mask = (x.data >= EXP_LO) & (x.data <= EXP_HI)

    def vjp(g, accumulate):
        accumulate(x, g * val * LN2 * mask)

    nm.record_op(out, vjp)
    return out


# --- real-arithmetic (taped) forward -----------------------------------------


def _sn(x: nm.Tensor, q: Quantizer, smooth: bool, collect: dict | None) -> nm.Tensor:
    """One spike-encode site in the real-arithmetic forward.

    During calibration (``collect`` given) a site that has no step size yet
    acts as identity and records the arriving values; already-calibrated
    sites quantize as usual, so each site is initialized against the value
    distribution it will actually see.
    """
    if collect is not None and not q.initialized:
        collect.setdefault(q.name, []).append(x.data)
        return x
    return quantize(x, q, smooth=smooth)


def block_forward_ann(x: nm.Tensor, p: BlockParams, cfg: ModelConfig,
                      smooth: bool = False, collect: dict | None = None) -> nm.Tensor:
    B, L, dv = x.data.shape
    dh, n, r = cfg.d_hidden, cfg.state_size, cfg.delta_rank
    q = p.quantizers

    xn = nm.rmsnorm(x, p.g_norm, cfg.rmsnorm_eps)
    x_in, x_res = nm.split_last(nm.linear(xn, p.W_in), [dh, dh])
    s_in = _sn(x_in, q["x_in"], smooth, collect)
    s = _sn(nm.depthwise_conv1d(s_in, p.conv_k), q["conv"], smooth, collect)

    d_raw, B_seq, C_seq = nm.split_last(nm.linear(s, p.W, p.b), [r, n, n])
    d_spikes = _sn(d_raw, q["delta_raw"], smooth, collect)
    step_int = _sn(nm.linear(d_spikes, p.W_delta, p.b_delta), q["delta_int"], smooth, collect)
    step = _sn(pow2_softplus_t(step_int), q["delta"], smooth, collect)

    A = nm.neg(nm.exp(p.A_log))  # [dh, n]
    h = nm.tensor(np.zeros((B, dh, n)))
    ys = []
    for t in range(L):
        step_t = nm.reshape(nm.take_axis1(step, t), (B, dh, 1))
        B_t = nm.reshape(nm.take_axis1(B_seq, t), (B, 1, n))
        C_t = nm.reshape(nm.take_axis1(C_seq, t), (B, 1, n))
        u_t = nm.take_axis1(s, t)  # [B, dh]
        Abar = pow2_round_ste(nm.mul(step_t, A), smooth=smooth)
        Bbar = nm.mul(step_t, B_t)  # [B, dh, n]
        h_pre = nm.add(nm.mul(Abar, h), nm.mul(Bbar, nm.reshape(u_t, (B, dh, 1))))
        h = _sn(h_pre, q["h"], smooth, collect)
        y_pre = nm.add(nm.sum_axis(nm.mul(h, C_t), axis=2), nm.mul(p.D, u_t))
        ys.append(_sn(y_pre, q["y"], smooth, collect))
    y = nm.stack_axis1(ys)  # [B, L, dh]

    gate_in = _sn(x_res, q["x_res"], smooth, collect)
    gated = nm.mul(y, pow2_silu_t(gate_in))
    z = nm.linear(gated, p.W_out, p.b_out)
    return nm.add(x, z)


# --- spiking forward ----------------------------------------------------------


def selective_scan(step: np.ndarray, A: np.ndarray, B_seq: np.ndarray, C_seq: np.ndarray,
                   D: np.ndarray, u: np.ndarray, encode_h=None) -> np.ndarray:
    """The selective scan over [B, L, ...] arrays; returns the readout y [B, L, dh].

    Each step decays the state by the exact power of two
    ``2 ** clip(rint(step_t * A))`` (applied with ``pow2_shift``), adds
    ``(step_t * B_t) * u_t``, passes the state through ``encode_h(t, h)``
    when given, and reads out ``sum_n C_t h_t + D u_t``.  The spiking forward
    re-encodes the state through its ``h`` site in the hook; without one the
    scan is the bare time-varying linear recurrence.
    """
    B, L, dh = u.shape
    h = np.zeros((B, dh, A.shape[1]))
    y = np.empty((B, L, dh))
    for t in range(L):
        step_t = step[:, t][:, :, None]
        e = np.clip(np.rint(step_t * A), EXP_LO, EXP_HI).astype(np.int64)
        h = pow2_shift(h, e) + (step_t * B_seq[:, t][:, None, :]) * u[:, t][:, :, None]
        if encode_h is not None:
            h = encode_h(t, h)
        y[:, t] = (h * C_seq[:, t][:, None, :]).sum(axis=2) + D * u[:, t]
    return y


class _CounterHooks:
    """No-op counter sink used when profiling is off."""

    def add(self, layer: str, **kinds) -> None:
        pass

    def record_site(self, site: str, counts: np.ndarray, T: int) -> None:
        pass


def block_forward_snn(x: np.ndarray, p: BlockParams, cfg: ModelConfig, counters=None, tag: str = "block") -> np.ndarray:
    """Spike-driven forward of one converted block (numpy, no tape)."""
    if p.sites is None:
        raise RuntimeError("block has no spike sites; convert the model first")
    ct = counters if counters is not None else _CounterHooks()
    B, _, dv = x.shape
    dh, n, r = cfg.d_hidden, cfg.state_size, cfg.delta_rank
    sites = p.sites

    T_pass = 2 ** cfg.bits - 1

    def encode(name: str, pre: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The site's spike counts and their decoded values."""
        site = sites[name]
        counts = site.encode_counts(pre)
        values = site.decode_counts(counts)
        ct.add(f"{tag}.{name}", cmp=pre.size * site.T)
        # rate is spikes per (neuron, timestep) slot of the pass window, so a
        # threshold-scaled site with a collapsed T reports a lower rate
        ct.record_site(f"{tag}.{name}", counts, T_pass)
        return counts, values

    rms = 1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + cfg.rmsnorm_eps)
    xn = x * p.g_norm.data * rms
    ct.add(f"{tag}.rmsnorm", mac=2 * xn.size)
    proj = xn @ p.W_in.data
    ct.add(f"{tag}.in_proj", mac=xn.size * 2 * dh)
    x_in, x_res = proj[..., :dh], proj[..., dh:]

    c_in, s_in = encode("x_in", x_in)
    conv_pre = nm.causal_conv(s_in, p.conv_k.data)
    ct.add(f"{tag}.conv", acc=int(c_in.sum()) * cfg.conv_kernel, acc_bias=conv_pre.size)
    c_s, s = encode("conv", conv_pre)

    pbc = s @ p.W.data + p.b.data
    ct.add(f"{tag}.proj", acc=int(c_s.sum()) * (r + 2 * n), acc_bias=2 * pbc.size)
    d_raw, B_seq, C_seq = pbc[..., :r], pbc[..., r:r + n], pbc[..., r + n:]

    c_dr, d_spikes = encode("delta_raw", d_raw)
    dproj = d_spikes @ p.W_delta.data + p.b_delta.data
    ct.add(f"{tag}.delta_proj", acc=int(c_dr.sum()) * dh, acc_bias=2 * dproj.size)
    step_int, _ = quantize_with_context(dproj, p.quantizers["delta_int"])
    step_pt = pow2_softplus(step_int)
    ct.add(f"{tag}.delta_proj", shift=step_pt.size, acc_bias=step_pt.size)
    _, step = encode("delta", step_pt)

    # the hook tallies each step's scan ops, then re-encodes the state through
    # the h site; y never feeds back, so its site encodes the whole readout once
    prev_counts = np.zeros((B, dh, n))  # the state starts at 0 with no spikes
    h_spikes = 0

    def encode_h(t: int, h_pre: np.ndarray) -> np.ndarray:
        nonlocal prev_counts, h_spikes
        # step * A and step * B products; one shift per surviving state spike
        ct.add(f"{tag}.scan", mac=2 * h_pre.size, shift=int(prev_counts.sum()),
               acc=int(c_s[:, t].sum()) * n)
        prev_counts, h = encode("h", h_pre)
        h_spikes += int(prev_counts.sum())
        return h

    y_pre = selective_scan(step, -np.exp(p.A_log.data), B_seq, C_seq, p.D.data, s, encode_h)
    ct.add(f"{tag}.scan", acc=h_spikes + int(c_s.sum()))
    y_counts, y = encode("y", y_pre)  # [B, L, dh]

    gate_vals, _ = quantize_with_context(x_res, p.quantizers["x_res"])
    gate = pow2_silu(gate_vals)
    ct.add(f"{tag}.gate", shift=gate.size, acc_bias=gate.size)
    gated = y * gate
    ct.add(f"{tag}.gate", acc=int(y_counts.sum()))
    z = gated @ p.W_out.data + p.b_out.data
    ct.add(f"{tag}.out_proj", mac=gated.size * dv, acc_bias=z.size)
    return x + z


# --- forecaster ---------------------------------------------------------------


def forecast_head(z: nm.Tensor, W_head: nm.Tensor, b_head: nm.Tensor) -> nm.Tensor:
    """Map [B, L, d_v] -> [B, horizon, d_v] with a shared linear over time."""
    zp = nm.permute(z, (0, 2, 1))
    out = nm.linear(zp, W_head, b_head)
    return nm.permute(out, (0, 2, 1))


@dataclass
class ForecastModel:
    cfg: ModelConfig
    blocks: list[BlockParams]
    W_head: nm.Tensor
    b_head: nm.Tensor
    mode: str = "ann"

    @classmethod
    def build(cls, cfg: ModelConfig, seed: int = 0) -> "ForecastModel":
        rng = np.random.default_rng(seed)
        blocks = [BlockParams.build(cfg, rng, i) for i in range(cfg.blocks)]
        W_head = nm.tensor(_uniform(rng, (cfg.history, cfg.horizon), cfg.history),
                           trainable=True, name="head.W")
        b_head = nm.tensor(np.zeros(cfg.horizon), trainable=True, name="head.b")
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
        """Initialize quantizer step sizes one site at a time, in forward order.

        Each pass runs the model with every already-calibrated site quantizing
        for real while the next uncalibrated site records its inputs and acts
        as identity; that site's alpha is then set from the recorded values
        (shifted by the site's offset) and the pass repeats.  This way every
        step size is fit to the activations it will actually see, which a
        single all-identity pass badly misestimates for downstream sites.
        """
        data = np.asarray(x, dtype=np.float64)
        pending = [blk.quantizers[s] for blk in self.blocks for s in QUANT_SITES
                   if not blk.quantizers[s].initialized]
        for q in pending:
            collect: dict[str, list[np.ndarray]] = {}
            h = nm.tensor(data)
            for blk in self.blocks:
                h = block_forward_ann(h, blk, self.cfg, collect=collect)
            vals = np.concatenate([v.ravel() for v in collect.get(q.name, [np.zeros(1)])])
            beta = float(q.beta.data) if q.beta is not None else 0.0
            q.calibrate(vals - beta)

    def clamp_steps(self) -> None:
        """Keep every quantizer step size positive after an optimizer update."""
        from .quantize import ALPHA_FLOOR
        for blk in self.blocks:
            for s in QUANT_SITES:
                q = blk.quantizers[s]
                if q.initialized and q.alpha.trainable:
                    np.maximum(q.alpha.data, ALPHA_FLOOR, out=q.alpha.data)

    def forward(self, x, smooth: bool = False, counters=None) -> nm.Tensor:
        """x: [B, history, d_value] -> predictions [B, horizon, d_value]."""
        arr = x.data if isinstance(x, nm.Tensor) else np.asarray(x, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[1] != self.cfg.history or arr.shape[2] != self.cfg.d_value:
            raise ValueError(
                f"forward: expected [B, {self.cfg.history}, {self.cfg.d_value}] input, got {arr.shape}"
            )
        if self.mode == "snn":
            h = arr
            for i, blk in enumerate(self.blocks):
                h = block_forward_snn(h, blk, self.cfg, counters=counters, tag=f"block{i}")
            out = forecast_head(nm.tensor(h), self.W_head, self.b_head)
            if counters is not None:
                counters.add("head", mac=h.shape[0] * self.cfg.d_value * self.cfg.history * self.cfg.horizon,
                             acc_bias=out.data.size)
            return out
        t = x if isinstance(x, nm.Tensor) else nm.tensor(arr)
        for blk in self.blocks:
            t = block_forward_ann(t, blk, self.cfg, smooth=smooth)
        return forecast_head(t, self.W_head, self.b_head)
