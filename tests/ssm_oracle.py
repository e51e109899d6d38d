"""Oracles the scan and block tests check against.

``dense_ssm_reference`` runs the literal recurrence with full matrices;
``ssm_kernel`` and ``apply_kernel`` compute the same output as a causal
convolution with the impulse response.  ``reference_scan`` is the selective
scan written with a fresh array per op, the bit-exact reference for the
buffered ``selective_scan``.  ``taped_forward`` is the model's
real-arithmetic forward with the scan unrolled into per-step tape
primitives, the gradient reference for the scan's hand-written backward;
``multi_pass_calibrate`` is the calibration reference, one full forward per
uncalibrated site.
"""

import numpy as np

import spikescan.numerics as nm
from spikescan.activations import pow2_silu_t, pow2_softplus_t
from spikescan.quantize import init_step_size, quantize
from spikescan.spike import pow2_shift
from spikescan.ssm import EXP_HI, EXP_LO, QUANT_SITES, forecast_head, pow2_round_ste


def dense_ssm_reference(A_d: np.ndarray, B_d: np.ndarray, C: np.ndarray,
                        D: np.ndarray | None, u: np.ndarray) -> np.ndarray:
    """Literal dense recurrence: h_t = A_d h_{t-1} + B_d u_t, y_t = C h_t (+ D u_t).

    u: [L, m] -> y: [L, p].  The state updates before readout, so the impulse
    response is C B_d, C A_d B_d, C A_d^2 B_d, ...
    """
    A_d, B_d, C = (np.asarray(m, dtype=np.float64) for m in (A_d, B_d, C))
    u = np.asarray(u, dtype=np.float64)
    if A_d.shape[0] != A_d.shape[1] or B_d.shape[0] != A_d.shape[0] or C.shape[1] != A_d.shape[0]:
        raise ValueError(
            f"dense_ssm_reference: inconsistent shapes A{A_d.shape} B{B_d.shape} C{C.shape}"
        )
    L = u.shape[0]
    h = np.zeros(A_d.shape[0])
    y = np.zeros((L, C.shape[0]))
    for t in range(L):
        h = A_d @ h + B_d @ u[t]
        y[t] = C @ h
        if D is not None:
            y[t] += np.asarray(D) @ u[t]
    return y


def ssm_kernel(A_d: np.ndarray, B_d: np.ndarray, C: np.ndarray, L: int) -> np.ndarray:
    """Convolution kernel K[k] = C A_d^k B_d for k = 0..L-1; shape [L, p, m]."""
    A_d, B_d, C = (np.asarray(m, dtype=np.float64) for m in (A_d, B_d, C))
    K = np.empty((L, C.shape[0], B_d.shape[1]))
    M = B_d.copy()
    for k in range(L):
        K[k] = C @ M
        M = A_d @ M
    return K


def apply_kernel(u: np.ndarray, K: np.ndarray, D: np.ndarray | None = None) -> np.ndarray:
    """Causal convolution y_t = sum_k K[k] u_{t-k} (+ D u_t)."""
    u = np.asarray(u, dtype=np.float64)
    L = u.shape[0]
    y = np.zeros((L, K.shape[1]))
    for t in range(L):
        for k in range(min(t + 1, K.shape[0])):
            y[t] += K[k] @ u[t - k]
        if D is not None:
            y[t] += np.asarray(D) @ u[t]
    return y


def reference_scan(step: np.ndarray, A: np.ndarray, B_seq: np.ndarray, C_seq: np.ndarray,
                   D: np.ndarray, u: np.ndarray, encode_h=None, smooth: bool = False) -> np.ndarray:
    """``selective_scan`` with every op out of place; the hook's ``h`` is never reused."""
    def exponent(x):
        return np.clip(x if smooth else np.rint(x), EXP_LO, EXP_HI)

    B, L, dh = u.shape
    h = np.zeros((B, dh, A.shape[1]))
    y = np.empty((B, L, dh))
    for t in range(L):
        step_t = step[:, t][:, :, None]
        h = pow2_shift(h, exponent(step_t * A))
        h = h + (step_t * B_seq[:, t][:, None, :]) * u[:, t][:, :, None]
        if encode_h is not None:
            h = encode_h(t, h)
        hc = h * C_seq[:, t][:, None, :]
        # the state entries in index order from +0.0; numpy's sum takes that order below 8 entries only
        y[:, t] = sum((hc[..., i] for i in range(hc.shape[-1])), 0.0) + D * u[:, t]
    return y


def taped_block(x: nm.Tensor, p, cfg, smooth: bool = False, collect: dict | None = None) -> nm.Tensor:
    """One block with every step of the scan recorded primitive by primitive.

    With ``collect`` given, a site that has no step size yet acts as identity
    and appends the values arriving at it to ``collect[quantizer name]``.
    """
    B, L, dv = x.data.shape
    dh, n, r = cfg.d_hidden, cfg.state_size, cfg.delta_rank
    q = p.quantizers

    def site(t, name):
        if collect is not None and not q[name].initialized:
            collect.setdefault(q[name].name, []).append(t.data)
            return t
        return quantize(t, q[name], smooth=smooth)

    xn = nm.rmsnorm(x, p.g_norm, cfg.rmsnorm_eps)
    x_in, x_res = nm.split_last(nm.linear(xn, p.W_in), [dh, dh])
    s = site(nm.depthwise_conv1d(site(x_in, "x_in"), p.conv_k), "conv")
    d_raw, B_seq, C_seq = nm.split_last(nm.linear(s, p.W, p.b), [r, n, n])
    step_int = site(nm.linear(site(d_raw, "delta_raw"), p.W_delta, p.b_delta), "delta_int")
    step = site(pow2_softplus_t(step_int), "delta")

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
        h = site(h_pre, "h")
        ys.append(nm.add(nm.sum_axis(nm.mul(h, C_t), axis=2), nm.mul(p.D, u_t)))
    y = site(nm.stack_axis1(ys), "y")  # [B, L, dh]; y never feeds back

    gated = nm.mul(y, pow2_silu_t(site(x_res, "x_res")))
    return nm.add(x, nm.linear(gated, p.W_out, p.b_out))


def taped_forward(model, x: np.ndarray, smooth: bool = False) -> nm.Tensor:
    """``ForecastModel.forward`` in real-arithmetic mode, built on ``taped_block``."""
    t = nm.tensor(x)
    for blk in model.blocks:
        t = taped_block(t, blk, model.cfg, smooth)
    return forecast_head(t, model.W_head, model.b_head)


def multi_pass_calibrate(model, x: np.ndarray) -> None:
    """Calibrate one site at a time: a full forward per uncalibrated site.

    Each pass runs the model with every calibrated site quantizing while the
    uncalibrated ones act as identity, then sets the next site's step size
    from the values it recorded, measured from its offset.
    """
    data = np.asarray(x, dtype=np.float64)
    pending = [blk.quantizers[s] for blk in model.blocks for s in QUANT_SITES
               if not blk.quantizers[s].initialized]
    for q in pending:
        collect: dict[str, list[np.ndarray]] = {}
        h = nm.tensor(data)
        for blk in model.blocks:
            h = taped_block(h, blk, model.cfg, collect=collect)
        vals = np.concatenate([v.ravel() for v in collect[q.name]])
        q.set_alpha(init_step_size(vals - float(q.beta.data)))
