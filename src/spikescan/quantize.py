"""Learned-step-size quantizers with straight-through gradients.

A ``Quantizer`` owns a trainable step size ``alpha`` and offset ``beta`` and
maps reals onto ``2**bits`` integer codes:

    x_q = alpha * clip(round((x - beta) / alpha), 0, 2**bits - 1) + beta

Every grid is unsigned (codes 0 .. 2**bits - 1); a tensor's own
``trainable`` flag says whether the optimizer moves it.  Two rounding modes
exist:

* ``nearest``: ``round_half_up``, ``floor(v + 0.5)`` (explicit quantization
  sites); under the clip it is round half away from zero except that a
  ``v`` in (-0.5, 0) gives +0.0;
* ``floor``: floor with a +1e-9 grid-snap nudge (ties that land one ulp
  under a grid point stay on it); spike-encode sites count spikes with this
  same rule, so they quantize identically in the real-arithmetic and the
  spiking forward.

Backward is straight-through: gradients pass where the code was not clipped,
``alpha`` receives the learned-step-size rule (code - v inside the range, the
clip code outside), and ``beta`` collects gradient on clipped entries only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numerics as nm

try:  # numpy >= 2
    from numpy._core.umath import clip as _clip_ufunc
except ImportError:  # numpy 1.x
    from numpy.core.umath import clip as _clip_ufunc

ALPHA_FLOOR = 1e-8
GRID_SNAP = 1e-9

_HALF = nm.operand(0.5)
_SNAP = nm.operand(GRID_SNAP)


def round_half_up(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``floor(v + 0.5)``, into ``out`` when given: the quantizer's nearest rule, two in-place passes.

    Under a clip to ``[0, code_max]`` this is round half away from zero,
    except that a ``v`` in (-0.5, 0) rounds to +0.0 where that rule keeps
    -0.0; a decode ``code * alpha + beta`` shows that only when ``beta`` is
    -0.0.
    """
    r = np.add(v, _HALF, out=out)
    return np.floor(r, out=r)


def floor_with_snap(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Floor with a tiny positive nudge so exact grid points stay put; into ``out`` when given."""
    r = np.add(np.asanyarray(v, dtype=np.float64), _SNAP, out=out)
    return np.floor(r, out=r)


def clip_inplace(x: np.ndarray, lo, hi) -> np.ndarray:
    """``np.clip(x, lo, hi, out=x)`` as one call of the ufunc ``np.clip`` runs; returns ``x``.

    Same ufunc, same result bit for bit: -0.0 stays -0.0 against a zero
    bound, NaN passes through and infinities clip.  Bypassing ``np.clip``'s
    Python wrappers halves the cost on small arrays.
    """
    return _clip_ufunc(x, lo, hi, out=x)


def init_step_size(x: np.ndarray) -> float:
    """Initial step size: mean of entries >= 0.5, else max(mean |x|, 1e-3)."""
    x = np.asarray(x, dtype=np.float64)
    big = x[x >= 0.5]
    if big.size:
        return float(big.mean())
    return float(max(np.mean(np.abs(x)), 1e-3))


@dataclass
class Quantizer:
    """Per-site quantization state; ``alpha``/``beta`` are tape leaves.

    A float step size or offset becomes a trainable leaf; a ``Tensor`` is
    kept with its own ``trainable`` flag, which is the only record of
    whether the optimizer updates it.  The offset exists from construction
    (0.0 unless given); the step size is ``None`` until calibrated.
    """

    bits: int
    alpha: Optional[nm.Tensor] = None
    beta: nm.Tensor = 0.0
    rounding: str = "nearest"  # "nearest" | "floor"
    name: str = "q"

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError(f"quantizer {self.name}: bits must be >= 1, got {self.bits}")
        if self.rounding not in ("nearest", "floor"):
            raise ValueError(f"quantizer {self.name}: unknown rounding {self.rounding!r}")
        if self.alpha is not None:
            self.alpha = self._leaf(self.alpha, "alpha")
        self.beta = self._leaf(self.beta, "beta")

    def _leaf(self, value, part: str) -> nm.Tensor:
        t = value if isinstance(value, nm.Tensor) else nm.Tensor(float(value), trainable=True)
        t.name = f"{self.name}.{part}"
        return t

    @property
    def initialized(self) -> bool:
        return self.alpha is not None

    @property
    def code_max(self) -> int:
        return 2 ** self.bits - 1

    def set_alpha(self, value: float) -> None:
        """Replace the step size; a frozen step size stays frozen."""
        self.alpha = nm.Tensor(float(value), trainable=self.alpha is None or self.alpha.trainable,
                               name=f"{self.name}.alpha")

    def set_beta(self, value: float) -> None:
        """Replace the offset; a frozen offset stays frozen."""
        self.beta = nm.Tensor(float(value), trainable=self.beta.trainable, name=f"{self.name}.beta")

    def calibrate(self, x: np.ndarray) -> None:
        """Set alpha from the values ``x`` reaching the site, measured from beta (kept)."""
        self.set_alpha(init_step_size(np.ravel(x) - float(self.beta.data)))

    def parameters(self) -> list[nm.Tensor]:
        return [t for t in (self.alpha, self.beta) if t is not None and t.trainable]

    def state(self) -> dict:
        if not self.initialized:
            raise RuntimeError(f"quantizer {self.name} has no calibrated step size")
        # checkpoint format v1 keeps the "symmetric" key; every grid is unsigned
        return {
            "bits": self.bits,
            "alpha": float(self.alpha.data),
            "beta": float(self.beta.data),
            "symmetric": False,
            "rounding": self.rounding,
            "train_alpha": self.alpha.trainable,
            "train_beta": self.beta.trainable,
            "name": self.name,
        }

    @classmethod
    def from_state(cls, s: dict) -> "Quantizer":
        name = str(s["name"])
        if s["symmetric"]:
            raise ValueError(f"quantizer {name}: symmetric grids are not supported")
        for part in ("alpha", "beta"):
            if not math.isfinite(float(s[part])):
                raise ValueError(f"quantizer {name}: {part} must be finite, got {s[part]}")
        return cls(
            bits=int(s["bits"]),
            alpha=nm.Tensor(float(s["alpha"]), trainable=bool(s["train_alpha"])),
            beta=nm.Tensor(float(s["beta"]), trainable=bool(s["train_beta"])),
            rounding=str(s["rounding"]),
            name=name,
        )


@dataclass
class QuantizeContext:
    """Saved forward state needed by ``ste_backward``."""

    v: np.ndarray
    codes: np.ndarray
    clipped: np.ndarray  # v outside [0, code_max]


@functools.cache
def _code_max_operand(bits: int) -> np.ndarray:
    return nm.operand(2 ** bits - 1)


def _check_usable(q: Quantizer) -> tuple[np.ndarray, np.ndarray]:
    """``q``'s step size and offset as the 0-d arrays its tensors hold."""
    if not q.initialized:
        raise RuntimeError(f"quantizer {q.name} used before calibration")
    if float(q.alpha.data) <= 0:
        raise ValueError(f"quantizer {q.name}: step size must be positive, got {float(q.alpha.data)}")
    return q.alpha.data, q.beta.data


def quantize_values(x: np.ndarray, q: Quantizer, smooth: bool = False,
                    out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward pass of the quantizer on raw values: ``(out, v, codes)``.

    ``v = (x - beta) / alpha`` and ``codes`` are what a backward needs;
    ``smooth`` replaces rounding by identity inside the clip range (the
    straight-through surrogate used by finite-difference gradient checks).
    With ``out`` (``x`` itself may be) every step runs in that one buffer,
    so ``v`` and ``codes`` are overwritten: all three results are ``out``.
    """
    v, codes = quantize_codes(x, q, smooth, out)
    res = np.multiply(codes, q.alpha.data, out=out)
    return np.add(res, q.beta.data, out=res), v, codes


def quantize_codes(x: np.ndarray, q: Quantizer, smooth: bool = False,
                   out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``v = (x - beta) / alpha`` and its codes ``clip(round(v), 0, code_max)``, which
    ``quantize_values`` decodes; with ``out`` (``x`` itself may be) both are ``out``."""
    a, b = _check_usable(q)
    # in-place steps keep the temporaries of a [B, L, d] site to a few arrays
    v = np.subtract(np.asanyarray(x, dtype=np.float64), b, out=out)
    np.divide(v, a, out=v)
    if smooth:
        codes = v.copy() if out is None else v
    else:  # with ``out``, v is out
        codes = (round_half_up if q.rounding == "nearest" else floor_with_snap)(v, out=out)
    return v, clip_inplace(codes, nm.ZERO, _code_max_operand(q.bits))


def quantize_with_context(x: np.ndarray, q: Quantizer, smooth: bool = False) -> tuple[np.ndarray, QuantizeContext]:
    """``quantize_values`` plus the clip mask: the output and the context ``ste_backward`` reads."""
    out, v, codes = quantize_values(x, q, smooth)
    clipped = v < 0
    clipped |= v > q.code_max
    return out, QuantizeContext(v=v, codes=codes, clipped=clipped)


def ste_backward(grad_out: np.ndarray, ctx: QuantizeContext) -> tuple[np.ndarray, float, float]:
    """Straight-through backward: returns (grad_x, grad_alpha, grad_beta)."""
    if ctx is None:
        raise ValueError("ste_backward called without a saved forward context")
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != ctx.v.shape:
        raise ValueError(
            f"ste_backward: grad shape {grad_out.shape} does not match forward shape {ctx.v.shape}"
        )
    clipped = ctx.clipped
    grad_x = np.where(clipped, 0.0, grad_out)
    # Learned-step-size rule: clipped entries pull alpha toward the clip code,
    # in-range entries see the rounding residual (code - v).
    per_entry = np.where(clipped, ctx.codes, ctx.codes - ctx.v)
    per_entry *= grad_out
    grad_alpha = float(per_entry.sum())
    np.multiply(grad_out, clipped, out=per_entry)  # reuses the buffer: one temporary fewer
    grad_beta = float(per_entry.sum())
    return grad_x, grad_alpha, grad_beta


def quantize(x: nm.Tensor, q: Quantizer, smooth: bool = False, out: np.ndarray | None = None) -> nm.Tensor:
    """Taped quantization of a Tensor through ``q``; without a tape, values only.

    ``out`` (off the tape only) receives the values; ``x.data`` itself may be
    passed for an input nothing reads again.  Without it ``x`` is never written.
    """
    if nm.active_tape() is None:
        return nm.Tensor(quantize_values(x.data, q, smooth, out=out)[0])
    if out is not None:
        raise ValueError(f"quantize {q.name}: out= is for untaped calls; a backward reads the input")
    xq, ctx = quantize_with_context(x.data, q, smooth=smooth)
    out = nm.Tensor(xq)
    alpha, beta = q.alpha, q.beta

    def vjp(g, accumulate):
        gx, ga, gb = ste_backward(g, ctx)
        accumulate(x, gx)
        if alpha.trainable:
            accumulate(alpha, np.asarray(ga))
        if beta.trainable:
            accumulate(beta, np.asarray(gb))

    nm.record_op(out, vjp)
    return out
