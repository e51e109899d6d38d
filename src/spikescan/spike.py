"""Spike-encode sites built on the average integrate-and-fire neuron.

A site averages the total drive ``d = pre - offset`` a neuron would collect
over a window of ``T`` steps to ``A = d / T`` and runs

    V(0) = 0;  for t = 1..T:  V += A;  if V >= theta: spike, V -= theta.

After t steps ``V = t*A - theta*(spikes so far)``, so the count over the
window is ``clip(floor(d / theta), 0, T)``: a site is a named floor grid
(``quantize.CodeGrid``) whose codes are those counts.  The threshold is the
quantizer step and decoding is the quantizer's ``beta + alpha * code``, so
quantized activations and spike counts are interchangeable by construction,
and a drive of ``m * theta`` (integer m in [0, T]) emits exactly m spikes.
Run step by step in floating point (``simulate_if``, the reference the
counts are checked against), the recurrence can disagree with that floor a
few ulps under ``(k - 1e-9) * theta``; the grid keeps the real-arithmetic
contract there.  Energy accounting tallies T threshold comparisons per
neuron per encode, the neuron hardware running the recurrence, whether
``CodeGrid.read`` finds a count by threshold search or by the arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .quantize import GRID_SNAP, SEARCH_MAX, CodeGrid, Quantizer, bisect_thresholds

__all__ = ["SEARCH_MAX", "SpikeSite", "bisect_thresholds", "pow2_shift", "simulate_if", "threshold_scale"]


def pow2_shift(v: np.ndarray, e: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """v * 2**e; for integer ``e`` an exact shift, bit for bit ``np.ldexp(v, e)``, subnormal
    results included, while 2**e is a normal float (-1022 <= e <= 1023).

    With ``out`` (``e`` itself may be) 2**e is written there first and the product after it,
    with no temporary, so ``out`` must not overlap ``v``.
    """
    if out is None:
        return np.multiply(v, np.exp2(e))
    if np.may_share_memory(v, out):
        raise ValueError("pow2_shift: out must not overlap v, since 2**e is written into it first")
    return np.multiply(v, np.exp2(e, out=out), out=out)


@dataclass(frozen=True)
class SpikeSite(CodeGrid):
    """Spiking configuration of one encode site in a converted network: a floor grid."""

    rounding: str = field(default="floor", init=False, repr=False)  # integrate-and-fire counts floor
    encode_counts, decode_counts = CodeGrid.codes, CodeGrid.decode  # its codes are spike counts

    def __post_init__(self):
        if self.T < 1:
            raise ValueError(f"spike site {self.name}: window length must be >= 1, got {self.T}")
        if not 0 < self.theta < math.inf:
            raise ValueError(f"spike site {self.name}: threshold must be positive and finite, got {self.theta}")
        if not math.isfinite(self.offset):
            raise ValueError(f"spike site {self.name}: offset must be finite, got {self.offset}")
        super().__post_init__()

    @classmethod
    def of(cls, q: Quantizer) -> "SpikeSite":
        """The site that counts ``q``'s codes: threshold = step, offset = offset, window = largest code."""
        return cls(name=q.name, theta=float(q.alpha.data), offset=float(q.beta.data), T=q.code_max)

    def state(self) -> dict:
        # checkpoint format v1 keeps the decode "scale" key; it is always theta
        return {"name": self.name, "theta": self.theta, "scale": self.theta, "offset": self.offset, "T": self.T}

    @classmethod
    def from_state(cls, s: dict) -> "SpikeSite":
        site = cls(name=str(s["name"]), theta=float(s["theta"]), offset=float(s["offset"]), T=int(s["T"]))
        if float(s["scale"]) != site.theta:
            raise ValueError(f"spike site {site.name}: decode scale {s['scale']} differs from threshold {site.theta}")
        return site


def simulate_if(drive: np.ndarray, T: int, theta: float) -> np.ndarray:
    """The literal step-by-step recurrence; returns spike bits ``[T, *drive.shape]``.

    A neuron fires at ``V >= theta * (1 - 1e-9)`` (the grid snap).  This is
    the reference a site's counts are checked against; no model runs it.
    """
    avg = np.asarray(drive, dtype=np.float64) / T
    v = np.zeros_like(avg)
    bits = np.zeros((T,) + avg.shape)
    for t in range(T):
        v = v + avg
        bits[t] = v >= theta * (1.0 - GRID_SNAP)
        v = v - theta * bits[t]
    return bits


def threshold_scale(site: SpikeSite) -> SpikeSite:
    """Collapse a site's window to a single spike.

    theta grows by T and the window shrinks to 1, so a train of T saturated
    spikes becomes one spike, which decodes to ``offset + (theta * T) * 1``,
    the value T spikes decoded to.  Exact for sites whose codes only ever
    hit 0 or T; a site with T = 1 is returned unchanged.
    """
    return replace(site, theta=site.theta * site.T, T=1)
