"""Spike-encode sites built on the average integrate-and-fire neuron.

A site averages the total drive ``d = pre - offset`` a neuron would collect
over a window of ``T`` steps to ``A = d / T`` and runs

    V(0) = 0;  for t = 1..T:  V += A;  if V >= theta: spike, V -= theta.

After t steps ``V = t*A - theta*(spikes so far)``, so the count over the
window is ``clip(floor(d / theta), 0, T)``.  The site computes that count in
closed form with the quantizer's own floor rule
(``quantize.floor_with_snap``), so the spike count IS the floor code of the
matching quantizer, the threshold is the quantizer step, and decoding is
``offset + scale * count``: quantized activations and spike counts are
interchangeable by construction.  A drive of ``m * theta`` (integer m in
[0, T]) emits exactly m spikes.  Run step by step in floating point, the
recurrence can disagree with that floor for drives a few ulps under
``(k - 1e-9) * theta``; the closed form keeps the real-arithmetic contract
there too.

Energy accounting still tallies T threshold comparisons per neuron per
encode: that models the neuron hardware running the recurrence, not the
arithmetic used here to obtain its count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .quantize import floor_with_snap

__all__ = [
    "SpikeSite",
    "pow2_shift",
    "threshold_scale",
]


def pow2_shift(v: np.ndarray, e: np.ndarray) -> np.ndarray:
    """v * 2**e via exponent manipulation (exact, no multiply)."""
    e = np.asarray(e)
    if not np.issubdtype(e.dtype, np.integer):
        as_int = e.astype(np.int64)
        if not np.array_equal(as_int, e):
            raise ValueError("pow2_shift: exponents must be integers")
        e = as_int
    return np.ldexp(np.asarray(v, dtype=np.float64), e)


@dataclass
class SpikeSite:
    """Spiking configuration of one encode site in a converted network."""

    name: str
    theta: float
    scale: float
    offset: float
    T: int

    def __post_init__(self):
        if self.T < 1:
            raise ValueError(f"spike site {self.name}: window length must be >= 1, got {self.T}")
        if not self.theta > 0:
            raise ValueError(f"spike site {self.name}: threshold must be positive, got {self.theta}")

    def encode_counts(self, pre: np.ndarray) -> np.ndarray:
        return np.clip(floor_with_snap((pre - self.offset) / self.theta), 0, self.T)

    def decode_counts(self, counts: np.ndarray) -> np.ndarray:
        return self.offset + self.scale * counts

    def state(self) -> dict:
        return {"name": self.name, "theta": self.theta, "scale": self.scale, "offset": self.offset, "T": self.T}

    @classmethod
    def from_state(cls, s: dict) -> "SpikeSite":
        return cls(name=str(s["name"]), theta=float(s["theta"]), scale=float(s["scale"]), offset=float(s["offset"]), T=int(s["T"]))


def threshold_scale(site: SpikeSite) -> SpikeSite:
    """Collapse a site's window to a single spike.

    theta and the decode scale grow by T (scaling the decode scale is what
    "scale the downstream weights" means when weights fold in the decode at
    accumulation time) and the window shrinks to 1, so a train of T
    saturated spikes becomes one spike.  Exact for sites whose codes only
    ever hit 0 or T; a site with T = 1 is returned unchanged.
    """
    return replace(site, theta=site.theta * site.T, scale=site.scale * site.T, T=1)
