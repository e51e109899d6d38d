"""Spike-encode sites built on the average integrate-and-fire neuron.

A site averages the total drive ``d = pre - offset`` a neuron would collect
over a window of ``T`` steps to ``A = d / T`` and runs

    V(0) = 0;  for t = 1..T:  V += A;  if V >= theta: spike, V -= theta.

After t steps ``V = t*A - theta*(spikes so far)``, so the count over the
window is ``clip(floor(d / theta), 0, T)``: a site is a floor grid
(``quantize.CodeGrid``) whose codes are those counts.  A converted block's
sites are its quantizers' own grids, so quantized activations and spike
counts are interchangeable by construction, and a drive of ``m * theta``
(integer m in [0, T]) emits exactly m spikes; a standalone site is a
``CodeGrid(name, theta, offset, T)``.
Run step by step in floating point (``simulate_if``, the reference the
counts are checked against), the recurrence can disagree with that floor a
few ulps under ``(k - 1e-9) * theta``; the grid keeps the real-arithmetic
contract there.  Energy accounting tallies T threshold comparisons per
neuron per encode, the neuron hardware running the recurrence, whether
``CodeGrid.read`` finds a count by threshold search or by the arithmetic.
``pow2_shift`` is the state decay's shift by int32 exponents, numpy's
``ldexp`` ufunc itself (its contract is stated where it is bound).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .quantize import GRID_SNAP, CodeGrid

__all__ = ["pow2_shift", "simulate_if", "threshold_scale"]


# pow2_shift(v, e, out=None): the shift v * 2**e of float64 ``v`` by int32 exponents ``e``, the
# ldexp ufunc itself, so a call adds no Python frame.  It is exact: bit for bit ``v * np.exp2(e)``
# while 2**e is a normal float (-1022 <= e <= 1023), subnormal results, signed zeros, infinities and
# NaN included.  Exponents must be int32: int64 ones take numpy's scalar ldexp loop, 72-83 us against
# 5 us on 16384 entries (shared 2-vCPU Xeon, numpy 2.4), and float ones are refused.
pow2_shift = np.ldexp


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


def threshold_scale(site: CodeGrid) -> CodeGrid:
    """Collapse a site's window to a single spike.

    theta grows by T and the window shrinks to 1, so a train of T saturated
    spikes becomes one spike, which decodes to ``offset + (theta * T) * 1``,
    the value T spikes decoded to.  Exact for sites whose codes only ever
    hit 0 or T; a site with T = 1 is returned unchanged.
    """
    return replace(site, theta=site.theta * site.T, T=1)
