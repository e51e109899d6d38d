"""Spike-encode sites built on the average integrate-and-fire neuron.

A site averages the total drive ``d = pre - offset`` a neuron would collect
over a window of ``T`` steps to ``A = d / T`` and runs

    V(0) = 0;  for t = 1..T:  V += A;  if V >= theta: spike, V -= theta.

After t steps ``V = t*A - theta*(spikes so far)``, so the count over the
window is ``clip(floor(d / theta), 0, T)``.  ``encode_counts`` defines the
count by that arithmetic with the quantizer's own floor rule
(``quantize.floor_with_snap``), so the spike count IS the floor code of the
matching quantizer, the threshold is the quantizer step, and decoding is
``offset + theta * count``, the quantizer's own ``beta + alpha * code``:
quantized activations and spike counts are interchangeable by construction.
A drive of ``m * theta`` (integer m in [0, T]) emits exactly m spikes.  Run
step by step in floating point (``simulate_if``, the reference the count is
checked against), the recurrence can disagree with that floor for drives a
few ulps under ``(k - 1e-9) * theta``; the arithmetic keeps the
real-arithmetic contract there too.

That count is monotone in the drive, so a site also has T exact thresholds:
``tau_k`` is the least float64 drive whose arithmetic count reaches k, found
once per site by bisection over the order of float64 values, and its T + 1
decoded levels ``offset + theta * k``.  A drive is counted either way:
``encode`` counts a drive of at most ``SEARCH_MAX`` entries (every site of
a batch-1 forward) by where each entry falls among the thresholds, one
search, and decodes it by one read of the level table; a larger drive keeps
the arithmetic, which costs less per entry.  Both give the same counts and
the same decoded bits.  The search compares each entry with the thresholds
as the neuron compares its potential with its threshold, and energy
accounting tallies T threshold comparisons per neuron per encode, the
neuron hardware running the recurrence, whichever way the count is found.

The same bisection gives a quantizer's code thresholds, so ``CodeTable``
reads an activation of a quantizer's codes the same way: the spiking
forward reads the gate and the step's softplus from per-code tables, by one
search for a drive of at most ``SEARCH_MAX`` entries and by the quantizer's
arithmetic codes for a larger one, bit for bit the activation of the
quantized values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .numerics import ZERO, operand
from .quantize import GRID_SNAP, Quantizer, clip_inplace, floor_with_snap, quantize_codes, quantize_values

__all__ = ["SEARCH_MAX", "CodeTable", "SpikeSite", "bisect_thresholds", "pow2_shift", "simulate_if",
           "threshold_scale"]

# Largest drive ``SpikeSite.encode`` counts by threshold search.  Search and read
# against encode and decode by arithmetic, on a shared 2-vCPU Xeon with numpy 2.4:
# 1.4-2.3 against 4.0-4.7 us at 64 entries (T = 3), 7.3 against 9.0 us at 512
# (7.4 against 7.7 at T = 15), even or worse from 768 and 23 against 14 us at 2048;
# the search costs a binary search per entry, the arithmetic a few vectorized passes.
SEARCH_MAX = 512

# A float64's order key is its bits with the sign bit set, or all its bits flipped if
# it is negative: uint64 keys in the order of the values, -0.0 just below +0.0.
_SIGN = np.uint64(1 << 63)
_KEY_LO, _KEY_HI = np.uint64(0x000F_FFFF_FFFF_FFFF), np.uint64(0xFFF0_0000_0000_0000)  # -inf, +inf


def _key_values(keys: np.ndarray) -> np.ndarray:
    """The float64 values of order keys."""
    return np.where(keys & _SIGN, keys & ~_SIGN, ~keys).view(np.float64)


def bisect_thresholds(count, n: int) -> np.ndarray:
    """``tau_k`` for k = 1..n: the least float64 ``x`` with ``count(x) >= k``.

    ``count`` maps a float64 array to counts entrywise, monotone in ``x``, with
    ``count(+inf) >= n``, so each ``tau_k`` lies in (-inf, +inf] and is found by
    bisection over the order keys of float64 values, every k at once: the count
    itself decides each step, so the thresholds are exact by construction.  The
    keys are uint64, where ``hi - lo`` cannot overflow, and fewer than 2**64 lie
    between -inf and +inf, so 64 halvings leave ``hi`` just above ``lo``.
    """
    k = np.arange(1, n + 1)
    lo = np.full(n, _KEY_LO)  # count below k
    hi = np.full(n, _KEY_HI)  # count k or more
    with np.errstate(over="ignore"):  # inputs near the float64 extremes overflow to +-inf
        for _ in range(64):
            mid = lo + (hi - lo) // 2
            reached = count(_key_values(mid)) >= k
            hi = np.where(reached, mid, hi)
            lo = np.where(reached, lo, mid)
    return _key_values(hi)


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
class SpikeSite:
    """Spiking configuration of one encode site in a converted network.

    Frozen, so the 0-d float64 operands its encode and decode pass to numpy,
    built once here, and the search tables, built on its first small drive,
    always hold the fields' values.
    """

    name: str
    theta: float
    offset: float
    T: int

    def __post_init__(self):
        if self.T < 1:
            raise ValueError(f"spike site {self.name}: window length must be >= 1, got {self.T}")
        if not 0 < self.theta < math.inf:
            raise ValueError(f"spike site {self.name}: threshold must be positive and finite, got {self.theta}")
        if not math.isfinite(self.offset):
            raise ValueError(f"spike site {self.name}: offset must be finite, got {self.offset}")
        for attr in ("theta", "offset", "T"):
            object.__setattr__(self, f"_{attr}", operand(getattr(self, attr)))
        object.__setattr__(self, "_tables", None)  # built on the first small drive

    @classmethod
    def of(cls, q: Quantizer) -> "SpikeSite":
        """The site that counts ``q``'s codes: threshold = step, offset = offset, window = largest code."""
        return cls(name=q.name, theta=float(q.alpha.data), offset=float(q.beta.data), T=q.code_max)

    def encode_counts(self, pre: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The spike counts of the drive ``pre``, into ``out`` when given (``pre`` itself may be)."""
        d = np.subtract(pre, self._offset, out=out)
        np.divide(d, self._theta, out=d)
        return clip_inplace(floor_with_snap(d, out=d), ZERO, self._T)

    def decode_counts(self, counts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``offset + theta * counts``, into ``out`` when given (``counts`` itself may be)."""
        v = np.multiply(counts, self._theta, out=out)
        return np.add(v, self._offset, out=v)

    def thresholds(self) -> np.ndarray:
        """``tau_k`` for k = 1..T: the least float64 drive ``encode_counts`` gives k spikes or more."""
        return bisect_thresholds(self.encode_counts, self.T)

    def _search_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Build the site's tables: its thresholds with a NaN after them, and its T + 1 decoded levels."""
        tables = (np.append(self.thresholds(), np.nan), self.decode_counts(np.arange(self.T + 1.0)))
        object.__setattr__(self, "_tables", tables)
        return tables

    def encode(self, drive: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """The spike counts of ``drive``, which nothing reads again, and its decoded values if ready.

        A drive of at most ``SEARCH_MAX`` entries is counted by one search of the
        thresholds, ``count = #{k: tau_k <= d}``, and decoded by one read of the
        level table, into fresh arrays, bit for bit ``encode_counts`` and
        ``decode_counts``.  NaN sorts after the table's NaN, so a NaN entry
        counts T + 1, past the level table, and the read raises: such a drive
        takes the arithmetic, as does a larger one, whose counts come back in
        its own buffer with no values; the caller reads them, then decodes with
        ``decode_counts(counts, out=counts)``.
        """
        if drive.size <= SEARCH_MAX:
            tau, levels = self._tables or self._search_tables()
            counts = tau.searchsorted(drive, side="right")
            try:
                return counts, levels.take(counts, mode="raise")
            except IndexError:  # a NaN entry counted T + 1
                pass
        return self.encode_counts(drive, out=drive), None

    def state(self) -> dict:
        # checkpoint format v1 keeps the decode "scale" key; it is always theta
        return {"name": self.name, "theta": self.theta, "scale": self.theta, "offset": self.offset, "T": self.T}

    @classmethod
    def from_state(cls, s: dict) -> "SpikeSite":
        site = cls(name=str(s["name"]), theta=float(s["theta"]), offset=float(s["offset"]), T=int(s["T"]))
        if float(s["scale"]) != site.theta:
            raise ValueError(f"spike site {site.name}: decode scale {s['scale']} differs from threshold {site.theta}")
        return site


class CodeTable:
    """An activation of a quantizer's codes, read from a table: bit for bit ``fn(quantize_values(x, q)[0])``.

    ``values`` is ``fn`` of the quantizer's 2**bits decoded levels, the floats
    ``code * alpha + beta`` that ``quantize_values`` decodes to, so ``fn`` sees
    the same inputs, and ``tau`` its exact code thresholds (a NaN after them),
    found as ``SpikeSite.thresholds`` finds a site's.  The table holds for one
    state of the quantizer, ``key``: its step, offset, bits and rounding, which
    ``key_of`` reads, so a reader that finds a different key builds a new table.
    """

    __slots__ = ("key", "tau", "values")

    def __init__(self, q: Quantizer, fn):
        self.key = self.key_of(q)
        self.tau = np.append(bisect_thresholds(lambda x: quantize_codes(x, q)[1], q.code_max), np.nan)
        levels = np.multiply(np.arange(q.code_max + 1.0), q.alpha.data)
        self.values = fn(np.add(levels, q.beta.data, out=levels))

    @staticmethod
    def key_of(q: Quantizer) -> tuple:
        return None if q.alpha is None else float(q.alpha.data), float(q.beta.data), q.bits, q.rounding

    def read(self, drive: np.ndarray, q: Quantizer, fn) -> np.ndarray:
        """``fn(quantize_values(drive, q)[0])`` for the quantizer the table was built for.

        ``drive`` is dead: nothing reads it again, and a large one ends up
        holding the result.  A drive of at most ``SEARCH_MAX`` entries gets its
        codes from one search of the thresholds and its values from one read;
        a larger one computes its codes in its own buffer with the quantizer's
        arithmetic, then reads.  A NaN entry counts past the table and makes a
        large drive's maximum NaN: such a drive takes the arithmetic, whose NaN
        passes through ``fn``.
        """
        if drive.size <= SEARCH_MAX:
            try:
                return self.values.take(self.tau.searchsorted(drive, side="right"), mode="raise")
            except IndexError:  # a NaN entry counted past the table
                pass
        elif not np.isnan(np.maximum.reduce(drive, None)):
            codes = quantize_codes(drive, q, out=drive)[1]
            return self.values.take(codes.astype(np.intp), mode="clip", out=codes)  # codes in range
        return fn(quantize_values(drive, q, out=drive)[0])


def simulate_if(drive: np.ndarray, T: int, theta: float) -> np.ndarray:
    """The literal step-by-step recurrence; returns spike bits ``[T, *drive.shape]``.

    A neuron fires at ``V >= theta * (1 - 1e-9)`` (the grid snap).  This is
    the reference ``encode_counts`` is checked against; no model runs it.
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
