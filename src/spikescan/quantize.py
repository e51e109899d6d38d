"""Code grids, and the learned-step-size quantizers that train them.

A code grid maps reals onto the integer codes 0..T of a step ``theta`` from
an offset, and decodes a code back:

    code = clip(round((x - offset) / theta), 0, T),    value = offset + theta * code

``_codes`` and ``CodeGrid.decode`` run that arithmetic for every grid and
quantizer, under one of two rounding rules:

* ``nearest``: ``round_half_up``, ``floor(v + 0.5)`` (explicit quantization
  sites); under the clip it is round half away from zero except that a
  ``v`` in (-0.5, 0) gives +0.0;
* ``floor``: floor with a +1e-9 grid-snap nudge (ties that land one ulp
  under a grid point stay on it).  Every spike site, a converted block's
  quantizer grid or a standalone one, is a floor grid of spike-count codes.

A ``Quantizer`` owns a trainable step size ``alpha`` and offset ``beta`` over
``2**bits`` codes; ``Quantizer.grid`` freezes their current values into a
``CodeGrid``, whose ``read`` codes a small drive by one search of its T exact
thresholds (``bisect_thresholds``) and a larger one by the arithmetic, bit for
bit alike, shows the codes to an optional observer (the op counters), and
then, on the one path every caller takes, writes their values, or an
activation of them, into the drive itself, read from one table whose last
entry is the NaN an overflow makes.

Off the tape both forwards read every code through ``CodeGrid.read``.  The
Tensor quantization ``quantize``, which training, its ``smooth`` surrogate
and calibration run, codes by ``quantize_codes`` with its quantizer grid's
operands and decodes by that grid.

Backward is straight-through, one rule for ``ste_backward`` and the scan's
``h`` site: gradients pass where the code was not clipped (``clip_mask``,
``pass_through``), ``alpha`` receives the learned-step-size rule (``lsq_terms``:
code - v inside the range, the clip code outside), and ``beta`` collects
gradient on clipped entries only; a frozen step size or offset gets no pass.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import numerics as nm
from .fields import AT_LEAST_1, check

try:  # numpy >= 2
    from numpy._core.umath import clip as _clip_ufunc
except ImportError:  # numpy 1.x
    from numpy.core.umath import clip as _clip_ufunc

ALPHA_FLOOR = 1e-8
GRID_SNAP = 1e-9

# Largest drive ``CodeGrid.read`` codes by threshold search.  Search and read
# against encode and decode by arithmetic, on a shared 2-vCPU Xeon with numpy 2.4:
# 1.4-2.3 against 4.0-4.7 us at 64 entries (T = 3), 7.3 against 9.0 us at 512
# (7.4 against 7.7 at T = 15), even or worse from 768 and 23 against 14 us at 2048;
# the search costs a binary search per entry, the arithmetic a few vectorized passes.
SEARCH_MAX = 512

_HALF = nm.operand(0.5)
_SNAP = nm.operand(GRID_SNAP)

# A float64's order key is its bits with the sign bit set, or all its bits flipped if
# it is negative: uint64 keys in the order of the values, -0.0 just below +0.0.
_SIGN = np.uint64(1 << 63)
_KEY_LO, _KEY_HI = np.uint64(0x000F_FFFF_FFFF_FFFF), np.uint64(0xFFF0_0000_0000_0000)  # -inf, +inf
# Keys either side of a grid's estimate of a threshold where its search starts: on grids of steps
# 1e-8..3.3e5 from offsets 0..+-1e6 every threshold lay within 31 keys of its estimate, and a bracket
# of 512 keys takes 9 halvings against the whole range's 64
_BRACKET = np.uint64(256)


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


def simulate_if(drive: np.ndarray, T: int, theta: float) -> np.ndarray:
    """The average integrate-and-fire neuron, step by step; returns its spike bits ``[T, *drive.shape]``.

    It averages a total drive ``d`` over ``T`` steps to ``A = d / T`` and runs
    ``V(0) = 0; for t = 1..T: V += A; if V >= theta: spike, V -= theta``.  After t
    steps ``V = t*A - theta*(spikes so far)``, so its count is ``clip(floor(d / theta),
    0, T)``: a spike site is a floor grid whose codes are its counts, and a drive of
    ``m * theta`` (integer m in [0, T]) emits exactly m spikes.  It fires at
    ``V >= theta * (1 - GRID_SNAP)``, the grid's snap, and can still disagree with the
    floor a few ulps under ``(k - 1e-9) * theta``, where the grid keeps the
    real-arithmetic contract.  The reference a grid's counts are checked against; no
    model runs it.  Energy accounting tallies the T comparisons per neuron it makes.
    """
    avg = np.asarray(drive, dtype=np.float64) / T
    v = np.zeros_like(avg)
    bits = np.zeros((T,) + avg.shape)
    for t in range(T):
        v = v + avg
        bits[t] = v >= theta * (1.0 - GRID_SNAP)
        v = v - theta * bits[t]
    return bits


def clip_inplace(x: np.ndarray, lo, hi) -> np.ndarray:
    """``np.clip(x, lo, hi, out=x)`` as one call of the ufunc ``np.clip`` runs; returns ``x``.

    Same ufunc, same result bit for bit: -0.0 stays -0.0 against a zero
    bound, NaN passes through and infinities clip.  Bypassing ``np.clip``'s
    Python wrappers halves the cost on small arrays.
    """
    return _clip_ufunc(x, lo, hi, out=x)


_ROUNDING = {"nearest": round_half_up, "floor": floor_with_snap}


def _codes(x: np.ndarray, step: np.ndarray, offset: np.ndarray, rule, top: np.ndarray,
           out: np.ndarray | None = None, codes_out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``v = (x - offset) / step`` and its codes ``clip(rule(v), 0, top)``; with ``out`` (``x``
    itself may be) both are ``out``, which keeps the temporaries of a [B, L, d] site to a few arrays,
    unless ``codes_out`` takes the codes and leaves ``v`` in ``out``."""
    v = np.subtract(x, offset, out=out)
    np.divide(v, step, out=v)
    return v, clip_inplace(rule(v, out=out if codes_out is None else codes_out), nm.ZERO, top)


def _keys(values: np.ndarray) -> np.ndarray:
    """The order keys of float64 values."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    return np.where(bits & _SIGN, ~bits, bits | _SIGN)


def _key_values(keys: np.ndarray) -> np.ndarray:
    """The float64 values of order keys."""
    return np.where(keys & _SIGN, keys & ~_SIGN, ~keys).view(np.float64)


def bisect_thresholds(count, guess: np.ndarray) -> np.ndarray:
    """``tau_k`` for k = 1..n, n = ``len(guess)``: the least float64 ``x`` with ``count(x) >= k``.

    ``count`` maps a float64 array to counts entrywise, monotone in ``x``, with
    ``count(+inf) >= n``, so each ``tau_k`` lies in (-inf, +inf] and is found by
    bisection over the order keys of float64 values, every k at once: the count
    itself decides each step, so the thresholds are exact by construction.
    Each search starts from the ``_BRACKET`` keys either side of its estimate
    ``guess[k - 1]``, kept only where the count confirms it, below k at its low
    end and k or more at its high end, and otherwise from the whole range
    -inf..+inf; it halves until every bracket is one key wide, ``hi`` just
    above ``lo``.  The keys are uint64, where ``hi - lo`` cannot overflow, and
    fewer than 2**64 lie between -inf and +inf, so a whole range takes 64
    halvings and a confirmed bracket 9.
    """
    n = len(guess)
    k = np.arange(1, n + 1)
    key = _keys(guess)  # a NaN guess keys beyond +-inf, where the clamps below leave no confirmed bracket
    lo = np.maximum(key, _KEY_LO + _BRACKET) - _BRACKET
    hi = np.minimum(key, _KEY_HI - _BRACKET) + _BRACKET
    with np.errstate(over="ignore"):  # inputs near the float64 extremes overflow to +-inf
        ends = count(_key_values(np.concatenate([lo, hi])))
        confirmed = (ends[:n] < k) & (ends[n:] >= k)
        lo, hi = np.where(confirmed, lo, _KEY_LO), np.where(confirmed, hi, _KEY_HI)
        for _ in range(int((hi - lo).max(initial=1) - 1).bit_length()):  # halvings to one key wide
            mid = lo + (hi - lo) // 2
            reached = count(_key_values(mid)) >= k
            hi = np.where(reached, mid, hi)
            lo = np.where(reached, lo, mid)
    return _key_values(hi)


@dataclass(frozen=True)
class CodeGrid:
    """Codes 0..T of the step ``theta`` from ``offset`` under ``rounding``, and their decode.  Frozen,
    so its 0-d operands, built here, and its thresholds and tables, built on first use, hold its fields."""

    name: str
    theta: float
    offset: float
    T: int
    rounding: str = "floor"

    def __post_init__(self):
        for attr in ("theta", "offset", "T"):
            object.__setattr__(self, f"_{attr}", nm.operand(getattr(self, attr)))
        object.__setattr__(self, "_tables", {})  # fn -> fn of the T + 1 levels; None -> the levels

    def codes(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The codes of ``x``, into ``out`` when given (``x`` itself may be)."""
        return _codes(x, self._theta, self._offset, _ROUNDING[self.rounding], self._T, out)[1]

    def decode(self, codes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``offset + theta * codes``, into ``out`` when given (``codes`` itself may be)."""
        v = np.multiply(codes, self._theta, out=out)
        return np.add(v, self._offset, out=v)

    def threshold_scale(self) -> CodeGrid:
        """This grid's window collapsed to one spike against ``theta * T``, which decodes to the value T
        spikes decoded to: exact for drives coded only 0 or T; a grid with T = 1 comes back equal."""
        return replace(self, theta=self.theta * self.T, T=1)

    def thresholds(self) -> np.ndarray:
        """``tau_k`` for k = 1..T: the least float64 whose code is k or more, searched from the
        decode of where the rounding reaches k (``k - 0.5`` to nearest, ``k - GRID_SNAP`` by floor)."""
        below = 0.5 if self.rounding == "nearest" else GRID_SNAP
        with np.errstate(over="ignore"):  # a step near the float64 maximum overflows the estimate to inf
            guess = self.decode(np.arange(1, self.T + 1) - below)
        return bisect_thresholds(self.codes, guess)

    @functools.cached_property
    def _tau(self) -> np.ndarray:  # the thresholds with a NaN after them, built on the first search
        return np.append(self.thresholds(), np.nan)

    def table(self, fn=None) -> np.ndarray:
        """``fn`` of the T + 1 decoded levels and, last, of the NaN the arithmetic makes of a NaN drive
        (without ``fn``, those T + 2 values), in one ``fn`` call, built on first use."""
        table = self._tables.get(fn)
        if table is None:
            with np.errstate(invalid="ignore"):  # inf - inf: the platform's default NaN, as an overflow makes it
                levels = np.append(self.decode(np.arange(self.T + 1.0)), np.subtract(np.inf, np.inf))
            table = self._tables[fn] = levels if fn is None else fn(levels)
        return table

    def read(self, drive: np.ndarray, fn=None, observe=None):
        """Writes ``fn`` of the values of ``drive``'s codes (without ``fn``, the values) into ``drive``,
        which nothing reads again, bit for bit ``fn(decode(codes(drive)))``; returns ``observe(codes)``,
        called once the codes exist and before any value is written (without ``observe``, ``None``),
        with NaN for a NaN drive entry.

        A drive of at most ``SEARCH_MAX`` entries is coded by one search of the thresholds,
        ``code = #{k: tau_k <= x}``, into a fresh index array, and its values are taken from one table
        straight into the drive.  A NaN entry sorts past the thresholds, to code T + 1, whose table entry
        is ``fn`` of the platform's default NaN: the NaN an overflow makes, which the arithmetic passes
        through ``decode`` and ``fn``; the observer sees that code as NaN.  A larger drive is coded by
        the arithmetic in its own buffer, where a NaN stays NaN, and decoded in place or read through the
        table (``fn`` computed where a NaN casts to no index).
        """
        table = self._tables.get(fn)
        if table is None:  # built once; a call per read would cost batch-1 latency
            table = self.table(fn)
        searched = drive.size <= SEARCH_MAX
        codes = self._tau.searchsorted(drive, side="right") if searched else self.codes(drive, out=drive)
        nan = observe is not None and searched and codes.size and codes.item(codes.argmax()) > self.T
        seen = None if observe is None else observe(np.where(codes > self.T, np.nan, codes) if nan else codes)
        if searched:
            table.take(codes, mode="clip", out=drive)  # no index clips; "raise" would buffer the output
        elif fn is None:
            self.decode(codes, out=codes)
        elif np.isnan(np.maximum.reduce(codes, None)):
            codes[...] = fn(self.decode(codes, out=codes))
        else:
            table.take(codes.astype(np.intp), mode="clip", out=codes)  # codes in range
        return seen


def init_step_size(x: np.ndarray) -> float:
    """Initial step size: mean of entries >= 0.5, else max(mean |x|, 1e-3).

    Consumes ``x``: a float64 array is overwritten by ``|x|`` in place when no
    entry reaches 0.5, so a caller that reads it again passes a copy.
    """
    x = np.asarray(x, dtype=np.float64)
    big = x[x >= 0.5]
    if big.size:
        return float(big.mean())
    return float(max(np.mean(np.abs(x, out=x)), 1e-3))


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
    _grid: tuple | None = field(default=None, init=False, repr=False, compare=False)  # (key, CodeGrid)

    def __post_init__(self):
        check(f"quantizer {self.name}: ", "bits", self.bits, (int, AT_LEAST_1))
        if self.rounding not in _ROUNDING:
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

    def grid(self) -> CodeGrid:
        """The grid of the current step, offset, bits and rounding, rebuilt (and checked) on a change of
        their bytes: an offset turning from +0.0 to -0.0 changes ``x - offset`` at a zero ``x``."""
        if self.alpha is None:
            raise RuntimeError(f"quantizer {self.name} used before calibration")
        key = self.alpha.data.tobytes(), self.beta.data.tobytes(), self.bits, self.rounding
        if self._grid is None or self._grid[0] != key:
            a = float(self.alpha.data)
            if a <= 0:
                raise ValueError(f"quantizer {self.name}: step size must be positive, got {a}")
            self._grid = key, CodeGrid(self.name, a, float(self.beta.data), self.code_max, self.rounding)
        return self._grid[1]

    def calibrate(self, x: np.ndarray) -> None:
        """Set alpha from the values ``x`` reaching the site, measured from beta (kept).

        Consumes ``x``, as ``CodeGrid.read`` consumes its drive: the offset is
        subtracted from a float64 array in place and ``init_step_size`` takes
        over, so a caller that reads the values again passes a copy.
        """
        x = np.ravel(np.asarray(x, dtype=np.float64))
        self.set_alpha(init_step_size(np.subtract(x, float(self.beta.data), out=x)))

    def parameters(self) -> list[nm.Tensor]:
        return [t for t in (self.alpha, self.beta) if t is not None and t.trainable]


@dataclass
class QuantizeContext:
    """Saved forward state needed by ``ste_backward``."""

    v: np.ndarray
    codes: np.ndarray
    top: int  # the grid's top code T


def quantize_codes(x: np.ndarray, q: Quantizer, smooth: bool = False, out: np.ndarray | None = None,
                   codes_out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``v = (x - beta) / alpha`` and its codes ``clip(round(v), 0, code_max)`` with the operands of
    ``q``'s grid, which decodes them; ``smooth`` replaces the rounding by the identity (the
    straight-through surrogate of finite-difference gradient checks).  With ``out`` (``x`` itself may
    be) both are ``out``, unless ``codes_out`` takes the codes."""
    g = q.grid()
    rule = np.positive if smooth else _ROUNDING[q.rounding]  # smooth: no rounding, the identity ufunc
    return _codes(np.asanyarray(x, dtype=np.float64), g._theta, g._offset, rule, g._T, out, codes_out)


def quantize_with_context(x: np.ndarray, q: Quantizer, smooth: bool = False) -> tuple[np.ndarray, QuantizeContext]:
    """The values of ``x`` on ``q``'s grid and the context ``ste_backward`` reads."""
    ctx = QuantizeContext(*quantize_codes(x, q, smooth), q.code_max)
    return q.grid().decode(ctx.codes), ctx


def clip_mask(v: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """Where ``v`` lies outside [0, top] (``clipped``; a NaN is not), and ``passed``: words that keep a
    float64's bits where an entry is not clipped and clear them where it is, which ``pass_through``
    ANDs in without the branch per entry that makes ``where`` slow on a mask clipping half at random."""
    clipped = v < 0
    clipped |= v > top
    passed = clipped.astype(np.uint64)
    passed -= 1  # 1 -> 0, 0 -> all ones
    return clipped, passed


def pass_through(x: np.ndarray, passed: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.where(clipped, 0.0, x)`` bit for bit, into ``out`` when given (``x`` itself may be)."""
    bits = np.bitwise_and(x.view(np.uint64), passed, out=None if out is None else out.view(np.uint64))
    return bits.view(np.float64)


def lsq_terms(v: np.ndarray, codes: np.ndarray, passed: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each entry's learned-step-size term, ``np.where(clipped, codes, codes - v)`` bit for bit (a clipped
    ``v`` passes as +0.0, and ``code - (+0.0)`` is ``code``), into ``out`` when given (``v`` may be)."""
    kept = pass_through(v, passed, out)
    return np.subtract(codes, kept, out=kept)


def ste_backward(grad_out: np.ndarray, ctx: QuantizeContext, alpha: bool = True,
                 beta: bool = True) -> tuple[np.ndarray, float | None, float | None]:
    """Straight-through backward: returns (grad_x, grad_alpha, grad_beta).

    A step-size or offset gradient not asked for (``alpha`` or ``beta`` false,
    as for a frozen leaf) is not computed and comes back ``None``.
    """
    if ctx is None:
        raise ValueError("ste_backward called without a saved forward context")
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != ctx.v.shape:
        raise ValueError(f"ste_backward: grad shape {grad_out.shape} does not match forward shape {ctx.v.shape}")
    clipped, passed = clip_mask(ctx.v, ctx.top)
    grad_x = pass_through(grad_out, passed)
    grad_alpha = grad_beta = per_entry = None
    if alpha:
        per_entry = lsq_terms(ctx.v, ctx.codes, passed)
        per_entry *= grad_out
        grad_alpha = float(per_entry.sum())
    if beta:
        grad_beta = float(np.multiply(grad_out, clipped, out=per_entry).sum())  # reuses alpha's buffer
    return grad_x, grad_alpha, grad_beta


def quantize(x: nm.Tensor, q: Quantizer, smooth: bool = False, fn=None, fn_grad=None) -> nm.Tensor:
    """Taped quantization of a Tensor through ``q``, then ``fn`` of the values when given, as one
    tape op; ``x`` is never written.  ``fn`` and its derivative ``fn_grad`` at the codes are read
    from ``q``'s grid tables, bit for bit, unless a code indexes none (under ``smooth``, or a NaN)."""
    ctx, grid, slope = QuantizeContext(*quantize_codes(x.data, q, smooth), q.code_max), q.grid(), None
    if fn is not None and not smooth and not np.isnan(np.maximum.reduce(ctx.codes, None, initial=0.0)):
        i = ctx.codes.astype(np.intp)
        value, slope = grid.table(fn).take(i, mode="clip"), grid.table(fn_grad).take(i, mode="clip")
    else:
        value = grid.decode(ctx.codes)
        if fn is not None:
            value, slope = fn(value), fn_grad(value)
    alpha, beta = q.alpha, q.beta

    def vjp(g, accumulate):
        gx, ga, gb = ste_backward(g if slope is None else g * slope, ctx, alpha.trainable, beta.trainable)
        accumulate(x, gx)
        if ga is not None:
            accumulate(alpha, np.asarray(ga))
        if gb is not None:
            accumulate(beta, np.asarray(gb))

    result = nm.Tensor(value)
    nm.record_op(result, vjp)
    return result
