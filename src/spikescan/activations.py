"""Power-of-two piecewise activations and their deviation certificates.

``pow2_softplus`` and ``pow2_silu`` replace softplus/SiLU with branches built
from 2**x so that fixed-point hardware can evaluate them with shifts and adds.
Branch constants are derived here from their closed forms (never hard-coded
decimals) by solving for continuity at the breakpoint:

* softplus variant: below ``SOFTPLUS_CUT`` use 2**x, above use x + shift.
  The cut is where d/dx 2**x == 1, i.e. x = log2(1/ln 2).
* SiLU variant: below ``SILU_CUT`` use -(2**x), above use 2**(-x-1) + x + shift.
  The cut is where the two branch derivatives agree.

Both approximations stay within certified uniform bounds of the smooth
reference functions (``DEVIATION_BOUNDS``); ``verify_deviation_bounds``
re-checks them on a dense grid and returns the empirical maxima and their
locations.
"""

from __future__ import annotations

import math

import numpy as np

from . import numerics as nm

LN2 = math.log(2.0)

# Continuity/derivative-matching constants, from closed forms.
SOFTPLUS_CUT = math.log2(1.0 / LN2)
SOFTPLUS_SHIFT = 1.0 / LN2 - SOFTPLUS_CUT

_SILU_ROOT = math.sqrt(1.0 + 2.0 * LN2 * LN2)
SILU_CUT = math.log2((_SILU_ROOT - 1.0) / (2.0 * LN2))
SILU_SHIFT = -_SILU_ROOT / LN2 - SILU_CUT

# 0-d twins of the constants the forward's activations pass to numpy (``numerics.operand``)
_SOFTPLUS_CUT, _SOFTPLUS_SHIFT = nm.operand(SOFTPLUS_CUT), nm.operand(SOFTPLUS_SHIFT)
_SILU_CUT, _SILU_SHIFT, _MINUS_ONE = nm.operand(SILU_CUT), nm.operand(SILU_SHIFT), nm.operand(-1.0)

# Certified uniform deviation bounds against the smooth references.
SOFTPLUS_VALUE_BOUND = 0.914
SOFTPLUS_GRAD_BOUND = 0.371
SILU_VALUE_BOUND = 0.316
SILU_GRAD_BOUND = 0.263
# the bound each row of ``verify_deviation_bounds`` is held to
DEVIATION_BOUNDS = {
    "softplus_value": SOFTPLUS_VALUE_BOUND,
    "softplus_grad": SOFTPLUS_GRAD_BOUND,
    "silu_value": SILU_VALUE_BOUND,
    "silu_grad": SILU_GRAD_BOUND,
}


# --- smooth references ------------------------------------------------------


def softplus(x):
    return np.logaddexp(0.0, np.asarray(x, dtype=np.float64))


def softplus_grad(x):
    return _sigmoid(x)


def silu(x):
    x = np.asarray(x, dtype=np.float64)
    return x * _sigmoid(x)


def silu_grad(x):
    x = np.asarray(x, dtype=np.float64)
    s = _sigmoid(x)
    return s * (1.0 + x * (1.0 - s))


def _sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# --- power-of-two approximations --------------------------------------------


def pow2_softplus(x):
    """Piecewise softplus: 2**x below the cut, x + shift above (continuous)."""
    x = np.asanyarray(x, dtype=np.float64)
    return np.where(np.less(x, _SOFTPLUS_CUT), np.exp2(x), np.add(x, _SOFTPLUS_SHIFT))


def pow2_softplus_grad(x):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x < SOFTPLUS_CUT, LN2 * np.exp2(x), 1.0)


def pow2_silu(x):
    """Piecewise SiLU: -(2**x) below the cut, 2**(-x-1) + x + shift above."""
    x = np.asanyarray(x, dtype=np.float64)
    # -1 - x rounds as -x - 1 does, and keeps a NaN's sign: negating one would flip it, and the add of
    # the two NaNs would keep either sign, by the entry's place in numpy's vector loop
    upper = np.add(np.add(np.exp2(np.subtract(_MINUS_ONE, x)), x), _SILU_SHIFT)
    return np.where(np.less(x, _SILU_CUT), np.negative(np.exp2(x)), upper)


def pow2_silu_grad(x):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x < SILU_CUT, -LN2 * np.exp2(x), 1.0 - LN2 * np.exp2(-x - 1.0))


# --- taped variants ---------------------------------------------------------


def pow2_softplus_t(x: nm.Tensor) -> nm.Tensor:
    return nm.unary(x, pow2_softplus, pow2_softplus_grad)


def pow2_silu_t(x: nm.Tensor) -> nm.Tensor:
    return nm.unary(x, pow2_silu, pow2_silu_grad)


# --- deviation verification --------------------------------------------------


def branch_continuity_gaps() -> dict[str, float]:
    """Branch disagreement of each approximation at its cut, value and slope.

    Evaluates both branches exactly at the breakpoint; the constants are
    closed-form continuity solutions so every gap is float rounding only.
    """
    c = SOFTPLUS_CUT
    gaps = {
        "softplus_value": abs(float(np.exp2(c)) - (c + SOFTPLUS_SHIFT)),
        "softplus_grad": abs(LN2 * float(np.exp2(c)) - 1.0),
    }
    c = SILU_CUT
    gaps["silu_value"] = abs(-float(np.exp2(c)) - (float(np.exp2(-c - 1.0)) + c + SILU_SHIFT))
    gaps["silu_grad"] = abs(-LN2 * float(np.exp2(c)) - (1.0 - LN2 * float(np.exp2(-c - 1.0))))
    return gaps


def grid_points(lo: float, hi: float, step: float) -> np.ndarray:
    """Inclusive uniform grid from lo to hi."""
    if hi <= lo or step <= 0:
        raise ValueError(f"grid_points: bad grid [{lo}, {hi}] step {step}")
    n = int(round((hi - lo) / step))
    return lo + step * np.arange(n + 1)


def verify_deviation_bounds(lo: float = -10.0, hi: float = 10.0,
                            step: float = 1e-3) -> dict[str, tuple[float, float]]:
    """Max |approx - reference| on the grid and the x attaining it, per row of ``DEVIATION_BOUNDS``."""
    x = grid_points(lo, hi, step)
    table = {}
    for name, approx, ref in (("softplus_value", pow2_softplus, softplus),
                              ("softplus_grad", pow2_softplus_grad, softplus_grad),
                              ("silu_value", pow2_silu, silu),
                              ("silu_grad", pow2_silu_grad, silu_grad)):
        diff = np.abs(approx(x) - ref(x))
        i = int(np.argmax(diff))
        table[name] = (float(diff[i]), float(x[i]))
    return table
