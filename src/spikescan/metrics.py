"""Relative accuracy metrics, computed globally over all tensor elements."""

from __future__ import annotations

import math

import numpy as np


def _sums(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[float, float]:
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: targets {y_true.shape} vs predictions {y_pred.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        ss_res = float(np.sum((y_true - y_pred) ** 2))
        ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
    if not (math.isfinite(ss_res) and math.isfinite(ss_tot)):
        raise ValueError("sums of squares are not finite; relative metrics are undefined")
    if ss_tot == 0.0:
        raise ValueError("targets are constant; relative metrics are undefined")
    return ss_res, ss_tot


def r2(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot, over all elements."""
    ss_res, ss_tot = _sums(y_true, y_pred)
    return 1.0 - ss_res / ss_tot


def rrse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Root relative squared error, sqrt(SS_res / SS_tot); equals sqrt(1 - r2)."""
    ss_res, ss_tot = _sums(y_true, y_pred)
    return math.sqrt(ss_res / ss_tot)
