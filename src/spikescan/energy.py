"""Synaptic-operation accounting and energy estimation.

Counting conventions, chosen so the spike-count identity is exact:

* ``acc``       spike-driven accumulates; on every spiking linear this equals
                (total input spikes) x fan-out, by construction.
* ``acc_bias``  bias and decode-offset additions, one per output neuron per
                pass.  Priced as accumulates but tallied apart so the acc
                identity above is checkable.
* ``mac``       multiply-accumulates on paths that stay in real arithmetic
                (rmsnorm, input/output projections, scan coefficient
                products, the head).
* ``shift``     bit shifts: one per surviving state spike when the power-of
                -two decay applies, one per power-of-two activation eval.
* ``cmp``       threshold comparisons, T per neuron per encode.

No absolute energy constants ship with the package; an EnergyTable must be
supplied explicitly (typically from a config file), and reported totals are
exactly linear in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .fields import NONNEGATIVE, check_fields, field_types
from .ssm import ForecastModel, ModelConfig

try:  # numpy >= 2; the C function, without ``np.count_nonzero``'s Python dispatcher
    from numpy._core.multiarray import count_nonzero as _count_nonzero
except ImportError:  # numpy 1.x
    from numpy.core.multiarray import count_nonzero as _count_nonzero

KINDS = ("acc", "acc_bias", "mac", "shift", "cmp")


class OpCounters:
    """Per-layer op tallies, filled in by the spiking forward pass."""

    def __init__(self):
        self.layers: dict[str, dict[str, int]] = {}
        self.sites: dict[str, dict[str, int]] = {}
        self.windows = 0  # windows profiled so far; an error names a window by its place in the run

    def add(self, layer: str, **kinds: int) -> None:
        row = self.layers.get(layer)
        if row is None:  # inserted before its kinds are checked, as a new layer always was
            row = self.layers[layer] = dict.fromkeys(KINDS, 0)
        for kind, v in kinds.items():
            if kind not in KINDS:
                raise ValueError(f"unknown op kind {kind!r} (expected one of {KINDS})")
            if v < 0:
                raise ValueError(f"op count must be nonnegative, got {kind}={v}")
            row[kind] += int(v)

    def record_site(self, site: str, counts: np.ndarray, T: int) -> int:
        """Tally a site's spikes, its neurons and ``mid``, the neurons whose
        count lies strictly between 0 and T (a site with none is saturated);
        returns the spikes of ``counts``, whose first axis is the window.  Every count lies in
        [0, T] (a site's codes never pass its window, which threshold scaling only shortens), so
        ``mid`` is the nonzero counts less those at T.  The sum and both counts are C calls, which
        make no Python-level call on the batch-1 forward's path."""
        try:
            spikes = int(np.add.reduce(counts, None))
        except ValueError:  # NaN counts: a window overflowed upstream of this site
            w = self.windows + int(np.isnan(counts.reshape(len(counts), -1)).any(axis=1).argmax())
            raise ValueError(f"spike site {site}: window {w} has NaN spike counts "
                             "(its values overflowed before the site)") from None
        rec = self.sites.setdefault(site, {"spikes": 0, "neurons": 0, "mid": 0, "T": int(T)})
        rec["spikes"] += spikes
        rec["neurons"] += int(counts.size)
        # each count a boolean first: count_nonzero walks booleans several times as fast as float64s
        rec["mid"] += int(_count_nonzero(counts != 0) - _count_nonzero(counts == T))
        rec["T"] = int(T)
        return spikes

    def total(self, kind: str) -> int:
        return sum(row[kind] for row in self.layers.values())

    def totals(self) -> dict[str, int]:
        return {k: self.total(k) for k in KINDS}

    def spike_rate(self, site: str) -> float:
        rec = self.sites[site]
        slots = rec["neurons"] * rec["T"]
        return rec["spikes"] / slots if slots else 0.0

    def spike_rates(self) -> dict[str, float]:
        return {s: self.spike_rate(s) for s in self.sites}

    def total_spikes(self) -> int:
        return sum(rec["spikes"] for rec in self.sites.values())


@dataclass(frozen=True)
class EnergyTable:
    """Per-op energy in joules. All entries are user-supplied; none default."""

    e_acc: float
    e_mac: float
    e_shift: float
    e_cmp: float

    def __post_init__(self):
        check_fields(self, "energy table entry ", e_acc=NONNEGATIVE, e_mac=NONNEGATIVE, e_shift=NONNEGATIVE,
                     e_cmp=NONNEGATIVE)

    @classmethod
    def from_config(cls, cfg: Mapping[str, object]) -> "EnergyTable":
        missing = [k for k in field_types(cls) if k not in cfg]
        if missing:
            raise ValueError("energy table is missing entries: " + ", ".join(missing)
                             + " (per-op joules must be supplied, none are built in)")
        return cls(**{k: cfg[k] for k in field_types(cls)})

    def cost(self, row: Mapping[str, int]) -> float:
        return ((row["acc"] + row["acc_bias"]) * self.e_acc
                + row["mac"] * self.e_mac
                + row["shift"] * self.e_shift
                + row["cmp"] * self.e_cmp)


@dataclass
class EnergyReport:
    total_joules: float
    per_layer: dict[str, float]
    spike_rates: dict[str, float]
    T: int
    op_totals: dict[str, int]

    def to_text(self) -> str:
        lines = [f"total energy: {self.total_joules:.6e} J   (T = {self.T})",
                 "", "per-layer energy (J):"]
        width = max((len(n) for n in self.per_layer), default=0)
        for name in sorted(self.per_layer):
            lines.append(f"  {name:<{width}}  {self.per_layer[name]:.6e}")
        lines.append("")
        lines.append("op totals: " + "  ".join(f"{k}={self.op_totals[k]}" for k in KINDS))
        lines.append("")
        lines.append("spike rates (spikes / neuron-slot):")
        swidth = max((len(n) for n in self.spike_rates), default=0)
        for name in sorted(self.spike_rates):
            lines.append(f"  {name:<{swidth}}  {self.spike_rates[name]:.4f}")
        return "\n".join(lines)

    def to_kv(self) -> dict[str, float]:
        kv: dict[str, float] = {"total_joules": self.total_joules, "T": float(self.T)}
        for k in KINDS:
            kv[f"ops.{k}"] = float(self.op_totals[k])
        for name, e in self.per_layer.items():
            kv[f"layer.{name}"] = e
        for name, r in self.spike_rates.items():
            kv[f"rate.{name}"] = r
        return kv


def profile(model: ForecastModel, x: np.ndarray, table: EnergyTable,
            counters: OpCounters | None = None) -> EnergyReport:
    """Run spiking inference with op counting and price it with ``table``.

    Pass ``counters`` to keep the raw tallies.  The report prices every tally
    ``counters`` holds, so one ``OpCounters`` passed to several calls sums
    their batches.
    """
    if model.mode != "snn":
        raise RuntimeError("energy profiling requires a converted (snn-mode) model")
    ct = counters if counters is not None else OpCounters()
    model.forward(x, counters=ct)
    ct.windows += len(x)
    per_layer = {layer: table.cost(row) for layer, row in ct.layers.items()}
    return EnergyReport(
        total_joules=sum(per_layer.values()),
        per_layer=per_layer,
        spike_rates=ct.spike_rates(),
        T=2 ** model.cfg.bits - 1,
        op_totals=ct.totals(),
    )


def ann_op_counts(cfg: ModelConfig, batch: int) -> OpCounters:
    """Analytic op counts of the real-arithmetic forward on a [batch, L, d] input.

    Mirrors the spiking pass layer by layer: every spike-driven accumulate
    becomes a multiply-accumulate, the power-of-two decay becomes one
    multiply per state element, and encodes vanish.  Bias additions stay
    bias additions.  Counts depend only on shapes.
    """
    B, L = batch, cfg.history
    dv, dh, n, r, K = cfg.d_value, cfg.d_hidden, cfg.state_size, cfg.delta_rank, cfg.conv_kernel
    ct = OpCounters()
    for i in range(cfg.blocks):
        tag = f"block{i}"
        ct.add(f"{tag}.rmsnorm", mac=2 * B * L * dv)
        ct.add(f"{tag}.in_proj", mac=B * L * dv * 2 * dh)
        ct.add(f"{tag}.conv", mac=B * L * dh * K)
        ct.add(f"{tag}.proj", mac=B * L * dh * (r + 2 * n), acc_bias=B * L * (r + 2 * n))
        ct.add(f"{tag}.delta_proj", mac=B * L * r * dh, acc_bias=2 * B * L * dh,
               shift=B * L * dh)
        # per step: step*A, decay*h, step*B, B*u, h*C each dh*n products, D*u dh
        ct.add(f"{tag}.scan", mac=B * L * (5 * dh * n + dh))
        ct.add(f"{tag}.gate", shift=B * L * dh, acc_bias=B * L * dh, mac=B * L * dh)
        ct.add(f"{tag}.out_proj", mac=B * L * dh * dv, acc_bias=B * L * dv)
    ct.add("head", mac=B * dv * cfg.history * cfg.horizon, acc_bias=B * cfg.horizon * dv)
    return ct


@dataclass
class EnergyComparison:
    ann_joules: float
    snn_joules: float
    ratio: float
    reduction_pct: float
    ann_ops: dict[str, int]
    snn_ops: dict[str, int]

    def to_text(self) -> str:
        return "\n".join([
            f"dense-path energy:   {self.ann_joules:.6e} J",
            f"spiking-path energy: {self.snn_joules:.6e} J",
            f"ratio (snn/ann):     {self.ratio:.6f}",
            f"reduction:           {self.reduction_pct:.2f}%",
        ])


def compare_ann_energy(report: EnergyReport, cfg: ModelConfig, batch: int,
                       table: EnergyTable) -> EnergyComparison:
    """Weigh a spiking ``profile`` report against the dense forward under one table.

    The dense side is the analytic MAC count of the same architecture on
    ``batch`` windows; the spiking side is ``report``, priced with ``table``
    by ``profile``.  Runs no forward.  A table under which the dense path costs 0 J is refused.
    """
    ann_ct = ann_op_counts(cfg, batch)
    ann_j = sum(table.cost(row) for row in ann_ct.layers.values())
    if ann_j == 0:
        raise ValueError("the dense path costs 0 J under this table, so the ratio (snn/ann) is undefined")
    ratio = report.total_joules / ann_j
    return EnergyComparison(
        ann_joules=ann_j,
        snn_joules=report.total_joules,
        ratio=ratio,
        reduction_pct=(1.0 - ratio) * 100.0,
        ann_ops=ann_ct.totals(),
        snn_ops=report.op_totals,
    )
