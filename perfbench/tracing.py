"""Span tracing of spikescan's layers, installed from outside the package.

``install`` wraps the names the package's callers actually look up:

* every primitive of ``numerics`` (callers reach them as ``nm.<name>``) and
  ``numerics.backward``;
* ``numerics.record_op``, so each backward closure is timed under the
  primitive that recorded it (the innermost open span at record time);
* the names ``ssm`` imported from ``quantize``, ``activations`` and ``spike``,
  plus its own ``block_forward_ann``, ``block_forward_snn`` and
  ``pow2_round_ste``;
* ``activations``' numpy functions, which the taped wrappers pass to
  ``nm.unary``;
* ``Adam.step``, ``ForecastModel.clamp_steps`` and ``train._eval_loss``.

Inside the spiking forward, layer time comes from ``TimingCounters``, the
object passed as ``counters=``: each tally call closes an interval that
started at the previous one.  An ``add`` carrying only ``cmp`` closes a site
encode, which keeps encode time apart from layer time even where a site and
a layer share a tag (``block0.conv``).

Spans (name, start, end, parent, op id) stay in memory until ``save``.  A
span's self time is its duration minus the time its children cover; it is
aggregated per name as spans close.  ``Patches.restore`` puts every wrapped
name back.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from spikescan import activations, numerics, ssm
from spikescan.energy import OpCounters

# ``spikescan.train`` the attribute is the function; this is the module.
train_mod = importlib.import_module("spikescan.train")

PRIMITIVES = ("add", "sub", "mul", "neg", "scale", "unary", "exp", "linear",
              "depthwise_conv1d", "rmsnorm", "split_last", "permute", "reshape",
              "take_axis1", "stack_axis1", "sum_axis", "sum_all", "mean_all", "mse")
SSM_IMPORTS = {"quantize": "quantize", "quantize_with_context": "quantize",
               "pow2_silu": "activations", "pow2_softplus": "activations",
               "pow2_silu_t": "activations", "pow2_softplus_t": "activations",
               "pow2_shift": "spike.pow2_shift"}
ACTIVATION_FNS = ("pow2_softplus", "pow2_softplus_grad", "pow2_silu", "pow2_silu_grad")


class _Open:
    __slots__ = ("id", "name", "start", "child", "mark_t", "mark_child", "mark_row", "intervals")

    def __init__(self, span_id: int, name: str, start: float, row: int):
        self.id, self.name, self.start = span_id, name, start
        self.child = 0.0
        self.mark_t, self.mark_child, self.mark_row = start, 0.0, row
        self.intervals = False


class Tracer:
    """In-memory span recorder with self-time totals per span name."""

    def __init__(self):
        self.clock = time.perf_counter
        self.rows: list[tuple] = []  # (span id, name, start, end, parent id, op id)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)  # work counted at span boundaries
        self.op = -1
        self._stack: list[_Open] = []
        self._next = 0

    def open(self, name: str) -> None:
        self._stack.append(_Open(self._next, name, self.clock(), len(self.rows)))
        self._next += 1

    def close(self) -> None:
        end = self.clock()
        s = self._stack.pop()
        dur = end - s.start
        self.self_s[s.name] += dur - s.child
        self.incl_s[s.name] += dur
        self.calls[s.name] += 1
        parent = self._stack[-1] if self._stack else None
        self.rows.append((s.id, s.name, s.start, end, parent.id if parent else -1, self.op))
        if parent is not None:
            parent.child += dur
            if s.intervals:  # the caller's next interval starts where this span ended
                self._mark(parent, end)

    def current(self) -> str | None:
        return self._stack[-1].name if self._stack else None

    def interval(self, name: str) -> None:
        """Close a span covering [last mark, now] inside the innermost open span.

        Spans that closed in that stretch become its children.
        """
        now = self.clock()
        top = self._stack[-1]
        dur = now - top.mark_t
        inner = top.child - top.mark_child
        span_id = self._next
        self._next += 1
        for i in range(top.mark_row, len(self.rows)):
            row = self.rows[i]
            if row[4] == top.id:
                self.rows[i] = row[:4] + (span_id,) + row[5:]
        self.rows.append((span_id, name, top.mark_t, now, top.id, self.op))
        self.self_s[name] += dur - inner
        self.incl_s[name] += dur
        self.calls[name] += 1
        top.child = top.mark_child + dur
        top.intervals = True
        self._mark(top, now)

    def mark(self) -> None:
        """Start the next interval of the innermost open span now."""
        self._mark(self._stack[-1], self.clock())

    def _mark(self, s: _Open, t: float) -> None:
        s.mark_t, s.mark_child, s.mark_row = t, s.child, len(self.rows)

    def save(self, path: Path) -> None:
        names = sorted({r[1] for r in self.rows})
        index = {n: i for i, n in enumerate(names)}
        rows = sorted(self.rows)
        np.savez_compressed(
            path, names=np.asarray(names),
            id=np.asarray([r[0] for r in rows], dtype=np.int64),
            name=np.asarray([index[r[1]] for r in rows], dtype=np.int32),
            start=np.asarray([r[2] for r in rows]), end=np.asarray([r[3] for r in rows]),
            parent=np.asarray([r[4] for r in rows], dtype=np.int64),
            op=np.asarray([r[5] for r in rows], dtype=np.int64))


class TimingCounters(OpCounters):
    """``counters=`` hook that times the spiking forward between its tally calls.

    With ``count`` set it also tallies ops as ``OpCounters`` does (the energy
    profile needs them); that work is timed as ``energy.hook``.  Encode slots
    (neurons x T, which is the ``cmp`` tally) are counted in the tracer.
    """

    def __init__(self, tracer: Tracer, count: bool):
        super().__init__()
        self.tracer, self.count = tracer, count

    def add(self, layer: str, **kinds) -> None:
        tr = self.tracer
        if kinds.keys() == {"cmp"}:
            tr.interval("spike.encode")
            tr.counts["spike.encode_slots"] += kinds["cmp"]
        else:
            tr.interval("ssm.snn." + layer.rsplit(".", 1)[-1])
        if self.count:
            tr.open("energy.hook")
            super().add(layer, **kinds)
            tr.close()
        tr.mark()

    def record_site(self, site: str, counts: np.ndarray, T: int) -> None:
        tr = self.tracer
        if self.count:
            tr.open("energy.hook")
            super().record_site(site, counts, T)
            tr.close()
        tr.mark()


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._saved: list[tuple[object, str, object, bool]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr), attr in vars(owner)))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, make) -> None:
        self.set(owner, attr, make(getattr(owner, attr)))

    def restore(self) -> list[str]:
        """Undo every replacement; returns the names that did not come back."""
        for owner, attr, orig, own in reversed(self._saved):
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
        left = [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, orig, own in self._saved
                if getattr(owner, attr) is not orig or (attr in vars(owner)) != own]
        self._saved.clear()
        return left


def _spanned(tracer: Tracer, name: str):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close()
        return wrapper
    return make


def install(tracer: Tracer) -> Patches:
    """Wrap every traced entry point; the caller must ``restore`` the result."""
    p = Patches()
    for prim in PRIMITIVES:
        p.wrap(numerics, prim, _spanned(tracer, f"numerics.{prim}"))
    p.wrap(numerics, "backward", _spanned(tracer, "numerics.backward"))

    def make_record(orig):
        @functools.wraps(orig)
        def record_op(out, vjp):
            if numerics.active_tape() is None:
                return orig(out, vjp)
            tracer.counts["numerics.tape_records"] += 1
            name = f"{tracer.current()}.vjp"

            def timed(g, accumulate):
                tracer.open(name)
                try:
                    vjp(g, accumulate)
                finally:
                    tracer.close()
            return orig(out, timed)
        return record_op

    p.wrap(numerics, "record_op", make_record)
    for attr, group in SSM_IMPORTS.items():
        p.wrap(ssm, attr, _spanned(tracer, group))
    for attr in ("block_forward_ann", "block_forward_snn", "pow2_round_ste"):
        p.wrap(ssm, attr, _spanned(tracer, f"ssm.{attr}"))
    for attr in ACTIVATION_FNS:
        p.wrap(activations, attr, _spanned(tracer, "activations"))
    p.wrap(train_mod.Adam, "step", _spanned(tracer, "train.adam"))
    p.wrap(ssm.ForecastModel, "clamp_steps", _spanned(tracer, "train.clamp"))
    p.wrap(train_mod, "_eval_loss", _spanned(tracer, "train.val_eval"))
    return p
