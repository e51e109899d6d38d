"""Benchmark of spikescan: training, batched forecasts and streaming forecasts.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread of work (BLAS and OpenMP pinned to one thread).
The seed only generates the input series; the model is fixed (model seed 0
for ``train``, the committed checkpoint ``fixture/readme_model.ckpt`` for
the forecasts).  Workloads:

  train            README config from a fixed init, calibrated on the first
                   512 windows, then TRAIN_EPOCHS epochs (no early stop),
                   repeated until the time is up.  One operation is one step.
  batch_ann        real-arithmetic forward of all 8192 windows of an unseen
  batch_snn        series in batches of 256, spiking forward, or
  batch_energy     ``energy.profile``, in whole passes until the time is up.
                   One operation is one window.
  stream_forecast  closed loop, one client: spiking forward of one window
                   at a time over the first 512 windows of that series, in
                   whole passes.  One operation is one window.

Timings are scaled to a reference host speed.  On a shared host the speed
of this code swings by up to 2x, within seconds and across minutes, with
what other tenants run.  So a fixed probe kernel that runs no spikescan code
is timed between the timed calls (every step, every batch, every 8 streamed
windows, around each set-up), and each interval is multiplied by
PROBE_REFERENCE_S over the mean of the eight probes around it: a figure is
what the code would take on a host where the probe takes PROBE_REFERENCE_S.
The raw figures and the probe times are kept in the record.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.  With
``--trace 1`` the run alternates untraced and traced passes (training
repetitions on ``train``), checks both give identical outputs, and reports
per-layer metrics (see ``tracing``).

Every operation is checked once, in a checked pass outside the timed calls,
and counted as failed, not aborted on: a forecast window fails if its
forecast is not finite or the spiking and real-arithmetic forecasts differ
by more than 1e-9; an ``energy.profile`` call also fails its windows if
accumulates differ from spikes x fan-out or joules are not linear in the
energy table; a training step fails on a non-finite loss.  ``attempted``
and ``failed`` count the operations of that pass (the first training on
``train``), so they depend on the seed only, not on how many repetitions
fit in the time.  Every timed repetition must reproduce the checked pass
bit for bit, or the run is not ``correct``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import common
from common import FIXTURE, FIXTURE_SHA256, HERE, HISTORY, HORIZON, ROOT, TRAIN_KW, train_splits

import numpy as np

from spikescan import energy, numerics, ssm
from spikescan.dataset import load_csv, make_coupled_sinusoids, make_windows, write_csv
from spikescan.energy import KINDS, EnergyTable, OpCounters
from spikescan.train import TrainConfig, convert_to_snn, load_checkpoint, train

import tracing

train_mod = importlib.import_module("spikescan.train")  # the package attribute is the function

WORKLOADS = ("train", "batch_ann", "batch_snn", "batch_energy", "stream_forecast")
TRAIN_EPOCHS = 3
SETUP_REPS = 5  # before timing; one more per training repetition or pass follows
BATCH = 256
FORECAST_WINDOWS = 32 * BATCH  # one batch pass
STREAM_WINDOWS = 512  # one stream pass: the first windows of the same series
PROBE_EVERY = {"batch": 1, "window": 8}  # timed calls between probes; every step on train
PROBE_REFERENCE_S = 3.0e-4  # probe time on a quiet 2-vCPU Xeon at 2.1 GHz
TOL = 1e-9
ENERGY_REL_TOL = 1e-12
# README per-op costs, and a second table for the linearity check.
TABLE_A = EnergyTable(e_acc=0.9e-12, e_mac=4.6e-12, e_shift=0.15e-12, e_cmp=0.1e-12)
TABLE_B = EnergyTable(e_acc=1.3e-12, e_mac=2.2e-12, e_shift=0.4e-12, e_cmp=0.07e-12)
TABLE_AB = EnergyTable(e_acc=TABLE_A.e_acc + TABLE_B.e_acc, e_mac=TABLE_A.e_mac + TABLE_B.e_mac,
                       e_shift=TABLE_A.e_shift + TABLE_B.e_shift, e_cmp=TABLE_A.e_cmp + TABLE_B.e_cmp)

END_TO_END = {
    "windows_per_s": "windows/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "quality_mse": "mse",
}
FWD_PRIMS = ("take_axis1", "stack_axis1", "mul", "add", "reshape", "sum_axis", "linear",
             "split_last", "rmsnorm", "depthwise_conv1d", "permute", "exp", "mse", "neg", "unary")
SNN_TAGS = ("rmsnorm", "in_proj", "conv", "proj", "delta_proj", "scan", "gate", "out_proj", "head")
PER_LAYER = {
    "numerics.tape_records_per_step": "count",
    "numerics.backward_ms_per_step": "ms",
    **{f"numerics.vjp_ms.{p}": "ms" for p in FWD_PRIMS},
    **{f"numerics.fwd_ms.{p}": "ms" for p in FWD_PRIMS},
    "ssm.forward_taped_ms_per_step": "ms",
    "ssm.pow2_round_ste_ms": "ms",
    **{f"ssm.snn.{t}_ms": "ms" for t in SNN_TAGS},
    "spike.encode_ms": "ms",
    "spike.encode_calls": "count",
    "spike.encode_slots": "count",
    "spike.pow2_shift_ms": "ms",
    "quantize.ms": "ms",
    "quantize.calls": "count",
    "quantize.vjp_ms": "ms",
    "activations.ms": "ms",
    "energy.hook_ms": "ms",
    "energy.hook_calls": "count",
    **{f"energy.ops.{k}": "count" for k in KINDS},
    "energy.spikes": "count",
    "train.adam_ms_per_step": "ms",
    "train.clamp_ms_per_step": "ms",
    "train.val_eval_ms_per_epoch": "ms",
    "train.calibrate_s": "s",
    "train.checkpoint_load_ms": "ms",
    "train.convert_ms": "ms",
    "dataset.load_csv_ms": "ms",
    "dataset.make_windows_ms": "ms",
    "trace.overhead_pct": "%",
    "host.probe_ms": "ms",
}

clock = time.perf_counter


class BenchError(Exception):
    """The benchmark cannot run: missing or altered inputs."""


def probe() -> float:
    """Host speed now: seconds for a fixed kernel that runs no spikescan code.

    An interpreter loop over small-array numpy calls, the mix the workloads
    spend their time in.
    """
    a = np.arange(64.0)
    t0 = clock()
    s = 0.0
    for i in range(100):
        s += float((a * 1.0001 + i).sum())
    return clock() - t0


class Measured:
    """What a run timed, interleaved with probes, and what its checks found.

    ``intervals`` cover all the timed time (windows consumed in each), and
    ``op_lat`` the operations whose latency is reported; each entry keeps
    the index of the probe taken just before it.
    """

    def __init__(self):
        self.probes: list[float] = []
        self.intervals: list[tuple[float, int, int]] = []  # seconds, windows, probe index
        self.op_lat: list[tuple[float, int]] = []  # seconds, probe index
        self.calls: list[tuple[int, int]] = []  # intervals of each measure() call
        self.outputs: list = []  # per-call outputs, for the traced/untraced comparison
        self.problems: list[str] = []

    def probe(self) -> None:
        self.probes.append(probe())

    def interval(self, seconds: float, windows: int) -> None:
        self.intervals.append((seconds, windows, len(self.probes) - 1))

    def op(self, seconds: float) -> None:
        self.op_lat.append((seconds, len(self.probes) - 1))

    def scale(self, scaled: bool = True) -> np.ndarray:
        """Factor for an interval after probe j: reference over the mean of probes j-3..j+4.

        Eight probes, about 0.1 s of the run, smooth out the jitter of one.
        """
        p = np.asarray(self.probes)
        if not scaled:
            return np.ones(len(p))
        near = [p[max(0, j - 3):j + 5].mean() for j in range(len(p))]
        return PROBE_REFERENCE_S / np.asarray(near)

    def timings(self, scaled: bool = True) -> dict[str, float]:
        f = self.scale(scaled)
        busy = sum(s * f[j] for s, _, j in self.intervals)
        lat = np.asarray([s * f[j] for s, j in self.op_lat])
        return {"windows_per_s": sum(w for _, w, _ in self.intervals) / busy,
                "latency_ms_p50": 1000.0 * float(np.percentile(lat, 50)),
                "latency_ms_p90": 1000.0 * float(np.percentile(lat, 90))}

    def call_busy(self) -> list[float]:
        f = self.scale()
        return [sum(s * f[j] for s, _, j in self.intervals[lo:hi]) for lo, hi in self.calls]


def timed_setup(fn):
    """Run ``fn`` between two probes; returns its result and the scaled factor."""
    before = probe()
    t0 = clock()
    out = fn()
    dt = clock() - t0
    return out, dt, PROBE_REFERENCE_S / ((before + probe()) / 2)


# --- train ---------------------------------------------------------------------------


class StepClock:
    """Per-step timing, probes and loss checks from outside ``train``.

    A step runs from opening its gradient tape to the end of
    ``clamp_steps``; its loss is the ``mse`` recorded on that tape.  The
    time between two probes (a step with the loop code before it, or an
    epoch's validation pass) is one interval.
    """

    def __init__(self, m: Measured, tracer: tracing.Tracer | None, per_epoch: int):
        self.m, self.tracer, self.per_epoch = m, tracer, per_epoch
        self.steps = 0
        self.bad_losses = 0
        self._start = self.mark = 0.0

    def close_interval(self, windows: int) -> None:
        """End the open interval now, probe, and start the next one."""
        self.m.interval(clock() - self.mark, windows)
        self.m.probe()
        self.mark = clock()

    def install(self) -> tracing.Patches:
        p = tracing.Patches()
        sc = self
        base = numerics.GradTape

        class StepTape(base):
            def __enter__(self):
                sc._start = clock()
                if sc.tracer is not None:
                    sc.tracer.op += 1
                return super().__enter__()

        def wrap_mse(orig):
            def mse(pred, target):
                out = orig(pred, target)
                if not np.isfinite(out.data):
                    sc.bad_losses += 1
                return out
            return mse

        def wrap_clamp(orig):
            def clamp_steps(model):
                orig(model)
                sc.m.op(clock() - sc._start)
                sc.steps += 1
                sc.close_interval(0)
            return clamp_steps

        def wrap_eval(orig):
            def eval_loss(*args, **kwargs):
                out = orig(*args, **kwargs)
                sc.close_interval(sc.per_epoch)
                return out
            return eval_loss

        p.set(numerics, "GradTape", StepTape)
        p.wrap(numerics, "mse", wrap_mse)
        p.wrap(ssm.ForecastModel, "clamp_steps", wrap_clamp)
        p.wrap(train_mod, "_eval_loss", wrap_eval)
        return p


class TrainWorkload:
    def __init__(self, seed: int):
        self.sp = train_splits(seed)
        self.setup_s: list[float] = []
        self.calibrate_s: list[float] = []
        self.val_mse: float | None = None
        self.attempted = self.failed = None  # steps and bad losses of the first training

    def setup(self):
        def build():
            model = ssm.ForecastModel.build(common.model_config(), seed=common.MODEL_SEED)
            t1 = clock()
            model.calibrate(self.sp.x_train[:common.CALIBRATION_WINDOWS])
            return model, clock() - t1
        (model, calibrate), dt, f = timed_setup(build)
        self.setup_s.append(dt * f)
        self.calibrate_s.append(calibrate * f)
        return model

    def _train(self, model, epochs: int):
        sp = self.sp
        return train(model, sp.x_train, sp.y_train, sp.x_val, sp.y_val,
                     TrainConfig(max_epochs=epochs, patience=epochs, **TRAIN_KW))

    def prepare(self) -> None:
        for _ in range(SETUP_REPS):
            model = self.setup()
        self._train(model, 1)  # warm-up, discarded

    def measure(self, m: Measured, deadline: float, tracer: tracing.Tracer | None = None,
                once: bool = False) -> None:
        """Train from a fresh init repeatedly until ``deadline`` (once with ``once``)."""
        sp = self.sp
        while True:
            model = self.setup()
            sc = StepClock(m, tracer, sp.x_train.shape[0] + sp.x_val.shape[0])
            patches = [] if tracer is None else [tracing.install(tracer)]
            patches.append(sc.install())  # outermost, so the probes stay out of the traced spans
            if tracer is not None:
                tracer.open("train.train")
            lo = len(m.intervals)
            try:
                m.probe()
                sc.mark = clock()
                res = self._train(model, TRAIN_EPOCHS)
                sc.close_interval(0)  # restoring the best parameters
            finally:
                if tracer is not None:
                    tracer.close()
                for patch in reversed(patches):
                    m.problems += [f"{name} is still wrapped" for name in patch.restore()]
            m.calls.append((lo, len(m.intervals)))
            m.outputs.append(res.val_losses)
            if self.attempted is None:
                self.attempted, self.failed = sc.steps, sc.bad_losses
            elif (sc.steps, sc.bad_losses) != (self.attempted, self.failed):
                m.problems.append(f"a training repetition ran {sc.steps} steps with {sc.bad_losses} bad "
                                  f"losses, the first {self.attempted} with {self.failed}")
            if res.epochs_run != TRAIN_EPOCHS:
                m.problems.append(f"training stopped after {res.epochs_run} of {TRAIN_EPOCHS} epochs")
            if not res.val_losses[-1] < res.val_losses[0]:
                m.problems.append(f"validation loss did not fall: {res.val_losses}")
            if self.val_mse is None:
                self.val_mse = res.val_losses[-1]
            elif res.val_losses[-1] != self.val_mse:
                m.problems.append("training from the same init gave a different validation loss")
            if once or clock() >= deadline:
                return

    def quality(self) -> float:
        return self.val_mse

    def setup_layers(self) -> dict[str, float]:
        return {"train.calibrate_s": statistics.median(self.calibrate_s)}

    def counts(self) -> dict[str, float]:
        return {}

    def digest(self, m: Measured) -> str:
        return hashlib.sha256(np.asarray(m.outputs[0]).tobytes()).hexdigest()


# --- forecasts -----------------------------------------------------------------------


def forecast_series_seed(seed: int) -> int:
    """Seed of the unseen forecast series, distinct from the fixture's training seed."""
    return int(np.random.SeedSequence([seed, 1]).generate_state(1)[0])


def check_fixture() -> None:
    if not FIXTURE.is_file():
        raise BenchError(f"missing fixture {FIXTURE}")
    digest = hashlib.sha256(FIXTURE.read_bytes()).hexdigest()
    if digest != FIXTURE_SHA256:
        raise BenchError(f"fixture {FIXTURE.name} has sha256 {digest}, expected {FIXTURE_SHA256}")


def acc_identity_holds(model, ct: OpCounters) -> bool:
    """Accumulates equal spikes x fan-out on every spiking linear of every block."""
    cfg = model.cfg
    dh, n, r, K = cfg.d_hidden, cfg.state_size, cfg.delta_rank, cfg.conv_kernel
    for i in range(cfg.blocks):
        sp = {s: ct.sites[f"block{i}.{s}"]["spikes"] for s in ("x_in", "conv", "delta_raw", "h", "y")}
        predicted = (sp["x_in"] * K + sp["conv"] * (r + 2 * n) + sp["conv"] * (n + 1)
                     + sp["delta_raw"] * dh + sp["h"] + sp["y"])
        measured = sum(row["acc"] for layer, row in ct.layers.items() if layer.startswith(f"block{i}."))
        if measured != predicted:
            return False
    return True


def joules_linear(ct: OpCounters, reported: float) -> bool:
    """E(a + b) == E(a) + E(b) to 1e-12 relative, and E(a) is what profile reported."""
    def joules(table):
        return sum(table.cost(row) for row in ct.layers.values())
    ea, eb, eab = joules(TABLE_A), joules(TABLE_B), joules(TABLE_AB)
    return (abs(eab - (ea + eb)) <= ENERGY_REL_TOL * abs(eab)
            and abs(reported - ea) <= ENERGY_REL_TOL * abs(ea))


class ForecastWorkload:
    """Shared set-up of the forecast workloads: checkpoint -> CSV -> windows -> convert."""

    def __init__(self, name: str, seed: int, out_dir: Path):
        self.name = name
        self.unit = "window" if name == "stream_forecast" else "batch"
        check_fixture()
        series = make_coupled_sinusoids(n_steps=FORECAST_WINDOWS + HISTORY + HORIZON - 1,
                                        seed=forecast_series_seed(seed))
        self.csv = out_dir / f"series-seed{seed}.csv"
        write_csv(str(self.csv), series.values, series.columns)
        self.setup_parts: dict[str, list[float]] = {k: [] for k in
                                                   ("checkpoint_load", "load_csv", "make_windows", "convert")}
        self.setup_s: list[float] = []
        self.mismatches = 0  # timed calls whose output differs from the checked pass

    def setup(self):
        def load():
            t = [clock()]
            model, meta = load_checkpoint(str(FIXTURE))
            t.append(clock())
            ds = load_csv(str(self.csv), has_header=True)
            t.append(clock())
            norm = meta["norm"]
            sp = make_windows(ds, model.cfg.history, model.cfg.horizon, (1.0, 0.0, 0.0),
                              stats=(np.asarray(norm["mean"]), np.asarray(norm["std"])))
            t.append(clock())
            convert_to_snn(model)
            t.append(clock())
            return model, sp, np.diff(t)
        (model, sp, parts), dt, f = timed_setup(load)
        for k, v in zip(self.setup_parts, parts):
            self.setup_parts[k].append(v * f)
        self.setup_s.append(dt * f)
        return model, sp

    def predict(self, mode: str) -> np.ndarray:
        self.model.mode = mode
        try:
            return np.concatenate([self.model.forward(self.x[i:i + BATCH]).data
                                   for i in range(0, len(self.x), BATCH)])
        finally:
            self.model.mode = "snn"

    def prepare(self) -> None:
        for _ in range(SETUP_REPS):
            self.model, sp = self.setup()
        self.x, self.y = sp.x_train, sp.y_train
        if len(self.x) != FORECAST_WINDOWS:
            raise BenchError(f"expected {FORECAST_WINDOWS} windows, got {len(self.x)}")
        self.ann_ref = self.predict("ann")
        self.snn_ref = self.predict("snn")
        self.check()

    def check(self) -> None:
        """The checked pass: every operation of one pass, once, outside the timed calls.

        Sets the reference each timed call must reproduce, and ``attempted``
        and ``failed`` for the run.
        """
        n = len(self.x)
        ref = self.snn_ref
        if self.name == "stream_forecast":
            n = STREAM_WINDOWS
            ref = np.concatenate([self.model.forward(self.x[i:i + 1]).data for i in range(n)])
        ann = self.ann_ref[:n]
        ok = (np.isfinite(ref).reshape(n, -1).all(axis=1) & np.isfinite(ann).reshape(n, -1).all(axis=1)
              & (np.abs(ref - ann).reshape(n, -1).max(axis=1) <= TOL))
        self.ref = {"batch_ann": self.ann_ref, "stream_forecast": ref}.get(self.name, self.snn_ref)
        self.ops = {k: 0 for k in KINDS}
        self.spikes = 0
        self.energy_ref = []  # per batch: fingerprint, checks passed
        if self.name == "batch_energy":
            for i in range(0, n, BATCH):
                ct = OpCounters()
                report = energy.profile(self.model, self.x[i:i + BATCH], TABLE_A, counters=ct)
                passed = self.energy_checks_hold((ct, report))
                ok[i:i + BATCH] &= passed
                for k, v in ct.totals().items():
                    self.ops[k] += v
                self.spikes += ct.total_spikes()
                self.energy_ref.append((self._fingerprint((ct, report)), passed))
        self.attempted, self.failed = n, int(n - ok.sum())

    def _call(self, xb: np.ndarray, hook):
        if self.name == "batch_ann":
            self.model.mode = "ann"
            try:
                return self.model.forward(xb).data
            finally:
                self.model.mode = "snn"
        if self.name == "batch_energy":
            ct = hook if hook is not None else OpCounters()
            return ct, energy.profile(self.model, xb, TABLE_A, counters=ct)
        return self.model.forward(xb, counters=hook).data

    def energy_checks_hold(self, out) -> bool:
        ct, report = out
        return acc_identity_holds(self.model, ct) and joules_linear(ct, report.total_joules)

    def _check(self, m: Measured, lo: int, out) -> None:
        """A timed call must reproduce the checked pass bit for bit."""
        if self.name == "batch_energy":
            same_out = (self._fingerprint(out), self.energy_checks_hold(out)) == self.energy_ref[lo // BATCH]
        else:
            same_out = np.array_equal(out, self.ref[lo:lo + len(out)])
        if not same_out:
            self.mismatches += 1
            if self.mismatches == 1:
                m.problems.append(f"the timed call at window {lo} differs from the checked pass")

    def measure(self, m: Measured, deadline: float, tracer: tracing.Tracer | None = None,
                once: bool = False) -> None:
        """Whole passes over the windows until ``deadline`` (one with ``once``)."""
        step, n = (1, STREAM_WINDOWS) if self.unit == "window" else (BATCH, FORECAST_WINDOWS)
        hook = patches = None
        if tracer is not None:
            hook = tracing.TimingCounters(tracer, count=False)
            patches = tracing.install(tracer)
        try:
            while True:
                lo_interval = len(m.intervals)
                m.probe()
                for lo in range(0, n, step):
                    xb = self.x[lo:lo + step]
                    if tracer is not None:
                        tracer.op += 1
                        tracer.open("op")
                        if self.name == "batch_energy":  # profile tallies into a fresh counter per call
                            hook = tracing.TimingCounters(tracer, count=True)
                    t0 = clock()
                    out = self._call(xb, hook)
                    t1 = clock()
                    if tracer is not None:
                        tracer.close()
                    m.interval(t1 - t0, step)
                    m.op(t1 - t0)
                    self._check(m, lo, out)
                    m.outputs.append(self._fingerprint(out))
                    if len(m.op_lat) % PROBE_EVERY[self.unit] == 0:
                        m.probe()
                m.calls.append((lo_interval, len(m.intervals)))
                if once or t1 >= deadline:
                    m.probe()
                    return
                self.setup()  # spread the set-up repetitions over the run
        finally:
            if patches is not None:
                m.problems += [f"{name} is still wrapped" for name in patches.restore()]

    def _fingerprint(self, out):
        if self.name == "batch_energy":
            ct, report = out
            return (ct.totals(), {s: r["spikes"] for s, r in ct.sites.items()}, report.total_joules)
        return out

    def quality(self) -> float:
        ref = self.ann_ref if self.name == "batch_ann" else self.snn_ref
        return float(np.mean((ref - self.y) ** 2))

    def setup_layers(self) -> dict[str, float]:
        med = {k: statistics.median(v) for k, v in self.setup_parts.items()}
        return {"train.checkpoint_load_ms": 1000 * med["checkpoint_load"],
                "train.convert_ms": 1000 * med["convert"],
                "dataset.load_csv_ms": 1000 * med["load_csv"],
                "dataset.make_windows_ms": 1000 * med["make_windows"]}

    def counts(self) -> dict[str, float]:
        out = {f"energy.ops.{k}": self.ops[k] for k in KINDS}
        out["energy.spikes"] = self.spikes
        return out

    def digest(self, m: Measured) -> str:
        h = hashlib.sha256(self.ann_ref.tobytes())
        h.update(self.snn_ref.tobytes())
        h.update(json.dumps([self.ops, self.spikes]).encode())
        return h.hexdigest()


# --- metrics -------------------------------------------------------------------------


def per_layer(w, traced: Measured, untraced: Measured, tracer: tracing.Tracer) -> dict[str, float]:
    """Per-layer figures of the traced passes, per operation (step, batch or window).

    Times are scaled by the mean probe of the traced passes.  The tracing
    overhead is the median, over adjacent pairs of passes, of the traced
    pass's scaled time over the untraced one's.
    """
    ops = len(traced.op_lat)
    per_op = 1000.0 / ops * PROBE_REFERENCE_S / float(np.mean(traced.probes))  # scaled ms per operation

    def self_ms(name: str) -> float:
        return tracer.self_s.get(name, 0.0) * per_op

    def incl_ms(name: str) -> float:
        return tracer.incl_s.get(name, 0.0) * per_op

    out: dict[str, float] = {k: 0.0 for k in PER_LAYER}
    out["numerics.tape_records_per_step"] = tracer.counts["numerics.tape_records"] / ops
    out["numerics.backward_ms_per_step"] = incl_ms("numerics.backward")
    for p in FWD_PRIMS:
        out[f"numerics.fwd_ms.{p}"] = self_ms(f"numerics.{p}")
        out[f"numerics.vjp_ms.{p}"] = self_ms(f"numerics.{p}.vjp")
    out["ssm.forward_taped_ms_per_step"] = self_ms("ssm.block_forward_ann")
    out["ssm.pow2_round_ste_ms"] = self_ms("ssm.pow2_round_ste") + self_ms("ssm.pow2_round_ste.vjp")
    for t in SNN_TAGS:
        out[f"ssm.snn.{t}_ms"] = self_ms(f"ssm.snn.{t}")
    out["spike.encode_ms"] = self_ms("spike.encode")
    out["spike.encode_calls"] = tracer.calls.get("spike.encode", 0) / ops
    out["spike.encode_slots"] = tracer.counts["spike.encode_slots"] / ops
    out["spike.pow2_shift_ms"] = self_ms("spike.pow2_shift")
    out["quantize.ms"] = self_ms("quantize")
    out["quantize.calls"] = tracer.calls.get("quantize", 0) / ops
    out["quantize.vjp_ms"] = self_ms("quantize.vjp")
    out["activations.ms"] = self_ms("activations")
    out["energy.hook_ms"] = self_ms("energy.hook")
    out["energy.hook_calls"] = tracer.calls.get("energy.hook", 0) / ops
    out["train.adam_ms_per_step"] = incl_ms("train.adam")
    out["train.clamp_ms_per_step"] = incl_ms("train.clamp")
    if isinstance(w, TrainWorkload):
        out["train.val_eval_ms_per_epoch"] = incl_ms("train.val_eval") * ops / (TRAIN_EPOCHS * len(traced.calls))
    out.update(w.setup_layers())
    out.update(w.counts())
    pairs = [t / u for u, t in zip(untraced.call_busy(), traced.call_busy())]
    out["trace.overhead_pct"] = 100.0 * (statistics.median(pairs) - 1.0)
    out["host.probe_ms"] = 1000.0 * statistics.median(traced.probes)
    return out


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in common.THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def git_sha() -> str | None:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# --- entry point ---------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    w = TrainWorkload(seed) if workload == "train" else ForecastWorkload(workload, seed, out_dir)
    w.prepare()
    record: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
                    "env": environment(seed)}
    deadline = clock() + seconds
    m = Measured()
    if not trace:
        w.measure(m, deadline)
        metrics = m.timings()
        metrics["setup_s"] = statistics.median(w.setup_s)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["ok_frac"] = 1.0 - w.failed / w.attempted
        metrics["quality_mse"] = w.quality()
        units = END_TO_END
        problems = m.problems
        record["samples"] = {"timed_calls": len(m.op_lat),
                             "intervals": len(m.intervals), "probes": len(m.probes),
                             "setup_reps": len(w.setup_s)}
        record["raw_timings"] = m.timings(scaled=False)
        record["probe_ms"] = {"median": 1000 * statistics.median(m.probes),
                              "min": 1000 * min(m.probes), "max": 1000 * max(m.probes)}
    else:
        # Alternate untraced and traced passes, so both see the same host phases.
        traced, tracer = Measured(), tracing.Tracer()
        while True:
            w.measure(m, deadline, once=True)
            w.measure(traced, deadline, tracer, once=True)
            if clock() >= deadline:
                break
        problems = m.problems + traced.problems
        shared = min(len(m.outputs), len(traced.outputs))
        identical = all(same(a, b) for a, b in zip(m.outputs[:shared], traced.outputs[:shared]))
        if not identical:
            problems.append("traced outputs differ from untraced outputs")
        metrics = per_layer(w, traced, m, tracer)
        units = PER_LAYER
        tracer.save(out_dir / f"spans-{workload}-seed{seed}.npz")
        record["traced_identical"] = identical
        record["samples"] = {"untraced_passes": len(m.calls), "traced_passes": len(traced.calls),
                             "compared_calls": shared}
    record["first_output_sha256"] = output_sha(m.outputs[0])
    record["reference_sha256"] = w.digest(m)
    record["problems"] = problems
    result = {
        "correct": not problems,
        "attempted": w.attempted,
        "failed": w.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    record["result"] = result
    (out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return record


def output_sha(out) -> str:
    if isinstance(out, tuple):
        return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    return hashlib.sha256(np.asarray(out).tobytes()).hexdigest()


def same(a, b) -> bool:
    if isinstance(a, tuple):
        return a == b
    return np.array_equal(np.asarray(a), np.asarray(b))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=HERE / "out", help="directory for series, spans and records")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    res = record["result"]
    print("env " + json.dumps(record["env"]))
    for k, v in res["metrics"].items():
        print(f"{args.workload} {k} = {v['value']:.6g} {v['unit']}")
    if "raw_timings" in record:
        print(f"{args.workload} unscaled: " + ", ".join(f"{k} = {v:.6g}" for k, v in record["raw_timings"].items())
              + f"; probe median {record['probe_ms']['median']:.4f} ms")
    print(f"{args.workload}: {res['failed']} of {res['attempted']} checked operations failed; "
          f"samples {json.dumps(record['samples'])}")
    for p in record["problems"]:
        print(f"problem: {p}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
