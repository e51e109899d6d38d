"""Training loop, spiking conversion, threshold scaling, and checkpoints.

The training pieces are deliberately generic: anything exposing
``parameters() -> list[Tensor]`` and ``forward(x) -> Tensor`` trains, with
optional ``calibrate``/``calibrated``/``clamp_steps`` hooks picked up when
present.  Conversion and checkpoints are specific to ``ForecastModel``.
"""

from __future__ import annotations

import json
import math
import struct
import sys
import typing
from dataclasses import asdict, dataclass, field

import numpy as np

from . import numerics as nm
from .energy import OpCounters
from .quantize import Quantizer
from .spike import SpikeSite, threshold_scale
from .ssm import QUANT_SITES, SPIKE_SITES, ForecastModel, ModelConfig

CHECKPOINT_MAGIC = b"SPKY"
CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    lr: float = 5e-4
    batch_size: int = 64
    max_epochs: int = 1000
    patience: int = 20
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        for key in ("batch_size", "max_epochs", "patience"):
            if getattr(self, key) < 1:
                raise ValueError(f"train config: {key} must be >= 1, got {getattr(self, key)}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"train config: lr must be finite and > 0, got {self.lr}")
        for key in ("beta1", "beta2"):
            if not 0 <= getattr(self, key) < 1:
                raise ValueError(f"train config: {key} must be in [0, 1), got {getattr(self, key)}")
        if not self.eps > 0:
            raise ValueError(f"train config: eps must be > 0, got {self.eps}")
        if self.seed < 0:
            raise ValueError(f"train config: seed must be >= 0, got {self.seed}")


class Adam:
    """Adam with bias correction over one flat float64 buffer.

    The constructor copies the parameters into ``flat`` and makes each
    one's ``data`` a view of its slice, so a step is a dozen ufunc calls
    over the whole buffer instead of a dozen per tensor.  From then on the
    parameters must be written in place (``p.data[...] = x``); a step
    raises if a parameter's ``data`` was rebound.  A step
    updates only the parameters ``grads`` holds: the others keep their
    value and moments.  The element-wise arithmetic is the textbook
    per-tensor rule's, operation for operation.
    """

    def __init__(self, params, lr: float = 5e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValueError("Adam: a parameter is listed twice")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._ends = np.cumsum([p.data.size for p in self.params]).tolist()
        size = self._ends[-1] if self._ends else 0
        self.flat = np.empty(size)
        self._m, self._v = np.zeros(size), np.zeros(size)
        self._g, self._u = np.empty(size), np.empty(size)  # the gathered gradient, a scratch buffer
        self._views, self._grad_views = [], []
        for p, hi in zip(self.params, self._ends):
            lo = hi - p.data.size
            self.flat[lo:hi] = p.data.ravel()
            p.data = self.flat[lo:hi].reshape(p.data.shape)
            self._views.append(p.data)
            self._grad_views.append(self._g[lo:hi].reshape(p.data.shape))

    def step(self, grads: dict) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        runs: list[list[int]] = []  # [lo, hi) spans of consecutive parameters that have a gradient
        lo = 0
        for p, own, view, hi in zip(self.params, self._views, self._grad_views, self._ends):
            if p.data is not own:
                raise RuntimeError(f"Adam: the data of {p.name or 'a parameter'} was rebound; "
                                   "write it in place (p.data[...] = x) so the optimizer sees it")
            g = grads.get(p)
            if g is not None:
                view[...] = g
                if runs and runs[-1][1] == lo:
                    runs[-1][1] = hi
                else:
                    runs.append([lo, hi])
            lo = hi
        for lo, hi in runs:
            p, m, v, g, u = (a[lo:hi] for a in (self.flat, self._m, self._v, self._g, self._u))
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=u)
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=u)
            v += np.multiply(u, g, out=u)
            # p -= lr * (m / c1) / (sqrt(v / c2) + eps); g's slice is free again and takes the numerator
            np.sqrt(np.divide(v, c2, out=u), out=u)
            u += self.eps
            np.divide(m, c1, out=g)
            g *= self.lr
            g /= u
            p -= g


@dataclass
class TrainResult:
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    best_epoch: int = -1
    best_val: float = float("inf")
    epochs_run: int = 0


def _eval_loss(model, x: np.ndarray, y: np.ndarray, batch_size: int) -> float:
    total, n = 0.0, x.shape[0]
    for i in range(0, n, batch_size):
        xb, yb = x[i:i + batch_size], y[i:i + batch_size]
        pred = model.forward(xb)
        total += float(np.sum((pred.data - yb) ** 2))
    return total / max(1, y.size)


def _diverged(loss: float, epoch: int, step: int, params: list[nm.Tensor]) -> typing.NoReturn:
    bad = next((p.name or f"parameter {j}" for j, p in enumerate(params) if not np.isfinite(p.data).all()), None)
    raise ValueError(f"training diverged: loss {loss} at epoch {epoch}, step {step}; "
                     + (f"first non-finite parameter {bad}" if bad else "every parameter is finite"))


def train(model, x_train: np.ndarray, y_train: np.ndarray,
          x_val: np.ndarray, y_val: np.ndarray,
          cfg: TrainConfig | None = None) -> TrainResult:
    """Minimize MSE with Adam; early-stops on validation loss.

    An epoch with validation loss strictly below the best seen resets the
    patience counter and snapshots the parameters; after ``patience``
    consecutive epochs without such an improvement training stops and the
    snapshot is restored.  With an empty validation set the training loss
    is monitored instead.  Fully deterministic for a given seed.  A
    non-finite training-step loss raises ``ValueError`` naming the epoch,
    the step and the first non-finite parameter.
    """
    cfg = cfg or TrainConfig()
    if hasattr(model, "calibrated") and not model.calibrated():
        model.calibrate(x_train)
    params = model.parameters()
    opt = Adam(params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    rng = np.random.default_rng(cfg.seed)
    res = TrainResult()
    best = opt.flat.copy()
    wait = 0
    n = x_train.shape[0]

    for epoch in range(cfg.max_epochs):
        order = rng.permutation(n)
        sq_sum = 0.0
        for i in range(0, n, cfg.batch_size):
            idx = order[i:i + cfg.batch_size]
            xb, yb = x_train[idx], y_train[idx]
            with nm.GradTape() as tape:
                pred = model.forward(xb)
                loss = nm.mse(pred, nm.tensor(yb))
            if not np.isfinite(loss.data):
                _diverged(float(loss.data), epoch, i // cfg.batch_size, params)
            grads = nm.backward(tape, output=loss)
            opt.step(grads)
            if hasattr(model, "clamp_steps"):
                model.clamp_steps()
            sq_sum += float(loss.data) * yb.size
        train_loss = sq_sum / max(1, y_train.size)
        res.train_losses.append(train_loss)

        if x_val.shape[0] > 0:
            val_loss = _eval_loss(model, x_val, y_val, cfg.batch_size)
        else:
            val_loss = train_loss
        res.val_losses.append(val_loss)
        res.epochs_run = epoch + 1

        if val_loss < res.best_val:
            res.best_val = val_loss
            res.best_epoch = epoch
            best = opt.flat.copy()
            wait = 0
        else:
            wait += 1
            if wait >= cfg.patience:
                break

    opt.flat[...] = best  # through the views: every parameter keeps its array
    return res


# --- conversion ----------------------------------------------------------------


def convert_to_snn(model: ForecastModel) -> ForecastModel:
    """Turn every spike-encode site into an integrate-and-fire site in place.

    Each site's threshold is the learned quantizer step, its decode offset
    is the quantizer offset, and the spike window is the largest code,
    T = 2**bits - 1, so spike counts and codes coincide.
    """
    if model.mode == "snn":
        raise RuntimeError("model is already converted (would discard scaled thresholds)")
    missing = [blk.quantizers[s].name for blk in model.blocks for s in QUANT_SITES
               if not blk.quantizers[s].initialized]
    if missing:
        raise RuntimeError("cannot convert, uncalibrated sites: " + ", ".join(missing))
    bad = [blk.quantizers[s].name for blk in model.blocks for s in SPIKE_SITES
           if blk.quantizers[s].rounding != "floor"]
    if bad:
        raise ValueError("cannot convert, spike sites need floor rounding: " + ", ".join(bad))
    for blk in model.blocks:
        blk.sites = {s: SpikeSite.of(blk.quantizers[s]) for s in SPIKE_SITES}
    model.mode = "snn"
    return model


def apply_threshold_scaling(model: ForecastModel, x: np.ndarray,
                            verify_x: np.ndarray | None = None) -> list[str]:
    """Collapse saturated spike sites to single-spike windows.

    A site whose observed counts on ``x`` are only ever 0 or T can emit one
    spike against a threshold scaled by T instead of T spikes against the
    original, cutting its comparisons and downstream accumulations by T.
    The rewrite is applied to every such site, then checked end to end on
    ``verify_x`` (``x`` when omitted); any output drift beyond the 1e-9
    equivalence bound rolls all sites back.  Returns the names of the sites left scaled.
    """
    if model.mode != "snn":
        raise RuntimeError("threshold scaling applies to converted models only")
    probe = OpCounters()
    model.forward(x, counters=probe)
    check = x if verify_x is None else verify_x
    baseline = model.forward(check).data.copy()

    saved = [(blk, dict(blk.sites)) for blk in model.blocks]
    scaled: list[str] = []
    for i, blk in enumerate(model.blocks):
        for s in SPIKE_SITES:
            site = blk.sites[s]
            key = f"block{i}.{s}"
            if site.T > 1 and probe.sites[key]["mid"] == 0:
                blk.sites[s] = threshold_scale(site)
                scaled.append(key)
    if not scaled:
        return []
    drift = float(np.max(np.abs(model.forward(check).data - baseline)))
    if drift > 1e-9:
        for blk, sites in saved:
            blk.sites = sites
        return []
    return scaled


# --- checkpoints -----------------------------------------------------------------


def _metadata(model: ForecastModel, norm: dict | None, extra: dict | None) -> dict:
    return {
        "config": asdict(model.cfg),
        "mode": model.mode,
        "quantizers": [{s: blk.quantizers[s].state() for s in QUANT_SITES}
                       for blk in model.blocks],
        "sites": [None if blk.sites is None
                  else {s: blk.sites[s].state() for s in blk.sites}
                  for blk in model.blocks],
        "norm": norm,
        "extra": extra or {},
    }


def save_checkpoint(path: str, model: ForecastModel,
                    norm: dict | None = None, extra: dict | None = None) -> None:
    """Write magic, version, JSON metadata, then float32 weight payloads.

    Payload order is each block's weight fields in declaration order,
    followed by the head weights; all little-endian.
    """
    meta = json.dumps(_metadata(model, norm, extra)).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(meta)))
        f.write(meta)
        for blk in model.blocks:
            for w in blk.weight_tensors():
                f.write(np.ascontiguousarray(w.data, dtype="<f4").tobytes())
        for w in (model.W_head, model.b_head):
            f.write(np.ascontiguousarray(w.data, dtype="<f4").tobytes())


def load_checkpoint(path: str) -> tuple[ForecastModel, dict]:
    """Rebuild a model from ``save_checkpoint`` output.

    Returns (model, metadata); metadata keeps the ``norm`` and ``extra``
    entries the checkpoint was saved with.  A malformed file raises
    ``ValueError`` naming the file and the defect.
    """
    with open(path, "rb") as f:
        raw = f.read()
    try:
        return _parse_checkpoint(raw)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _parse_checkpoint(raw: bytes) -> tuple[ForecastModel, dict]:
    if raw[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"not a model checkpoint (bad magic {raw[:4]!r})")
    if len(raw) < 12:
        raise ValueError(f"truncated header: {len(raw)} of 12 bytes")
    version, mlen = struct.unpack_from("<II", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    if 12 + mlen > len(raw):
        raise ValueError(f"truncated metadata: {len(raw) - 12} of {mlen} bytes")
    try:
        meta = json.loads(raw[12:12 + mlen].decode("utf-8"))
    except ValueError as e:
        raise ValueError(f"metadata is not UTF-8 JSON ({e})") from None
    off = 12 + mlen
    try:
        cfg = ModelConfig.from_dict(meta["config"])
        # the payload's length before the model, whose weights the claimed sizes would allocate
        expected = 4 * ForecastModel.weight_count(cfg)
        if len(raw) - off < expected:
            raise ValueError(f"truncated weight payload: {len(raw) - off} of {expected} bytes")
        if len(raw) - off > expected:
            raise ValueError(f"{len(raw) - off - expected} trailing bytes after weight payload")
        model = _model_from_metadata(meta, cfg)
    except KeyError as e:
        raise ValueError(f"metadata is missing key {e}") from None
    except (TypeError, OverflowError) as e:  # OverflowError: a number no float64 or index holds
        raise ValueError(f"malformed metadata ({e})") from None

    targets = [w for blk in model.blocks for w in blk.weight_tensors()]
    targets += [model.W_head, model.b_head]
    for w in targets:
        arr = np.frombuffer(raw, dtype="<f4", count=w.data.size, offset=off)
        w.data = arr.astype(np.float64).reshape(w.data.shape)
        off += w.data.size * 4
    return model, meta


def _model_from_metadata(meta: dict, cfg: ModelConfig) -> ForecastModel:
    """The model the metadata and its config ``cfg`` describe, with quantizers and sites but no weights."""
    model = ForecastModel.build(cfg, seed=0)
    mode, n, bits = meta["mode"], len(model.blocks), model.cfg.bits
    if mode not in ("ann", "snn"):
        raise ValueError(f"unknown mode {mode!r}")
    if len(meta["quantizers"]) != n or len(meta["sites"]) != n:
        raise ValueError(f"{len(meta['quantizers'])} quantizer and {len(meta['sites'])} site "
                         f"entries for {n} blocks")
    for i, (blk, qstates, sstates) in enumerate(zip(model.blocks, meta["quantizers"], meta["sites"])):
        if set(qstates) != set(QUANT_SITES):
            raise ValueError(f"block{i} quantizers {sorted(qstates)} are not {sorted(QUANT_SITES)}")
        blk.quantizers = {s: Quantizer.from_state(qstates[s]) for s in QUANT_SITES}
        for s, q in blk.quantizers.items():
            if q.bits != bits:
                raise ValueError(f"quantizer block{i}.{s}: {q.bits} bits, the config has {bits}")
        if sstates is None:
            if mode == "snn":
                raise ValueError(f"snn-mode checkpoint has no spike sites for block{i}")
            continue
        if set(sstates) != set(SPIKE_SITES):
            raise ValueError(f"block{i} spike sites {sorted(sstates)} are not {sorted(SPIKE_SITES)}")
        blk.sites = {s: SpikeSite.from_state(v) for s, v in sstates.items()}
        T = 2 ** bits - 1
        for s, site in blk.sites.items():
            if blk.quantizers[s].rounding != "floor":  # as convert_to_snn requires
                raise ValueError(f"spike site block{i}.{s}: its quantizer rounds by "
                                 f"{blk.quantizers[s].rounding}, a spike site counts by floor")
            if site.T > T:
                raise ValueError(f"spike site block{i}.{s}: window T={site.T} exceeds the "
                                 f"largest {bits}-bit code {T}")
            # the site must count the quantizer's codes, or their threshold-scaled form
            got, plain = (site.theta, site.offset, site.T), SpikeSite.of(blk.quantizers[s])
            allowed = [(a.theta, a.offset, a.T) for a in (plain, threshold_scale(plain))]
            if got not in allowed:
                raise ValueError(f"spike site block{i}.{s}: (theta, offset, T) = {got} is neither "
                                 f"the quantizer's {allowed[0]} nor its threshold-scaled {allowed[1]}")
    if meta.get("norm") is not None:
        _check_norm(meta["norm"], model.cfg.d_value)
    model.mode = mode
    return model


def _check_norm(norm, d: int) -> None:
    """Normalization statistics: ``mean`` and ``std``, each ``d`` finite numbers, every ``std`` above zero."""
    if not isinstance(norm, dict):
        raise ValueError(f"norm must be an object with mean and std, got {type(norm).__name__}")
    for key in ("mean", "std"):  # an int compares exactly, so one too large for a float64 fails
        v = norm.get(key)
        if not (isinstance(v, list) and len(v) == d
                and all(type(e) in (int, float) and abs(e) <= sys.float_info.max for e in v)):
            raise ValueError(f"norm {key} must be a list of {d} finite numbers, got {v!r}")
    if min(norm["std"]) <= 0:
        raise ValueError(f"norm std must be positive, got {norm['std']}")

