"""Training loop, spiking conversion, threshold scaling, and checkpoints.

The training pieces are deliberately generic: anything exposing
``parameters() -> list[Tensor]`` and ``forward(x) -> Tensor`` trains, with
optional ``calibrate``/``calibrated``/``clamp_steps``/``drop_scan_keeps`` hooks
picked up when present.  Conversion and checkpoints are specific to ``ForecastModel``.
"""

from __future__ import annotations

import json
import struct
import sys
import typing
from dataclasses import asdict, dataclass, field

import numpy as np

from . import numerics as nm
from .energy import OpCounters
from .fields import (AT_LEAST_0, AT_LEAST_1, FINITE, POSITIVE, UNIT, check, check_fields, check_keys,
                     field_types)
from .quantize import CodeGrid, Quantizer
from .ssm import QUANT_SITES, SPIKE_SITES, ForecastModel, ModelConfig

CHECKPOINT_MAGIC = b"SPKY"
CHECKPOINT_VERSION = 1
CALIBRATION_WINDOWS = 512  # the training windows, from the first, that ``train`` calibrates a fresh model on


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
        check_fields(self, "train config: ", lr=POSITIVE, batch_size=AT_LEAST_1, max_epochs=AT_LEAST_1,
                     patience=AT_LEAST_1, beta1=UNIT, beta2=UNIT, eps=POSITIVE, seed=AT_LEAST_0)


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
    is monitored instead.  A fresh model is first calibrated on ``x_train[:CALIBRATION_WINDOWS]``.
    Fully deterministic for a given seed.  No training windows, or a split whose
    targets are not one per input window, raise ``ValueError`` before the model
    is touched; a non-finite training-step loss raises it naming the epoch, the
    step and the first non-finite parameter.  Whether it returns or raises,
    ``train`` drops what the model keeps only for its training steps
    (``drop_scan_keeps``: the scan sequences a taped step reuses).
    """
    cfg = cfg or TrainConfig()
    if x_train.shape[0] == 0:  # every epoch would run no step and report a loss of 0.0
        raise ValueError("train: expected at least one training window, got 0")
    for split, x, y in (("training", x_train, y_train), ("validation", x_val, y_val)):
        if y.shape[0] != x.shape[0]:  # a step would index past the targets, or the loss mix other windows
            raise ValueError(f"train: the {split} split has {x.shape[0]} input windows but {y.shape[0]} targets")
    if hasattr(model, "calibrated") and not model.calibrated():
        model.calibrate(x_train[:CALIBRATION_WINDOWS])
    try:
        return _train(model, x_train, y_train, x_val, y_val, cfg)
    finally:
        if hasattr(model, "drop_scan_keeps"):  # what only the training steps reuse
            model.drop_scan_keeps()


def _train(model, x_train, y_train, x_val, y_val, cfg: TrainConfig) -> TrainResult:
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

    Each site is its floor quantizer's own grid (``Quantizer.grid``): threshold
    = learned step, offset = quantizer offset, window = largest code 2**bits - 1,
    so spike counts are codes and both forwards read one grid and its tables.
    A spike site that rounds otherwise is refused.  ``load_checkpoint`` converts
    a checkpoint with site records here, then installs its threshold-scaled sites.
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
        blk.sites = {s: blk.quantizers[s].grid() for s in SPIKE_SITES}
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
    equivalence bound, or a NaN one, rolls all sites back.  Returns the names of the sites left scaled.
    An empty probe or verification set is refused before any site changes.
    """
    if model.mode != "snn":
        raise RuntimeError("threshold scaling applies to converted models only")
    check = x if verify_x is None else verify_x
    for kind, windows in (("probe", x), ("verification", check)):
        if windows.shape[0] == 0:  # no probe reads every site saturated; no verification checks nothing
            raise ValueError(f"apply_threshold_scaling: expected at least one {kind} window, got 0")
    probe = OpCounters()
    model.forward(x, counters=probe)
    baseline = model.forward(check).data.copy()

    saved = [(blk, dict(blk.sites)) for blk in model.blocks]
    scaled: list[str] = []
    for i, blk in enumerate(model.blocks):
        for s in SPIKE_SITES:
            site = blk.sites[s]
            key = f"block{i}.{s}"
            if site.T > 1 and probe.sites[key]["mid"] == 0:
                blk.sites[s] = site.threshold_scale()
                scaled.append(key)
    if not scaled:
        return []
    drift = float(np.max(np.abs(model.forward(check).data - baseline)))
    if not drift <= 1e-9:  # a NaN drift rolls back too
        for blk, sites in saved:
            blk.sites = sites
        return []
    return scaled


# --- checkpoints: format v1, every record of which is written and read here ------


def _quantizer_record(q: Quantizer) -> dict:
    """v1 keeps a "symmetric" key, always false: every grid is unsigned."""
    if not q.initialized:
        raise RuntimeError(f"quantizer {q.name} has no calibrated step size")
    return {"bits": q.bits, "alpha": float(q.alpha.data), "beta": float(q.beta.data), "symmetric": False,
            "rounding": q.rounding, "train_alpha": q.alpha.trainable, "train_beta": q.beta.trainable,
            "name": q.name}


def _site_record(grid: CodeGrid) -> dict:
    """v1 keeps the decode "scale" key, always theta."""
    return {"name": grid.name, "theta": grid.theta, "scale": grid.theta, "offset": grid.offset, "T": grid.T}


def _metadata(model: ForecastModel, norm: dict | None, extra: dict | None) -> dict:
    return {
        "config": asdict(model.cfg),
        "mode": model.mode,
        "quantizers": [{s: _quantizer_record(blk.quantizers[s]) for s in QUANT_SITES}
                       for blk in model.blocks],
        "sites": [None if blk.sites is None
                  else {s: _site_record(g) for s, g in blk.sites.items()}
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
    entries the checkpoint was saved with.  A malformed file, or one holding
    a NaN or infinite weight, raises ``ValueError`` naming the file and the
    defect.
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
        cfg = _read_config(meta["config"])
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
        finite = np.isfinite(arr)
        if not finite.all():
            i = int(finite.argmin())
            raise ValueError(f"non-finite weight {arr[i]} in {w.name} at flat index {i}")
        w.data = arr.astype(np.float64).reshape(w.data.shape)
        off += w.data.size * 4
    return model, meta


def _read_config(d: dict) -> ModelConfig:
    """The config a record holds: every field and no other key; ``ModelConfig`` checks each value, but
    would fill a null ``delta_rank`` with its default, so that null is refused here."""
    check_keys("model config: ", d, field_types(ModelConfig))
    check("model config: ", "delta_rank", d["delta_rank"], int)
    return ModelConfig(**d)


def _fields(what: str, name: str, record: dict, **spec) -> dict:
    """``record`` if it holds ``name``, the block and site it is stored under, and each field of ``spec``
    and no other key, each value the type, or the type with the rule, ``spec`` gives it (``fields.check``)."""
    where = f"{what} {name}: "
    check_keys(where, record, ("name", *spec))
    if record["name"] != name:
        raise ValueError(f"{where}name must be {name!r}, got {record['name']!r}")
    for key, want in spec.items():
        check(where, key, record[key], want)
    return record


def _read_quantizer(name: str, record: dict) -> Quantizer:
    f = _fields("quantizer", name, record, bits=int, alpha=(float, FINITE), beta=(float, FINITE), symmetric=bool,
                rounding=str, train_alpha=bool, train_beta=bool)
    if f["symmetric"]:
        raise ValueError(f"quantizer {name}: symmetric grids are not supported")
    return Quantizer(bits=f["bits"], alpha=nm.Tensor(float(f["alpha"]), trainable=f["train_alpha"]),
                     beta=nm.Tensor(float(f["beta"]), trainable=f["train_beta"]), rounding=f["rounding"],
                     name=name)


def _read_site(name: str, record: dict) -> tuple[float, float, int]:
    """A site record's ``(theta, offset, T)``, its decode scale theta."""
    f = _fields("spike site", name, record, theta=(float, POSITIVE), scale=float, offset=(float, FINITE),
                T=(int, AT_LEAST_1))
    theta = float(f["theta"])
    if f["scale"] != theta:  # an int compares exactly, so one no float64 holds differs too
        raise ValueError(f"spike site {name}: decode scale {f['scale']} differs from threshold {theta}")
    return theta, float(f["offset"]), f["T"]


def _model_from_metadata(meta: dict, cfg: ModelConfig) -> ForecastModel:
    """The model the metadata and its config ``cfg`` describe, with quantizers and sites but no weights:
    every quantizer's grid built (``Quantizer.grid`` refuses a step of 0 or below) and, if any block has
    site records, converted by ``convert_to_snn``, each record then the installed grid or its threshold_scale."""
    model = ForecastModel.build(cfg, seed=0)
    mode, n, bits = meta["mode"], len(model.blocks), model.cfg.bits
    if mode not in ("ann", "snn"):
        raise ValueError(f"unknown mode {mode!r}")
    if len(meta["quantizers"]) != n or len(meta["sites"]) != n:
        raise ValueError(f"{len(meta['quantizers'])} quantizer and {len(meta['sites'])} site "
                         f"entries for {n} blocks")
    records = []
    for i, (blk, qstates, sstates) in enumerate(zip(model.blocks, meta["quantizers"], meta["sites"])):
        if set(qstates) != set(QUANT_SITES):
            raise ValueError(f"block{i} quantizers {sorted(qstates)} are not {sorted(QUANT_SITES)}")
        blk.quantizers = {s: _read_quantizer(f"block{i}.{s}", qstates[s]) for s in QUANT_SITES}
        for s, q in blk.quantizers.items():
            if q.bits != bits:
                raise ValueError(f"quantizer block{i}.{s}: {q.bits} bits, the config has {bits}")
            q.grid()  # refuses a step of 0 or below
        if sstates is None:
            if mode == "snn":
                raise ValueError(f"snn-mode checkpoint has no spike sites for block{i}")
            sstates = {}
        elif set(sstates) != set(SPIKE_SITES):
            raise ValueError(f"block{i} spike sites {sorted(sstates)} are not {sorted(SPIKE_SITES)}")
        records.append({s: _read_site(f"block{i}.{s}", v) for s, v in sstates.items()})
    if any(records):
        convert_to_snn(model)
    for i, (blk, sites) in enumerate(zip(model.blocks, records)):
        for s, got in sites.items():
            grids = blk.sites[s], blk.sites[s].threshold_scale()
            allowed = [(a.theta, a.offset, a.T) for a in grids]
            if got not in allowed:
                raise ValueError(f"spike site block{i}.{s}: (theta, offset, T) = {got} is neither "
                                 f"the quantizer's {allowed[0]} nor its threshold-scaled {allowed[1]}")
            blk.sites[s] = grids[allowed.index(got)]
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

