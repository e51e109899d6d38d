"""Command-line interface: train, convert, forecast, verify, energy, eval, plot-data.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
Config files are flat ``key = value`` UTF-8 text; ``#`` starts a comment.
"""

from __future__ import annotations

import argparse
import io
import sys

import numpy as np

from .activations import DEVIATION_BOUNDS, branch_continuity_gaps, verify_deviation_bounds
from .dataset import (DEFAULT_SPLIT, SeriesDataset, WindowSplits, check_split, denormalize, load_csv,
                      make_windows, read_utf8, write_csv)
from .energy import EnergyTable, OpCounters, compare_ann_energy, profile
from .fields import AT_LEAST_1, check, field_types
from .metrics import r2, rrse
from .quantize import CodeGrid, simulate_if
from .ssm import ForecastModel, ModelConfig
from .train import (TrainConfig, apply_threshold_scaling, convert_to_snn,
                    load_checkpoint, save_checkpoint, train)

# config-file keys and parse types, per command; d_value is the CSV's column count
MODEL_KEYS = {k: t for k, t in field_types(ModelConfig).items() if k != "d_value"}
TRAIN_KEYS = field_types(TrainConfig)
SPLIT_KEYS = {"split_train": float, "split_val": float, "split_test": float}
ENERGY_KEYS = field_types(EnergyTable)
BATCH = 256  # windows per forward, so a command's memory does not grow with the CSV


def load_config(path: str | None, keys: dict[str, type]) -> dict:
    """The ``key = value`` lines of the file at ``path``, each key one of ``keys``
    given once and parsed to its type; every error names ``path:line``."""
    if path is None:
        return {}
    cfg: dict = {}
    for lineno, line in enumerate(io.StringIO(read_utf8(path), newline=None), 1):
        s = line.split("#", 1)[0].strip()
        if not s:
            continue
        if "=" not in s:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}")
        k, v = (part.strip() for part in s.split("=", 1))
        if k not in keys:
            raise ValueError(f"{path}:{lineno}: unknown config key {k!r} (known: {', '.join(sorted(keys))})")
        if k in cfg:
            raise ValueError(f"{path}:{lineno}: key {k!r} given twice")
        try:
            cfg[k] = keys[k](v)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: key {k!r} expects {keys[k].__name__}, got {v!r}") from None
    return cfg


def _windows(ds: SeriesDataset, data: str, history: int, horizon: int, split: tuple[float, float, float],
             stats: tuple[np.ndarray, np.ndarray] | None = None) -> WindowSplits:
    """``make_windows`` on the series of the CSV ``data``, whose path its errors name."""
    try:
        return make_windows(ds, history, horizon, split, stats)
    except ValueError as e:
        raise ValueError(f"{data}: {e}") from None


def _predict(model: ForecastModel, x: np.ndarray) -> np.ndarray:
    outs = [model.forward(x[i:i + BATCH]).data for i in range(0, x.shape[0], BATCH)]
    return np.concatenate(outs, axis=0)


def _norm_from_meta(meta: dict, path: str) -> tuple[np.ndarray, np.ndarray]:
    """The normalization statistics of the checkpoint at ``path``, whose metadata is ``meta``."""
    norm = meta.get("norm")
    if not norm:
        raise ValueError(f"{path}: checkpoint carries no normalization statistics; retrain with this version")
    return np.asarray(norm["mean"], dtype=np.float64), np.asarray(norm["std"], dtype=np.float64)


def _model_series(model: ForecastModel, data: str, has_header: bool) -> SeriesDataset:
    """The CSV ``data``, with one column per variable the model takes."""
    ds = load_csv(data, has_header=has_header)
    if ds.values.shape[1] != model.cfg.d_value:
        raise ValueError(f"{data}: {ds.values.shape[1]} columns, the model takes d_value = {model.cfg.d_value}")
    return ds


def _checkpoint_windows(model: ForecastModel, meta: dict, path: str, data: str, has_header: bool) -> WindowSplits:
    """Every window of ``data`` in ``x_train``/``y_train``, normalized with the
    statistics of the checkpoint at ``path``."""
    mean, std = _norm_from_meta(meta, path)
    ds = _model_series(model, data, has_header)
    return _windows(ds, data, model.cfg.history, model.cfg.horizon, (1.0, 0.0, 0.0), stats=(mean, std))


# --- subcommands -----------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = load_config(args.config, {**MODEL_KEYS, **TRAIN_KEYS, **SPLIT_KEYS})
    split = tuple(cfg.get(k, d) for k, d in zip(SPLIT_KEYS, DEFAULT_SPLIT))
    try:
        check_split(split)
    except ValueError as e:
        raise ValueError(f"{args.config}: {e}") from None
    flags = {k: getattr(args, k) for k in ("history", "horizon", "bits") if getattr(args, k) is not None}
    model_kw = {**{k: cfg[k] for k in MODEL_KEYS if k in cfg}, **flags}
    if "history" not in model_kw or "horizon" not in model_kw:
        raise ValueError("history and horizon must be given (flags or config file)")

    ds = load_csv(args.data, has_header=args.has_header)
    mc = ModelConfig(d_value=ds.values.shape[1], **model_kw)
    tc = TrainConfig(**{k: cfg[k] for k in TRAIN_KEYS if k in cfg})
    splits = _windows(ds, args.data, mc.history, mc.horizon, split)
    n_tr, n_va, n_te = splits.counts()
    print(f"windows: {n_tr} train / {n_va} val / {n_te} test "
          f"({ds.values.shape[0]} rows, {ds.values.shape[1]} variables)")

    model = ForecastModel.build(mc, seed=tc.seed)
    model.calibrate(splits.x_train[:512])

    res = train(model, splits.x_train, splits.y_train, splits.x_val, splits.y_val, tc)
    print(f"trained {res.epochs_run} epochs; best val mse {res.best_val:.6f} at epoch {res.best_epoch}")
    norm = {"mean": splits.mean.tolist(), "std": splits.std.tolist()}
    save_checkpoint(args.out, model, norm=norm,
                    extra={"split": list(split), "data": args.data})
    print(f"saved {args.out}")
    return 0


def cmd_convert(args) -> int:
    if not args.threshold_scale:
        ignored = [flag for flag, given in (("--data", args.data is not None), ("--has-header", args.has_header))
                   if given]
        if ignored:
            raise ValueError(f"convert: {' and '.join(ignored)} only serve --threshold-scale, which was not given")
    model, meta = load_checkpoint(args.in_path)
    if model.mode == "snn":
        raise ValueError(f"{args.in_path} is already a converted (snn-mode) checkpoint")
    convert_to_snn(model)
    if args.threshold_scale:
        if args.data is None:
            raise ValueError("--threshold-scale needs --data to observe which sites saturate")
        w = _checkpoint_windows(model, meta, args.in_path, args.data, args.has_header).x_train[:512]
        if len(w) < 2:
            raise ValueError(f"{args.data}: {len(w)} window(s); --threshold-scale needs at least 2, "
                             "one half to probe and one to verify on")
        k = len(w) // 2  # verify on windows the probe did not see
        scaled = apply_threshold_scaling(model, w[:k], verify_x=w[k:])
        if scaled:
            print("threshold-scaled sites: " + ", ".join(scaled))
        else:
            print("no sites were threshold-scaled (none saturate, or verification rolled back)")
    save_checkpoint(args.out, model, norm=meta.get("norm"), extra=meta.get("extra"))
    print(f"saved {args.out}")
    return 0


def cmd_forecast(args) -> int:
    model, meta = load_checkpoint(args.model)
    mean, std = _norm_from_meta(meta, args.model)
    ds = _model_series(model, args.data, args.has_header)
    H, G = model.cfg.history, model.cfg.horizon
    x = _windows(ds, args.data, H, 0, (1.0, 0.0, 0.0), stats=(mean, std)).x_train  # every start, no target
    pred = denormalize(_predict(model, x), mean, std)  # [W, G, N]

    header = ["t"] + [f"{c}_step{g + 1}" for g in range(G) for c in ds.columns]
    out = np.column_stack([np.arange(H, ds.values.shape[0] + 1), pred.reshape(pred.shape[0], -1)])
    write_csv(args.out, out, header)
    print(f"wrote {out.shape[0]} forecasts to {args.out}")
    return 0


def _eval_model(model: ForecastModel, meta: dict, path: str, data: str, has_header: bool):
    splits = _checkpoint_windows(model, meta, path, data, has_header)
    pred = denormalize(_predict(model, splits.x_train), splits.mean, splits.std)
    true = denormalize(splits.y_train, splits.mean, splits.std)
    return true, pred


def cmd_eval(args) -> int:
    model, meta = load_checkpoint(args.model)
    true, pred = _eval_model(model, meta, args.model, args.data, args.has_header)
    rows = [("overall", true, pred)] + [(f"step {g + 1:2d}", true[:, g], pred[:, g]) for g in range(true.shape[1])]
    try:  # every metric before any line, so a refusal prints nothing else
        lines = [f"{label}  R2 = {r2(t, p):.6f}   RRSE = {rrse(t, p):.6f}" for label, t, p in rows]
    except ValueError as e:
        raise ValueError(f"{args.data}: {e}") from None
    print(f"windows: {true.shape[0]}   mode: {model.mode}")
    print("\n".join(lines))
    return 0


def cmd_plot_data(args) -> int:
    model, meta = load_checkpoint(args.model)
    step = args.step
    if not 1 <= step <= model.cfg.horizon:
        raise ValueError(f"--step must be in 1..{model.cfg.horizon}, got {step}")
    true, pred = _eval_model(model, meta, args.model, args.data, args.has_header)
    W, N = true.shape[0], true.shape[2]
    t = np.arange(W) + model.cfg.history + step - 1  # the row window w forecasts at this step
    rows = np.column_stack([t.repeat(N), np.tile(np.arange(N), W),
                            true[:, step - 1].ravel(), pred[:, step - 1].ravel()])
    write_csv(args.out, rows, ["t", "variable", "true", "predicted"])
    print(f"wrote {W * N} (t, true, predicted) rows to {args.out}")
    return 0


def cmd_energy(args) -> int:
    if args.limit is not None:
        check("", "--limit", args.limit, (int, AT_LEAST_1))
    model, meta = load_checkpoint(args.model)
    if model.mode != "snn":
        raise ValueError(f"{args.model}: energy profiling requires a converted (snn-mode) checkpoint")
    entries = load_config(args.table, ENERGY_KEYS)  # its errors name the file and line
    try:
        table = EnergyTable.from_config(entries)
    except ValueError as e:
        raise ValueError(f"{args.table}: {e}") from None
    splits = _checkpoint_windows(model, meta, args.model, args.data, args.has_header)
    x = splits.x_train if args.limit is None else splits.x_train[:args.limit]
    counters = OpCounters()
    for i in range(0, x.shape[0], BATCH):  # each report prices every batch so far
        report = profile(model, x[i:i + BATCH], table, counters)
    comparison = None
    if args.compare:  # before any line, so a refusal prints nothing else
        try:
            comparison = compare_ann_energy(report, model.cfg, x.shape[0], table)
        except ValueError as e:
            raise ValueError(f"{args.table}: {e}") from None
    print(report.to_text())
    if comparison is not None:
        print()
        print(comparison.to_text())
    if args.out:
        kv = report.to_kv()
        with open(args.out, "w", encoding="utf-8") as f:
            for k in sorted(kv):
                f.write(f"{k} = {kv[k]:.12e}\n")
        print(f"\nwrote {args.out}")
    return 0


def _verify_checks(model_path: str | None, data_path: str | None,
                   has_header: bool) -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []
    for name, (peak, at) in verify_deviation_bounds().items():
        bound = DEVIATION_BOUNDS[name]
        checks.append((f"pow2 deviation: {name}", peak <= bound,
                       f"max {peak:.4f} at x={at:+.4f}, bound {bound}"))
    for name, gap in branch_continuity_gaps().items():
        checks.append((f"branch continuity: {name}", gap <= 1e-12, f"gap {gap:.2e}"))

    rng = np.random.default_rng(0)
    site = CodeGrid("verify", 0.25, -0.1, 3)
    vals = 0.25 * rng.integers(0, 4, size=500) - 0.1
    codec_gap = float(np.max(np.abs(site.decode(site.codes(vals)) - vals)))
    checks.append(("spike codec round-trip", codec_gap == 0.0, "500 grid values"))

    sim_ok = True
    for _ in range(200):
        T, theta = int(rng.integers(1, 9)), float(rng.uniform(0.05, 2.0))
        drive = np.asarray([rng.uniform(-1.0, 2.5 * T * theta)])
        counts = CodeGrid("verify", theta, 0.0, T).codes(drive)
        sim_ok &= bool(counts[0] == simulate_if(drive, T, theta).sum())
    checks.append(("average-IF vs literal simulator", sim_ok, "200 random cases"))

    if model_path is not None:
        model, meta = load_checkpoint(model_path)
        if data_path is not None:
            x = _checkpoint_windows(model, meta, model_path, data_path, has_header).x_train[:128]
        else:
            x = np.random.default_rng(1).normal(size=(32, model.cfg.history, model.cfg.d_value))
        if model.mode != "snn":
            convert_to_snn(model)
        out_snn = model.forward(x).data
        model.mode = "ann"
        out_ann = model.forward(x).data
        gap = float(np.max(np.abs(out_snn - out_ann)))
        checks.append(("ann/snn forward equivalence", gap <= 1e-9, f"max gap {gap:.2e} on {x.shape[0]} windows"))
    return checks


def cmd_verify(args) -> int:
    if args.data is not None and args.model is None:
        raise ValueError("verify: --data needs --model, whose ann/snn equivalence check runs on its windows")
    if args.has_header and args.data is None:
        raise ValueError("verify: --has-header describes the --data CSV, and no --data was given")
    checks = _verify_checks(args.model, args.data, args.has_header)
    width = max(len(name) for name, _, _ in checks)
    failed = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        failed += 0 if ok else 1
        print(f"{name:<{width}}  {status}  {detail}")
    if failed:
        print(f"{failed} of {len(checks)} checks failed")
        return 1
    print(f"all {len(checks)} checks passed")
    return 0


# --- argument parsing --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="spikescan",
                                 description="Spiking state-space forecaster: train, convert, profile.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, data_required=True):
        p.add_argument("--data", required=data_required, help="CSV series, rows = time steps")
        p.add_argument("--has-header", action="store_true", help="first CSV row is column names")

    p = sub.add_parser("train", help="train a forecaster and write a checkpoint")
    add_common(p)
    p.add_argument("--history", type=int, help="input window length H")
    p.add_argument("--horizon", type=int, help="forecast length G")
    p.add_argument("--bits", type=int, help="activation code width (default 2)")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--out", required=True, help="checkpoint path to write")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("convert", help="convert a trained checkpoint to spiking inference")
    p.add_argument("--in", dest="in_path", required=True, help="trained (ann-mode) checkpoint")
    p.add_argument("--out", required=True, help="converted checkpoint path")
    p.add_argument("--threshold-scale", action="store_true",
                   help="collapse saturated sites to single-spike windows (needs --data)")
    p.add_argument("--data", help="CSV used to observe site saturation")
    p.add_argument("--has-header", action="store_true")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("forecast", help="emit predictions for every history window")
    add_common(p)
    p.add_argument("--model", required=True, help="checkpoint (ann or snn mode)")
    p.add_argument("--out", required=True, help="CSV to write")
    p.set_defaults(fn=cmd_forecast)

    p = sub.add_parser("verify", help="run the built-in verification suite")
    p.add_argument("--model", help="checkpoint to check ann/snn equivalence on")
    p.add_argument("--data", help="CSV for the equivalence check inputs")
    p.add_argument("--has-header", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("energy", help="profile spiking inference under an energy table")
    add_common(p)
    p.add_argument("--model", required=True, help="snn-mode checkpoint")
    p.add_argument("--table", required=True, help="key = value file with e_acc, e_mac, e_shift, e_cmp")
    p.add_argument("--limit", type=int, help="profile at most this many windows")
    p.add_argument("--compare", action="store_true", help="also compare against the dense path")
    p.add_argument("--out", help="write the report as key = value text")
    p.set_defaults(fn=cmd_energy)

    p = sub.add_parser("eval", help="print R2 and RRSE against a labeled series")
    add_common(p)
    p.add_argument("--model", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("plot-data", help="emit (t, variable, true, predicted) rows")
    add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--step", type=int, default=1, help="which forecast step to emit (1-based)")
    p.set_defaults(fn=cmd_plot_data)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
