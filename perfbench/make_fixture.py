"""Regenerate the frozen README-trained checkpoint the forecast workloads load.

    python3 perfbench/make_fixture.py

Model seed 0, ``make_coupled_sinusoids(2000, seed=0)``, calibration on the
first 512 training windows, then up to 120 epochs with patience 20, as
``spikescan train`` does with the README config.  Takes about a minute on
one core.  Prints the SHA-256 to paste into ``common.FIXTURE_SHA256``; the
benchmark refuses a checkpoint whose hash differs.
"""

from __future__ import annotations

import hashlib
import time

from common import (CALIBRATION_WINDOWS, FIXTURE, MODEL_SEED, TRAIN_KW,  # first: pins threads
                    model_config, train_splits)

from spikescan.ssm import ForecastModel
from spikescan.train import TrainConfig, save_checkpoint, train

FIXTURE_EPOCHS = 120
FIXTURE_PATIENCE = 20


def main() -> None:
    t0 = time.perf_counter()
    sp = train_splits(seed=0)
    model = ForecastModel.build(model_config(), seed=MODEL_SEED)
    model.calibrate(sp.x_train[:CALIBRATION_WINDOWS])
    res = train(model, sp.x_train, sp.y_train, sp.x_val, sp.y_val,
                TrainConfig(max_epochs=FIXTURE_EPOCHS, patience=FIXTURE_PATIENCE, **TRAIN_KW))
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(str(FIXTURE), model,
                    norm={"mean": sp.mean.tolist(), "std": sp.std.tolist()},
                    extra={"data": "make_coupled_sinusoids(n_steps=2000, seed=0)",
                           "epochs_run": res.epochs_run, "best_val": res.best_val})
    digest = hashlib.sha256(FIXTURE.read_bytes()).hexdigest()
    print(f"trained {res.epochs_run} epochs, best val mse {res.best_val:.6f} "
          f"at epoch {res.best_epoch} ({time.perf_counter() - t0:.0f} s)")
    print(f"wrote {FIXTURE}")
    print(f"sha256 {digest}")


if __name__ == "__main__":
    main()
