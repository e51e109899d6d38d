"""Set-up shared by the benchmark scripts: thread pinning, source path, fixed configs.

Import this module before numpy.  It pins the BLAS and OpenMP pools to one
thread, puts the checkout's ``src`` first on ``sys.path`` and refuses to run
against any other copy of ``spikescan``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
if "numpy" in sys.modules:
    raise RuntimeError("perfbench.common must be imported before numpy to pin its thread pools")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "spikescan" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no spikescan sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import spikescan  # noqa: E402
from spikescan.dataset import make_coupled_sinusoids, make_windows  # noqa: E402
from spikescan.ssm import ModelConfig  # noqa: E402

if Path(spikescan.__file__).resolve().parent != (SRC / "spikescan").resolve():
    raise SystemExit(f"perfbench: imported spikescan from {spikescan.__file__}, not from {SRC}")

# README configuration: d_hidden 16, state 4, conv 3, H 12, G 3, bits 2.
HISTORY, HORIZON = 12, 3
MODEL_KW = dict(d_hidden=16, state_size=4, conv_kernel=3, blocks=1, bits=2)
MODEL_SEED = 0
TRAIN_KW = dict(lr=5e-4, batch_size=64, seed=0)
CALIBRATION_WINDOWS = 512  # as ``spikescan train`` does
TRAIN_SERIES_STEPS = 2000

FIXTURE = HERE / "fixture" / "readme_model.ckpt"
FIXTURE_SHA256 = "49c5f74201cf66ab35273ac555da69293442c76d9455916f929d080aebce53e1"


def model_config() -> ModelConfig:
    return ModelConfig(d_value=2, history=HISTORY, horizon=HORIZON, **MODEL_KW)


def train_splits(seed: int):
    """Windows of the README training series, chronological 0.7/0.1/0.2 split."""
    return make_windows(make_coupled_sinusoids(n_steps=TRAIN_SERIES_STEPS, seed=seed), HISTORY, HORIZON)

