"""Forecast bytes of seeded models beyond the benchmark fixture, pinned in both modes.

Each model covers a corner of the code grids the spiking forward reads: one
and four bits (windows T = 1 and T = 15), state sizes 5 and 9, and sites
threshold-scaled to a single spike.  Batch 1 reads every site by threshold
search; batches 37 and 256 count by arithmetic.  A change of these bytes is a
change of the model's arithmetic.
"""

import hashlib

import numpy as np
import pytest

from spikescan.ssm import SPIKE_SITES, ForecastModel, ModelConfig
from spikescan.train import convert_to_snn

# name: (model config, threshold-scaled sites)
MODELS = {
    "bits1_state5": (dict(bits=1, state_size=5, d_hidden=8), ()),
    "bits4_state9": (dict(bits=4, state_size=9, d_hidden=6, blocks=2), ()),
    "bits3_state5_scaled": (dict(bits=3, state_size=5, blocks=2), ("x_in", "h", "y")),
    "bits2_state9_scaled": (dict(bits=2, state_size=9), SPIKE_SITES),
}

# SHA-256 of each model's forecasts of 256 unseen windows, numpy 2.4.6 with its bundled OpenBLAS;
# every batch size gives these bytes
FORECAST_SHA256 = {
    ("bits1_state5", "ann"):
        "8d8ba25d8d839d190fcf0723d8ef6a0370e041bfaf6951e9ffbef64b3513a983",
    ("bits1_state5", "snn"):
        "8d8ba25d8d839d190fcf0723d8ef6a0370e041bfaf6951e9ffbef64b3513a983",
    ("bits4_state9", "ann"):
        "3b6c51c3ba2a250d6ca81f7b7f9ddfb1a01716827027b08fc7cdb9e85093b1a7",
    ("bits4_state9", "snn"):
        "3b6c51c3ba2a250d6ca81f7b7f9ddfb1a01716827027b08fc7cdb9e85093b1a7",
    ("bits3_state5_scaled", "ann"):
        "6d0ce8a12d87f2a1968dd0e5084815ccb8cb85d9c0f10c6d78bc4492c8bdc894",
    ("bits3_state5_scaled", "snn"):
        "99502c008364d5fdaa88cd6f47eb1029b743109cd14de8007d95d7303a605835",
    ("bits2_state9_scaled", "ann"):
        "81533507087adc06920a5c6ec01c70639e7e0cbfdd239a6510eae2697cb4fba7",
    ("bits2_state9_scaled", "snn"):
        "fcb4b49e9b7ac3ae24994b41feacadb77d6b3196d3893d88b1395d7e3cf3e6ce",
}


def seeded_model(name: str) -> tuple[ForecastModel, np.ndarray]:
    """Model ``name`` calibrated with negative site offsets, and 256 windows it was not calibrated on."""
    kw, scaled = MODELS[name]
    cfg = ModelConfig(d_value=3, history=12, horizon=3, conv_kernel=3, **kw)
    seed = sorted(MODELS).index(name)
    m = ForecastModel.build(cfg, seed=seed)
    rng = np.random.default_rng(100 + seed)
    for blk in m.blocks:
        for s in ("x_in", "conv", "delta_raw", "h", "y"):
            blk.quantizers[s].set_beta(-rng.uniform(0.05, 0.5))
    m.calibrate(rng.normal(size=(64, cfg.history, cfg.d_value)))
    convert_to_snn(m)
    for blk in m.blocks:
        for s in scaled:
            blk.sites[s] = blk.sites[s].threshold_scale()
    return m, 2.0 * rng.normal(size=(256, cfg.history, cfg.d_value))


@pytest.mark.parametrize("mode", ["ann", "snn"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_seeded_forecasts_are_pinned_to_the_byte(name, mode):
    m, x = seeded_model(name)
    m.mode = mode
    for batch in (1, 37, 256):
        out = np.concatenate([m.forward(x[i:i + batch]).data for i in range(0, len(x), batch)])
        assert hashlib.sha256(out.tobytes()).hexdigest() == FORECAST_SHA256[name, mode], batch
