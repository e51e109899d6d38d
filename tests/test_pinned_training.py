"""Training bytes of seeded models, pinned: the parameters a few epochs reach and the validation losses.

Each model covers a corner of the taped forward and its backward: the README
config, one and four bits, two blocks, state sizes 5 and 9, and a state site
whose drive clips below code 0 and above the top code.  Every epoch ends in a
partial batch (64, 64, then 46 windows).  A change of these bytes is a change
of the training arithmetic.
"""

import hashlib

import numpy as np
import pytest

from spikescan import ssm
from spikescan.dataset import make_coupled_sinusoids, make_windows
from spikescan.ssm import ForecastModel, ModelConfig
from spikescan.train import TrainConfig, train

MODELS = {
    "readme": {},
    "bits1": dict(bits=1),
    "bits4": dict(bits=4),
    "blocks2": dict(blocks=2),
    "state5": dict(state_size=5),
    "state9": dict(state_size=9),
    "h_clips_both": {},
}

# SHA-256 of (trained parameters, validation losses) per model, numpy 2.4.6 with its bundled OpenBLAS
TRAINING_SHA256 = {
    "readme": ("92f41c3620a0dc4962bf681109763b7a439c094789316cc4e9df86e81b97e4f1",
               "47ac857b9a3eb7b8a2a1cdca43fce89a2564058004c71fb09f73ed1cf23e8088"),
    "bits1": ("b3f34066660205361f05c889eb997a0c47715b544b7d150769ba6f6196e6232b",
              "461b1ffb45df5a2dfa37e34fbfe4556c530e02947a70a989e11f97d9437eacd1"),
    "bits4": ("d449aea4629eeb4042f7b8e0ac8058f49755c61d84984915661c47bad7fc7373",
              "f6587c984c56d98777f9aab6a43de2a035a8a8f3da5a31258d9732c8e1087c73"),
    "blocks2": ("1b0b1cc13da76bd411a557712967b4d8cc71d59e3c697a7255ddf3da644c6145",
                "1dec807be16cdb4a8b43c02e79cdb083af69b748e0ac799c620c7ac143a51fda"),
    "state5": ("e6be25eb962aa658b71e7d3202f21bd649052ce98726a0b73cf5c2d8fa48553c",
               "56e3ad565636e572d87aa16296845580a5a00a0a21a31c9d99d4450f491bc7c7"),
    "state9": ("3dac58eb6d1b4155e7fa9f650b44448b0cd0433ff582eaf0c8604e9ce3014a02",
               "63a25657605b37cb25cba4b44447660bbeb77c3bc46fcf07c07bf7d1700ebab6"),
    "h_clips_both": ("925bedea117a3ff23f4b05e887abc3567c3e8b26ea582de1fc827c30d2612eab",
                     "50a9ab8d60524679cb860f02831974c94196cdde443b54dbca74e26199d09059"),
}


def seeded_run(name: str):
    """Model ``name``, calibrated, and its train (174 windows) and validation splits."""
    seed = sorted(MODELS).index(name)
    sp = make_windows(make_coupled_sinusoids(n_steps=300, seed=seed), 12, 3)
    m = ForecastModel.build(ModelConfig(d_value=2, history=12, horizon=3, **MODELS[name]), seed=seed)
    if name == "h_clips_both":
        q = m.blocks[0].quantizers["h"]
        q.set_beta(0.05)
        m.calibrate(sp.x_train)
        q.set_alpha(float(q.alpha.data) / 4)
    else:
        m.calibrate(sp.x_train)
    return m, sp.x_train[:174], sp.y_train[:174], sp.x_val, sp.y_val


def test_the_clipping_model_clips_its_state_on_both_sides(monkeypatch):
    m, x, *_ = seeded_run("h_clips_both")
    q = m.blocks[0].quantizers["h"]
    lo, hi = [], []
    quantize_values = ssm.quantize_values

    def watching(h, quantizer, *args, **kw):
        if quantizer is q:
            v = (h - q.beta.data) / q.alpha.data
            lo.append(v.min())
            hi.append(v.max())
        return quantize_values(h, quantizer, *args, **kw)

    monkeypatch.setattr(ssm, "quantize_values", watching)
    m.forward(x[:64])
    assert min(lo) < 0 and max(hi) > q.code_max


@pytest.mark.parametrize("name", sorted(MODELS))
def test_training_is_pinned_to_the_byte(name):
    m, x, y, xv, yv = seeded_run(name)
    res = train(m, x, y, xv, yv, TrainConfig(max_epochs=3, seed=7))
    params = b"".join(p.data.tobytes() for p in m.parameters())
    got = (hashlib.sha256(params).hexdigest(),
           hashlib.sha256(np.array(res.val_losses).tobytes()).hexdigest())
    assert got == TRAINING_SHA256[name]
