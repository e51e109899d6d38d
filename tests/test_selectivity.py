"""How selective the scan's step is on unseen windows.

The paper's scan is selective: the step, and with it the decay
``2 ** clip(rint(step * A))``, is computed from each token.  Per state entry
(channel, state index) this measures the share of tokens whose decay exponent
differs from that entry's most common one: 0 for an entry whose decay never
depends on its input.
"""

from pathlib import Path

import numpy as np

from spikescan import ssm
from spikescan.dataset import make_coupled_sinusoids, make_windows
from spikescan.ssm import EXP_HI, EXP_LO, ForecastModel
from spikescan.train import load_checkpoint

FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixture" / "readme_model.ckpt"

RESULTS: list[str] = []


def exponent_spread(monkeypatch, model, x) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per block, each state entry's share of tokens off its most common decay exponent, and that
    exponent, [d_hidden, state_size] each, from the step and ``A`` the forward hands its scan."""
    seen, scan = [], ssm.selective_scan

    def spy(step, A, *args, **kwargs):
        seen.append((step.copy(), A.copy()))
        return scan(step, A, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(ssm, "selective_scan", spy)
        model.forward(x)
    spread = []
    for step, A in seen:
        e = np.clip(np.rint(step[..., None] * A), EXP_LO, EXP_HI).reshape(-1, *A.shape)  # [tokens, dh, n]
        counts = np.stack([(e == k).sum(axis=0) for k in range(EXP_LO, EXP_HI + 1)])
        spread.append((1.0 - counts.max(axis=0) / len(e), EXP_LO + counts.argmax(axis=0)))
    return spread


def test_selectivity_report(monkeypatch):
    """The benchmark fixture's decay exponents never depend on the token: every one of its 64 state
    entries keeps one exponent over 512 unseen windows, 36 of them 0 (a running sum over the window).
    A model whose step varies with the token reads above 0, so the measure can see selectivity."""
    m, meta = load_checkpoint(str(FIXTURE))
    norm = meta["norm"]
    x = make_windows(make_coupled_sinusoids(n_steps=600, seed=8675309), m.cfg.history, m.cfg.horizon,
                     (1.0, 0.0, 0.0), stats=(np.asarray(norm["mean"]), np.asarray(norm["std"]))).x_train[:512]
    assert len(x) == 512
    [(share, common)] = exponent_spread(monkeypatch, m, x)
    # a fresh model of the fixture's config whose delta path moves: delta_raw codes that change with the
    # token, a larger W_delta and b_delta spread over the delta_int codes
    spread = ForecastModel.build(m.cfg, seed=0)
    for blk in spread.blocks:
        blk.quantizers["delta_raw"].set_beta(-0.25)
        blk.W_delta.data *= 4.0
        blk.b_delta.data[:] = np.linspace(0.0, 2 ** m.cfg.bits - 1, m.cfg.d_hidden)
    spread.calibrate(x)
    [(spread_share, _)] = exponent_spread(monkeypatch, spread, x)
    line = (f"fixture: {share.size} state entries, share of tokens off the most common decay exponent "
            f"max {share.max():.3g}, median {np.median(share):.3g}, {int((common == 0).sum())} entries at "
            f"exponent 0; spread delta path: max {spread_share.max():.3g}, "
            f"{int((spread_share > 0).sum())} of {spread_share.size} entries above 0")
    RESULTS.append(line)
    print(line)
    assert share.size == 64 and share.max() == 0.0
    assert (common == 0).sum() == 36
    assert spread_share.max() > 0.0
