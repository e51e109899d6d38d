"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracing.py`` patches names of the package by attribute (for
example ``ssm.pow2_shift`` and ``numerics.take_axis1``); a renamed or deleted
name makes ``run.py --trace 1`` abort.  The check runs in a subprocess so a
partial install cannot leak wrappers into the other tests.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import numpy as np
import tracing
from spikescan.ssm import ForecastModel, ModelConfig
from spikescan.train import convert_to_snn

cfg = ModelConfig(d_value=2, history=8, horizon=2, d_hidden=4, state_size=2, conv_kernel=3)
m = ForecastModel.build(cfg, seed=0)
x = np.random.default_rng(0).normal(size=(4, cfg.history, cfg.d_value))
m.calibrate(x)
convert_to_snn(m)
plain = m.forward(x).data
tracer = tracing.Tracer()
patches = tracing.install(tracer)
try:
    tracer.open("op")
    traced = m.forward(x, counters=tracing.TimingCounters(tracer, count=True)).data
    tracer.close()
finally:
    left = patches.restore()
print(json.dumps({{"left": left, "identical": bool(np.array_equal(plain, traced)),
                   "spans": sorted(tracer.self_s)}}))
"""


def test_tracer_installs_and_restores_cleanly():
    script = SCRIPT.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["left"] == []
    assert out["identical"]
    # scan time and encode time stay apart in the spiking forward
    for span in ("ssm.snn.scan", "spike.encode", "spike.pow2_shift", "ssm.block_forward_snn"):
        assert span in out["spans"]
