"""Self-test of the benchmark: short runs of every workload.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that every metric BENCHMARK.json names is emitted with its unit, that
two runs with the same seed give identical count metrics, and that traced
and untraced runs give identical outputs.  Each workload runs four times for
about a second each, in a subprocess, so the thread pinning of ``common``
applies.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEED = 3
DETERMINISTIC_E2E = ("ok_frac", "quality_mse")
COUNTS = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"]


def run(workload: str, trace: int, tag: str) -> tuple[dict, dict]:
    out = HERE / "out" / f"selftest-{tag}"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((out / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    return result, record


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    w = request.param
    return w, {(trace, tag): run(w, trace, tag) for trace in (0, 1) for tag in ("a", "b")}


def test_every_metric_emitted_with_its_unit(runs):
    _, rs = runs
    for trace, spec in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
        for tag in ("a", "b"):
            result, _ = rs[(trace, tag)]
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"], rs[(trace, tag)][1]["problems"]
            assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            assert emitted == {m["name"]: m["unit"] for m in spec}


def test_same_seed_gives_identical_counts(runs):
    _, rs = runs
    a, b = rs[(0, "a")][0]["metrics"], rs[(0, "b")][0]["metrics"]
    for k in DETERMINISTIC_E2E:
        assert a[k]["value"] == b[k]["value"], k
    a, b = rs[(1, "a")][0]["metrics"], rs[(1, "b")][0]["metrics"]
    for k in COUNTS:
        assert a[k]["value"] == b[k]["value"], k
    operations = {(r["attempted"], r["failed"]) for r, _ in rs.values()}
    assert len(operations) == 1, operations  # the checked pass, whatever the time allows
    digests = {rec["reference_sha256"] for _, rec in rs.values()}
    assert len(digests) == 1


def test_traced_outputs_identical_to_untraced(runs):
    _, rs = runs
    for tag in ("a", "b"):
        record = rs[(1, tag)][1]
        assert record["traced_identical"] and record["samples"]["compared_calls"] >= 1
    firsts = {rec["first_output_sha256"] for _, rec in rs.values()}
    assert len(firsts) == 1
