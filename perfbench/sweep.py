"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/sweep.py --workloads train stream_forecast --seeds 1-10 \
        [--seconds 10] [--out perfbench/out/sweep.json]

Runs one process at a time and waits for each.  For every workload and
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, (Q3 - Q1) / median, next to the bound in BENCHMARK.json.
The summary written with ``--out`` also holds the environment stamp of the
first run and the unscaled timings of every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary: dict = {"seconds": seconds, "workloads": {}}
    records_dir = HERE / "out" / "sweep"
    for w in args.workloads:
        runs, records = [], []
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed), "--seconds", str(seconds),
                                      "--trace", "0", "--out", str(records_dir)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            records.append(json.loads((records_dir / f"{w}-seed{seed}-trace0.json").read_text()))
        metrics = {k: summarize([r["metrics"][k]["value"] for r in runs]) for k in runs[0]["metrics"]}
        summary["workloads"][w] = {
            "env": records[0]["env"],
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": metrics,
            "unscaled": [rec.get("raw_timings") for rec in records],
            "probe_ms": [rec.get("probe_ms") for rec in records],
        }
        print(f"{w}: correct={summary['workloads'][w]['correct']}")
        for k, s in metrics.items():
            b = bounds.get(k)
            flag = "" if b is None else ("  < bound/3" if s["spread"] < b / 3
                                         else "  < bound" if s["spread"] < b else "  OVER BOUND")
            print(f"  {k:<34} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.4f}" + ("" if b is None else f" bound {b}") + flag)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
