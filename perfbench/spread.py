#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py                         # every workload, seed 0
    python3 perfbench/spread.py --seeds 0 1 2 3 4 5 6 7 8 9 --trace --out spread.json

Each run is a fresh ``perfbench/run.py`` process, one after another, on
every workload of BENCHMARK.json at its ``run_seconds``, so that the spreads
compare with the bounds printed beside them. For each workload and
end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json, and
failed_ratio, the failed tasks over the tasks attempted. With ``--trace`` it
also makes one traced run per workload on the first seed and keeps its
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(ln[len("# env "):]) for ln in lines if ln.startswith("# env "))
    return json.loads(lines[-1]), env


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--trace", action="store_true", help="add one traced run per workload")
    ap.add_argument("--out", help="write every run and the summary as JSON")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    record = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            result, record["environment"] = run_once(workload, seed, seconds, 0)
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        summary = {"failed_ratio": failed / attempted}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            if len(values) >= 2:
                s = summarize(values)
                print(f"  {name:12s} median={s['median']:.6g} {unit} q1={s['q1']:.6g} "
                      f"q3={s['q3']:.6g} spread={s['spread']:.4f} bound={bound} "
                      f"({'ok' if s['spread'] <= bound / 3 else 'WIDE'})")
            else:
                s = {"median": values[0]}
                print(f"  {name:12s} {values[0]:.6g} {unit}")
            summary[name] = s
        print(f"  failed_ratio {summary['failed_ratio']:.6g} ratio ({failed} of {attempted} tasks)")
        record["workloads"][workload] = {"runs": runs, "summary": summary}
        if args.trace:
            traced, _ = run_once(workload, args.seeds[0], seconds, 1)
            print(f"  traced run: correct={traced['correct']} "
                  f"trace.overhead_s={traced['metrics']['trace.overhead_s']['value']:.4g}")
            record["workloads"][workload]["traced"] = traced
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
