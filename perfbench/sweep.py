#!/usr/bin/env python3
"""Run the benchmark over ten seeds and record medians, quartiles and spread.

    python3 perfbench/sweep.py --out perfbench/results/<name>.json

Each workload named in BENCHMARK.json runs ten times untraced for
`run_seconds`, with seeds 1 to 10, and once traced with seed 1.  For every end-to-end metric the file gets
the ten values, their median and quartiles (`statistics.quantiles(n=4)`),
the spread (quartile distance over median) and the metric's bound; a
spread of a third of the bound or more is flagged as unsteady.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-2])["environment"], json.loads(lines[-1])


def summarize(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values,
            "bound": bound, "steady": spread < bound / 3}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"runs": len(SEEDS), "seconds": seconds, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in SEEDS:
            env, result = run_once(workload, seed, seconds, 0)
            report.setdefault("environment", env)
            results.append(result)
            print(workload, seed, json.dumps(result["metrics"]), file=sys.stderr)
        _, traced = run_once(workload, SEEDS[0], seconds, 1)
        end_to_end = {name: summarize([r["metrics"][name]["value"] for r in results], bound)
                      for name, bound in bounds.items()}
        report["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for name, s in end_to_end.items():
            print(f"{workload:15s} {name:22s} median {s['median']:12.4f} "
                  f"spread {s['spread']:.4f} bound {s['bound']}"
                  f"{'' if s['steady'] else '  UNSTEADY'}")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
