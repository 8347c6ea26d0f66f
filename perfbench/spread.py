#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads pipeline bigtable --seeds 101-110 --seconds 20

Runs run.py once per workload and seed, one after another, and prints for
each metric the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median.  --json writes the same table to a file.  A
later change claims a gain or a loss only beyond the spread measured here.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"provenance": json.loads(lines[-2])["provenance"], "result": json.loads(lines[-1])}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("101-110"))
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    table = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds) for seed in args.seeds]
        if not all(r["result"]["correct"] for r in runs):
            print(f"{workload}: a run reported correct = false", file=sys.stderr)
            return 1
        metrics = runs[0]["result"]["metrics"]
        row = {m: quartiles([r["result"]["metrics"][m]["value"] for r in runs]) for m in metrics}
        row["wall_op_p50_ms"] = quartiles([r["provenance"]["wall"]["op_p50_ms"] for r in runs])
        row["host_speed"] = quartiles([r["provenance"]["host_speed"]["op_median"] for r in runs])
        row["seeds"] = args.seeds
        row["ops_per_run"] = statistics.median(r["result"]["attempted"] for r in runs)
        table[workload] = row
        for m, q in row.items():
            if isinstance(q, dict):
                print(f"{workload:9s} {m:15s} median {q['median']:12.5g}  q1 {q['q1']:12.5g}  "
                      f"q3 {q['q3']:12.5g}  spread {q['spread']:.3f}", flush=True)
    if args.json:
        args.json.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
