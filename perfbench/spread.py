"""Run every workload over several seeds and report how steady it is.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--baseline out.json]

For each workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread -- the
interquartile distance over the median -- next to a third of the
metric's bound from ``BENCHMARK.json``.  With ``--baseline`` it also
runs one traced run per workload and writes every figure to a JSON
file (``perfbench/baseline.json`` records the seed's).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import measure


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def _run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, check=False)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["run_seconds"] = elapsed
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--baseline", default="")
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = ([w for w in args.workloads.split(",") if w]
             or [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record: dict = {"host": f"{platform.machine()}, Python {platform.python_version()}",
                    "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in names:
        runs = [_run(spec, workload, seed, 0) for seed in _seeds(args.seeds)]
        entry: dict = {"runs": len(runs),
                       "correct": all(r["correct"] for r in runs),
                       "max_run_seconds": max(r["run_seconds"] for r in runs),
                       "end_to_end": {}}
        print(f"{workload}: {len(runs)} runs, all correct: {entry['correct']}, "
              f"longest run {entry['max_run_seconds']:.1f} s")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = measure.spread(values)
            entry["end_to_end"][metric] = {
                "median": statistics.median(values), "q1": q1, "q3": q3,
                "spread": spread, "unit": runs[0]["metrics"][metric]["unit"]}
            flag = "ok" if spread < bound / 3 else "WIDE"
            print(f"  {metric:14s} median {statistics.median(values):10.4f}  "
                  f"q1 {q1:10.4f}  q3 {q3:10.4f}  spread {spread:6.3f}  "
                  f"bound/3 {bound / 3:5.3f}  {flag}")
            print("    " + " ".join(f"{v:.4g}" for v in values))
        if args.baseline:
            traced = _run(spec, workload, _seeds(args.seeds)[0], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["traced_run_seconds"] = traced["run_seconds"]
        record["workloads"][workload] = entry
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
