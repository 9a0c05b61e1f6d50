"""The repository's benchmark: one command, named workloads, every metric.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload frontier_cold --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload from outside (CLI subprocesses, a
real ``repro serve`` over sockets) with no tracing and prints the
end-to-end metrics; ``--trace 1`` runs the traced session instead and
prints the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  NOTES.md explains every
metric and which layer moves which end-to-end figure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

import measure
import program
import workloads


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print("perfbench: run from the root of a checkout that holds "
              "src/repro", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    co = program.Checkout(root)
    try:
        if args.trace:
            import traced

            outcome = traced.run(co, args.workload, rng)
        else:
            outcome = workloads.WORKLOADS[args.workload](co, rng, args.seconds)
    finally:
        co.close()
    ratio = measure.failed_ratio(outcome.attempted, outcome.failed)
    print(f"{args.workload} (seed {args.seed}, trace {args.trace})")
    rows = [(name, value, unit, n)
            for name, (value, unit, n) in outcome.metrics.items()]
    rows += outcome.report
    rows.append(("failed_ratio", ratio, "ratio", outcome.attempted))
    for name, value, unit, n in rows:
        print(f"  {name:32s} {value:14.6g} {unit:8s} n={n}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
