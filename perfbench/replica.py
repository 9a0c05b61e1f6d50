"""In-process replicas of the workloads, run as one child process each.

``python perfbench/replica.py <spec.json> <out.json>`` calls the same
public functions the CLI commands call -- the frontier sweep, the
Figure 15 zoo campaign, the service's ``handle_http`` -- with the
same arguments, either bare (to time them untraced) or with every
layer boundary wrapped in spans (:mod:`spans`).  A fresh process per
replica keeps the program's in-process memos (traces, compiled
runners) as cold as a CLI invocation finds them.  The spec names the
parts to run; the output holds walls, spans, and the values the
traced run cross-checks.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from pathlib import Path

import spans


def frontier_sweep(cache_dir: str):
    """``repro frontier --tech all -n 8000 --cache-dir <cache_dir>``."""
    from repro.core import machines
    from repro.core.campaign import ResultCache
    from repro.core.frontier import (
        DEFAULT_WINDOW_SIZES,
        design_space_frontier,
        format_frontier,
    )
    from repro.technology import TECHNOLOGIES

    grid = {f"window-{size}": machines.baseline_8way(window_size=size)
            for size in DEFAULT_WINDOW_SIZES}
    grid.update(machines.machine_registry())
    points, _profile = design_space_frontier(
        techs=list(TECHNOLOGIES), machines=grid, max_instructions=8000,
        jobs=1, cache=ResultCache(cache_dir))
    return format_frontier(points)


def zoo_campaign(first: list):
    """``repro campaign fig15 --workloads zoo -n 20000 -j 2 --no-cache``."""
    from repro.core import campaign
    from repro.core.experiments import figure_configs
    from repro.core.results_io import result_to_dict
    from repro.workloads import ZOO_NAMES

    def heartbeat(_beat) -> None:
        if not first:
            first.append(time.perf_counter())

    result, _profile = campaign.run_campaign(
        figure_configs("fig15"), workloads=ZOO_NAMES, max_instructions=20000,
        name="fig15", jobs=2, cache=None, heartbeat=heartbeat)
    return result_to_dict(result)


def service_loop(cache_dir: str, targets: list[str], keep: set[int],
                 recorder) -> list[dict]:
    """Answer ``targets`` one after another through ``handle_http``."""
    from repro.service.app import DesignSpaceService

    service = DesignSpaceService(cache_dir=cache_dir, jobs=1,
                                 instructions=8000)
    replies = []

    async def drive() -> None:
        for index, target in enumerate(targets):
            route = "frontier" if target.startswith("/v1/frontier") else "cell"
            start = time.perf_counter()
            if recorder is None:
                status, _, body = await service.handle_http("GET", target)
            else:
                with recorder.span("service.handle_http", route=route):
                    status, _, body = await service.handle_http("GET", target)
            replies.append({
                "route": route, "status": status,
                "seconds": time.perf_counter() - start,
                "stats": json.loads(body)["stats"] if index in keep else None,
            })

    try:
        asyncio.run(drive())
    finally:
        service.close()
    return replies


def main(spec_path: str, out_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    import repro.cli  # noqa: F401 -- the CLI pays its imports before work

    recorder = None
    if spec["traced"]:
        recorder = spans.SpanRecorder()
        spans.install(recorder)
    out: dict = {"walls": {}}

    def timed(name: str, call):
        start = time.perf_counter()
        if recorder is None:
            value = call()
        else:
            with recorder.span(name):
                value = call()
        out["walls"][name] = time.perf_counter() - start
        return value

    parts = spec["parts"]
    cache = spec.get("cache")
    if "cold" in parts:
        out["table"] = timed("frontier.cold_sweep", lambda: frontier_sweep(cache))
    if "warm" in parts:
        out["warm_table"] = timed("frontier.warm_sweep",
                                  lambda: frontier_sweep(cache))
    if "service" in parts:
        keep = set(spec.get("keep", ()))
        out["replies"] = timed("service.loop", lambda: service_loop(
            cache, spec["targets"], keep, recorder))
    if "zoo" in parts:
        first: list = []
        start = time.perf_counter()
        out["zoo"] = timed("campaign.zoo", lambda: zoo_campaign(first))
        out["first_result_s"] = first[0] - start if first else None
    if recorder is not None:
        out["spans"] = recorder.spans
    Path(out_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
