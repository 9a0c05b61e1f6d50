"""The traced run (``--trace 1``): per-layer metrics and their checks.

Every traced run profiles the whole program the same way, whatever
the workload, so each per-layer metric exists on every workload:

1. ``python -X importtime -c "import repro.cli"`` three times (``cli``).
2. A traced replica of the cold frontier sweep.
3. In a second process, the warm frontier sweep on that cache,
   followed by seeded ``/v1/cell`` and ``/v1/frontier`` requests
   through ``handle_http``.
4. A traced replica of the zoo campaign on a 2-process pool.
5. A real ``repro serve`` on that cache, driven over 2 keep-alive
   connections, for the socket share and the per-route latency.
6. Fresh in-process simulations of seeded samples of cells, against
   which the served and the zoo stats are checked, and a check that
   the compiled pipeline equals the interpreter on them.

The named workload then runs its replica again without spans, for
the tracing overhead and the wall time no layer span covers; the
frontier workload also checks the replica's table against the CLI's.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import measure
import workloads as wl
from program import Checkout, closed_loop
from workloads import Outcome

HERE = Path(__file__).resolve().parent

#: Requests answered in process through ``handle_http``.
HANDLE_REQUESTS = 300

#: Requests sent over sockets to the real server.
SOCKET_REQUESTS = 600


def replica(co: Checkout, out: Outcome, spec: dict) -> dict:
    """Run one replica process; returns its output document."""
    spec_path = co.fresh_dir("replica") / "spec.json"
    out_path = spec_path.with_name("out.json")
    spec_path.write_text(json.dumps(spec))
    result = co.python(str(HERE / "replica.py"), str(spec_path),
                       str(out_path), record=False)
    if not out.command(result, f"replica {spec['parts']}"):
        raise RuntimeError(f"replica {spec['parts']} failed")
    return json.loads(out_path.read_text())


def _registry_names(co: Checkout) -> list[str]:
    if str(co.src) not in sys.path:
        sys.path.insert(0, str(co.src))
    from repro.core.machines import MACHINE_REGISTRY

    return list(MACHINE_REGISTRY)


def _kept_cells(rng: random.Random, targets: list[str]) -> list[int]:
    cells = [i for i, t in enumerate(targets) if t.startswith("/v1/cell")]
    return sorted(rng.sample(cells, wl.CROSS_CHECK_CELLS))


def _cell_of(target: str) -> tuple[str, str]:
    query = dict(part.split("=") for part in target.split("?", 1)[1].split("&"))
    return query["machine"], query["workload"]


class Layers:
    """Aggregates over the spans of the traced replicas."""

    def __init__(self, spans: list[dict]) -> None:
        self.self_time = measure.self_times(spans)
        self.by_name: dict[str, list[dict]] = defaultdict(list)
        for span in spans:
            self.by_name[span["name"]].append(span)

    def spans(self, name: str) -> list[dict]:
        found = self.by_name.get(name)
        if not found:
            raise RuntimeError(f"the traced run recorded no {name!r} span")
        return found

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans(name))

    def self_total(self, name: str) -> float:
        return sum(self.self_time[s["id"]] for s in self.spans(name))

    def median_us(self, name: str) -> float:
        return statistics.median([s["end"] - s["start"]
                               for s in self.spans(name)]) * 1e6

    def count(self, name: str) -> int:
        return len(self.spans(name))

    def attr_sum(self, name: str, key: str) -> int:
        return sum(s[key] for s in self.spans(name))


def run(co: Checkout, workload: str, rng: random.Random) -> Outcome:
    out = Outcome()
    metrics = out.metrics

    imports, heavy = [], []
    for _ in range(3):
        result = co.python("-X", "importtime", "-c", "import repro.cli",
                           record=False)
        out.command(result, "import repro.cli")
        module_s, heavy_s = measure.import_times(result.stderr, "repro.cli")
        imports.append(module_s)
        heavy.append(heavy_s)
    metrics["cli.import_s"] = (statistics.median(imports), "s", 3)
    metrics["cli.import_numpy_scipy_s"] = (statistics.median(heavy), "s", 3)

    names = _registry_names(co)
    handle_targets = wl.service_targets(rng, names, HANDLE_REQUESTS)
    socket_targets = wl.service_targets(rng, names, SOCKET_REQUESTS)
    handle_keep = _kept_cells(rng, handle_targets)
    socket_keep = _kept_cells(rng, socket_targets)
    sample = sorted({_cell_of(handle_targets[i]) for i in handle_keep}
                    | {_cell_of(socket_targets[i]) for i in socket_keep}
                    | {(rng.choice(["baseline", "ports_limited"]),
                        rng.choice(wl.KERNELS))})

    # Each traced part runs in a fresh process, as its untraced twin
    # and the CLI command do, so all three start from the same state.
    cache = co.fresh_dir("cache")
    cold = replica(co, out, {"traced": True, "parts": ["cold"],
                             "cache": str(cache)})
    frontier = replica(co, out, {
        "traced": True, "parts": ["warm", "service"], "cache": str(cache),
        "targets": handle_targets, "keep": handle_keep})
    zoo = replica(co, out, {"traced": True, "parts": ["zoo"]})

    out.check(cold["table"] == frontier["warm_table"],
              "traced cold and warm frontier tables differ")
    program = wl.InProcess(co)
    reference = {}
    for cell in sample:
        compiled = program.stats(*cell, wl.SERVE_INSTRUCTIONS)
        out.check(compiled == program.stats(*cell, wl.SERVE_INSTRUCTIONS,
                                            mode="fast"),
                  f"compiled and interpreter stats differ on {cell}")
        reference[cell] = compiled
    _check_zoo(out, rng, program, zoo["zoo"]["stats"])
    handle = {"cell": [], "frontier": []}
    for index, reply in enumerate(frontier["replies"]):
        out.check(reply["status"] == 200,
                  f"in-process {handle_targets[index]} answered {reply['status']}")
        handle[reply["route"]].append(reply["seconds"])
        if reply["stats"] is not None:
            cell = _cell_of(handle_targets[index])
            out.check(reply["stats"] == reference[cell],
                      f"in-process {cell} stats differ from a fresh simulation")

    server = co.start_server(cache, "-n", str(wl.SERVE_INSTRUCTIONS))
    try:
        replies, _ = closed_loop(server.port, socket_targets,
                                 wl.SERVE_CONNECTIONS, set(socket_keep))
        memo_ratio, hits = wl.check_warm_server(out, server.port)
    finally:
        out.command(server.stop(), "repro serve")
    client = {"cell": [], "frontier": []}
    for reply in replies:
        out.check(reply.status == 200, f"{reply.target} answered {reply.status}")
        client["frontier" if "frontier" in reply.target else "cell"].append(
            reply.seconds)
        if reply.body is not None:
            cell = _cell_of(reply.target)
            out.check(json.loads(reply.body)["stats"] == reference[cell],
                      f"served {cell} stats differ from a fresh simulation")

    layers = Layers(cold["spans"] + frontier["spans"] + zoo["spans"])
    compiled_s = layers.self_total("pipeline.compiled")
    fallback_s = layers.self_total("pipeline.fallback")
    cycles = (layers.attr_sum("pipeline.compiled", "cycles")
              + layers.attr_sum("pipeline.fallback", "cycles"))
    committed = (layers.attr_sum("pipeline.compiled", "committed")
                 + layers.attr_sum("pipeline.fallback", "committed"))
    loads = layers.spans("campaign.cache_load")
    (pool,) = layers.spans("campaign.pool")
    pool_wall = pool["end"] - pool["start"]
    cell_seconds = [s["end"] - s["start"] for s in zoo["spans"]
                    if s["name"] == "campaign.simulate_cell"]
    handle_cell = statistics.median(handle["cell"])
    client_cell = statistics.median(client["cell"])
    n = layers.count
    rows = {
        "workloads.kernel_trace_s": (layers.total("workloads.kernel_trace"), "s",
                                     n("workloads.kernel_trace")),
        "workloads.synthetic_trace_s": (layers.total("workloads.synthetic_trace"), "s",
                                        n("workloads.synthetic_trace")),
        "workloads.identity_us": (layers.median_us("workloads.identity"), "us",
                                  n("workloads.identity")),
        "preanalysis.s": (layers.total("preanalysis.preanalyze"), "s",
                          n("preanalysis.preanalyze")),
        "compile.s": (layers.total("compile.compiled_runner"), "s",
                      n("compile.compiled_runner")),
        "compile.compiled_cells": (n("pipeline.compiled"), "count", 1),
        "compile.fallback_cells": (n("pipeline.fallback"), "count", 1),
        "pipeline.compiled_s": (compiled_s, "s", n("pipeline.compiled")),
        "pipeline.fallback_s": (fallback_s, "s", n("pipeline.fallback")),
        "pipeline.compiled_kinst_per_s": (
            layers.attr_sum("pipeline.compiled", "committed") / compiled_s / 1e3,
            "kinst/s", n("pipeline.compiled")),
        "pipeline.fallback_kinst_per_s": (
            layers.attr_sum("pipeline.fallback", "committed") / fallback_s / 1e3,
            "kinst/s", n("pipeline.fallback")),
        "pipeline.host_ns_per_cycle": ((compiled_s + fallback_s) / cycles * 1e9,
                                       "ns", 1),
        "pipeline.committed": (committed, "count", 1),
        "pipeline.cycles": (cycles, "count", 1),
        "results_io.encode_us": (layers.median_us("results_io.encode"), "us",
                                 n("results_io.encode")),
        "results_io.decode_us": (layers.median_us("results_io.decode"), "us",
                                 n("results_io.decode")),
        "campaign.cache_key_us": (layers.median_us("campaign.cache_key"), "us",
                                  n("campaign.cache_key")),
        "campaign.cache_store_us": (layers.median_us("campaign.cache_store"), "us",
                                    n("campaign.cache_store")),
        "campaign.cache_load_us": (layers.median_us("campaign.cache_load"), "us",
                                   len(loads)),
        "campaign.cache_hit_ratio": (
            sum(1 for s in loads if s["hit"]) / len(loads), "ratio", len(loads)),
        "campaign.pool_wall_s": (pool_wall, "s", 1),
        "campaign.first_result_s": (zoo["first_result_s"], "s", 1),
        "campaign.parallel_efficiency": (
            measure.parallel_efficiency(cell_seconds, 2, pool_wall), "ratio",
            len(cell_seconds)),
        "delay.critical_path_us": (layers.median_us("delay.critical_path"), "us",
                                   n("delay.critical_path")),
        "frontier.cold_sweep_s": (layers.total("frontier.cold_sweep"), "s", 1),
        "frontier.warm_sweep_s": (layers.total("frontier.warm_sweep"), "s", 1),
        "service.handle_cell_us": (handle_cell * 1e6, "us", len(handle["cell"])),
        "service.handle_frontier_ms": (
            statistics.median(handle["frontier"]) * 1e3, "ms", len(handle["frontier"])),
        "service.socket_us": ((client_cell - handle_cell) * 1e6, "us",
                              len(client["cell"])),
        "service.route_cell_p50_ms": (client_cell * 1e3, "ms", len(client["cell"])),
        "service.route_frontier_p50_ms": (
            statistics.median(client["frontier"]) * 1e3, "ms", len(client["frontier"])),
        "service.memo_hit_ratio": (memo_ratio, "ratio", hits),
        "fig15_gap_pp": (wl.fig15_from_cache(cache), "pp", 1),
    }
    metrics.update(rows)

    root = ROOTS[workload]
    (root_span,) = layers.spans(root)
    traced_wall = root_span["end"] - root_span["start"]
    untraced_wall = _untraced_wall(co, out, workload, cold["table"], cache,
                                   handle_targets)
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio", 1)
    metrics["trace.unattributed_s"] = (
        measure.unattributed_s(layers.self_time[root_span["id"]], traced_wall,
                               untraced_wall), "s", 1)
    return out


#: The replica span whose untraced twin each workload times.
ROOTS = {"frontier_cold": "frontier.cold_sweep", "serve_warm": "service.loop"}


def _check_zoo(out: Outcome, rng: random.Random, program: wl.InProcess,
               stats: dict) -> None:
    """The traced zoo campaign wrote every cell, and a seeded sample
    of them equals fresh simulations."""
    cells = [(machine, workload) for machine in sorted(stats)
             for workload in sorted(stats[machine])]
    out.check(len(cells) == 28, f"zoo campaign wrote {len(cells)} cells, not 28")
    for machine, workload in rng.sample(cells, wl.CROSS_CHECK_CELLS):
        written = stats[machine][workload]
        fresh = program.stats(written["machine"], workload, wl.ZOO_INSTRUCTIONS)
        out.check(fresh == written,
                  f"zoo cell {machine}/{workload} differs from a fresh simulation")


def _untraced_wall(co: Checkout, out: Outcome, workload: str, table: str,
                   cache: Path, handle_targets: list[str]) -> float:
    """Wall of the workload's replica run again without spans."""
    if workload == "serve_warm":
        bare = replica(co, out, {"traced": False, "parts": ["warm", "service"],
                                 "cache": str(cache), "targets": handle_targets})
        return bare["walls"]["service.loop"]
    cli = co.repro(*wl.FRONTIER_ARGS, "--cache-dir", str(co.fresh_dir("cache")))
    if out.command(cli, "frontier"):
        out.check(cli.stdout.startswith(table),
                  "CLI frontier table differs from the traced replica")
    bare = replica(co, out, {"traced": False, "parts": ["cold"],
                             "cache": str(co.fresh_dir("cache"))})
    return bare["walls"]["frontier.cold_sweep"]
