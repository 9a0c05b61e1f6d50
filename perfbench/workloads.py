"""The benchmark's workloads, timed from outside with tracing off.

Each driver takes a :class:`~program.Checkout`, the seeded random
generator and the measuring time, runs the program the way a user
does, checks what it printed or served, and returns a
:class:`Outcome`: the end-to-end metrics plus a report of the
workload-specific figures (warm wall, throughput, latency tail,
Figure 15 gap) that the human-readable output lists.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import measure
from program import Checkout, closed_loop, get, get_json

#: The paper kernels, in the order the program's figures use.
KERNELS = ("compress", "gcc", "go", "li", "m88ksim", "perl", "vortex")

#: ``repro frontier`` as the main user path runs it.
FRONTIER_ARGS = ("frontier", "--tech", "all", "-n", "8000")

#: 14 distinct configs (5 window sizes + 10 registry shapes, one
#: shared) x 7 kernels.
FRONTIER_CELLS = 98

#: Instruction budget of the traced zoo campaign's cells.
ZOO_INSTRUCTIONS = 20000

#: Figure 15's machines, by the config names the stats carry.
FIG15_BASELINE = "baseline-8way-64w"
FIG15_CLUSTERED = "2x4way-fifos-dispatch"

#: Instruction budget the server answers cells at.
SERVE_INSTRUCTIONS = 8000

#: Requests in one round of the serving workload.
SERVE_ROUND = 600

#: Keep-alive connections of the serving client (the host has 2 cores).
SERVE_CONNECTIONS = 2

#: Set-up samples per run; ``setup_s`` is their median.  They are
#: spread over the run because the host's speed drifts over seconds.
SETUP_SAMPLES = 3

#: Serving rounds between two set-up samples.
SETUP_EVERY_ROUNDS = 5

#: Cells re-simulated in process to cross-check served or written stats.
CROSS_CHECK_CELLS = 2


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    report: list[tuple[str, float, str, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation or output check; log it when it fails."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)
        return ok

    def command(self, result, what: str) -> bool:
        ok = self.check(result.ok, f"{what} exited {result.returncode}")
        if not ok:
            print(result.stderr[-2000:], file=sys.stderr)
        return ok


def _metrics_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def _table(stdout: str) -> str:
    """The part of ``repro frontier`` output that must not vary."""
    return stdout.split("campaign profile:")[0]


def cache_ipc(cache_dir: Path) -> dict[str, dict[str, float]]:
    """machine config name -> workload -> IPC, from cache entries."""
    ipc: dict[str, dict[str, float]] = {}
    for entry in cache_dir.glob("*.json"):
        stats = json.loads(entry.read_text(encoding="utf-8"))["stats"]
        ipc.setdefault(stats["machine"], {})[stats["workload"]] = (
            stats["committed"] / stats["cycles"])
    return ipc


def fig15_from_cache(cache_dir: Path) -> float:
    ipc = cache_ipc(cache_dir)
    return measure.fig15_gap_pp(
        {k: ipc[FIG15_BASELINE][k] for k in KERNELS},
        {k: ipc[FIG15_CLUSTERED][k] for k in KERNELS},
    )


class CliSetup:
    """``setup_s`` for the CLI workloads: the wall time of
    ``repro machines``, which pays start-up and the ``repro.cli``
    import and simulates nothing."""

    def __init__(self, co: Checkout, out: Outcome) -> None:
        self.co, self.out, self.walls = co, out, []

    def sample(self) -> None:
        if len(self.walls) < SETUP_SAMPLES:
            result = self.co.repro("machines")
            self.out.command(result, "repro machines")
            self.walls.append(result.wall)

    def finish(self) -> None:
        while len(self.walls) < SETUP_SAMPLES:
            self.sample()
        self.out.metrics["setup_s"] = (statistics.median(self.walls), "s",
                                       len(self.walls))


def _repeat(seconds: float, minimum: int):
    """Yield repetition indices until ``seconds`` pass (at least
    ``minimum`` of them)."""
    start = time.perf_counter()
    count = 0
    while count < minimum or time.perf_counter() - start < seconds:
        yield count
        count += 1


def _finish(co: Checkout, out: Outcome, walls: list[float]) -> Outcome:
    out.metrics["wall_s"] = (statistics.median(walls), "s", len(walls))
    out.metrics["peak_rss_mb"] = (co.peak_rss_mb, "MB", len(co.processes))
    return out


def _frontier(co: Checkout, out: Outcome, cache: Path, label: str,
              simulated: int, *extra: str):
    metrics_path = co.tmp / "frontier-metrics.json"
    metrics_path.unlink(missing_ok=True)
    result = co.repro(*FRONTIER_ARGS, *extra, "--cache-dir", str(cache),
                      "--metrics", str(metrics_path))
    if out.command(result, label):
        profile = _metrics_json(metrics_path)
        out.check(profile.get("cell_count") == FRONTIER_CELLS
                  and profile.get("simulated_cells") == simulated,
                  f"{label}: expected {FRONTIER_CELLS} cells, {simulated} "
                  f"simulated; got {profile.get('cell_count')}, "
                  f"{profile.get('simulated_cells')}")
    return result


def frontier_cold(co: Checkout, rng: random.Random, seconds: float) -> Outcome:
    out = Outcome()
    setup = CliSetup(co, out)
    setup.sample()
    walls = []
    for rep in _repeat(seconds, 1):
        cache = co.fresh_dir("cache")
        cold = _frontier(co, out, cache, "cold frontier", FRONTIER_CELLS)
        walls.append(cold.wall)
        if rep == 0:
            warm = _frontier(co, out, cache, "warm frontier", 0)
            out.check(_table(warm.stdout) == _table(cold.stdout),
                      "cold and warm frontier tables differ")
            out.report.append(("warm_wall_s", warm.wall, "s", 1))
            out.report.append(("fig15_gap_pp", fig15_from_cache(cache), "pp", 1))
        setup.sample()
    setup.finish()
    median_wall = statistics.median(walls)
    out.report.append(("sim_kinst_per_s",
                       FRONTIER_CELLS * 8000 / 1000 / median_wall,
                       "kinst/s", len(walls)))
    return _finish(co, out, walls)


class InProcess:
    """The program's own simulator, imported into this process to
    recompute cells for the output cross-checks (never timed)."""

    def __init__(self, co: Checkout) -> None:
        if str(co.src) not in sys.path:
            sys.path.insert(0, str(co.src))
        from repro.core.machines import machine_registry
        from repro.uarch.pipeline import simulate
        from repro.workloads import get_trace

        registry = machine_registry()
        #: Registry names (``baseline``) and config names
        #: (``baseline-8way-64w``) both name a config.
        self.configs = {**{c.name: c for c in registry.values()}, **registry}
        self._simulate = simulate
        self._get_trace = get_trace

    def stats(self, machine: str, workload: str, n: int,
              mode: str = "compiled") -> dict:
        stats = self._simulate(self.configs[machine],
                               self._get_trace(workload, n), mode=mode)
        return json.loads(json.dumps(stats.to_dict()))


def check_warm_server(out: Outcome, port: int) -> tuple[float, int]:
    """Check that a warm server simulated nothing; returns its memo
    hit ratio and cache hit count from ``/v1/metrics``."""
    status, text = get(port, "/v1/metrics")
    simulations, memo_ratio, hits = measure.service_counters(text.decode())
    out.check(status == 200 and simulations == 0,
              f"warm server simulated {simulations} cells")
    return memo_ratio, hits


def service_targets(rng: random.Random, machines: list[str], count: int,
                    offset: int = 0) -> list[str]:
    """The seeded request mix: cells (a third clocked at every node)
    and, every 50th request, the whole frontier."""
    targets = []
    for index in range(offset, offset + count):
        if (index + 1) % 50 == 0:
            targets.append("/v1/frontier?tech=all")
            continue
        target = (f"/v1/cell?machine={rng.choice(machines)}"
                  f"&workload={rng.choice(KERNELS)}")
        if rng.random() < 1 / 3:
            target += "&tech=all"
        targets.append(target)
    return targets


def serve_warm(co: Checkout, rng: random.Random, seconds: float) -> Outcome:
    out = Outcome()
    cache = co.fresh_dir("cache")
    budget = ("-n", str(SERVE_INSTRUCTIONS))
    fill = co.start_server(cache, "--warm", "registry", *budget, "-j", "2")
    out.command(fill.stop(record=False), "serve --warm registry")
    server = co.start_server(cache, *budget)
    setups = [server.ready_seconds]

    def spare_setup() -> None:
        """Time one more launch: a second server on the same cache."""
        spare = co.start_server(cache, *budget)
        setups.append(spare.ready_seconds)
        out.command(spare.stop(), "repro serve")

    try:
        machines = [m["name"] for m in
                    get_json(server.port, "/v1/machines")["machines"]]
        walls, latencies, by_route = [], [], {"cell": [], "frontier": []}
        kept: list = []
        for rnd in _repeat(seconds, 3):
            targets = service_targets(rng, machines, SERVE_ROUND,
                                      rnd * SERVE_ROUND)
            cells = [i for i, t in enumerate(targets) if t.startswith("/v1/cell")]
            keep = set(rng.sample(cells, CROSS_CHECK_CELLS)) if rnd == 0 else set()
            replies, wall = closed_loop(server.port, targets,
                                        SERVE_CONNECTIONS, keep)
            walls.append(wall)
            for reply in replies:
                out.check(reply.status == 200,
                          f"{reply.target} answered {reply.status}")
                latencies.append(reply.seconds)
                route = "frontier" if "frontier" in reply.target else "cell"
                by_route[route].append(reply.seconds)
                if reply.body is not None:
                    kept.append(reply)
            if (rnd + 1) % SETUP_EVERY_ROUNDS == 0 and len(setups) < SETUP_SAMPLES:
                spare_setup()
        while len(setups) < SETUP_SAMPLES:
            spare_setup()
        out.metrics["setup_s"] = (statistics.median(setups), "s", len(setups))
        memo_ratio, hits = check_warm_server(out, server.port)
    finally:
        out.command(server.stop(), "repro serve")
    program = InProcess(co)
    for reply in kept:
        payload = json.loads(reply.body)
        fresh = program.stats(payload["stats"]["machine"], payload["workload"],
                              SERVE_INSTRUCTIONS)
        out.check(fresh == payload["stats"],
                  f"{reply.target} stats differ from a fresh simulation")
    total = sum(walls)
    out.report.append(("qps", len(latencies) / total, "req/s", len(latencies)))
    out.report.append(("latency_p50_ms", statistics.median(latencies) * 1e3, "ms",
                       len(latencies)))
    tail = measure.tail_percentile(latencies)
    if tail is not None:
        pct, value, _ = tail
        out.report.append((f"latency_p{pct:g}_ms", value * 1e3, "ms",
                           len(latencies)))
    for route, values in by_route.items():
        out.report.append((f"{route}_p50_ms", statistics.median(values) * 1e3,
                           "ms", len(values)))
    out.report.append(("memo_hit_ratio", memo_ratio, "ratio", hits))
    return _finish(co, out, walls)


WORKLOADS = {
    "frontier_cold": frontier_cold,
    "serve_warm": serve_warm,
}
