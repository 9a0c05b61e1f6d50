"""Host-side profiling of the simulator itself.

The paper's machines are judged by cycles; the *reproduction* is
judged by wall-clock.  This module answers "where does simulation
time go?" and "what did the campaign do?".  Every profile here is a
**thin view over a** :class:`~repro.obs.metrics.MetricsRegistry`: the
counters live in the registry (one source of truth the exporters and
the run ledger read), and the profile classes only add derived
properties and report formatting on top.

:func:`profile_simulation` runs the cycle loop
(:func:`repro.uarch.pipeline.run_loop`) with its ``profiled`` flag on,
so the loop itself times its five sections; compiled runners prune
the timing code, and unprofiled runs only test the flag.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.obs.metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    format_snapshot,
)

#: Report labels of the cycle-loop sections the profiled loop times,
#: in pipeline order (the order of ``sim.stage_seconds``).
STAGE_METHODS = (
    "wakeup",
    "commit",
    "select/issue",
    "rename/dispatch",
    "fetch",
)

#: Wall-clock histogram bounds for one campaign cell / fuzz case.
CELL_SECONDS_BUCKETS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0)

#: Pool-degradation events the shared campaign worker pool counts:
#: event -> (registry counter, help).
POOL_COUNTERS = {
    "retries": ("pool_retries_total", "Cell/case resubmissions after failure"),
    "timeouts": ("pool_timeouts_total", "Per-cell timeouts in the worker pool"),
    "serial_fallbacks": ("pool_serial_fallbacks_total",
                         "Cells degraded to in-process serial execution"),
}


#: Registry metric names the campaign-side profiles maintain.  The
#: docs-sync suite pins docs/observability.md to this closed list.
CAMPAIGN_METRIC_NAMES = (
    "campaign_cells_total",
    "campaign_instructions_total",
    "campaign_cell_seconds",
    *(name for name, _ in POOL_COUNTERS.values()),
)

#: Registry metric names the fuzz profile maintains.
FUZZ_METRIC_NAMES = (
    "fuzz_cases_total",
    "fuzz_failures_total",
    "fuzz_case_seconds",
)

#: Registry metric names one simulation run records.
SIMULATION_METRIC_NAMES = (
    "sim_instructions_total",
    "sim_cycles_total",
    "sim_wall_seconds_total",
    "sim_ipc",
)


def record_simulation_metrics(registry, stats, seconds,
                              machine: str, workload: str) -> None:
    """Fold one simulation run into a registry.

    The single labeling convention every harness shares: single runs
    (``repro stats``), campaign worker cells, and the fuzzer all
    record through here, so their snapshots merge and read the same
    way.
    """
    labels = {"machine": machine, "workload": workload}
    registry.counter(
        "sim_instructions_total", "Committed instructions simulated"
    ).inc(stats.committed, labels)
    registry.counter(
        "sim_cycles_total", "Machine cycles simulated"
    ).inc(stats.cycles, labels)
    registry.counter(
        "sim_wall_seconds_total", "Host wall-clock spent simulating"
    ).inc(seconds, labels)
    registry.gauge(
        "sim_ipc", "Instructions per cycle of the last run"
    ).set(stats.ipc, labels)


class _PoolProfile:
    """What :class:`CampaignProfile` and :class:`FuzzProfile` share:
    pool-degradation counts in the profile's registry, so the campaign
    worker pool accounts into either profile type identically."""

    registry: MetricsRegistry

    def note_pool(self, event: str) -> None:
        """Count one pool event: ``"retries"``, ``"timeouts"`` or
        ``"serial_fallbacks"``."""
        name, help_text = POOL_COUNTERS[event]
        self.registry.counter(name, help_text).inc()

    def pool_counts(self) -> dict[str, int]:
        """The pool-degradation counts by event."""
        return {event: int(self.registry.value(name))
                for event, (name, _) in POOL_COUNTERS.items()}

    def _degradation(self) -> list[str]:
        """The report line naming any pool degradation (none if none)."""
        counts = self.pool_counts()
        if not any(counts.values()):
            return []
        return [f"  degradation: {counts['timeouts']} timeouts, "
                f"{counts['retries']} retries, "
                f"{counts['serial_fallbacks']} serial fallbacks"]

    def snapshot(self) -> MetricsSnapshot:
        """The profile's registry state, frozen for merge/export."""
        return self.registry.snapshot()

    def format_metrics(self) -> str:
        """The shared snapshot rendering (``repro stats`` parity)."""
        return format_snapshot(self.snapshot())


@dataclass
class ProfileReport:
    """Wall-clock accounting of one simulator run.

    Attributes:
        wall_seconds: Wall-clock time of the cycle loop.
        instructions: Committed instructions.
        cycles: Simulated cycles.
        stage_seconds: Python time per pipeline stage (label -> s).
    """

    wall_seconds: float = 0.0
    instructions: int = 0
    cycles: int = 0
    stage_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def instructions_per_second(self) -> float:
        """Simulated instructions per host second (0.0 when no time
        has accrued -- an empty profile never raises)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.instructions / self.wall_seconds

    @property
    def cycles_per_second(self) -> float:
        """Simulated cycles per host second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.cycles / self.wall_seconds

    @property
    def overhead_seconds(self) -> float:
        """Run time outside the timed loop sections (hoisting and
        write-back, attribution, cycle skipping, and the timers)."""
        return max(0.0, self.wall_seconds - sum(self.stage_seconds.values()))

    def format_report(self) -> str:
        """Aligned text report of throughput and the stage breakdown."""
        lines = [
            f"  {self.instructions:,} instructions / {self.cycles:,} cycles "
            f"in {self.wall_seconds:.3f} s host time",
            f"  {self.instructions_per_second:,.0f} simulated "
            f"instructions/s, {self.cycles_per_second:,.0f} cycles/s",
        ]
        total = self.wall_seconds or 1.0
        for label, seconds in sorted(
            self.stage_seconds.items(), key=lambda item: -item[1]
        ):
            lines.append(
                f"    {label:16s} {seconds:8.3f} s  ({100 * seconds / total:5.1f}%)"
            )
        lines.append(
            f"    {'(other)':16s} {self.overhead_seconds:8.3f} s  "
            f"({100 * self.overhead_seconds / total:5.1f}%)"
        )
        return "\n".join(lines)


def profile_simulation(config, trace, max_cycles=None, tracer=None,
                       registry=None):
    """Run one simulation with per-stage host-time sampling.

    Args:
        config: A :class:`~repro.uarch.config.MachineConfig`.
        trace: The dynamic trace to replay.
        max_cycles: Cycle bound, defaulting as in
            ``PipelineSimulator.run``.
        tracer: Optional event tracer (to profile tracing overhead).
        registry: Optional :class:`MetricsRegistry` the run is also
            recorded into: :func:`record_simulation_metrics` plus the
            ``profile_stage_seconds_total`` counter by stage.

    Returns:
        ``(stats, report)`` -- the run's
        :class:`~repro.uarch.stats.SimStats` and the
        :class:`ProfileReport`.
    """
    # Imported here: the pipeline imports repro.obs.events at module
    # load, so a top-level import would be circular.
    from repro.uarch.pipeline import PipelineSimulator, loop_flags, run_loop

    simulator = PipelineSimulator(config, trace, tracer=tracer)
    flags = loop_flags(config, traced=tracer is not None,
                       cycle_skip=simulator.cycle_skip, profiled=True)
    start = time.perf_counter()
    stats = run_loop(simulator, max_cycles, **flags)
    report = ProfileReport(
        stage_seconds=dict(zip(STAGE_METHODS, simulator.stage_seconds))
    )
    report.wall_seconds = time.perf_counter() - start
    report.instructions = stats.committed
    report.cycles = stats.cycles
    if registry is not None:
        record_simulation_metrics(
            registry, stats, report.wall_seconds,
            machine=getattr(config, "name", "unknown"),
            workload=getattr(trace, "name", "unknown"),
        )
        stage_counter = registry.counter(
            "profile_stage_seconds_total",
            "Host seconds inside each timed cycle-loop section",
        )
        for label, seconds in report.stage_seconds.items():
            stage_counter.inc(seconds, {"stage": label})
    return stats, report


@dataclass
class CellTiming:
    """Wall-clock record of one campaign cell.

    Attributes:
        label: ``machine/workload`` identifier.
        seconds: Simulation wall-clock (0.0 for cache hits).
        instructions: Committed instructions in the cell.
        source: ``"simulated"`` or ``"cache"``.
    """

    label: str
    seconds: float
    instructions: int
    source: str = "simulated"


@dataclass
class CampaignProfile(_PoolProfile):
    """Observability record of one campaign run -- a registry view.

    The campaign engine (:mod:`repro.core.campaign`) reports every
    cell here as it completes -- cache hit or simulation, with
    per-cell wall-clock -- plus the failure-handling counters, so a
    run can answer "what did the cache save?", "did anything retry or
    degrade to serial?", and "how many simulated instructions per
    host second did the fleet sustain?".  All counts live in
    :attr:`registry`; worker-side snapshots merge into it through
    :meth:`merge_worker_snapshot`.
    """

    jobs: int = 1
    wall_seconds: float = 0.0
    #: Per-cell detail, kept for slowest-cell reporting (the counts
    #: themselves come from the registry).
    cells: list[CellTiming] = field(default_factory=list)
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)

    def note_cell(self, label: str, seconds: float, instructions: int,
                  source: str = "simulated") -> None:
        """Record one completed cell."""
        self.cells.append(CellTiming(label, seconds, instructions, source))
        labels = {"source": source}
        self.registry.counter(
            "campaign_cells_total", "Campaign cells completed, by source"
        ).inc(1, labels)
        self.registry.counter(
            "campaign_instructions_total",
            "Committed instructions per cell, by source",
        ).inc(instructions, labels)
        self.registry.histogram(
            "campaign_cell_seconds", "Wall-clock per campaign cell",
            buckets=CELL_SECONDS_BUCKETS,
        ).observe(seconds, labels)

    def merge_worker_snapshot(self, payload: dict | None) -> None:
        """Fold one worker's metrics-snapshot document into the
        registry (the parent-side half of the exact-merge contract;
        callers feed payloads in deterministic presentation order)."""
        if not payload:
            return
        self.registry.merge_snapshot(MetricsSnapshot.from_dict(payload))

    @property
    def cell_count(self) -> int:
        """All cells, cached and simulated."""
        return int(self.registry.value("campaign_cells_total",
                                       {"source": "cache"})
                   + self.registry.value("campaign_cells_total",
                                         {"source": "simulated"}))

    @property
    def cache_hits(self) -> int:
        """Cells satisfied from the result cache."""
        return int(self.registry.value("campaign_cells_total",
                                       {"source": "cache"}))

    @property
    def simulated_cells(self) -> int:
        """Cells that actually ran the simulator."""
        return self.cell_count - self.cache_hits

    @property
    def simulated_instructions(self) -> int:
        """Committed instructions across simulated (non-cached) cells."""
        return int(self.registry.value("campaign_instructions_total",
                                       {"source": "simulated"}))

    @property
    def instructions_per_second(self) -> float:
        """Simulated instructions per host second of campaign wall
        (0.0 when no time has accrued -- never a ZeroDivisionError)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.simulated_instructions / self.wall_seconds

    def to_dict(self) -> dict:
        """JSON-ready primitives (for the metrics exporters)."""
        return {
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "cell_count": self.cell_count,
            "cache_hits": self.cache_hits,
            "simulated_cells": self.simulated_cells,
            "simulated_instructions": self.simulated_instructions,
            "instructions_per_second": self.instructions_per_second,
            **self.pool_counts(),
            "cells": [
                {
                    "label": cell.label,
                    "seconds": cell.seconds,
                    "instructions": cell.instructions,
                    "source": cell.source,
                }
                for cell in self.cells
            ],
            "metrics": self.snapshot().to_dict(),
        }

    def format_report(self) -> str:
        """Aligned text summary of the campaign run."""
        lines = [
            f"  {self.cell_count} cells ({self.cache_hits} cache hits, "
            f"{self.simulated_cells} simulated) on {self.jobs} "
            f"worker{'s' if self.jobs != 1 else ''} "
            f"in {self.wall_seconds:.3f} s",
            f"  {self.simulated_instructions:,} simulated instructions "
            f"({self.instructions_per_second:,.0f}/s)",
        ]
        lines.extend(self._degradation())
        slowest = sorted(
            (c for c in self.cells if c.source != "cache"),
            key=lambda c: -c.seconds,
        )[:5]
        for cell in slowest:
            lines.append(f"    {cell.label:40s} {cell.seconds:8.3f} s")
        return "\n".join(lines)


@dataclass
class FuzzProfile(_PoolProfile):
    """Observability record of one differential-fuzzing campaign.

    The fuzzer (:mod:`repro.verify.fuzzer`) reports every case here:
    which machine shape and workload kind it sampled, how long it
    took, and whether any check failed.  Counts live in
    :attr:`registry`; the pool-degradation counters (``retries`` /
    ``timeouts`` / ``serial_fallbacks``) are the same registry series
    :class:`CampaignProfile` uses, so the shared campaign worker pool
    accounts into either profile type identically.
    """

    jobs: int = 1
    seed: int = 0
    wall_seconds: float = 0.0
    #: Cases skipped because the time budget ran out.
    skipped: int = 0
    #: Per-case wall-clock, in execution order.
    case_seconds: list[float] = field(default_factory=list)
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)

    def note_case(self, shape: str, kind: str, seconds: float,
                  failed: bool) -> None:
        """Record one executed case."""
        self.case_seconds.append(seconds)
        self.registry.counter(
            "fuzz_cases_total", "Fuzz cases executed, by shape and kind"
        ).inc(1, {"shape": shape, "kind": kind})
        self.registry.histogram(
            "fuzz_case_seconds", "Wall-clock per fuzz case",
            buckets=CELL_SECONDS_BUCKETS,
        ).observe(seconds)
        if failed:
            self.registry.counter(
                "fuzz_failures_total", "Fuzz cases with failing checks"
            ).inc(1)

    def _cases_by(self, label: str) -> dict[str, int]:
        counts: dict[str, int] = {}
        for labels, value in self.registry.labeled_values(
                "fuzz_cases_total").items():
            key = dict(labels)[label]
            counts[key] = counts.get(key, 0) + int(value)
        return dict(sorted(counts.items()))

    @property
    def shape_counts(self) -> dict[str, int]:
        """Sampled machine shapes -> case counts (coverage evidence)."""
        return self._cases_by("shape")

    @property
    def kind_counts(self) -> dict[str, int]:
        """Workload kinds ("program"/"synthetic") -> case counts."""
        return self._cases_by("kind")

    @property
    def failures(self) -> int:
        """Cases with at least one failing check."""
        return int(self.registry.value("fuzz_failures_total"))

    @property
    def cases(self) -> int:
        """Cases actually executed (excludes budget skips)."""
        return len(self.case_seconds)

    @property
    def cases_per_second(self) -> float:
        """Executed cases per host second of campaign wall-clock
        (0.0 when no time has accrued -- never a ZeroDivisionError)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.cases / self.wall_seconds

    def to_dict(self) -> dict:
        """JSON-ready primitives (for the metrics exporters)."""
        return {
            "jobs": self.jobs,
            "seed": self.seed,
            "wall_seconds": self.wall_seconds,
            "cases": self.cases,
            "cases_per_second": self.cases_per_second,
            "failures": self.failures,
            "skipped": self.skipped,
            "shape_counts": self.shape_counts,
            "kind_counts": self.kind_counts,
            **self.pool_counts(),
            "metrics": self.snapshot().to_dict(),
        }

    def format_report(self) -> str:
        """Aligned text summary of the fuzzing campaign."""
        lines = [
            f"  {self.cases} cases on {self.jobs} "
            f"worker{'s' if self.jobs != 1 else ''} "
            f"in {self.wall_seconds:.2f} s "
            f"({self.cases_per_second:.1f} cases/s), seed {self.seed}",
            f"  {self.failures} failing case"
            f"{'' if self.failures == 1 else 's'}"
            + (f", {self.skipped} skipped (time budget)" if self.skipped
               else ""),
        ]
        shapes = ", ".join(
            f"{name} x{count}"
            for name, count in self.shape_counts.items()
        )
        kinds = ", ".join(
            f"{name} x{count}"
            for name, count in self.kind_counts.items()
        )
        lines.append(f"  shapes: {shapes or '(none)'}")
        lines.append(f"  workloads: {kinds or '(none)'}")
        lines.extend(self._degradation())
        return "\n".join(lines)


def profile_run(runner, *args, **kwargs):
    """Time an arbitrary callable returning SimStats-like results.

    A thin convenience for harnesses that already own the simulation
    call: ``stats, seconds = profile_run(simulate, config, trace)``.
    """
    start = time.perf_counter()
    result = runner(*args, **kwargs)
    return result, time.perf_counter() - start
