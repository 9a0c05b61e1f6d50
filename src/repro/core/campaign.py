"""Parallel experiment campaign engine with result caching.

The paper's Figures 13-17 each sweep a (machine x workload) grid; the
seed drove every cell serially in one process.  This module turns a
grid into a *campaign*: independent simulation cells fanned out across
a ``multiprocessing`` pool, backed by a content-addressed on-disk
result cache, with per-cell timeouts, bounded retry, and graceful
degradation to in-process serial execution when workers misbehave.

Determinism is the contract everything else hangs on:

* a cell is fully described by (machine config, workload name,
  instruction budget) and the simulator is deterministic, so results
  are transportable -- across worker processes and across runs via
  the cache -- as :meth:`~repro.uarch.stats.SimStats.to_dict`
  payloads (the audited serialisation path, versioned by
  :data:`repro.core.results_io.FORMAT_VERSION`);
* cells are merged back into the
  :class:`~repro.core.experiments.ExperimentResult` in presentation
  order, never completion order, so ``jobs=1``, ``jobs=N``, and a
  warm-cache run all serialise byte-identically.

Cache layout: one ``<sha256>.json`` file per cell under the cache
root, where the key hashes the canonicalised machine config, the
workload name *and content identity* (fingerprint + workload-layer
version), the instruction budget, and the stats format version.
Unreadable, truncated, or version-mismatched files are discarded and
recomputed, never trusted and never fatal.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import multiprocessing
import multiprocessing.pool
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.core import results_io
from repro.core.experiments import DEFAULT_INSTRUCTIONS, ExperimentResult
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import CampaignProfile, record_simulation_metrics
from repro.obs.progress import Heartbeat
from repro.uarch.compile import COMPILE_VERSION
from repro.uarch.config import MachineConfig
from repro.uarch.pipeline import SimulatorDeadlock, simulate
from repro.uarch.preanalysis import PREANALYSIS_VERSION
from repro.uarch.scheduler import strategy_identity
from repro.uarch.stats import SimStats
from repro.workloads import WORKLOAD_NAMES, get_trace
from repro.workloads.registry import workload_identity

#: Default bounded retry count for failed or timed-out cells.
DEFAULT_RETRIES = 1

#: How every worker process the package starts is started.  ``spawn``
#: runs each worker in a fresh interpreter that imports the program
#: and receives only the pickled cell, the same on every platform and
#: Python version (3.14 moves the Linux default away from ``fork``).
POOL_CONTEXT = multiprocessing.get_context("spawn")


def worker_pool(processes: int) -> multiprocessing.pool.Pool:
    """A pool of ``processes`` spawned workers.

    The one place the package builds a process pool: the campaign, the
    fuzzer (through :func:`_collect_parallel`) and the design-space
    service all take their workers from here.
    """
    return POOL_CONTEXT.Pool(processes=processes)


# ----------------------------------------------------------------------
# cells and cache keys
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignCell:
    """One unit of campaign work: a machine on a workload."""

    machine: str
    config: MachineConfig
    workload: str
    max_instructions: int

    @property
    def label(self) -> str:
        """Stable display/progress label for this cell."""
        return f"{self.machine}/{self.workload}"


def _canonical(value: object) -> Any:
    """Recursively reduce a config value to JSON-stable primitives.

    Dataclasses become sorted-key dicts, enums their wire values --
    the same choices the stats serialiser makes -- so the fingerprint
    is independent of Python hash seeds and field declaration order.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            name: _canonical(getattr(value, name))
            for name in sorted(f.name for f in dataclasses.fields(value))
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot canonicalise {type(value).__name__} for hashing")


def config_fingerprint(config: MachineConfig) -> dict:
    """A machine config as canonical, JSON-ready primitives."""
    return _canonical(config)


def cache_key(
    config: MachineConfig,
    workload: str,
    max_instructions: int,
    stats_format: int = results_io.FORMAT_VERSION,
) -> str:
    """Content address of one cell's result.

    The key covers everything that determines the simulation output:
    the full machine configuration, the workload, the instruction
    budget, the stats serialisation version (so a format bump
    invalidates old entries instead of misreading them), the trace
    pre-analysis version (so a change to the derived arrays the
    optimized simulator consumes invalidates old entries too), the
    scheduler/regfile strategy identity with behaviour versions
    (so two configs differing only in strategy -- or a strategy whose
    timing behaviour changed -- can never collide), and the
    workload's *content identity* -- its fingerprint, kind, and
    :data:`~repro.workloads.registry.WORKLOAD_VERSION` -- so editing
    a kernel's source (or a zoo scenario's parameters) can never
    silently reuse stats cached under the same name.
    """
    payload = {
        "config": config_fingerprint(config),
        "workload": workload,
        "workload_identity": workload_identity(workload),
        "max_instructions": max_instructions,
        "stats_format": stats_format,
        "preanalysis": PREANALYSIS_VERSION,
        "compile": COMPILE_VERSION,
        "strategies": strategy_identity(config),
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )
    return digest.hexdigest()


def grid_fingerprint(
    configs: dict[str, MachineConfig],
    workloads: tuple[str, ...],
    max_instructions: int,
) -> str:
    """Content address of a whole campaign grid.

    The run ledger stores this as the campaign's ``config_hash``: two
    invocations share it exactly when they sweep the same machines,
    workloads, and budget under the same serialisation versions.
    """
    payload = {
        "configs": {
            name: config_fingerprint(config)
            for name, config in configs.items()
        },
        "workloads": list(workloads),
        "workload_identities": {
            name: workload_identity(name) for name in workloads
        },
        "max_instructions": max_instructions,
        "stats_format": results_io.FORMAT_VERSION,
        "preanalysis": PREANALYSIS_VERSION,
        "compile": COMPILE_VERSION,
        "strategies": {
            name: strategy_identity(config)
            for name, config in configs.items()
        },
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )
    return digest.hexdigest()


class ResultCache:
    """Content-addressed on-disk cache of per-cell ``SimStats``.

    Entries are written atomically (temp file + rename) so a killed
    worker can never leave a half-written entry that a later run
    trusts; anything unreadable is deleted and recomputed.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, key: str) -> Path:
        """Filesystem location of one cache entry."""
        return self.root / f"{key}.json"

    def load(self, key: str) -> SimStats | None:
        """The cached stats for ``key``, or None.

        Corrupted, truncated, or version-mismatched entries are
        discarded (unlinked) and reported as misses.
        """
        path = self.path(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            stats = results_io.stats_from_payload(json.loads(text))
        except (ValueError, KeyError, TypeError):
            path.unlink(missing_ok=True)
            return None
        return stats

    def store(self, key: str, stats: SimStats) -> None:
        """Atomically persist one cell's stats under ``key``."""
        path = self.path(key)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(
            json.dumps(
                results_io.stats_payload(stats), indent=1, sort_keys=True
            ),
            encoding="utf-8",
        )
        tmp.replace(path)


# ----------------------------------------------------------------------
# cell execution
# ----------------------------------------------------------------------


def simulate_cell(cell: CampaignCell) -> dict:
    """Simulate one cell; the default (picklable) worker entry point.

    Returns the result as transport primitives rather than a live
    :class:`SimStats` so the pool path, the serial path, and the cache
    all move the exact same payload::

        {"stats": SimStats.to_dict(), "seconds": wall,
         "metrics": MetricsSnapshot.to_dict()}

    The worker accumulates its cell into a private
    :class:`~repro.obs.metrics.MetricsRegistry` and ships the frozen
    snapshot home; the parent folds worker snapshots together in
    deterministic presentation order, so campaign-level metrics are
    exact, not sampled, and identical for ``jobs=1`` and ``jobs=N``.
    """
    start = time.perf_counter()
    trace = get_trace(cell.workload, cell.max_instructions)
    stats = simulate(cell.config, trace, mode="compiled")
    seconds = time.perf_counter() - start
    registry = MetricsRegistry()
    record_simulation_metrics(registry, stats, seconds,
                              machine=cell.machine, workload=cell.workload)
    return {
        "stats": stats.to_dict(),
        "seconds": seconds,
        "metrics": registry.snapshot().to_dict(),
    }


def _deadlock(cell: Any, error: SimulatorDeadlock) -> SimulatorDeadlock:
    """``error`` restated with the cell that hit it.

    A deadlock is deterministic for its (config, workload, budget), so
    the campaign fails at once -- no retry, no serial re-run -- and the
    message names all three, enough to re-run the cell alone.  (Fuzz
    cases report deadlocks as findings and never raise one here.)
    """
    where = cell.label
    if isinstance(cell, CampaignCell):
        where = (f"cell {cell.label}: config {cell.config.name!r}, workload "
                 f"{cell.workload!r}, {cell.max_instructions} instructions")
    return SimulatorDeadlock(f"{where}: {error}")


def _run_serially(
    cell: CampaignCell,
    runner: Callable[[CampaignCell], dict],
    retries: int,
    profile: CampaignProfile,
) -> dict:
    """Run one cell in-process, retrying on failure other than a
    simulator deadlock, which is re-raised at once."""
    attempts = retries + 1
    for attempt in range(attempts):
        try:
            return runner(cell)
        except SimulatorDeadlock as error:
            raise _deadlock(cell, error) from error
        except Exception:
            if attempt + 1 >= attempts:
                raise
            profile.retries += 1
    raise AssertionError("unreachable")


def _collect_parallel(
    cells: list[Any],
    jobs: int,
    runner: Callable[[Any], dict],
    timeout: float | None,
    retries: int,
    profile: Any,
    progress: Callable[[str], None] | None,
    heartbeat: Callable[[Any, dict], None] | None = None,
) -> dict[int, dict]:
    """Fan cells out over a process pool; returns index -> payload.

    Failure handling, per cell: up to ``retries`` resubmissions on a
    worker error or timeout, then graceful degradation -- the cell is
    simulated serially in this process, which cannot time out and
    surfaces any real error directly.  A :class:`SimulatorDeadlock` is
    deterministic and re-raised at once, with the cell named.

    ``heartbeat(cell, payload)``, when given, fires once per completed
    cell *as it completes* (completion order, unlike the deterministic
    result merge) -- this is the live-telemetry tap the ``--progress``
    meter drinks from.
    """
    payloads: dict[int, dict] = {}

    def completed(cell: Any, payload: dict) -> None:
        if heartbeat:
            heartbeat(cell, payload)

    try:
        pool_cm = worker_pool(jobs)
    except (OSError, ValueError):
        # No usable worker pool on this host (e.g. missing semaphore
        # support): degrade the whole campaign to serial.
        for index, cell in enumerate(cells):
            profile.serial_fallbacks += 1
            payloads[index] = _run_serially(cell, runner, retries, profile)
            completed(cell, payloads[index])
        return payloads
    with pool_cm as pool:
        pending = {
            index: pool.apply_async(runner, (cell,))
            for index, cell in enumerate(cells)
        }
        attempts = {index: 1 for index in pending}
        while pending:
            index, handle = next(iter(pending.items()))
            cell = cells[index]
            try:
                payloads[index] = handle.get(timeout)
                del pending[index]
                if progress:
                    progress(f"{cell.label}: simulated "
                             f"({payloads[index]['seconds']:.2f}s)")
                completed(cell, payloads[index])
                continue
            except multiprocessing.TimeoutError:
                profile.timeouts += 1
                failure = f"timed out after {timeout}s"
            except SimulatorDeadlock as error:
                raise _deadlock(cell, error) from error
            except Exception as error:
                failure = f"failed: {error}"
            if attempts[index] <= retries:
                attempts[index] += 1
                profile.retries += 1
                if progress:
                    progress(f"{cell.label}: {failure}; retrying "
                             f"({attempts[index] - 1}/{retries})")
                pending[index] = pool.apply_async(runner, (cell,))
            else:
                del pending[index]
                profile.serial_fallbacks += 1
                if progress:
                    progress(f"{cell.label}: {failure}; falling back to "
                             "serial execution")
                payloads[index] = _run_serially(cell, runner, 0, profile)
                completed(cell, payloads[index])
    return payloads


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------


def run_campaign(
    configs: dict[str, MachineConfig],
    workloads: tuple[str, ...] = WORKLOAD_NAMES,
    max_instructions: int = DEFAULT_INSTRUCTIONS,
    name: str = "campaign",
    jobs: int = 1,
    cache: ResultCache | None = None,
    timeout: float | None = None,
    retries: int = DEFAULT_RETRIES,
    progress: Callable[[str], None] | None = None,
    runner: Callable[[CampaignCell], dict] | None = None,
    heartbeat: Callable[[Heartbeat], None] | None = None,
) -> tuple[ExperimentResult, CampaignProfile]:
    """Run a (machine x workload) grid and return result + profile.

    Args:
        configs: Machines in presentation order (name -> config).
        workloads: Benchmark names in presentation order.
        max_instructions: Dynamic-instruction budget per cell.
        name: Experiment identifier stored on the result.
        jobs: Worker processes; 1 means in-process serial execution.
        cache: Optional :class:`ResultCache`; hits skip simulation.
        timeout: Per-cell seconds before a parallel attempt is
            abandoned (None = wait forever).  Serial execution never
            times out.
        retries: Bounded resubmissions per cell before degrading to
            serial execution.
        progress: Optional per-cell callback (human-readable lines).
        runner: Cell executor override (tests inject failures here);
            defaults to :func:`simulate_cell`.
        heartbeat: Optional live-telemetry callback receiving one
            :class:`~repro.obs.progress.Heartbeat` per completed cell
            in *completion* order (cache hits included) -- what the
            CLI's ``--progress`` meter consumes.

    Returns:
        ``(result, profile)`` -- the deterministic
        :class:`ExperimentResult` (cell order fixed by ``configs`` /
        ``workloads``, independent of completion order) and the
        :class:`~repro.obs.profiling.CampaignProfile` of cache hits,
        retries, timeouts, fallbacks, and throughput.

    Raises:
        ValueError: for a non-positive ``jobs`` or negative
            ``retries``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    runner = runner or simulate_cell
    profile = CampaignProfile(jobs=jobs)
    started = time.perf_counter()

    cells = [
        CampaignCell(machine, config, workload, max_instructions)
        for machine, config in configs.items()
        for workload in workloads
    ]

    # Cache probe (deterministic order; hits never hit the pool).
    stats_by_index: dict[int, SimStats] = {}
    misses: list[tuple[int, CampaignCell]] = []
    keys: dict[int, str] = {}
    for index, cell in enumerate(cells):
        if cache is not None:
            keys[index] = cache_key(
                cell.config, cell.workload, cell.max_instructions
            )
            hit = cache.load(keys[index])
            if hit is not None:
                stats_by_index[index] = hit
                profile.note_cell(cell.label, 0.0, hit.committed,
                                  source="cache")
                if progress:
                    progress(f"{cell.label}: cache hit")
                if heartbeat:
                    heartbeat(Heartbeat(label=cell.label, source="cache"))
                continue
        misses.append((index, cell))

    def beat(cell: CampaignCell, payload: dict) -> None:
        if heartbeat:
            heartbeat(Heartbeat(
                label=cell.label,
                source="simulated",
                seconds=payload.get("seconds", 0.0),
                instructions=payload.get("stats", {}).get("committed", 0),
            ))

    # Execute the misses.
    if misses:
        miss_cells = [cell for _, cell in misses]
        if jobs > 1:
            payloads = _collect_parallel(
                miss_cells, jobs, runner, timeout, retries, profile,
                progress, heartbeat=beat,
            )
        else:
            payloads = {}
            for position, cell in enumerate(miss_cells):
                payloads[position] = _run_serially(
                    cell, runner, retries, profile
                )
                if progress:
                    progress(f"{cell.label}: simulated "
                             f"({payloads[position]['seconds']:.2f}s)")
                beat(cell, payloads[position])
        # Fold worker metrics in *presentation* order -- the misses
        # list is already sorted by cell index, so the merged snapshot
        # is byte-identical for jobs=1, jobs=N, and any completion
        # order (MetricsSnapshot.merge_all makes even adversarial
        # orderings equal; this keeps the live registry exact too).
        for position, (index, cell) in enumerate(misses):
            payload = payloads[position]
            stats = SimStats.from_dict(payload["stats"])
            stats_by_index[index] = stats
            profile.note_cell(cell.label, payload["seconds"],
                              stats.committed)
            profile.merge_worker_snapshot(payload.get("metrics"))
            if cache is not None:
                cache.store(keys[index], stats)

    # Deterministic merge: presentation order, never completion order.
    result = ExperimentResult(
        name=name, machine_names=list(configs), workloads=list(workloads)
    )
    for index, cell in enumerate(cells):
        result.stats.setdefault(cell.machine, {})[cell.workload] = (
            stats_by_index[index]
        )
    profile.wall_seconds = time.perf_counter() - started
    return result, profile
