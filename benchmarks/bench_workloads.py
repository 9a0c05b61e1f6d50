"""Benchmark the workload layer: trace-generation throughput.

The workload registry fronts every simulation, so trace generation
must stay cheap relative to the timing simulation it feeds.  This
bench measures dynamic-instructions-per-second of trace *generation*
for one representative of each built-in kind -- an assembled paper
kernel (emulator-executed) and a ``zoo_*`` synthetic scenario
(generator-driven) -- plus the external-trace ingestion path
(JSONL export + strict validating reload).

The numbers fold into ``BENCH_workloads.json`` (repo root) next to
the checked-in ``min_gen_inst_per_s_floor``, the floor this bench
asserts against every measured generation rate.
"""

import os
import time

from repro.workloads import get_workload

#: The checked-in workload-layer throughput record (repo root).
BENCH_WORKLOADS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..",
    "BENCH_workloads.json"
)

#: Every measured generation path must produce at least this many
#: dynamic instructions per second.  Deliberately far below observed
#: rates (CI machines are slow and shared); perfbench's
#: ``workloads.*_trace_s`` layers show slow erosion.  Also checked in
#: as ``recorded.min_gen_inst_per_s_floor``.
MIN_GEN_RATE = 20_000.0

#: One representative per built-in kind.
KERNEL = "li"
ZOO = "zoo_br_coin"

#: Instructions per generation pass (uncached budgets each round).
LENGTH = 30_000


def _generation_rate(name: str, rounds: int = 5) -> float:
    """Fresh-trace generation rate (inst/s), bypassing the cache."""
    workload = get_workload(name)
    instructions = 0
    started = time.perf_counter()
    for round_index in range(rounds):
        # Distinct budgets defeat the (name, budget) trace cache.
        trace = workload._loader(LENGTH - round_index)
        instructions += len(trace)
    return instructions / (time.perf_counter() - started)


def _ingestion_rate(tmp_path, rounds: int = 5) -> float:
    """External-trace round-trip rate: JSONL export + strict reload."""
    from repro.workloads.trace_format import load_trace, save_trace

    trace = get_workload(KERNEL).trace(LENGTH)
    instructions = 0
    started = time.perf_counter()
    for round_index in range(rounds):
        path = save_trace(trace, tmp_path / f"bench-{round_index}.jsonl")
        instructions += len(load_trace(path))
    return instructions / (time.perf_counter() - started)


def _record_workloads(measured: dict) -> None:
    from repro.obs.ledger import record_bench

    record_bench(BENCH_WORKLOADS_PATH, "repro-workloads-bench", measured)


def test_workload_generation_throughput(benchmark, paper_report, tmp_path):
    """Measure generation + ingestion rates and enforce the floor."""

    def measure() -> dict:
        return {
            f"{KERNEL} (kernel)": round(_generation_rate(KERNEL), 1),
            f"{ZOO} (synthetic)": round(_generation_rate(ZOO), 1),
            "external round-trip": round(_ingestion_rate(tmp_path), 1),
        }

    measured = benchmark.pedantic(measure, rounds=1, iterations=1)
    paper_report(
        "Workload-layer throughput (trace generation, inst/s)",
        "\n".join(f"  {label}: {rate:,.0f} inst/s"
                  for label, rate in sorted(measured.items())),
    )
    _record_workloads(measured)
    for label, rate in measured.items():
        assert rate >= MIN_GEN_RATE, (label, rate)
