"""Pure measurement arithmetic shared by the benchmark's drivers.

Nothing here touches the program under test: these are the rules the
benchmark applies to the numbers it collects (percentiles, failure
ratio, span self time and unattributed time, pool efficiency, the
Figure 15 accuracy gap) and the parsers for the two text formats it
reads back from the program (``-X importtime`` output and Prometheus
text).
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Mapping, Sequence

#: Percentiles considered for a tail figure, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10

#: The paper's mean IPC change of the 2-cluster dependence-based
#: machine against the window-based baseline (Figure 15), in percent.
PAPER_FIG15_CHANGE_PCT = -6.3


def nearest_rank(sorted_values: Sequence[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile: ``(value, samples beyond it)``."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def tail_percentile(values: Sequence[float]) -> tuple[float, float, int] | None:
    """The highest ladder percentile with at least :data:`MIN_BEYOND`
    samples beyond it, as ``(percentile, value, beyond)``.

    Returns None when even the median has fewer than ten samples
    beyond it (fewer than 20 samples).
    """
    ordered = sorted(values)
    best = None
    for pct in PERCENTILE_LADDER:
        value, beyond = nearest_rank(ordered, pct)
        if beyond >= MIN_BEYOND:
            best = (pct, value, beyond)
    return best


def failed_ratio(attempted: int, failed: int) -> float:
    """Failed or wrong operations over attempted ones."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..{attempted}")
    return failed / attempted


def spread(values: Sequence[float]) -> float:
    """Interquartile distance over the median (the steadiness figure)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Mapping]) -> dict[str, float]:
    """Span id -> duration minus the part its child spans cover.

    Children may overlap each other (pool workers run side by side),
    so the covered part is the union of their intervals, clipped to
    the parent's own interval.
    """
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span.get("parent") is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered(children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }


def parallel_efficiency(cell_seconds: Iterable[float], jobs: int,
                        wall: float) -> float:
    """Busy cell seconds over the pool's capacity (jobs x wall)."""
    if jobs < 1 or wall <= 0:
        raise ValueError("parallel efficiency needs jobs >= 1 and wall > 0")
    return sum(cell_seconds) / (jobs * wall)


def unattributed_s(root_self: float, traced_wall: float,
                   untraced_wall: float) -> float:
    """The untraced wall that no layer span covers.

    ``root_self`` is the self time of the traced replica's root span:
    the part of its ``traced_wall`` that no layer span covers.  That
    share, applied to the untraced replica's wall, is never negative.
    """
    if traced_wall <= 0 or not 0 <= root_self <= traced_wall:
        raise ValueError("root self time must lie within the traced wall")
    return root_self / traced_wall * untraced_wall


def fig15_gap_pp(baseline_ipc: Mapping[str, float],
                 clustered_ipc: Mapping[str, float],
                 paper_pct: float = PAPER_FIG15_CHANGE_PCT) -> float:
    """Distance in percentage points between the simulated mean IPC
    change (clustered over baseline, per benchmark, then averaged, as
    EXPERIMENTS.md reports it) and the paper's."""
    if not baseline_ipc or set(baseline_ipc) != set(clustered_ipc):
        raise ValueError("baseline and clustered must cover the same benchmarks")
    changes = [
        (clustered_ipc[name] / baseline_ipc[name] - 1.0) * 100.0
        for name in baseline_ipc
    ]
    return abs(statistics.fmean(changes) - paper_pct)


def import_times(text: str, module: str,
                 heavy: tuple[str, ...] = ("numpy", "scipy")) -> tuple[float, float]:
    """Parse ``python -X importtime`` stderr.

    Returns ``(module cumulative s, heavy cumulative s)``: the second
    sums the cumulative time of every ``heavy`` package import that is
    not itself nested inside another heavy import.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|", 2)
        try:
            cumulative_us = int(cumulative)
        except ValueError:
            continue  # the header line
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, cumulative_us, name.strip()))
    module_us = None
    heavy_us = 0
    stack: list[tuple[int, bool]] = []
    # Entries are printed children first; reversed, each parent precedes
    # its children and the stack holds the current ancestry.
    for depth, cumulative_us, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside_heavy = any(flag for _, flag in stack)
        is_heavy = name.split(".")[0] in heavy
        if is_heavy and not inside_heavy:
            heavy_us += cumulative_us
        if name == module:
            module_us = cumulative_us
        stack.append((depth, is_heavy or inside_heavy))
    if module_us is None:
        raise ValueError(f"{module} not found in importtime output")
    return module_us / 1e6, heavy_us / 1e6


def prometheus_sum(text: str, name: str,
                   labels: Mapping[str, str] | None = None) -> float:
    """Sum of the samples of ``name`` whose labels include ``labels``."""
    total = 0.0
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        metric, _, label_text = series.partition("{")
        if metric != name:
            continue
        found = dict(
            pair.split("=", 1) for pair in label_text.rstrip("}").split(",")
            if "=" in pair
        )
        found = {k: v.strip('"') for k, v in found.items()}
        if all(found.get(k) == v for k, v in (labels or {}).items()):
            total += float(value)
    return total


def service_counters(text: str) -> tuple[float, float, int]:
    """From ``/v1/metrics`` text: ``(cells simulated, share of cache
    hits served from memory, cache hits)``."""
    simulations = prometheus_sum(text, "service_simulations_total")
    memory = prometheus_sum(text, "service_cache_hits_total", {"tier": "memory"})
    disk = prometheus_sum(text, "service_cache_hits_total", {"tier": "disk"})
    return simulations, memory / max(1.0, memory + disk), int(memory + disk)
