"""In-memory spans around the program's layer boundaries.

The program carries no tracing of its own, so the traced run wraps
the public functions each layer exposes -- the module attributes the
layer above calls through -- with span recorders.  A span holds its
name, start, end, parent span and the cell (``machine/workload``) it
belongs to; spans stay in memory and are written out once, when the
traced process ends.

Campaign pool workers inherit the wrappers (or install them on first
use under a non-fork start method) and ship their spans home inside
the cell payload; the wrapper around the pool collects them and
parents orphaned worker spans on the pool span.
"""

from __future__ import annotations

import importlib
import os
import time
from contextlib import contextmanager


class SpanRecorder:
    """Nested spans of one process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[tuple[str, str | None]] = []
        self._next = 0

    @contextmanager
    def span(self, name: str, cell: str | None = None, **attrs):
        """Record one span; yields its attribute dict for late values."""
        parent, parent_cell = self._stack[-1] if self._stack else (None, None)
        span_id = f"{os.getpid()}:{self._next}"
        self._next += 1
        record = {"id": span_id, "name": name, "parent": parent,
                  "cell": cell or parent_cell, "pid": os.getpid(), **attrs}
        self._stack.append((span_id, record["cell"]))
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)


#: The recorder the installed wrappers write to (one per process).
ACTIVE: SpanRecorder | None = None
#: The process whose recorder collects everything (None in a worker
#: that had to install the wrappers itself).
HOME_PID: int | None = None
_ORIGINAL: dict[str, object] = {}


def _cell_of_config(args) -> str | None:
    config, workload = args[0], args[1]
    return f"{getattr(config, 'name', config)}/{workload}"


def _wrap(key: str, target, name, cell_of=None, after=None):
    def wrapper(*args, **kwargs):
        label = name(args) if callable(name) else name
        with ACTIVE.span(label, cell_of(args) if cell_of else None) as record:
            value = target(*args, **kwargs)
            if after is not None:
                after(record, args, value)
            return value

    wrapper.__wrapped__ = target
    wrapper.__name__ = getattr(target, "__name__", key)
    return wrapper


def _trace_name(args) -> str:
    from repro.workloads.registry import get_workload

    kind = get_workload(args[0]).kind
    return "workloads.kernel_trace" if kind == "kernel" else "workloads.synthetic_trace"


def _pipeline_name(args) -> str:
    from repro.uarch.compile import supports_compile

    return "pipeline.compiled" if supports_compile(args[0]) else "pipeline.fallback"


def _sim_counts(record, args, stats) -> None:
    record["committed"] = stats.committed
    record["cycles"] = stats.cycles


def _cache_hit(record, args, stats) -> None:
    record["hit"] = stats is not None


def traced_simulate_cell(cell):
    """The campaign's cell worker, wrapped; picklable by reference."""
    if ACTIVE is None:
        install(SpanRecorder(), home=False)
    before = len(ACTIVE.spans)
    with ACTIVE.span("campaign.simulate_cell", cell.label):
        payload = _ORIGINAL["repro.core.campaign.simulate_cell"](cell)
    if os.getpid() != HOME_PID:
        payload["spans"] = ACTIVE.spans[before:]
    return payload


def _traced_pool(*args, **kwargs):
    with ACTIVE.span("campaign.pool") as record:
        payloads = _ORIGINAL["repro.core.campaign._collect_parallel"](
            *args, **kwargs)
    shipped = [span for payload in payloads.values()
               for span in payload.pop("spans", ())]
    known = {span["id"] for span in ACTIVE.spans + shipped}
    for span in shipped:
        if span["parent"] not in known:
            span["parent"] = record["id"]
    ACTIVE.spans.extend(shipped)
    return payloads


#: (module, attribute, span name, cell label, post-call hook)
_FUNCTIONS = (
    ("repro.core.campaign", "get_trace", _trace_name, None, None),
    ("repro.core.campaign", "workload_identity", "workloads.identity", None, None),
    ("repro.uarch.pipeline", "preanalyze", "preanalysis.preanalyze", None, None),
    ("repro.uarch.compile", "compiled_runner", "compile.compiled_runner", None, None),
    ("repro.core.campaign", "simulate", _pipeline_name, None, _sim_counts),
    ("repro.core.campaign", "cache_key", "campaign.cache_key", _cell_of_config, None),
    ("repro.service.app", "cache_key", "campaign.cache_key", _cell_of_config, None),
    ("repro.core.results_io", "stats_payload", "results_io.encode", None, None),
    ("repro.core.results_io", "stats_from_payload", "results_io.decode", None, None),
    ("repro.core.campaign", "run_campaign", "campaign.run_campaign", None, None),
    ("repro.core.design", "critical_path", "delay.critical_path", None, None),
    ("repro.service.app", "critical_path", "delay.critical_path", None, None),
)

_METHODS = (
    ("repro.core.campaign", "ResultCache", "load", "campaign.cache_load", _cache_hit),
    ("repro.core.campaign", "ResultCache", "store", "campaign.cache_store", None),
)


def install(recorder: SpanRecorder, home: bool = True) -> None:
    """Wrap every layer boundary in this process (idempotent).

    Raises AttributeError when a boundary the benchmark relies on no
    longer exists, so a renamed layer fails the traced run loudly
    instead of silently dropping its spans.
    """
    global ACTIVE, HOME_PID
    ACTIVE = recorder
    HOME_PID = os.getpid() if home else None
    if _ORIGINAL:
        return
    for module_name, attr, name, cell_of, after in _FUNCTIONS:
        module = importlib.import_module(module_name)
        target = getattr(module, attr)
        _ORIGINAL[f"{module_name}.{attr}"] = target
        setattr(module, attr, _wrap(attr, target, name, cell_of, after))
    for module_name, cls_name, attr, name, after in _METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        target = getattr(cls, attr)
        _ORIGINAL[f"{module_name}.{cls_name}.{attr}"] = target
        setattr(cls, attr, _wrap(attr, target, name, None, after))
    campaign = importlib.import_module("repro.core.campaign")
    for attr, replacement in (("simulate_cell", traced_simulate_cell),
                              ("_collect_parallel", _traced_pool)):
        _ORIGINAL[f"repro.core.campaign.{attr}"] = getattr(campaign, attr)
        setattr(campaign, attr, replacement)
