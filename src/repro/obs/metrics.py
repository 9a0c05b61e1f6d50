"""Process-wide metrics: counters, gauges, and histograms.

This is the measurement substrate underneath every harness in the
repo: the campaign engine, the fuzzer, the frontier sweep, and the
CLI all accumulate into a :class:`MetricsRegistry` and hand around
frozen :class:`MetricsSnapshot` payloads.  Two properties carry the
whole design:

* **Determinism** -- a snapshot serialises with sorted metric names,
  sorted label sets, and canonical JSON, so the same measurements
  always produce the same bytes.  :meth:`MetricsSnapshot.merge_all`
  additionally sorts its inputs by their canonical serialisation
  before folding, so merging worker snapshots is *order-independent*:
  the parent of a multiprocessing campaign gets byte-identical output
  no matter which worker finished first.
* **Closed vocabulary** -- metric and label names are validated
  against the Prometheus grammar at registration time, so a typo is a
  :class:`ValueError` at the call site, not a silently new series.

Exporters (Prometheus text format and versioned JSON) live in
:mod:`repro.obs.export`; the run ledger that persists snapshots is
:mod:`repro.obs.ledger`.
"""

from __future__ import annotations

import json
import math
import re

#: Snapshot payload schema (bumped on incompatible layout changes).
SNAPSHOT_SCHEMA = 1

#: Payload ``kind`` marker for snapshot documents.
SNAPSHOT_KIND = "repro-metrics-snapshot"

#: Default histogram bucket upper bounds, in seconds: wide enough for
#: a cache hit (sub-millisecond) through a long simulation cell.
DEFAULT_SECONDS_BUCKETS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: A canonical label set: sorted (key, value) pairs.
LabelSet = tuple


def canonical_labels(labels: dict | None) -> LabelSet:
    """Validate and canonicalise a label mapping.

    Returns the sorted ``((key, value), ...)`` tuple used as the
    sample key everywhere; values are coerced to ``str`` so unicode
    workload names and numeric technology nodes both round-trip.

    Raises:
        ValueError: for a label name outside the Prometheus grammar.
    """
    if not labels:
        return ()
    items = []
    for key in sorted(labels):
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name {key!r}")
        items.append((key, str(labels[key])))
    return tuple(items)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


class Metric:
    """Base class: one named metric with labeled samples."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        #: LabelSet -> value (counters/gauges) or _HistogramSample.
        self.samples: dict[LabelSet, object] = {}

    def labeled(self) -> dict[LabelSet, object]:
        """All samples, keyed by canonical label set."""
        return dict(self.samples)


class Counter(Metric):
    """A monotonically increasing sum (per label set)."""

    kind = "counter"

    def inc(self, amount: float = 1, labels: dict | None = None) -> None:
        """Add ``amount`` (>= 0) to the labeled sample."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease "
                             f"(inc by {amount})")
        key = canonical_labels(labels)
        self.samples[key] = self.samples.get(key, 0) + amount

    def value(self, labels: dict | None = None) -> float:
        """Current sum for one label set (0 if never incremented)."""
        return self.samples.get(canonical_labels(labels), 0)


class Gauge(Metric):
    """A point-in-time value (per label set); merges take the max."""

    kind = "gauge"

    def set(self, value: float, labels: dict | None = None) -> None:
        """Set the labeled sample to ``value``."""
        if not math.isfinite(value):
            raise ValueError(f"gauge {self.name} must be finite, got {value}")
        self.samples[canonical_labels(labels)] = value

    def value(self, labels: dict | None = None) -> float:
        """Current value for one label set (0 if never set)."""
        return self.samples.get(canonical_labels(labels), 0)


class _HistogramSample:
    """Per-label-set histogram state: bucket counts, sum, count."""

    __slots__ = ("counts", "total", "count")

    def __init__(self, bounds: tuple) -> None:
        # One count per finite bound plus the +Inf overflow bucket.
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0


class Histogram(Metric):
    """A distribution over fixed, registration-time bucket bounds."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: tuple = DEFAULT_SECONDS_BUCKETS) -> None:
        super().__init__(name, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram {name} buckets must be strictly increasing, "
                f"got {buckets!r}"
            )
        self.buckets = bounds

    def observe(self, value: float, labels: dict | None = None) -> None:
        """Record one observation."""
        key = canonical_labels(labels)
        sample = self.samples.get(key)
        if sample is None:
            sample = self.samples[key] = _HistogramSample(self.buckets)
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                sample.counts[index] += 1
                break
        else:
            sample.counts[-1] += 1
        sample.total += value
        sample.count += 1


class MetricsRegistry:
    """A collection of named metrics with snapshot/merge semantics.

    Registries are cheap; harnesses that must not interfere (one
    campaign worker, one profile) own private instances, while
    process-wide activity (the pipeline compiler, ``repro simulate``)
    counts into :func:`get_registry`.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def _register(self, cls, name: str, help: str, **kwargs) -> Metric:
        metric = self._metrics.get(name)
        if metric is not None:
            if metric.kind != cls.kind:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"not {cls.kind}"
                )
            return metric
        metric = cls(name, help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create a counter."""
        return self._register(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create a gauge."""
        return self._register(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: tuple = DEFAULT_SECONDS_BUCKETS) -> Histogram:
        """Get or create a histogram with fixed bucket bounds."""
        metric = self._register(Histogram, name, help, buckets=buckets)
        if metric.buckets != tuple(float(b) for b in buckets):
            raise ValueError(
                f"histogram {name!r} already registered with buckets "
                f"{metric.buckets}, not {buckets}"
            )
        return metric

    def metrics(self) -> list[Metric]:
        """All registered metrics, sorted by name."""
        return [self._metrics[name] for name in sorted(self._metrics)]

    def value(self, name: str, labels: dict | None = None) -> float:
        """One sample's current value (0 for unknown metrics/labels)."""
        metric = self._metrics.get(name)
        if metric is None or isinstance(metric, Histogram):
            return 0
        return metric.value(labels)

    def labeled_values(self, name: str) -> dict[LabelSet, float]:
        """All of one counter/gauge's samples by canonical label set."""
        metric = self._metrics.get(name)
        if metric is None or isinstance(metric, Histogram):
            return {}
        return dict(metric.samples)

    def clear(self) -> None:
        """Drop every registered metric (tests and service restarts)."""
        self._metrics.clear()

    # -- snapshot / merge ------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """A frozen, canonical copy of every metric's current state."""
        payload: dict = {}
        for metric in self.metrics():
            entry: dict = {"kind": metric.kind, "help": metric.help}
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
                entry["samples"] = {
                    _label_key(key): {
                        "counts": list(sample.counts),
                        "sum": sample.total,
                        "count": sample.count,
                    }
                    for key, sample in sorted(metric.samples.items())
                }
            else:
                entry["samples"] = {
                    _label_key(key): value
                    for key, value in sorted(metric.samples.items())
                }
            payload[metric.name] = entry
        return MetricsSnapshot(payload)

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        """Fold a snapshot into the live metrics.

        Counters and histogram buckets add; gauges take the max (the
        only order-independent pointwise choice).  Metrics are created
        on first sight, and kind/bucket mismatches raise.
        """
        for name, entry in snapshot.metrics.items():
            kind = entry["kind"]
            if kind == "counter":
                counter = self.counter(name, entry.get("help", ""))
                for key, value in entry["samples"].items():
                    labels = _labels_from_key(key)
                    counter.samples[labels] = (
                        counter.samples.get(labels, 0) + value
                    )
            elif kind == "gauge":
                gauge = self.gauge(name, entry.get("help", ""))
                for key, value in entry["samples"].items():
                    labels = _labels_from_key(key)
                    gauge.samples[labels] = max(
                        gauge.samples.get(labels, value), value
                    )
            elif kind == "histogram":
                histogram = self.histogram(
                    name, entry.get("help", ""),
                    buckets=tuple(entry["buckets"]),
                )
                for key, data in entry["samples"].items():
                    labels = _labels_from_key(key)
                    sample = histogram.samples.get(labels)
                    if sample is None:
                        sample = histogram.samples[labels] = (
                            _HistogramSample(histogram.buckets)
                        )
                    if len(data["counts"]) != len(sample.counts):
                        raise ValueError(
                            f"histogram {name!r} bucket count mismatch"
                        )
                    for index, count in enumerate(data["counts"]):
                        sample.counts[index] += count
                    sample.total += data["sum"]
                    sample.count += data["count"]
            else:
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")


def _label_key(labels: LabelSet) -> str:
    """A label set as its canonical JSON key (sorted, unicode-safe)."""
    return json.dumps([list(pair) for pair in labels],
                      ensure_ascii=False, separators=(",", ":"))


def _labels_from_key(key: str) -> LabelSet:
    """Inverse of :func:`_label_key`."""
    return tuple(tuple(pair) for pair in json.loads(key))


class MetricsSnapshot:
    """A frozen, canonical view of a registry's state.

    The payload dict is already canonical (sorted names, sorted label
    keys); :meth:`canonical_json` is therefore deterministic, and two
    snapshots are equal exactly when their bytes are.
    """

    def __init__(self, metrics: dict) -> None:
        self.metrics = metrics

    def __eq__(self, other) -> bool:
        return (isinstance(other, MetricsSnapshot)
                and self.canonical_json() == other.canonical_json())

    def __repr__(self) -> str:
        return f"MetricsSnapshot({len(self.metrics)} metrics)"

    def to_dict(self) -> dict:
        """The versioned JSON document (what the ledger stores)."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "kind": SNAPSHOT_KIND,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> MetricsSnapshot:
        """Inverse of :meth:`to_dict`.

        Raises:
            ValueError: for a foreign or version-mismatched payload.
        """
        if not isinstance(payload, dict):
            raise ValueError("snapshot payload must be a JSON object")
        if payload.get("kind") != SNAPSHOT_KIND:
            raise ValueError(
                f"not a metrics snapshot: {payload.get('kind')!r}"
            )
        if payload.get("schema") != SNAPSHOT_SCHEMA:
            raise ValueError(
                f"unsupported snapshot schema {payload.get('schema')!r}"
            )
        metrics = payload.get("metrics")
        if not isinstance(metrics, dict):
            raise ValueError("snapshot payload must carry a metrics object")
        return cls(metrics)

    def canonical_json(self) -> str:
        """Deterministic serialisation (sorted keys, no whitespace)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          ensure_ascii=False, separators=(",", ":"))

    def merge(self, other: MetricsSnapshot) -> MetricsSnapshot:
        """The element-wise merge of two snapshots (see merge_all)."""
        return MetricsSnapshot.merge_all([self, other])

    @staticmethod
    def merge_all(snapshots) -> MetricsSnapshot:
        """Merge snapshots **order-independently**.

        Inputs are sorted by their canonical serialisation before
        folding, so any arrival order of worker snapshots produces
        byte-identical output -- the property the parallel campaign's
        parent-side accounting stands on.
        """
        ordered = sorted(snapshots, key=MetricsSnapshot.canonical_json)
        registry = MetricsRegistry()
        for snapshot in ordered:
            registry.merge_snapshot(snapshot)
        return registry.snapshot()


def format_snapshot(snapshot: MetricsSnapshot) -> str:
    """Aligned text rendering of a snapshot (shared by ``repro stats
    --breakdown`` and the campaign/frontier/fuzz reports, so single
    runs and campaigns read the same way)."""
    lines = []
    for name in sorted(snapshot.metrics):
        entry = snapshot.metrics[name]
        if entry["kind"] == "histogram":
            for key, data in entry["samples"].items():
                labels = _labels_from_key(key)
                mean = data["sum"] / data["count"] if data["count"] else 0.0
                lines.append(
                    f"    {_series_name(name, labels):48s} "
                    f"count={data['count']} sum={data['sum']:.3f} "
                    f"mean={mean:.4f}"
                )
        else:
            for key, value in entry["samples"].items():
                labels = _labels_from_key(key)
                rendered = (f"{value:g}" if isinstance(value, float)
                            else str(value))
                lines.append(
                    f"    {_series_name(name, labels):48s} {rendered}"
                )
    return "\n".join(lines) if lines else "    (no metrics recorded)"


def _series_name(name: str, labels: LabelSet) -> str:
    """``name{key="value",...}`` in Prometheus style (for display)."""
    if not labels:
        return name
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return f"{name}{{{inner}}}"


#: The process-wide default registry.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous
