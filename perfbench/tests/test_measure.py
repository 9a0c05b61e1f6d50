"""Unit tests of the benchmark's measurement rules.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import measure  # noqa: E402
from workloads import Outcome, service_targets  # noqa: E402


class TestTailPercentile:
    def test_too_few_samples_for_any_percentile(self):
        assert measure.tail_percentile(list(range(19))) is None

    def test_median_needs_ten_beyond(self):
        pct, value, beyond = measure.tail_percentile(list(range(1, 21)))
        assert (pct, value, beyond) == (50.0, 10, 10)

    def test_p90_from_one_hundred_samples(self):
        pct, value, beyond = measure.tail_percentile(list(range(1, 101)))
        assert (pct, value, beyond) == (90.0, 90, 10)

    def test_p99_just_qualifies_at_one_thousand(self):
        pct, value, beyond = measure.tail_percentile(list(range(1, 1001)))
        assert (pct, value, beyond) == (99.0, 990, 10)

    def test_p99_not_reported_at_999_samples(self):
        pct, _, beyond = measure.tail_percentile(list(range(1, 1000)))
        assert pct == 90.0 and beyond >= 10

    def test_order_of_samples_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 20
        assert (measure.tail_percentile(values)
                == measure.tail_percentile(sorted(values)))


class TestFailedRatio:
    def test_counts_failed_over_attempted(self):
        assert measure.failed_ratio(40, 1) == 0.025
        assert measure.failed_ratio(3, 0) == 0.0

    @pytest.mark.parametrize("attempted, failed", [(0, 0), (3, 4), (3, -1)])
    def test_rejects_impossible_counts(self, attempted, failed):
        with pytest.raises(ValueError):
            measure.failed_ratio(attempted, failed)

    def test_every_check_and_command_is_counted(self):
        out = Outcome()
        out.check(True, "fine")
        out.check(False, "wrong output")
        out.check(True, "fine")
        assert (out.attempted, out.failed) == (3, 1)
        assert measure.failed_ratio(out.attempted, out.failed) == pytest.approx(1 / 3)


def _span(sid, start, end, parent=None):
    return {"id": sid, "start": start, "end": end, "parent": parent}


class TestSelfTime:
    def test_leaf_keeps_its_duration(self):
        assert measure.self_times([_span("a", 1.0, 3.5)]) == {"a": 2.5}

    def test_children_are_subtracted(self):
        spans = [_span("root", 0.0, 10.0), _span("x", 1.0, 3.0, "root"),
                 _span("y", 5.0, 6.0, "root"), _span("z", 5.5, 5.75, "y")]
        times = measure.self_times(spans)
        assert times["root"] == pytest.approx(7.0)
        assert times["y"] == pytest.approx(0.75)
        assert times["x"] == pytest.approx(2.0)

    def test_overlapping_children_count_once(self):
        # Two pool workers busy at the same time under one pool span.
        spans = [_span("pool", 0.0, 10.0), _span("w1", 1.0, 6.0, "pool"),
                 _span("w2", 2.0, 8.0, "pool")]
        assert measure.self_times(spans)["pool"] == pytest.approx(3.0)

    def test_children_outside_the_parent_are_clipped(self):
        spans = [_span("p", 2.0, 4.0), _span("c", 1.0, 3.0, "p")]
        assert measure.self_times(spans)["p"] == pytest.approx(1.0)


class TestUnattributed:
    def test_share_of_root_self_time_scales_to_the_untraced_wall(self):
        # A 10 s traced root whose layer spans cover 9 s leaves 10 %
        # unattributed; the untraced replica took 8 s, so 0.8 s.
        spans = [_span("root", 0.0, 10.0), _span("a", 0.0, 6.0, "root"),
                 _span("b", 7.0, 10.0, "root")]
        root_self = measure.self_times(spans)["root"]
        assert measure.unattributed_s(root_self, 10.0, 8.0) == pytest.approx(0.8)

    def test_rejects_self_time_outside_the_wall(self):
        with pytest.raises(ValueError):
            measure.unattributed_s(-0.1, 10.0, 8.0)
        with pytest.raises(ValueError):
            measure.unattributed_s(11.0, 10.0, 8.0)


class TestParallelEfficiency:
    def test_two_jobs_fully_busy(self):
        assert measure.parallel_efficiency([5.0, 5.0], 2, 5.0) == 1.0

    def test_idle_worker_halves_it(self):
        assert measure.parallel_efficiency([4.0, 1.0], 2, 5.0) == 0.5

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            measure.parallel_efficiency([1.0], 0, 1.0)
        with pytest.raises(ValueError):
            measure.parallel_efficiency([1.0], 2, 0.0)


class TestFig15Gap:
    def test_hand_computed_example(self):
        # Changes of -10% and -20% average to -15%; the paper reports
        # -6.3%, so the gap is 8.7 percentage points.
        baseline = {"gcc": 2.0, "li": 4.0}
        clustered = {"gcc": 1.8, "li": 3.2}
        assert measure.fig15_gap_pp(baseline, clustered) == pytest.approx(8.7)

    def test_experiments_md_table_reads_its_recorded_gap(self):
        # EXPERIMENTS.md: window vs 2-cluster IPC, mean -12.5% vs -6.3%.
        window = [2.185, 3.802, 1.873, 2.047, 4.028, 2.541, 4.140]
        clustered = [1.998, 3.346, 1.820, 1.746, 3.361, 2.179, 3.380]
        names = [str(i) for i in range(7)]
        gap = measure.fig15_gap_pp(dict(zip(names, window)),
                                   dict(zip(names, clustered)))
        assert gap == pytest.approx(12.5 - 6.3, abs=0.05)

    def test_gap_is_a_distance(self):
        assert measure.fig15_gap_pp({"a": 1.0}, {"a": 1.0}) == pytest.approx(6.3)

    def test_benchmarks_must_match(self):
        with pytest.raises(ValueError):
            measure.fig15_gap_pp({"a": 1.0}, {"b": 1.0})


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |   _io
import time:       200 |        300 |       numpy.core
import time:      1000 |       1300 |     numpy
import time:        50 |         50 |       scipy._lib
import time:       500 |        550 |     scipy
import time:       400 |       2250 |   repro.delay.calibration
import time:        10 |       2400 | repro.cli
"""


class TestParsers:
    def test_import_times(self):
        module_s, heavy_s = measure.import_times(IMPORTTIME, "repro.cli")
        assert module_s == pytest.approx(0.0024)
        # numpy (1300) and scipy (550); numpy.core is nested in numpy.
        assert heavy_s == pytest.approx(0.00185)

    def test_import_times_requires_the_module(self):
        with pytest.raises(ValueError):
            measure.import_times(IMPORTTIME, "repro.service")

    def test_prometheus_sum(self):
        text = (
            "# TYPE service_cache_hits_total counter\n"
            'service_cache_hits_total{tier="disk"} 7\n'
            'service_cache_hits_total{tier="memory"} 93\n'
            "service_simulations_total 0\n"
        )
        assert measure.prometheus_sum(text, "service_cache_hits_total") == 100
        assert measure.prometheus_sum(text, "service_cache_hits_total",
                                      {"tier": "memory"}) == 93
        assert measure.prometheus_sum(text, "service_simulations_total") == 0
        assert measure.prometheus_sum(text, "absent_total") == 0

    def test_service_counters(self):
        text = (
            'service_cache_hits_total{tier="disk"} 5\n'
            'service_cache_hits_total{tier="memory"} 15\n'
            "service_simulations_total 0\n"
        )
        assert measure.service_counters(text) == (0.0, 0.75, 20)
        assert measure.service_counters("") == (0.0, 0.0, 0)


def test_spread_is_interquartile_over_median():
    values = [9.0, 10.0, 10.0, 10.0, 11.0, 10.0, 10.0, 10.0, 10.0, 10.0]
    assert measure.spread(values) == pytest.approx(0.0)
    assert measure.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


def test_service_requests_follow_the_seed():
    import random

    machines = ["baseline", "clustered"]
    first = service_targets(random.Random(7), machines, 200)
    assert first == service_targets(random.Random(7), machines, 200)
    assert first != service_targets(random.Random(8), machines, 200)
    assert [t for t in first if "frontier" in t] == ["/v1/frontier?tech=all"] * 4
    clocked = sum("&tech=all" in t for t in first)
    assert 40 < clocked < 90  # about a third of the 196 cell requests
