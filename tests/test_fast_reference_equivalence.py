"""The optimized and compiled simulators are pinned to the oracle.

Three models, one contract.  ``repro.uarch.pipeline`` (pre-analysis
arrays, inlined hot paths, cycle skipping) must produce
**byte-identical** ``SimStats`` to ``repro.uarch.pipeline_reference``
-- the seed implementation kept verbatim as the oracle -- and the
per-config compiled pipeline (``repro.uarch.compile``, reached via
``simulate(..., mode="compiled")``) must in turn be byte-identical to
the fast interpreter on every registered shape, whether it genuinely
compiles or falls back.  These tests sweep every machine shape times
every workload and compare the full serialised stats dict, not just
IPC: any divergence in stall attribution, histograms, occupancy, or
bypass counts fails.

The cycle-skipping machinery gets its own checks, in both the
interpreted and compiled models: skipping must not change the
event-tracer timeline (idle cycles emit no events, so the streams are
comparable element by element) and must replicate per-cause stall
totals exactly.
"""

import pytest

from repro.core.machines import (
    baseline_8way,
    clustered_dependence_8way,
    ports_limited_8way,
)
from repro.obs import EventTracer
from repro.uarch.compile import run_compiled, supports_compile
from repro.uarch.pipeline import PipelineSimulator, simulate
from repro.uarch.pipeline_reference import (
    ReferencePipelineSimulator,
    simulate_reference,
)
from repro.workloads import get_trace
from tests.machines import ALL_MACHINES, REFERENCE_MACHINES

#: Reduced budget: 8 machines x 7 workloads stay fast while covering
#: every steering/selection/cluster shape the reference models (the
#: post-reference strategies are pinned by the conformance harness
#: and golden IPC pins instead).
LENGTH = 1_200

MACHINES = REFERENCE_MACHINES

#: Registered shapes the frozen reference does not model (strategy
#: shapes); the compiled column still pins these to the fast
#: interpreter, so the three-way matrix covers every machine.
NON_REFERENCE_MACHINES = {
    name: factory
    for name, factory in ALL_MACHINES.items()
    if name not in REFERENCE_MACHINES
}

WORKLOADS = ("compress", "gcc", "go", "li", "m88ksim", "perl", "vortex")


def _diff(left: dict, right: dict) -> str:
    return str({k: (left.get(k), right.get(k))
                for k in left.keys() | right.keys()
                if left.get(k) != right.get(k)})


@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_stats_byte_identical(machine, workload):
    """Full SimStats dict equality, reference vs fast vs compiled."""
    trace = get_trace(workload, LENGTH)
    fast = simulate(MACHINES[machine](), trace).to_dict()
    reference = simulate_reference(MACHINES[machine](), trace).to_dict()
    compiled = simulate(MACHINES[machine](), trace, mode="compiled").to_dict()
    assert fast == reference, (
        f"optimized simulator diverged from reference on "
        f"{machine}/{workload}: " + _diff(fast, reference)
    )
    assert compiled == fast, (
        f"compiled simulator diverged from fast on "
        f"{machine}/{workload}: " + _diff(compiled, fast)
    )


@pytest.mark.parametrize("machine", sorted(NON_REFERENCE_MACHINES))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_compiled_matches_fast_beyond_reference(machine, workload):
    """The compiled column extends past the reference's coverage:
    strategy shapes (pluggable scheduler / ports-limited regfile) pin
    compiled against fast, so every registered machine is in the
    matrix even where the seed oracle cannot go."""
    trace = get_trace(workload, LENGTH)
    factory = NON_REFERENCE_MACHINES[machine]
    fast = simulate(factory(), trace).to_dict()
    compiled = simulate(factory(), trace, mode="compiled").to_dict()
    assert compiled == fast, (
        f"compiled simulator diverged from fast on "
        f"{machine}/{workload}: " + _diff(compiled, fast)
    )


def test_cycle_skip_off_matches_on():
    """Skipping is a pure fast-forward: on/off runs are identical."""
    trace = get_trace("li", LENGTH)
    config = baseline_8way()
    skipping = PipelineSimulator(config, trace, cycle_skip=True)
    stepping = PipelineSimulator(baseline_8way(), trace, cycle_skip=False)
    assert skipping.run().to_dict() == stepping.run().to_dict()
    assert skipping.skipped_cycles > 0, (
        "expected the skipper to engage on this workload; if machine "
        "defaults changed, pick a cell with idle stretches"
    )
    assert stepping.skipped_cycles == 0


def test_cycle_skip_engages_on_long_stalls():
    """A tiny window forces backpressure; skipped cycles still count
    in the total and the stall partition stays valid."""
    trace = get_trace("compress", LENGTH)
    simulator = PipelineSimulator(baseline_8way(window_size=4), trace)
    stats = simulator.run()
    stats.validate()
    reference = ReferencePipelineSimulator(
        baseline_8way(window_size=4), trace
    ).run()
    assert stats.to_dict() == reference.to_dict()


class TestTracedEquivalence:
    """Cycle skipping under tracing (satellite: tracer timelines)."""

    @pytest.mark.parametrize("machine", ["baseline", "dependence", "clustered"])
    def test_event_timeline_identical(self, machine):
        trace = get_trace("li", LENGTH)
        fast_tracer = EventTracer(capacity=None)
        ref_tracer = EventTracer(capacity=None)
        compiled_tracer = EventTracer(capacity=None)
        fast_stats = PipelineSimulator(
            MACHINES[machine](), trace, tracer=fast_tracer
        ).run()
        ref_stats = ReferencePipelineSimulator(
            MACHINES[machine](), trace, tracer=ref_tracer
        ).run()
        compiled_stats = simulate(
            MACHINES[machine](), trace, mode="compiled",
            tracer=compiled_tracer,
        )
        assert fast_stats.to_dict() == ref_stats.to_dict()
        assert compiled_stats.to_dict() == fast_stats.to_dict()

        def timeline(tracer):
            return [
                (e.cycle, e.kind, e.seq, e.cluster, e.detail, e.dur)
                for e in tracer.events
            ]

        assert timeline(fast_tracer) == timeline(ref_tracer)
        assert timeline(compiled_tracer) == timeline(ref_tracer)

    def test_compiled_timeline_on_ports_limited(self):
        """A genuinely compiled (not fallen-back) traced run on a
        shape outside the reference's coverage."""
        trace = get_trace("li", LENGTH)
        assert supports_compile(ports_limited_8way())
        fast_tracer = EventTracer(capacity=None)
        compiled_tracer = EventTracer(capacity=None)
        fast_stats = PipelineSimulator(
            ports_limited_8way(), trace, tracer=fast_tracer
        ).run()
        compiled_stats = simulate(
            ports_limited_8way(), trace, mode="compiled",
            tracer=compiled_tracer,
        )
        assert compiled_stats.to_dict() == fast_stats.to_dict()
        fast_events = [
            (e.cycle, e.kind, e.seq, e.cluster, e.detail, e.dur)
            for e in fast_tracer.events
        ]
        compiled_events = [
            (e.cycle, e.kind, e.seq, e.cluster, e.detail, e.dur)
            for e in compiled_tracer.events
        ]
        assert compiled_events == fast_events

    def test_per_cause_stall_totals_identical(self):
        trace = get_trace("go", LENGTH)
        fast = PipelineSimulator(baseline_8way(), trace)
        fast_stats = fast.run()
        ref_stats = ReferencePipelineSimulator(baseline_8way(), trace).run()
        assert fast_stats.stall_cycles == ref_stats.stall_cycles
        assert fast_stats.dispatch_stalls == ref_stats.dispatch_stalls
        assert fast_stats.issue_histogram == ref_stats.issue_histogram
        # The skipped cycles are inside the total, not on top of it.
        assert fast_stats.cycles == ref_stats.cycles


def test_compiled_cycle_skip_off_matches_on():
    """The compiled variants replicate the fast-forward exactly: a
    stepping compiled run equals a skipping one, and both equal the
    interpreter."""
    trace = get_trace("li", LENGTH)
    skipping = PipelineSimulator(baseline_8way(), trace, cycle_skip=True)
    stepping = PipelineSimulator(baseline_8way(), trace, cycle_skip=False)
    skip_stats = run_compiled(skipping)
    step_stats = run_compiled(stepping)
    assert skip_stats.to_dict() == step_stats.to_dict()
    assert skipping.skipped_cycles > 0, (
        "expected the compiled skipper to engage on this workload"
    )
    assert stepping.skipped_cycles == 0
    assert skip_stats.to_dict() == simulate(baseline_8way(), trace).to_dict()


def test_compiled_backpressure_shape():
    """A tiny window forces backpressure inside the compiled step
    function; the stall partition must still match the interpreter."""
    trace = get_trace("compress", LENGTH)
    config = baseline_8way(window_size=4)
    assert supports_compile(config)
    stats = run_compiled(PipelineSimulator(config, trace))
    stats.validate()
    fast = PipelineSimulator(baseline_8way(window_size=4), trace).run()
    assert stats.to_dict() == fast.to_dict()


def test_compiled_per_instruction_timings_identical():
    """The compiled pipeline fills the same per-instruction lifecycle
    arrays the interpreter does, element for element."""
    trace = get_trace("gcc", LENGTH)
    compiled = PipelineSimulator(ports_limited_8way(), trace)
    run_compiled(compiled)
    fast = PipelineSimulator(ports_limited_8way(), trace)
    fast.run()
    assert compiled.fetch_cycle == fast.fetch_cycle
    assert compiled.dispatch_cycle == fast.dispatch_cycle
    assert compiled.issue_cycle == fast.issue_cycle
    assert compiled.complete_cycle == fast.complete_cycle
    assert compiled.commit_cycle == fast.commit_cycle
    assert compiled.cluster_of == fast.cluster_of


def test_per_instruction_timings_identical():
    """Not just aggregates: per-instruction lifecycle cycles match."""
    trace = get_trace("gcc", LENGTH)
    fast = PipelineSimulator(clustered_dependence_8way(), trace)
    fast.run()
    reference = ReferencePipelineSimulator(clustered_dependence_8way(), trace)
    reference.run()
    assert fast.fetch_cycle == reference.fetch_cycle
    assert fast.dispatch_cycle == reference.dispatch_cycle
    assert fast.issue_cycle == reference.issue_cycle
    assert fast.complete_cycle == reference.complete_cycle
    assert fast.commit_cycle == reference.commit_cycle
    assert fast.cluster_of == reference.cluster_of
