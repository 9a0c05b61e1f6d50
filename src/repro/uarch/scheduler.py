"""Pluggable wakeup/select scheduler strategies.

The issue stage of :class:`~repro.uarch.pipeline.PipelineSimulator` is
a strategy object drawn from :data:`SCHEDULER_REGISTRY`, mirroring
``MACHINE_REGISTRY`` (:mod:`repro.core.machines`) and
``DELAY_MODEL_REGISTRY`` (:mod:`repro.delay.critical_path`):

* ``conventional`` -- the paper's broadcast wakeup + select over a
  flexible window (also drives the window-steered clustered shapes);
* ``fifo_steering`` -- Section 5's dependence-based FIFOs, where only
  FIFO heads are visible to select;
* ``load_delay_tracking`` -- predicted ready-time issue with real-time
  load-delay feedback (Diavastos & Carlson, arXiv:2109.03112): an
  instruction whose producing load is predicted still in flight is
  held back instead of competing for issue slots, modelling a
  scheduler that replaces the broadcast CAM with per-instruction
  ready-time countdowns.

Candidate gathering and requeueing -- window ready heaps, FIFO heads,
the central execution-driven window, positional order -- are written
once, inline in :func:`repro.uarch.pipeline.run_loop`, together with
budgets, cache ports, memory ordering and stall attribution.  A
strategy names itself, says whether idle-cycle skipping is sound under
it, and, when it ``holds``, filters the single window's candidates
each cycle (:meth:`LoadDelayTrackingScheduler.hold`) and hears about
every load issue (``on_load_issue``).  The ``conventional`` and
``fifo_steering`` strategies add no behaviour of their own and stay
byte-identical to the frozen reference model
(``tests/test_strategy_conformance.py`` proves it).

Strategy identity (name + version) is folded into the campaign cache
key by :func:`strategy_identity`, exactly like ``PREANALYSIS_VERSION``:
bump a strategy's ``version`` whenever its timing behaviour changes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.uarch.config import MachineConfig
    from repro.uarch.pipeline import PipelineSimulator


class SchedulerStrategy:
    """Base class: a wakeup/select strategy's identity and hooks.

    One instance is bound to one :class:`PipelineSimulator`.  A
    strategy with ``holds`` set implements ``hold(candidates, cycle)``,
    returning ``(ready, held)`` -- the held seqs are kept out of select
    this cycle, charged to :data:`StallCause.SCHED_WAIT` and requeued
    -- and ``on_load_issue(seq, latency, cycle)``, called as each load
    issues.
    """

    #: Registry key; also the value ``MachineConfig.scheduler`` takes.
    name = ""
    #: Bumped on any timing-behaviour change (cache-key component).
    version = 1
    #: Whether idle-cycle skipping is sound under this strategy.  A
    #: strategy that holds candidates until a cycle the event machinery
    #: does not know about must disable skipping.
    supports_cycle_skip = True
    #: Whether the cycle loop passes each cycle's candidates through
    #: ``hold`` (see ``repro.uarch.pipeline.loop_flags``).
    holds = False

    def __init__(self, sim: "PipelineSimulator"):
        self.sim = sim

    def reset(self) -> None:
        """Clear per-run state (called from ``_reset_state``)."""


class ConventionalScheduler(SchedulerStrategy):
    """Broadcast wakeup + select over flexible windows (Section 4)."""

    name = "conventional"


class FifoSteeringScheduler(SchedulerStrategy):
    """Dependence-based FIFOs; only heads are selectable (Section 5)."""

    name = "fifo_steering"


class LoadDelayTrackingScheduler(ConventionalScheduler):
    """Predicted ready-time issue with real-time load-delay feedback.

    Follows Diavastos & Carlson (arXiv:2109.03112): instead of a
    broadcast CAM, each instruction carries a predicted ready time
    derived from its producers.  Non-load producers are exact (fixed
    latency); load latencies are *predicted* from the last observed
    latency of the same static load (defaulting to a cache hit) and
    corrected in real time when the load actually issues.  A candidate
    whose predicted ready time is still in the future is held out of
    select that cycle and charged to :data:`StallCause.SCHED_WAIT` --
    the IPC cost of dropping the CAM, which the matching delay model
    (``ldt_window_logic_ps``) repays in clock.

    Holds expire by pure time advance, at cycles the event-driven
    arrival machinery does not schedule, so idle-cycle skipping is
    disabled for this strategy.
    """

    name = "load_delay_tracking"
    supports_cycle_skip = False
    holds = True

    def reset(self) -> None:
        sim = self.sim
        #: Last observed latency per static load (pc), the predictor.
        self._load_latency_of_pc: dict[int, int] = {}
        #: Predicted completion (wakeup) cycle per issued load.
        self._predicted_complete: dict[int, int] = {}
        self._default_latency = sim.config.cache.hit_cycles

    def on_load_issue(self, seq: int, latency: int, cycle: int) -> None:
        """Real-time feedback hook, called when a load issues.

        Records the *prediction* for this dynamic load (consumers are
        held until it) and trains the per-pc table with the actual
        latency for the next dynamic instance.
        """
        sim = self.sim
        pc = sim.pre.pc[seq]
        predicted = self._load_latency_of_pc.get(pc, self._default_latency)
        self._predicted_complete[seq] = cycle + predicted + sim.wakeup_bubble
        self._load_latency_of_pc[pc] = latency

    def hold(self, candidates: list[int], cycle: int):
        """Split ``cycle``'s candidates into ``(ready, held)``: a
        candidate is held while a producing load's predicted wakeup is
        still ahead."""
        predicted_complete = self._predicted_complete
        producers = self.sim.pre.real_producers
        is_load = self.sim.pre.is_load
        ready = []
        held = []
        for seq in candidates:
            hold_until = 0
            for producer in producers[seq]:
                if is_load[producer]:
                    until = predicted_complete.get(producer, 0)
                    if until > hold_until:
                        hold_until = until
            if hold_until > cycle:
                held.append(seq)
            else:
                ready.append(seq)
        return ready, held


#: All registered scheduler strategies, keyed by name.  The planted
#: bug self-test swaps entries here, so look strategies up at
#: simulator-construction time rather than caching classes.
SCHEDULER_REGISTRY: dict[str, type[SchedulerStrategy]] = {
    ConventionalScheduler.name: ConventionalScheduler,
    FifoSteeringScheduler.name: FifoSteeringScheduler,
    LoadDelayTrackingScheduler.name: LoadDelayTrackingScheduler,
}

#: Schedulers the frozen reference model (pipeline_reference) covers;
#: differential fuzzing compares against it only for these.
REFERENCE_SCHEDULERS = (
    ConventionalScheduler.name,
    FifoSteeringScheduler.name,
)


def build_scheduler(sim: "PipelineSimulator") -> SchedulerStrategy:
    """Instantiate the scheduler strategy a simulator's config names.

    Raises:
        ValueError: if the config names an unregistered strategy.
    """
    name = sim.config.scheduler
    try:
        strategy_class = SCHEDULER_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler strategy {name!r}; registered: "
            f"{sorted(SCHEDULER_REGISTRY)}"
        ) from None
    return strategy_class(sim)


def supports_reference(config: "MachineConfig") -> bool:
    """True when the frozen reference model covers ``config``.

    The reference predates the strategy layer: it models exactly the
    classic schedulers with an unlimited-port register file.
    """
    return (
        config.scheduler in REFERENCE_SCHEDULERS
        and config.regfile == "unlimited"
    )


def strategy_identity(config: "MachineConfig") -> str:
    """Cache-key component naming the config's strategies + versions.

    Two configs differing only in scheduler/regfile strategy (or in a
    strategy's behaviour version) must never collide in the
    content-addressed campaign cache; this string, folded into
    :func:`repro.core.campaign.cache_key`, guarantees it -- the same
    role ``PREANALYSIS_VERSION`` plays for the pre-analysis pass.
    """
    from repro.uarch.regfile_model import REGFILE_REGISTRY

    scheduler = SCHEDULER_REGISTRY[config.scheduler]
    regfile = REGFILE_REGISTRY[config.regfile]
    return (
        f"sched:{scheduler.name}@{scheduler.version}"
        f"+regfile:{regfile.name}@{regfile.version}"
    )
