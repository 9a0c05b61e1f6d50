"""The cycle-level out-of-order pipeline timing model.

Trace-driven, like the paper's modified SimpleScalar: the committed
dynamic stream is replayed through the pipeline stages of Figure 1
(dependence-based variants follow Figure 11):

* **fetch** -- up to ``fetch_width`` instructions per cycle from a
  perfect instruction cache; conditional branches consult gshare, and
  a misprediction halts fetch until the branch executes (wrong-path
  work is modeled as lost fetch cycles).  Unconditional control
  transfers are predicted perfectly (Table 3).
* **rename/dispatch** -- in-order, up to ``dispatch_width`` per cycle,
  limited by physical registers, the 128-instruction in-flight window,
  and issue-buffer capacity; the steering policy assigns a cluster
  (and FIFO, for FIFO machines) here.
* **wakeup/select** -- out-of-order issue of up to ``issue_width``
  ready instructions per cycle, oldest first, subject to per-cluster
  functional units, cache ports, and -- for FIFO clusters -- the
  constraint that only FIFO heads are visible to select.  Loads also
  wait until every earlier store has computed its address (Table 3).
* **execute/bypass** -- single-cycle symmetric units; loads take the
  cache hit/miss latency; a value produced in one cluster reaches the
  other after the inter-cluster bypass latency.
* **commit** -- in order, up to ``retire_width`` per cycle.

The per-operand wakeup is event driven: each producer schedules
arrival events for its consumers, per cluster, so a cycle's work is
proportional to actual activity.

**One cycle loop.**  :class:`PipelineSimulator` builds the machine
state; :func:`run_loop` is the whole timing model -- one plain
function that hoists that state into locals once per run and steps
every cycle inline.  It covers every machine shape through
keyword-only boolean *shape flags* (:func:`loop_flags`): each stage
tests the flags it cares about, and the cluster, FIFO, slot and
steering bookkeeping runs inline too.  The loop calls out only to the
strategy objects: the steering policy's ``place``, the register-file
model's ``new_cycle`` and a holding scheduler's ``hold`` /
``on_load_issue``.  :mod:`repro.uarch.compile` derives the per-shape compiled
runner from this same function by binding the flags to constants and
pruning the branches they decide, so there is exactly one
hand-written fast model.  Its statistics are pinned cycle-for-cycle to
:mod:`repro.uarch.pipeline_reference` (the frozen seed model) by the
equivalence suite.

The loop's data layout (see ``docs/performance.md``): the fetch buffer
is the seq range ``[buf_head, fetch_ptr)`` (fetch and dispatch are
both in order), stalls are counted in flat lists indexed by cause code
(:data:`CAUSES`), operand counts are one flat ``pending`` list indexed
``seq * n_clusters + cluster``, and per-trace pre-analysis
(:mod:`repro.uarch.preanalysis`) turns attribute lookups into array
indexing.  Idle cycles -- where no stage can possibly act -- are
*skipped* by jumping the clock to the next scheduled event while
replicating the per-cycle statistics the reference would have
accumulated.  Skipping is disabled where a spinning cycle has side
effects: random steering consumes an RNG draw per attempt,
execution-driven steering resolves inter-cluster waits by pure time
advance, and a scheduler may hold candidates until unscheduled cycles.
"""

from __future__ import annotations

import heapq
from time import perf_counter

from repro.isa.emulator import Trace
from repro.isa.instructions import FP_REG_BASE
from repro.obs.events import EventKind, EventTracer
from repro.uarch.cache import SetAssociativeCache
from repro.uarch.config import MachineConfig, SelectionPolicy, SteeringPolicy
from repro.uarch.fifos import FifoSet
from repro.uarch.preanalysis import preanalyze
from repro.uarch.predictor import GshareBranchPredictor
from repro.uarch.regfile_model import REGFILE_REGISTRY, build_regfile
from repro.uarch.rename import RegisterRenamer
from repro.uarch.scheduler import (
    SCHEDULER_REGISTRY,
    build_scheduler,
    supports_reference,
)
from repro.uarch.stats import BACKPRESSURE_CAUSES, SimStats, StallCause
from repro.uarch.steering import (
    FifoDispatchSteering,
    LeastLoadedSteering,
    ModuloSteering,
    OutstandingOperand,
    RandomSteering,
    SteeringView,
    WindowDispatchSteering,
)

heappush = heapq.heappush
heappop = heapq.heappop

INF = float("inf")

#: Cycles after a value's arrival in a cluster until it can be read
#: from that cluster's register file instead of a bypass path (the
#: REG WRITE stage depth in Figure 1); used only for the Figure 17
#: inter-cluster bypass-frequency accounting.
REGFILE_WRITE_DELAY = 2

#: Fetch-buffer depth in multiples of the fetch width.
_FETCH_BUFFER_FACTOR = 2

#: Stall causes in code order.  The cycle loop counts stalls in flat
#: lists indexed by these codes and converts the nonzero slots back to
#: ``{StallCause: count}`` dicts when the run ends.
CAUSES: tuple[StallCause, ...] = tuple(StallCause)
_CODE = {cause: code for code, cause in enumerate(CAUSES)}
C_IN_FLIGHT = _CODE[StallCause.IN_FLIGHT]
C_INT_REGS = _CODE[StallCause.INT_REGS]
C_FP_REGS = _CODE[StallCause.FP_REGS]
C_WINDOW_FULL = _CODE[StallCause.WINDOW_FULL]
C_NO_FIFO = _CODE[StallCause.NO_FIFO]
C_FETCH_STARVED = _CODE[StallCause.FETCH_STARVED]
C_FU = _CODE[StallCause.FU_CONTENTION]
C_CACHE = _CODE[StallCause.CACHE_PORT]
C_LSO = _CODE[StallCause.LOAD_STORE_ORDER]
C_XWAIT = _CODE[StallCause.INTER_CLUSTER_WAIT]
C_REGFILE = _CODE[StallCause.REGFILE_PORT]
C_SCHED = _CODE[StallCause.SCHED_WAIT]
C_DRAIN = _CODE[StallCause.DRAIN]
BACKPRESSURE = frozenset(_CODE[cause] for cause in BACKPRESSURE_CAUSES)


class SimulatorDeadlock(RuntimeError):
    """The cycle loop stopped making forward progress.

    A simulator bug, and deterministic: the same config and trace hit
    it again on every run, so callers fail fast instead of retrying.
    """


def loop_flags(
    config: MachineConfig,
    traced: bool = False,
    cycle_skip: bool = True,
    profiled: bool = False,
) -> dict[str, bool]:
    """The shape flags :func:`run_loop` runs ``config`` with.

    A pure function of the config and the strategy classes its names
    select, so :mod:`repro.uarch.compile` can key compiled runners on
    it.  ``fifos`` means every cluster is a FIFO cluster (the config
    allows no mix); ``steered`` means dispatch assigns clusters through
    a steering policy; ``holds`` means the scheduler strategy filters
    the single window's issue candidates every cycle.
    """
    scheduler = SCHEDULER_REGISTRY[config.scheduler]
    return {
        "clustered": len(config.clusters) > 1,
        "fifos": any(c.uses_fifos for c in config.clusters),
        "steered": config.steering is not SteeringPolicy.NONE,
        "exec_driven": config.steering is SteeringPolicy.EXEC_DRIVEN,
        "positional": config.selection is SelectionPolicy.POSITION,
        "holds": scheduler.holds,
        "ports": REGFILE_REGISTRY[config.regfile].limited,
        "traced": traced,
        "cycle_skip": cycle_skip and scheduler.supports_cycle_skip,
        "profiled": profiled,
    }


class PipelineSimulator:
    """One machine configuration bound to one trace.

    Use :func:`simulate` for the one-shot convenience form.

    Args:
        config: The machine to model.
        trace: The committed dynamic instruction stream to replay.
        tracer: Optional :class:`~repro.obs.events.EventTracer`; when
            attached, every lifecycle step of every instruction is
            emitted as a structured event.  ``None`` (the default)
            runs the loop with its tracer sites switched off.
        cycle_skip: Jump the clock over provably idle cycles (the
            default).  ``False`` steps every cycle like the reference
            model; statistics are identical either way.
    """

    def __init__(
        self,
        config: MachineConfig,
        trace: Trace,
        tracer: EventTracer | None = None,
        cycle_skip: bool = True,
    ):
        self.config = config
        self.trace = trace
        self.tracer = tracer
        self.insts = trace.insts
        self.pre = preanalyze(trace)
        self.n_clusters = len(config.clusters)
        self.extra_bypass = config.extra_bypass_latency
        # Figure 10: a wakeup+select loop pipelined over N stages
        # delays every dependent wakeup by N-1 cycles.
        self.wakeup_bubble = config.wakeup_select_stages - 1
        self.predictor = GshareBranchPredictor(config.predictor)
        self.cache = SetAssociativeCache(config.cache)
        self.stats = SimStats(machine=config.name, workload=trace.name)
        self._steering = self._build_steering()
        # Strategy objects: the wakeup/select scheduler and the
        # register-file port model named by the config (see
        # repro.uarch.scheduler / repro.uarch.regfile_model).
        self.scheduler = build_scheduler(self)
        self.regfile_model = build_regfile(self)
        # A scheduler that holds candidates until cycles the event
        # machinery does not schedule cannot skip idle cycles.
        self.cycle_skip = cycle_skip and self.scheduler.supports_cycle_skip
        #: Per-stage host seconds of the last profiled run, in
        #: pipeline order (see repro.obs.profiling.profile_simulation).
        self.stage_seconds: list[float] | None = None
        self._reset_state()

    def _build_steering(self):
        policy = self.config.steering
        if policy is SteeringPolicy.FIFO_DISPATCH:
            return FifoDispatchSteering(self.n_clusters)
        if policy is SteeringPolicy.WINDOW_DISPATCH:
            return WindowDispatchSteering(self.n_clusters)
        if policy is SteeringPolicy.RANDOM:
            return RandomSteering(self.n_clusters, seed=self.config.steering_seed)
        if policy is SteeringPolicy.MODULO:
            return ModuloSteering(self.n_clusters)
        if policy is SteeringPolicy.LEAST_LOADED:
            return LeastLoadedSteering(self.n_clusters)
        return None  # NONE and EXEC_DRIVEN place without a dispatch policy

    def _reset_state(self) -> None:
        n = len(self.insts)
        config = self.config
        self.cycle = 0
        # Per-instruction timing state.
        self.dispatched = bytearray(n)
        self.issued = bytearray(n)
        self.fetch_cycle = [0] * n
        self.dispatch_cycle = [0] * n
        self.issue_cycle = [0] * n
        self.complete_cycle = [INF] * n
        self.commit_cycle = [0] * n
        self.cluster_of = [-1] * n
        self.home_cluster = [-1] * n  # cluster chosen at dispatch
        self.used_x_bypass = bytearray(n)
        # Wakeup plumbing: outstanding operand count per (seq,
        # cluster) at index seq * n_clusters + cluster, and arrival
        # events (cycle -> such indices).
        self.pending = [0] * (n * self.n_clusters)
        self.arrivals: dict[int, list[int]] = {}
        self.waiting_on: list[list[int] | None] = [None] * n
        self.in_ready = bytearray(n)
        # Issue buffers.
        self.fifo_sets: list[FifoSet] = []
        self.fifo_of: dict[int, tuple[int, int]] = {}
        uses_fifos = any(c.uses_fifos for c in config.clusters)
        conceptual = config.steering is SteeringPolicy.WINDOW_DISPATCH
        if uses_fifos:
            self.fifo_sets = [
                FifoSet(c.fifo_count, c.fifo_depth) for c in config.clusters
            ]
        elif conceptual:
            # Section 5.6.2: each 32-entry window is modeled (for the
            # steering heuristic only) as eight FIFOs of four slots.
            self.fifo_sets = [
                FifoSet(max(1, c.window_size // 4), 4) for c in config.clusters
            ]
        self.conceptual_fifos = conceptual
        #: Free slots per window cluster; steering policies read it
        #: through SteeringView (FIFO clusters size by their FIFOs).
        self.window_room = [c.capacity for c in config.clusters]
        #: Instructions in issue windows/FIFOs (dispatched, not issued).
        self.buffered = 0
        # Non-compacting (position-priority) selection: track which
        # window slot each instruction occupies; lowest free slot is
        # allocated at dispatch and freed at issue.
        self.positional = config.selection is SelectionPolicy.POSITION
        self.slot_of: dict[int, int] = {}
        self.free_slots: list[list[int]] = [
            list(range(c.capacity)) for c in config.clusters
        ]
        for heap in self.free_slots:
            heapq.heapify(heap)
        self.ready_heaps: list[list[int]] = [[] for _ in range(self.n_clusters)]
        self.central_ready: list[int] = []
        # Frontend: the fetch buffer is the seq range
        # [buf_head, fetch_ptr), each entry dispatchable
        # front_end_stages cycles after its fetch cycle.
        self.fetch_ptr = 0
        self.buf_head = 0
        self.next_fetch_cycle = 0
        self.pending_redirect: int | None = None
        self.fetch_buffer_cap = _FETCH_BUFFER_FACTOR * config.fetch_width
        # Resources.  Renaming is performed for real: map tables, free
        # lists, and previous-mapping release at commit.
        self.in_flight = 0
        if (config.int_phys_regs <= FP_REG_BASE
                or config.fp_phys_regs <= FP_REG_BASE):
            raise ValueError("physical register files smaller than the ISA")
        self.int_renamer = RegisterRenamer(
            physical_registers=config.int_phys_regs, logical_registers=FP_REG_BASE
        )
        self.fp_renamer = RegisterRenamer(
            physical_registers=config.fp_phys_regs, logical_registers=FP_REG_BASE
        )
        self.prev_dest_phys: list[int | None] = [None] * n
        # Memory ordering.
        self.unissued_stores: list[int] = []
        self.inflight_store_words: dict[int, int] = {}
        self.commit_ptr = 0
        self.skipped_cycles = 0
        if self._steering is not None:
            self._steering.reset()
        self.scheduler.reset()
        self.regfile_model.reset()

    @property
    def free_int_regs(self) -> int:
        """Free integer physical registers (from the real free list)."""
        return self.int_renamer.free_count

    @property
    def free_fp_regs(self) -> int:
        """Free floating-point physical registers."""
        return self.fp_renamer.free_count

    def run(self, max_cycles: int | None = None) -> SimStats:
        """Simulate until the whole trace commits.

        Args:
            max_cycles: Safety bound; defaults to 100 cycles per
                instruction plus slack.

        Returns:
            The populated :class:`SimStats`.

        Raises:
            SimulatorDeadlock: if the pipeline fails to make progress
                within the cycle bound (a deadlock would be a
                simulator bug).
        """
        flags = loop_flags(
            self.config, traced=self.tracer is not None,
            cycle_skip=self.cycle_skip,
        )
        return run_loop(self, max_cycles, **flags)


def run_loop(
    sim: PipelineSimulator,
    max_cycles: int | None,
    *,
    clustered: bool,
    fifos: bool,
    steered: bool,
    exec_driven: bool,
    positional: bool,
    holds: bool,
    ports: bool,
    traced: bool,
    cycle_skip: bool,
    profiled: bool,
) -> SimStats:
    """Run ``sim`` to completion: the whole cycle loop, every shape.

    The simulator's state is hoisted into locals once, each cycle runs
    wakeup, commit, select/issue, rename/dispatch and fetch inline
    (the sections marked below), and the mutated scalars are written
    back at the end.  The keyword-only flags (:func:`loop_flags`) only
    ever appear in ``if`` tests and boolean expressions, which is what
    lets :func:`repro.uarch.compile.compiled_runner` bind them to
    constants and prune the branches they decide.  With ``profiled``
    the host seconds spent in each of the five sections are left in
    ``sim.stage_seconds``.  ``max_cycles`` defaults to 100 cycles per
    instruction plus slack.

    Raises:
        SimulatorDeadlock: on no forward progress within
            ``max_cycles``, or when an idle cycle has no scheduled
            event left.
    """
    config = sim.config
    n = len(sim.insts)
    if max_cycles is None:
        max_cycles = 100 * n + 1_000
    pre = sim.pre
    real_producers = pre.real_producers
    is_load = pre.is_load
    is_store = pre.is_store
    is_mem = pre.is_mem
    is_branch = pre.is_branch
    mem_addr = pre.mem_addr
    mem_word = pre.mem_word
    dest_kind = pre.dest_kind
    logical_dest = pre.logical_dest
    pc = pre.pc
    taken = pre.taken
    stats = sim.stats
    if traced:
        insts = sim.insts
        tracer_emit = sim.tracer.emit
        dest = pre.dest
    # Machine scalars.
    fetch_width = config.fetch_width
    dispatch_width = config.dispatch_width
    issue_width = config.issue_width
    retire_width = config.retire_width
    max_in_flight = config.max_in_flight
    front_end = config.front_end_stages
    fu_latency = config.fu_latency
    if clustered:
        fu_counts = [c.fu_count for c in config.clusters]
    else:
        fu_count = config.clusters[0].fu_count
    capacity = config.total_capacity
    cache_ports = config.cache.ports
    fetch_cap = sim.fetch_buffer_cap
    bubble = sim.wakeup_bubble
    # The predictor, cache and renamers run inline on their state.
    predictor = sim.predictor
    counters = predictor._counters
    history = predictor._history
    index_mask = predictor._index_mask
    history_mask = predictor._history_mask
    lookups = predictor.lookups
    branch_hits = predictor.hits
    cache = sim.cache
    cache_sets = cache._sets
    offset_bits = cache._offset_bits
    set_mask = cache._set_mask
    assoc = config.cache.associativity
    hit_latency = config.cache.hit_cycles
    miss_latency = config.cache.miss_cycles
    cache_accesses = cache.accesses
    cache_misses = cache.misses
    int_map = sim.int_renamer._map
    int_free = sim.int_renamer._free
    int_free_set = sim.int_renamer._free_set
    fp_map = sim.fp_renamer._map
    fp_free = sim.fp_renamer._free
    fp_free_set = sim.fp_renamer._free_set
    # Per-instruction state.
    dispatched = sim.dispatched
    issued = sim.issued
    fetch_cycle = sim.fetch_cycle
    dispatch_cycle = sim.dispatch_cycle
    issue_cycle = sim.issue_cycle
    complete_cycle = sim.complete_cycle
    commit_cycle = sim.commit_cycle
    cluster_of = sim.cluster_of
    home_cluster = sim.home_cluster
    prev_dest_phys = sim.prev_dest_phys
    pending = sim.pending
    arrivals = sim.arrivals
    waiting_on = sim.waiting_on
    in_ready = sim.in_ready
    ready_heaps = sim.ready_heaps
    ready_heap0 = ready_heaps[0]
    unissued_stores = sim.unissued_stores
    inflight_store_words = sim.inflight_store_words
    if clustered:
        n_clusters = sim.n_clusters
        extra_bypass = sim.extra_bypass
        used_x_bypass = sim.used_x_bypass
        inter_cluster_bypasses = stats.inter_cluster_bypasses
    if exec_driven:
        central_ready = sim.central_ready
    if steered or positional:
        # Issue-buffer bookkeeping: the entry list of every FIFO (or
        # conceptual FIFO) per cluster, each buffered instruction's
        # (cluster, fifo), free window slots, and positional slots.
        fifo_entries = [[fifo._entries for fifo in fifo_set.fifos]
                        for fifo_set in sim.fifo_sets]
        fifo_of = sim.fifo_of
        window_room = sim.window_room
        slot_of = sim.slot_of
        free_slots = sim.free_slots
        steering = sim._steering
    if fifos:
        fifo_lists = [(k, entries) for k, lists in enumerate(fifo_entries)
                      for entries in lists]
    if steered:
        if not exec_driven:
            place = steering.place
            view = SteeringView(sim.fifo_sets, None if fifos else window_room)
            steer_block = (
                C_NO_FIFO if fifos or sim.conceptual_fifos else C_WINDOW_FULL
            )
        # Random steering draws from its RNG on every placement
        # attempt, so a cycle that tried to place is never idle.
        skippable = config.steering is not SteeringPolicy.RANDOM
        place_called = False
    if holds:
        hold = sim.scheduler.hold
        on_load_issue = sim.scheduler.on_load_issue
    if ports:
        regfile = sim.regfile_model
        grant_read_ports = regfile.new_cycle
        read_budget = regfile.budget
        reads_of = regfile.reads
    if profiled:
        stage_seconds = [0.0] * 5
    # Mutable scalars.
    cycle = sim.cycle
    commit_ptr = sim.commit_ptr
    in_flight = sim.in_flight
    fetch_ptr = sim.fetch_ptr
    buf_head = sim.buf_head
    next_fetch_cycle = sim.next_fetch_cycle
    pending_redirect = sim.pending_redirect
    skipped_cycles = sim.skipped_cycles
    buffered = sim.buffered
    committed = stats.committed
    fetched = stats.fetched
    mispredicts = stats.mispredicts
    store_forwards = stats.store_forwards
    occupancy_sum = stats.occupancy_sum
    active_cycles = stats.active_cycles
    hist = [0] * (issue_width + 1)
    stall_counts = [0] * len(CAUSES)
    dispatch_stall_counts = [0] * len(CAUSES)
    last_cause = -1
    cluster = 0
    while commit_ptr < n:
        if cycle > max_cycles:
            raise SimulatorDeadlock(
                f"no forward progress after {cycle} cycles "
                f"({commit_ptr}/{n} committed) -- simulator bug"
            )
        if profiled:
            mark = perf_counter()

        # -- wakeup: this cycle's operand arrivals ----------------------
        events = arrivals.pop(cycle, None)
        if events is not None:
            for index in events:
                count = pending[index] - 1
                pending[index] = count
                if count == 0:
                    if clustered:
                        s, k = divmod(index, n_clusters)
                    else:
                        s = index
                    if traced:
                        tracer_emit(cycle, EventKind.WAKEUP, s, k if clustered else 0)
                    if exec_driven:
                        if not in_ready[s]:
                            in_ready[s] = 1
                            heappush(central_ready, s)
                    elif fifos:
                        pass  # FIFO clusters poll their heads instead
                    elif not clustered:
                        if not in_ready[s]:
                            in_ready[s] = 1
                            heappush(ready_heap0, s)
                    elif k == home_cluster[s] and not in_ready[s]:
                        in_ready[s] = 1
                        heappush(ready_heaps[k], s)
        if profiled:
            now = perf_counter()
            stage_seconds[0] += now - mark
            mark = now

        # -- commit --------------------------------------------------
        commit_before = commit_ptr
        s = commit_ptr
        if s < n and issued[s]:
            budget = retire_width
            horizon = cycle - 1
            while budget and s < n:
                if not issued[s] or complete_cycle[s] > horizon:
                    break
                if is_store[s]:
                    word = mem_word[s]
                    if word >= 0:
                        count = inflight_store_words.get(word, 0) - 1
                        if count > 0:
                            inflight_store_words[word] = count
                        else:
                            inflight_store_words.pop(word, None)
                kind = dest_kind[s]
                if kind:
                    previous = prev_dest_phys[s]
                    if previous is not None:
                        if kind == 1:
                            int_free.append(previous)
                            int_free_set.add(previous)
                        else:
                            fp_free.append(previous)
                            fp_free_set.add(previous)
                if clustered and used_x_bypass[s]:
                    inter_cluster_bypasses += 1
                if traced:
                    tracer_emit(cycle, EventKind.COMMIT, s, cluster_of[s])
                commit_cycle[s] = cycle
                s += 1
                budget -= 1
            if s != commit_ptr:
                in_flight -= s - commit_ptr
                committed += s - commit_ptr
                commit_ptr = s
        if profiled:
            now = perf_counter()
            stage_seconds[1] += now - mark
            mark = now

        # -- select/issue --------------------------------------------
        if ports:
            grant_read_ports()
        budget = issue_width
        if clustered:
            fu_budget = fu_counts.copy()
        else:
            fu_budget = fu_count
        mem_budget = cache_ports
        while unissued_stores and issued[unissued_stores[0]]:
            heappop(unissued_stores)
        oldest_store = unissued_stores[0] if unissued_stores else n
        issued_count = 0
        b_ports = b_fu = b_cache = b_lso = b_wait = b_held = 0
        # Gather the candidates select sees: the ready pool(s) or, for
        # FIFO clusters, the heads whose operands have all arrived.
        candidates = []
        if exec_driven:
            while central_ready:
                s = heappop(central_ready)
                if not issued[s]:
                    candidates.append(s)
        elif fifos:
            for k, entries in fifo_lists:
                if entries:
                    s = entries[0]
                    if pending[s * n_clusters + k if clustered else s] == 0:
                        candidates.append(s)
            candidates.sort()
        elif clustered:
            for heap in ready_heaps:
                while heap:
                    s = heappop(heap)
                    if not issued[s]:
                        candidates.append(s)
            candidates.sort()
        else:
            while ready_heap0:
                s = heappop(ready_heap0)
                if not issued[s]:
                    candidates.append(s)
            if holds:
                candidates, held = hold(candidates, cycle)
                b_held = len(held)
                for s in held:
                    heappush(ready_heap0, s)
        if positional and not exec_driven:
            # Non-compacting selection: lowest window slot first.
            candidates.sort(key=lambda s: (slot_of.get(s, s), s))
        for s in candidates:
            if clustered and not exec_driven:
                cluster = home_cluster[s]
            issue = False
            if budget == 0:
                pass
            elif is_mem[s] and mem_budget == 0:
                b_cache += 1
            elif is_load[s] and oldest_store < s:
                b_lso += 1
            else:
                if exec_driven:
                    # Execution-driven steering (Section 5.6.1): the
                    # cluster the source values reach first, if it has
                    # a free unit; otherwise the other, if usable.
                    avail = []
                    for k in range(n_clusters):
                        worst = 0
                        for producer in real_producers[s]:
                            at = complete_cycle[producer] + bubble
                            if cluster_of[producer] != k:
                                at += extra_bypass
                            if at > worst:
                                worst = at
                        avail.append((worst, k))
                    avail.sort()
                    cluster = -1
                    for worst, k in avail:
                        if worst <= cycle and fu_budget[k]:
                            cluster = k
                            break
                if exec_driven and cluster < 0:
                    # Deferred: the operands have not crossed to a
                    # cluster with a free unit yet, or no unit is free.
                    if any(fu_budget):
                        b_wait += 1
                    else:
                        b_fu += 1
                elif (fu_budget[cluster] if clustered else fu_budget) == 0:
                    b_fu += 1
                elif ports and reads_of[s] > read_budget[cluster]:
                    b_ports += 1
                else:
                    issue = True
            if not issue:
                # Back to the ready pool; a FIFO head stays in place.
                if exec_driven:
                    heappush(central_ready, s)
                elif not fifos:
                    heappush(ready_heaps[cluster] if clustered else ready_heap0, s)
                continue
            # Issue s on cluster: select, execute, leave the buffer.
            if traced:
                origin = (
                    f"fifo={fifo_of[s][1]}" if fifos
                    else f"slot={slot_of[s]}" if positional and s in slot_of
                    else "window"
                )
                tracer_emit(cycle, EventKind.SELECT, s, cluster, detail=origin)
            if is_mem[s]:
                line = mem_addr[s] >> offset_bits
                ways = cache_sets[line & set_mask]
                cache_accesses += 1
                if line in ways:
                    ways.remove(line)
                    ways.append(line)
                    latency = hit_latency
                else:
                    cache_misses += 1
                    if len(ways) >= assoc:
                        del ways[0]
                    ways.append(line)
                    latency = miss_latency
                word = mem_word[s]
                if is_store[s]:
                    latency = fu_latency
                    inflight_store_words[word] = (
                        inflight_store_words.get(word, 0) + 1
                    )
                else:
                    if inflight_store_words.get(word):
                        store_forwards += 1
                    if holds:
                        # Real-time load-delay feedback.
                        on_load_issue(s, latency, cycle)
            else:
                latency = fu_latency
            issued[s] = 1
            issue_cycle[s] = cycle
            complete = cycle + latency
            complete_cycle[s] = complete
            cluster_of[s] = cluster
            if traced:
                tracer_emit(cycle, EventKind.ISSUE, s, cluster)
                tracer_emit(
                    cycle, EventKind.EXECUTE, s, cluster,
                    detail=insts[s].op_class.name.lower(), dur=latency,
                )
            buffered -= 1
            if steered or positional:
                # The buffer slot belongs to the dispatch-time (home)
                # cluster -- for execution-driven steering that is the
                # central window, not the execution cluster chosen here.
                home = home_cluster[s]
                where = fifo_of.pop(s, None)
                if where is not None:
                    # A FIFO head, or a conceptual FIFO's entry, which
                    # may leave from any position.
                    fifo_entries[where[0]][where[1]].remove(s)
                if not fifos:
                    window_room[home] += 1
                if positional:
                    slot = slot_of.pop(s, None)
                    if slot is not None:
                        heappush(free_slots[home], slot)
            if clustered:
                # Inter-cluster bypass accounting (Figure 17
                # bottom): an operand from the other cluster not yet
                # written to this cluster's register file.
                for producer in real_producers[s]:
                    source = cluster_of[producer]
                    if source != cluster and cycle < (
                        complete_cycle[producer] + bubble + extra_bypass
                        + REGFILE_WRITE_DELAY
                    ):
                        used_x_bypass[s] = 1
                        if traced:
                            tracer_emit(cycle, EventKind.BYPASS, s, cluster,
                                        detail=f"from={source}")
                        break
            # Wake dispatched consumers.
            waiters = waiting_on[s]
            if waiters:
                at = complete + bubble
                if clustered:
                    buckets = []
                    for k in range(n_clusters):
                        arrival = at if k == cluster else at + extra_bypass
                        buckets.append(arrivals.setdefault(arrival, []))
                    for consumer in waiters:
                        index = consumer * n_clusters
                        for k, bucket in enumerate(buckets):
                            bucket.append(index + k)
                else:
                    bucket = arrivals.get(at)
                    if bucket is None:
                        arrivals[at] = waiters  # the list is done with
                    else:
                        bucket.extend(waiters)
                waiting_on[s] = None
            # A resolved mispredicted branch restarts fetch.
            if pending_redirect == s:
                pending_redirect = None
                next_fetch_cycle = complete
            budget -= 1
            if clustered:
                fu_budget[cluster] -= 1
            else:
                fu_budget -= 1
            if ports:
                read_budget[cluster] -= reads_of[s]
            if is_mem[s]:
                mem_budget -= 1
                if is_store[s]:
                    while unissued_stores and issued[unissued_stores[0]]:
                        heappop(unissued_stores)
                    oldest_store = unissued_stores[0] if unissued_stores else n
            issued_count += 1
        # The cause blocking the most ready instructions wins; ties
        # break structural first, then memory ordering, then latency.
        issue_block = -1
        if b_ports or b_fu or b_cache or b_lso or b_wait or b_held:
            best = 0
            for count, code in (
                (b_ports, C_REGFILE), (b_fu, C_FU), (b_cache, C_CACHE),
                (b_lso, C_LSO), (b_wait, C_XWAIT), (b_held, C_SCHED),
            ):
                if count > best:
                    best = count
                    issue_block = code
        hist[issued_count] += 1
        if profiled:
            now = perf_counter()
            stage_seconds[2] += now - mark
            mark = now

        # -- rename/dispatch -----------------------------------------
        dispatched_count = 0
        dispatch_block = -1
        if steered:
            place_called = False
        budget = dispatch_width
        while budget and buf_head < fetch_ptr:
            s = buf_head
            if fetch_cycle[s] + front_end > cycle:
                break
            if in_flight >= max_in_flight:
                dispatch_block = C_IN_FLIGHT
                break
            kind = dest_kind[s]
            if kind:
                if kind == 1:
                    if not int_free:
                        dispatch_block = C_INT_REGS
                        break
                elif not fp_free:
                    dispatch_block = C_FP_REGS
                    break
            if steered and not exec_driven:
                # The policy sees the source operands whose producers
                # still sit in a (conceptual) FIFO.
                place_called = True
                outstanding = []
                for producer in real_producers[s]:
                    where = fifo_of.get(producer)
                    if where is not None:
                        k, fifo = where
                        outstanding.append(OutstandingOperand(
                            producer, k, fifo,
                            fifo_entries[k][fifo][-1] == producer,
                        ))
                placement = place(view, outstanding)
                if placement is None:
                    dispatch_block = steer_block
                    break
                cluster = placement.cluster
            elif buffered >= capacity:
                dispatch_block = C_WINDOW_FULL
                break
            else:
                cluster = 0
            home_cluster[s] = cluster
            if steered or positional:
                if positional and free_slots[cluster]:
                    slot_of[s] = heappop(free_slots[cluster])
                if steered and not exec_driven and placement.fifo is not None:
                    fifo_entries[cluster][placement.fifo].append(s)
                    fifo_of[s] = (cluster, placement.fifo)
                if not fifos:
                    window_room[cluster] -= 1
            buf_head += 1
            buffered += 1
            if traced:
                if steered and not exec_driven:
                    rule = getattr(steering, "last_rule", "")
                    detail = (
                        f"fifo={placement.fifo} {rule}".strip()
                        if placement.fifo is not None else rule
                    )
                else:
                    detail = ""
                tracer_emit(cycle, EventKind.STEER, s, cluster, detail=detail)
            if kind:
                # Rename: the previous mapping is freed at commit.
                logical = logical_dest[s]
                if kind == 1:
                    phys = int_free.pop()
                    int_free_set.discard(phys)
                    prev_dest_phys[s] = int_map[logical]
                    int_map[logical] = phys
                else:
                    phys = fp_free.pop()
                    fp_free_set.discard(phys)
                    prev_dest_phys[s] = fp_map[logical]
                    fp_map[logical] = phys
                if traced:
                    tracer_emit(cycle, EventKind.RENAME, s,
                                detail=f"r{dest[s]}->p{phys}")
            if traced:
                tracer_emit(cycle, EventKind.DISPATCH, s, cluster)
            if is_store[s]:
                heappush(unissued_stores, s)
            dispatched[s] = 1
            dispatch_cycle[s] = cycle
            in_flight += 1
            # Count outstanding operands; unissued producers wake this
            # consumer when they issue, issued ones schedule arrivals.
            if clustered:
                index = s * n_clusters
                for producer in real_producers[s]:
                    if not issued[producer]:
                        waiters = waiting_on[producer]
                        if waiters is None:
                            waiting_on[producer] = [s]
                        else:
                            waiters.append(s)
                        for k in range(n_clusters):
                            pending[index + k] += 1
                    else:
                        at = complete_cycle[producer] + bubble
                        source = cluster_of[producer]
                        for k in range(n_clusters):
                            arrival = at if source == k else at + extra_bypass
                            if arrival > cycle:
                                pending[index + k] += 1
                                bucket = arrivals.get(arrival)
                                if bucket is None:
                                    arrivals[arrival] = [index + k]
                                else:
                                    bucket.append(index + k)
                count = pending[index + cluster]
            else:
                count = 0
                for producer in real_producers[s]:
                    if not issued[producer]:
                        waiters = waiting_on[producer]
                        if waiters is None:
                            waiting_on[producer] = [s]
                        else:
                            waiters.append(s)
                        count += 1
                    else:
                        arrival = complete_cycle[producer] + bubble
                        if arrival > cycle:
                            count += 1
                            bucket = arrivals.get(arrival)
                            if bucket is None:
                                arrivals[arrival] = [s]
                            else:
                                bucket.append(s)
                pending[s] = count
            if exec_driven:
                if min(pending[index:index + n_clusters]) == 0:
                    in_ready[s] = 1
                    heappush(central_ready, s)
            elif fifos:
                pass  # FIFO clusters poll their heads instead
            elif count == 0:
                in_ready[s] = 1
                heappush(ready_heaps[cluster] if clustered else ready_heap0, s)
            budget -= 1
            dispatched_count += 1
        if dispatch_block >= 0:
            dispatch_stall_counts[dispatch_block] += 1
        if profiled:
            now = perf_counter()
            stage_seconds[3] += now - mark
            mark = now

        # -- fetch ---------------------------------------------------
        fetch_before = fetch_ptr
        if cycle >= next_fetch_cycle and pending_redirect is None and fetch_ptr < n:
            budget = fetch_width
            while budget and fetch_ptr < n:
                if fetch_ptr - buf_head >= fetch_cap:
                    break
                fetch_cycle[fetch_ptr] = cycle
                if traced:
                    tracer_emit(cycle, EventKind.FETCH, fetch_ptr,
                                detail=insts[fetch_ptr].opcode)
                s = fetch_ptr
                fetch_ptr += 1
                budget -= 1
                if is_branch[s]:
                    # gshare: predict, then train on the outcome.
                    index = (pc[s] ^ history) & index_mask
                    counter = counters[index]
                    prediction = counter >= 2
                    outcome = taken[s]
                    lookups += 1
                    if prediction == outcome:
                        branch_hits += 1
                    if outcome:
                        if counter < 3:
                            counters[index] = counter + 1
                    elif counter > 0:
                        counters[index] = counter - 1
                    history = ((history << 1) | outcome) & history_mask
                    if prediction != outcome:
                        # Mispredicted: fetch halts until the branch
                        # executes and redirects the front end.
                        mispredicts += 1
                        if traced:
                            tracer_emit(cycle, EventKind.SQUASH, s,
                                        detail="mispredict")
                        pending_redirect = s
                        next_fetch_cycle = INF
                        break
            fetched += fetch_ptr - fetch_before
        if profiled:
            stage_seconds[4] += perf_counter() - mark

        # -- attribution: charge this cycle to exactly one cause -------
        # Dispatch progressed -> active; dispatch hit backpressure
        # while issue also moved nothing -> the issue-side culprit when
        # one was observed, else the dispatch cause; nothing to
        # dispatch -> fetch-starved, or drain once the trace is done.
        occupancy_sum += buffered
        if dispatched_count:
            last_cause = -1
            active_cycles += 1
        else:
            if dispatch_block >= 0:
                last_cause = dispatch_block
                if (issued_count == 0 and issue_block >= 0
                        and last_cause in BACKPRESSURE):
                    last_cause = issue_block
            elif fetch_ptr >= n and buf_head == fetch_ptr:
                last_cause = C_DRAIN
            else:
                last_cause = C_FETCH_STARVED
            stall_counts[last_cause] += 1
        cycle += 1

        # -- idle-cycle fast forward ---------------------------------
        # A cycle that mutated nothing repeats until an external event
        # lands: jump to the earliest of the next operand arrival, the
        # commit head completing, the fetch-buffer head becoming
        # dispatchable and fetch resuming, replicating each skipped
        # cycle's statistics exactly.  The cap at the cycle bound makes
        # a genuine deadlock trip the guard with identical state.
        if (
            cycle_skip
            and dispatched_count == 0
            and issued_count == 0
            and events is None
            and commit_before == commit_ptr
            and fetch_before == fetch_ptr
            and (not steered or skippable or not place_called)
            and issue_block != C_XWAIT
        ):
            target = min(arrivals) if arrivals else INF
            if commit_ptr < n and issued[commit_ptr]:
                target = min(target, complete_cycle[commit_ptr] + 1)
            if buf_head < fetch_ptr:
                # A head ready before this cycle is stuck on a
                # resource, not on time.
                ready = fetch_cycle[buf_head] + front_end
                if cycle <= ready < target:
                    target = ready
            if (pending_redirect is None and fetch_ptr < n
                    and fetch_ptr - buf_head < fetch_cap
                    and cycle <= next_fetch_cycle < target):
                target = next_fetch_cycle
            if target == INF:
                raise SimulatorDeadlock(
                    f"no forward progress possible at cycle {cycle}: no "
                    f"scheduled event remains "
                    f"({commit_ptr}/{n} committed) -- simulator bug"
                )
            target = min(target, max_cycles + 1)
            skipped = target - cycle
            if skipped > 0:
                stall_counts[last_cause] += skipped
                hist[0] += skipped
                if dispatch_block >= 0:
                    dispatch_stall_counts[dispatch_block] += skipped
                occupancy_sum += buffered * skipped
                cycle = target
                skipped_cycles += skipped

    # -- write the hoisted state back --------------------------------
    sim.cycle = cycle
    sim.commit_ptr = commit_ptr
    sim.in_flight = in_flight
    sim.fetch_ptr = fetch_ptr
    sim.buf_head = buf_head
    sim.next_fetch_cycle = next_fetch_cycle
    sim.pending_redirect = pending_redirect
    sim.skipped_cycles = skipped_cycles
    sim.buffered = buffered
    predictor._history = history
    predictor.lookups = lookups
    predictor.hits = branch_hits
    cache.accesses = cache_accesses
    cache.misses = cache_misses
    if profiled:
        sim.stage_seconds = stage_seconds
    stats.committed = committed
    stats.fetched = fetched
    stats.mispredicts = mispredicts
    stats.store_forwards = store_forwards
    stats.occupancy_sum = occupancy_sum
    stats.active_cycles = active_cycles
    if clustered:
        stats.inter_cluster_bypasses = inter_cluster_bypasses
    stats.cycles = cycle
    stats.branch_lookups = lookups
    stats.branch_hits = branch_hits
    stats.cache_accesses = cache_accesses
    stats.cache_misses = cache_misses
    histogram = stats.issue_histogram
    for count, value in enumerate(hist):
        if value:
            histogram[count] = histogram.get(count, 0) + value
    for counts, mapping in (
        (stall_counts, stats.stall_cycles),
        (dispatch_stall_counts, stats.dispatch_stalls),
    ):
        for code, value in enumerate(counts):
            if value:
                mapping[CAUSES[code]] = mapping.get(CAUSES[code], 0) + value
    return stats


#: Valid ``simulate(..., mode=...)`` values.
SIMULATE_MODES = ("reference", "fast", "compiled")


def simulate(
    config: MachineConfig,
    trace: Trace,
    max_cycles: int | None = None,
    tracer: EventTracer | None = None,
    mode: str = "fast",
) -> SimStats:
    """Run one machine over one trace and return its statistics.

    Args:
        mode: Which model runs: ``"fast"`` (:func:`run_loop` with the
            config's shape flags, the default), ``"reference"`` (the
            frozen seed model,
            :func:`repro.uarch.pipeline_reference.simulate_reference`
            -- the oracle the equivalence suite pins this module
            against), or ``"compiled"`` (the loop specialised to the
            config's flags by :mod:`repro.uarch.compile`, falling back
            to the unspecialised loop on unsupported shapes).  Results
            are identical in every mode; only the speed differs.
    """
    if mode not in SIMULATE_MODES:
        raise ValueError(
            f"unknown simulate mode {mode!r}; expected one of "
            f"{', '.join(SIMULATE_MODES)}"
        )
    if mode == "reference":
        from repro.uarch.pipeline_reference import simulate_reference

        if not supports_reference(config):
            raise ValueError(
                f"the frozen reference model predates the strategy "
                f"layer and covers only the classic schedulers with an "
                f"unlimited regfile; {config.name!r} uses "
                f"{config.scheduler}/{config.regfile}"
            )
        return simulate_reference(config, trace, max_cycles=max_cycles,
                                  tracer=tracer)
    if mode == "compiled":
        from repro.uarch import compile as compile_mod

        simulator = PipelineSimulator(config, trace, tracer=tracer)
        if compile_mod.supports_compile(config):
            return compile_mod.run_compiled(simulator, max_cycles=max_cycles)
        compile_mod.note_fallback()
        return simulator.run(max_cycles=max_cycles)
    return PipelineSimulator(config, trace, tracer=tracer).run(
        max_cycles=max_cycles
    )
