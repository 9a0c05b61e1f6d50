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

This module is the **optimized** implementation; its statistics are
pinned cycle-for-cycle to :mod:`repro.uarch.pipeline_reference` (the
frozen seed model) by the equivalence suite.  The speed comes from
three mechanisms, documented in ``docs/performance.md``:

* per-trace pre-analysis (:mod:`repro.uarch.preanalysis`) turns
  repeated attribute/enum lookups into flat array indexing;
* idle cycles -- where no stage can possibly act -- are *skipped* by
  jumping the clock to the next scheduled event while replicating the
  per-cycle statistics the reference would have accumulated;
* the stage bodies hoist attribute lookups into locals and avoid
  per-cycle allocations (reused steering views, placement singletons,
  a single-destination rename fast path).

Cycle skipping is disabled automatically in the configurations where
a spinning cycle has side effects (random steering consumes an RNG
draw per attempt; execution-driven steering resolves inter-cluster
waits by pure time advance).
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.isa.emulator import Trace
from repro.isa.instructions import FP_REG_BASE
from repro.obs.events import EventKind, EventTracer
from repro.uarch.cache import SetAssociativeCache
from repro.uarch.config import MachineConfig, SelectionPolicy, SteeringPolicy
from repro.uarch.depend import dependence_info
from repro.uarch.fifos import FifoSet
from repro.uarch.preanalysis import DEST_INT, preanalyze
from repro.uarch.predictor import GshareBranchPredictor
from repro.uarch.regfile_model import build_regfile
from repro.uarch.rename import RegisterRenamer
from repro.uarch.scheduler import build_scheduler, supports_reference
from repro.uarch.stats import BACKPRESSURE_CAUSES, SimStats, StallCause
from repro.uarch.steering import (
    FifoDispatchSteering,
    LeastLoadedSteering,
    ModuloSteering,
    OutstandingOperand,
    Placement,
    RandomSteering,
    SteeringView,
    WindowDispatchSteering,
)

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Dispatch policies that pick a cluster without looking at operands.
_BLIND_POLICIES = (
    SteeringPolicy.RANDOM,
    SteeringPolicy.MODULO,
    SteeringPolicy.LEAST_LOADED,
)

_INF = float("inf")

#: Cycles after a value's arrival in a cluster until it can be read
#: from that cluster's register file instead of a bypass path (the
#: REG WRITE stage depth in Figure 1); used only for the Figure 17
#: inter-cluster bypass-frequency accounting.
REGFILE_WRITE_DELAY = 2

#: Fetch-buffer depth in multiples of the fetch width.
_FETCH_BUFFER_FACTOR = 2

#: Tie-break priority when several causes block issue in one cycle:
#: structural contention first, then memory ordering, then bypass
#: latency (higher rank wins a tie on blocked-instruction count).
_ISSUE_BLOCK_RANK = {
    StallCause.REGFILE_PORT: 5,
    StallCause.FU_CONTENTION: 4,
    StallCause.CACHE_PORT: 3,
    StallCause.LOAD_STORE_ORDER: 2,
    StallCause.INTER_CLUSTER_WAIT: 1,
    StallCause.SCHED_WAIT: 0,
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
            keeps the hot path at one branch per event site.
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
        info = dependence_info(trace)
        self.producers = info.producers
        self.consumers = info.consumers
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
        # Machine scalars the cycle loop reads constantly, lifted out
        # of the frozen-dataclass property chain.
        self._policy = config.steering
        self._exec_driven = config.steering is SteeringPolicy.EXEC_DRIVEN
        self._cluster_caps = [c.capacity for c in config.clusters]
        self._cluster_fifo_flags = [c.uses_fifos for c in config.clusters]
        self._fu_counts = [c.fu_count for c in config.clusters]
        self._cache_ports = config.cache.ports
        self._total_capacity = config.total_capacity
        # Strategy objects: the wakeup/select scheduler and the
        # register-file port model named by the config (see
        # repro.uarch.scheduler / repro.uarch.regfile_model).
        self.scheduler = build_scheduler(self)
        self.regfile_model = build_regfile(self)
        self._sched_on_load_issue = getattr(
            self.scheduler, "on_load_issue", None
        )
        # A scheduler that holds candidates until cycles the event
        # machinery does not schedule cannot skip idle cycles.
        self.cycle_skip = cycle_skip and self.scheduler.supports_cycle_skip
        # A spinning cycle under random steering consumes RNG draws,
        # so skipping is legal only when no placement was attempted.
        self._skippable_steering = config.steering is not SteeringPolicy.RANDOM
        self._reset_state()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

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
        self.complete_cycle = [_INF] * n
        self.commit_cycle = [0] * n
        self.cluster_of = [-1] * n
        self.pending: list[list[int] | None] = [None] * n
        self.home_cluster = [-1] * n  # cluster chosen at dispatch
        self.used_x_bypass = bytearray(n)
        # Wakeup plumbing.
        self.arrivals: dict[int, list[tuple[int, int]]] = {}
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
        self.window_count = [0] * self.n_clusters
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
        # Frontend.
        self.fetch_ptr = 0
        self.next_fetch_cycle = 0
        self.pending_redirect: int | None = None
        self.fetch_buffer: deque[tuple[int, int]] = deque()  # (seq, ready cycle)
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
        # Per-cycle stall attribution (see _attribute_cycle).
        self._dispatch_block: StallCause | None = None
        self._issue_block: StallCause | None = None
        # Cycle-skipping state.
        self._idle = False
        self._place_called = False
        self._last_cause: StallCause | None = None
        self.skipped_cycles = 0
        # Allocation-free steering plumbing: placements for the
        # policies that always answer "cluster 0", and one reusable
        # view/room pair for the policies that take a full view.
        self._placement0 = Placement(cluster=0)
        self._view = SteeringView(self.fifo_sets)
        self._room = [0] * self.n_clusters
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

    # ------------------------------------------------------------------
    # wakeup plumbing
    # ------------------------------------------------------------------

    def _avail_cycle(self, producer: int, cluster: int):
        """Cycle the producer's value can wake consumers in ``cluster``."""
        complete = self.complete_cycle[producer] + self.wakeup_bubble
        if self.cluster_of[producer] != cluster:
            return complete + self.extra_bypass
        return complete

    def _schedule_arrival(self, consumer: int, cluster: int, at_cycle) -> None:
        self.arrivals.setdefault(at_cycle, []).append((consumer, cluster))

    def _process_arrivals(self) -> None:
        events = self.arrivals.pop(self.cycle, None)
        if not events:
            return
        cycle = self.cycle
        tracer = self.tracer
        pending = self.pending
        in_ready = self.in_ready
        exec_driven = self._exec_driven
        home_cluster = self.home_cluster
        fifo_flags = self._cluster_fifo_flags
        central_ready = self.central_ready
        ready_heaps = self.ready_heaps
        for seq, cluster in events:
            counts = pending[seq]
            counts[cluster] -= 1
            if counts[cluster] == 0:
                if tracer is not None:
                    tracer.emit(cycle, EventKind.WAKEUP, seq, cluster)
                if exec_driven:
                    if not in_ready[seq]:
                        in_ready[seq] = 1
                        _heappush(central_ready, seq)
                elif not fifo_flags[home_cluster[seq]]:
                    # FIFO clusters poll their heads each cycle instead.
                    if cluster == home_cluster[seq] and not in_ready[seq]:
                        in_ready[seq] = 1
                        _heappush(ready_heaps[cluster], seq)

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------

    def _commit(self) -> None:
        budget = self.config.retire_width
        n = len(self.insts)
        seq = self.commit_ptr
        if seq >= n or not self.issued[seq]:
            return
        cycle = self.cycle
        horizon = cycle - 1
        tracer = self.tracer
        stats = self.stats
        issued = self.issued
        complete_cycle = self.complete_cycle
        pre = self.pre
        is_store = pre.is_store
        mem_word = pre.mem_word
        dest_kind = pre.dest_kind
        prev_dest_phys = self.prev_dest_phys
        used_x_bypass = self.used_x_bypass
        commit_cycle = self.commit_cycle
        inflight_store_words = self.inflight_store_words
        committed = 0
        while budget and seq < n:
            if not issued[seq] or complete_cycle[seq] > horizon:
                break
            if is_store[seq]:
                word = mem_word[seq]
                if word >= 0:
                    count = inflight_store_words.get(word, 0) - 1
                    if count > 0:
                        inflight_store_words[word] = count
                    else:
                        inflight_store_words.pop(word, None)
            kind = dest_kind[seq]
            if kind:
                previous = prev_dest_phys[seq]
                if previous is not None:
                    renamer = (
                        self.int_renamer if kind == DEST_INT else self.fp_renamer
                    )
                    renamer.release(previous)
            if used_x_bypass[seq]:
                stats.inter_cluster_bypasses += 1
            if tracer is not None:
                tracer.emit(cycle, EventKind.COMMIT, seq, self.cluster_of[seq])
            commit_cycle[seq] = cycle
            seq += 1
            committed += 1
            budget -= 1
        if committed:
            self.commit_ptr = seq
            self.in_flight -= committed
            stats.committed += committed

    # ------------------------------------------------------------------
    # issue (wakeup already done; this is select + execute)
    # ------------------------------------------------------------------

    def _oldest_unissued_store(self):
        heap = self.unissued_stores
        issued = self.issued
        while heap and issued[heap[0]]:
            _heappop(heap)
        return heap[0] if heap else None

    def _gather_candidates(self) -> list[tuple[int, int, int | None]]:
        """Collect issue candidates as (seq, cluster, fifo_index).

        Thin delegation kept for tests/tools that probe the issue
        stage directly; the issue loop itself calls the scheduler
        strategy (which may additionally *hold* candidates back).
        """
        return self.scheduler.gather()[0]

    def _requeue(self, leftovers: list[tuple[int, int, int | None]]) -> None:
        """Return unissued window candidates to their ready pools."""
        self.scheduler.requeue(leftovers)

    def _pick_exec_cluster(
        self, seq: int, fu_budget: list[int]
    ) -> tuple[int | None, StallCause | None]:
        """Execution-driven steering (Section 5.6.1): choose the
        cluster that provides the source values first, if it has a
        free unit; otherwise the other, if usable; else defer.

        Returns:
            ``(cluster, None)`` on success, or ``(None, cause)`` when
            deferred -- :data:`StallCause.INTER_CLUSTER_WAIT` if a
            free unit exists but the operands have not yet crossed the
            bypass to it, else :data:`StallCause.FU_CONTENTION`.
        """
        avail = [0, 0]
        for k in range(self.n_clusters):
            worst = 0
            for producer in self.pre.real_producers[seq]:
                cycle = self._avail_cycle(producer, k)
                if cycle > worst:
                    worst = cycle
            avail[k] = worst
        order = sorted(range(self.n_clusters), key=lambda k: (avail[k], k))
        for k in order:
            if avail[k] <= self.cycle and fu_budget[k] > 0:
                return k, None
        if any(budget > 0 for budget in fu_budget):
            return None, StallCause.INTER_CLUSTER_WAIT
        return None, StallCause.FU_CONTENTION

    def _load_latency(self, seq: int) -> int:
        if self.inflight_store_words.get(self.pre.mem_word[seq]):
            self.stats.store_forwards += 1
        return self.cache.load_latency(self.pre.mem_addr[seq])

    def _issue_one(self, seq: int, cluster: int, fifo_index: int | None) -> None:
        now = self.cycle
        tracer = self.tracer
        pre = self.pre
        if tracer is not None:
            origin = (
                f"fifo={fifo_index}" if fifo_index is not None
                else f"slot={self.slot_of[seq]}" if seq in self.slot_of
                else "window"
            )
            tracer.emit(now, EventKind.SELECT, seq, cluster, detail=origin)
        if pre.is_load[seq]:
            latency = self._load_latency(seq)
            on_load_issue = self._sched_on_load_issue
            if on_load_issue is not None:
                # Real-time load-delay feedback (load_delay_tracking).
                on_load_issue(seq, latency)
        else:
            latency = self.config.fu_latency
            if pre.is_store[seq]:
                self.cache.access(pre.mem_addr[seq])  # write-allocate fill
                word = pre.mem_word[seq]
                self.inflight_store_words[word] = (
                    self.inflight_store_words.get(word, 0) + 1
                )
        self.issued[seq] = 1
        self.issue_cycle[seq] = now
        complete = now + latency
        self.complete_cycle[seq] = complete
        self.cluster_of[seq] = cluster
        if tracer is not None:
            tracer.emit(now, EventKind.ISSUE, seq, cluster)
            tracer.emit(
                now, EventKind.EXECUTE, seq, cluster,
                detail=self.insts[seq].op_class.name.lower(), dur=latency,
            )
        # Leave the issue buffer.
        if fifo_index is not None:
            fifo = self.fifo_sets[cluster].fifos[fifo_index]
            fifo.pop_head()
            self.fifo_of.pop(seq, None)
        else:
            if self.conceptual_fifos:
                placement = self.fifo_of.pop(seq, None)
                if placement is not None:
                    self.fifo_sets[placement[0]].fifos[placement[1]].remove(seq)
            # The buffer slot belongs to the dispatch-time (home)
            # cluster -- for execution-driven steering that is the
            # central window, not the execution cluster chosen here.
            self.window_count[self.home_cluster[seq]] -= 1
        if self.positional:
            slot = self.slot_of.pop(seq, None)
            if slot is not None:
                _heappush(self.free_slots[self.home_cluster[seq]], slot)
        # Inter-cluster bypass accounting (Figure 17 bottom): count the
        # instruction if any operand came from the other cluster and
        # had not yet been written to this cluster's register file.
        if self.n_clusters > 1:
            cluster_of = self.cluster_of
            for producer in pre.real_producers[seq]:
                if cluster_of[producer] == cluster:
                    continue
                arrival = self._avail_cycle(producer, cluster)
                if now < arrival + REGFILE_WRITE_DELAY:
                    self.used_x_bypass[seq] = 1
                    if tracer is not None:
                        tracer.emit(
                            now, EventKind.BYPASS, seq, cluster,
                            detail=f"from={cluster_of[producer]}",
                        )
                    break
        # Wake dispatched consumers.
        waiters = self.waiting_on[seq]
        if waiters:
            arrivals = self.arrivals
            base = complete + self.wakeup_bubble
            if self.n_clusters == 1:
                bucket = arrivals.get(base)
                if bucket is None:
                    bucket = arrivals[base] = []
                for consumer in waiters:
                    bucket.append((consumer, 0))
            else:
                extra = self.extra_bypass
                avail = [
                    base if cluster == k else base + extra
                    for k in range(self.n_clusters)
                ]
                for consumer in waiters:
                    for k, at_cycle in enumerate(avail):
                        arrivals.setdefault(at_cycle, []).append((consumer, k))
            self.waiting_on[seq] = None
        # A resolved mispredicted branch restarts fetch.
        if self.pending_redirect == seq:
            self.pending_redirect = None
            self.next_fetch_cycle = complete

    def _issue(self) -> int:
        exec_driven = self._exec_driven
        config = self.config
        budget = config.issue_width
        fu_budget = self._fu_counts.copy()
        mem_budget = self._cache_ports
        oldest_store = self._oldest_unissued_store()
        leftovers: list[tuple[int, int, int | None]] = []
        issued_count = 0
        # Why ready instructions failed to issue this cycle, by cause;
        # _attribute_cycle picks the dominant one.
        blocked: dict[StallCause, int] = {}
        self._issue_block = None
        pre = self.pre
        is_mem_flags = pre.is_mem
        is_load_flags = pre.is_load
        is_store_flags = pre.is_store
        issue_one = self._issue_one
        candidates, held = self.scheduler.gather()
        if held:
            # The scheduler refused to expose these to select (e.g. a
            # predicted-unready consumer); charge and requeue them.
            for candidate, cause in held:
                blocked[cause] = blocked.get(cause, 0) + 1
                leftovers.append(candidate)
        regfile = self.regfile_model
        ports_limited = regfile.limited
        if ports_limited:
            regfile.new_cycle()
            read_budget = regfile.budget
            reads_of = regfile.reads
        for candidate in candidates:
            seq, cluster, fifo_index = candidate
            if budget == 0:
                leftovers.append(candidate)
                continue
            is_mem = is_mem_flags[seq]
            if is_mem and mem_budget == 0:
                blocked[StallCause.CACHE_PORT] = (
                    blocked.get(StallCause.CACHE_PORT, 0) + 1
                )
                leftovers.append(candidate)
                continue
            if (
                is_load_flags[seq]
                and oldest_store is not None
                and oldest_store < seq
            ):
                blocked[StallCause.LOAD_STORE_ORDER] = (
                    blocked.get(StallCause.LOAD_STORE_ORDER, 0) + 1
                )
                leftovers.append(candidate)
                continue
            if exec_driven:
                chosen, defer_cause = self._pick_exec_cluster(seq, fu_budget)
                if chosen is None:
                    blocked[defer_cause] = blocked.get(defer_cause, 0) + 1
                    leftovers.append(candidate)
                    continue
                cluster = chosen
            elif fu_budget[cluster] == 0:
                blocked[StallCause.FU_CONTENTION] = (
                    blocked.get(StallCause.FU_CONTENTION, 0) + 1
                )
                leftovers.append(candidate)
                continue
            if ports_limited:
                needed_reads = reads_of[seq]
                if needed_reads > read_budget[cluster]:
                    blocked[StallCause.REGFILE_PORT] = (
                        blocked.get(StallCause.REGFILE_PORT, 0) + 1
                    )
                    leftovers.append(candidate)
                    continue
                read_budget[cluster] -= needed_reads
            issue_one(seq, cluster, fifo_index)
            budget -= 1
            fu_budget[cluster] -= 1
            if is_mem:
                mem_budget -= 1
            if is_store_flags[seq]:
                oldest_store = self._oldest_unissued_store()
            issued_count += 1
        if blocked:
            # The cause blocking the most ready instructions wins;
            # ties break on a fixed structural-first order.
            self._issue_block = max(
                blocked, key=lambda c: (blocked[c], _ISSUE_BLOCK_RANK[c])
            )
        if leftovers:
            self._requeue(leftovers)
        histogram = self.stats.issue_histogram
        histogram[issued_count] = histogram.get(issued_count, 0) + 1
        return issued_count

    # ------------------------------------------------------------------
    # dispatch (rename + steer + insert into issue buffers)
    # ------------------------------------------------------------------

    def _outstanding_operands(self, seq: int) -> list[OutstandingOperand]:
        outstanding = []
        fifo_of = self.fifo_of
        for producer in self.pre.real_producers[seq]:
            placement = fifo_of.get(producer)
            if placement is None:
                continue  # already issued, or never buffered
            cluster, fifo_index = placement
            fifo = self.fifo_sets[cluster].fifos[fifo_index]
            outstanding.append(
                OutstandingOperand(
                    producer=producer,
                    cluster=cluster,
                    fifo=fifo_index,
                    is_tail=fifo.tail == producer,
                )
            )
        return outstanding

    def _place(self, seq: int) -> tuple[Placement | None, StallCause]:
        """Choose where ``seq`` dispatches to; (None, cause) = stall."""
        policy = self._policy
        window_count = self.window_count
        if policy is SteeringPolicy.NONE:
            if window_count[0] >= self._cluster_caps[0]:
                return None, StallCause.WINDOW_FULL
            return self._placement0, StallCause.WINDOW_FULL
        if policy is SteeringPolicy.EXEC_DRIVEN:
            if sum(window_count) >= self._total_capacity:
                return None, StallCause.WINDOW_FULL
            return self._placement0, StallCause.WINDOW_FULL
        view = self._view
        if policy in _BLIND_POLICIES:
            room = self._room
            caps = self._cluster_caps
            for k in range(self.n_clusters):
                room[k] = caps[k] - window_count[k]
            view.window_room = room
            placement = self._steering.place(view, [])
            return placement, StallCause.WINDOW_FULL
        # FIFO_DISPATCH / WINDOW_DISPATCH.
        if self.conceptual_fifos:
            room = self._room
            caps = self._cluster_caps
            for k in range(self.n_clusters):
                room[k] = caps[k] - window_count[k]
            view.window_room = room
        else:
            view.window_room = None
        placement = self._steering.place(view, self._outstanding_operands(seq))
        return placement, StallCause.NO_FIFO

    def _apply_placement(self, seq: int, placement: Placement) -> None:
        cluster = placement.cluster
        self.home_cluster[seq] = cluster
        if self.positional and self.free_slots[cluster]:
            self.slot_of[seq] = _heappop(self.free_slots[cluster])
        if placement.fifo is not None:
            self.fifo_sets[cluster].fifos[placement.fifo].push(seq)
            self.fifo_of[seq] = (cluster, placement.fifo)
            if self.conceptual_fifos:
                self.window_count[cluster] += 1
        else:
            self.window_count[cluster] += 1

    def _init_pending(self, seq: int) -> None:
        now = self.cycle
        n_clusters = self.n_clusters
        issued = self.issued
        waiting_on = self.waiting_on
        producers = self.pre.real_producers[seq]
        if n_clusters == 1:
            count = 0
            complete_cycle = self.complete_cycle
            bubble = self.wakeup_bubble
            arrivals = self.arrivals
            for producer in producers:
                if not issued[producer]:
                    waiters = waiting_on[producer]
                    if waiters is None:
                        waiting_on[producer] = [seq]
                    else:
                        waiters.append(seq)
                    count += 1
                else:
                    arrival = complete_cycle[producer] + bubble
                    if arrival > now:
                        count += 1
                        arrivals.setdefault(arrival, []).append((seq, 0))
            counts = [count]
        else:
            counts = [0] * n_clusters
            for producer in producers:
                if not issued[producer]:
                    waiters = waiting_on[producer]
                    if waiters is None:
                        waiting_on[producer] = [seq]
                    else:
                        waiters.append(seq)
                    for k in range(n_clusters):
                        counts[k] += 1
                else:
                    for k in range(n_clusters):
                        arrival = self._avail_cycle(producer, k)
                        if arrival > now:
                            counts[k] += 1
                            self._schedule_arrival(seq, k, arrival)
        self.pending[seq] = counts
        if self._exec_driven:
            if min(counts) == 0:
                self.in_ready[seq] = 1
                _heappush(self.central_ready, seq)
        else:
            home = self.home_cluster[seq]
            if not self._cluster_fifo_flags[home] and counts[home] == 0:
                self.in_ready[seq] = 1
                _heappush(self.ready_heaps[home], seq)

    def _dispatch(self) -> int:
        budget = self.config.dispatch_width
        tracer = self.tracer
        dispatched_count = 0
        self._dispatch_block = None
        fetch_buffer = self.fetch_buffer
        if not fetch_buffer:
            return 0
        cycle = self.cycle
        pre = self.pre
        dest_kind = pre.dest_kind
        logical_dest = pre.logical_dest
        is_store_flags = pre.is_store
        int_renamer = self.int_renamer
        fp_renamer = self.fp_renamer
        int_free = int_renamer._free
        fp_free = fp_renamer._free
        max_in_flight = self.config.max_in_flight
        place = self._place
        apply_placement = self._apply_placement
        init_pending = self._init_pending
        dispatched = self.dispatched
        dispatch_cycle = self.dispatch_cycle
        prev_dest_phys = self.prev_dest_phys
        # The per-instruction helpers are inlined below for the common
        # shapes -- unless a wrapper (profiler, test shadow) sits on
        # the instance, in which case the method path is kept so the
        # wrapper observes every call.
        shadowed = self.__dict__
        simple_place = (
            self._policy is SteeringPolicy.NONE
            and not self.positional
            and "_place" not in shadowed
            and "_apply_placement" not in shadowed
        )
        simple_pending = (
            self.n_clusters == 1
            and not self._exec_driven
            and "_init_pending" not in shadowed
        )
        if simple_place:
            window_count = self.window_count
            cap0 = self._cluster_caps[0]
            placement0 = self._placement0
            home_cluster = self.home_cluster
        if simple_pending:
            real_producers = pre.real_producers
            issued = self.issued
            waiting_on = self.waiting_on
            complete_cycle = self.complete_cycle
            bubble = self.wakeup_bubble
            arrivals = self.arrivals
            pending = self.pending
            in_ready = self.in_ready
            home_windowed = not self._cluster_fifo_flags[0]
            ready_heap0 = self.ready_heaps[0]
        while budget and fetch_buffer:
            seq, ready_cycle = fetch_buffer[0]
            if ready_cycle > cycle:
                break
            if self.in_flight >= max_in_flight:
                self._note_dispatch_block(StallCause.IN_FLIGHT)
                break
            kind = dest_kind[seq]
            if kind:
                if kind == DEST_INT:
                    if not int_free:
                        self._note_dispatch_block(StallCause.INT_REGS)
                        break
                elif not fp_free:
                    self._note_dispatch_block(StallCause.FP_REGS)
                    break
            if simple_place:
                if window_count[0] >= cap0:
                    self._note_dispatch_block(StallCause.WINDOW_FULL)
                    break
                placement = placement0
                fetch_buffer.popleft()
                home_cluster[seq] = 0
                window_count[0] += 1
            else:
                self._place_called = True
                placement, stall_cause = place(seq)
                if placement is None:
                    self._note_dispatch_block(stall_cause)
                    break
                fetch_buffer.popleft()
                apply_placement(seq, placement)
            if tracer is not None:
                rule = getattr(self._steering, "last_rule", "")
                fifo = placement.fifo
                tracer.emit(
                    cycle, EventKind.STEER, seq, placement.cluster,
                    detail=(f"fifo={fifo} {rule}".strip() if fifo is not None
                            else rule),
                )
            if kind:
                # Single-destination rename fast path; the previous
                # mapping is remembered and freed at commit.
                renamer = int_renamer if kind == DEST_INT else fp_renamer
                phys_dest, prev_dest = renamer.rename_dest(logical_dest[seq])
                prev_dest_phys[seq] = prev_dest
                if tracer is not None:
                    tracer.emit(
                        cycle, EventKind.RENAME, seq,
                        detail=f"r{pre.dest[seq]}->p{phys_dest}",
                    )
            if tracer is not None:
                tracer.emit(cycle, EventKind.DISPATCH, seq, placement.cluster)
            if is_store_flags[seq]:
                _heappush(self.unissued_stores, seq)
            dispatched[seq] = 1
            dispatch_cycle[seq] = cycle
            self.in_flight += 1
            if simple_pending:
                count = 0
                for producer in real_producers[seq]:
                    if not issued[producer]:
                        waiters = waiting_on[producer]
                        if waiters is None:
                            waiting_on[producer] = [seq]
                        else:
                            waiters.append(seq)
                        count += 1
                    else:
                        arrival = complete_cycle[producer] + bubble
                        if arrival > cycle:
                            count += 1
                            bucket = arrivals.get(arrival)
                            if bucket is None:
                                arrivals[arrival] = [(seq, 0)]
                            else:
                                bucket.append((seq, 0))
                pending[seq] = [count]
                if home_windowed and count == 0:
                    in_ready[seq] = 1
                    _heappush(ready_heap0, seq)
            else:
                init_pending(seq)
            budget -= 1
            dispatched_count += 1
        return dispatched_count

    def _note_dispatch_block(self, cause: StallCause) -> None:
        """Record why dispatch stopped this cycle (counter + cause)."""
        self.stats.note_stall(cause)
        self._dispatch_block = cause

    # ------------------------------------------------------------------
    # fetch
    # ------------------------------------------------------------------

    def _fetch(self) -> None:
        cycle = self.cycle
        if cycle < self.next_fetch_cycle or self.pending_redirect is not None:
            return
        n = len(self.insts)
        fetch_ptr = self.fetch_ptr
        if fetch_ptr >= n:
            return
        budget = self.config.fetch_width
        ready_at = cycle + self.config.front_end_stages
        tracer = self.tracer
        fetch_buffer = self.fetch_buffer
        cap = self.fetch_buffer_cap
        fetch_cycle = self.fetch_cycle
        pre = self.pre
        is_branch = pre.is_branch
        pc = pre.pc
        taken = pre.taken
        predictor = self.predictor
        fetched = 0
        while budget and fetch_ptr < n:
            if len(fetch_buffer) >= cap:
                break
            fetch_buffer.append((fetch_ptr, ready_at))
            fetch_cycle[fetch_ptr] = cycle
            if tracer is not None:
                tracer.emit(
                    cycle, EventKind.FETCH, fetch_ptr,
                    detail=self.insts[fetch_ptr].opcode,
                )
            seq = fetch_ptr
            fetch_ptr += 1
            fetched += 1
            budget -= 1
            if is_branch[seq]:
                prediction = predictor.predict_and_update(pc[seq], taken[seq])
                if prediction != taken[seq]:
                    # Mispredicted: fetch halts until the branch
                    # executes and redirects the front end.
                    self.stats.mispredicts += 1
                    if tracer is not None:
                        tracer.emit(
                            cycle, EventKind.SQUASH, seq, detail="mispredict"
                        )
                    self.pending_redirect = seq
                    self.next_fetch_cycle = _INF
                    break
        self.fetch_ptr = fetch_ptr
        if fetched:
            self.stats.fetched += fetched

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def _buffered_instructions(self) -> int:
        """Instructions currently in issue windows/FIFOs."""
        buffered = sum(self.window_count)
        if self.fifo_sets and not self.conceptual_fifos:
            buffered += sum(fs.occupancy for fs in self.fifo_sets)
        return buffered

    def step(self) -> None:
        """Advance one cycle."""
        cycle = self.cycle
        had_arrivals = cycle in self.arrivals
        if had_arrivals:
            self._process_arrivals()
        commit_before = self.commit_ptr
        self._commit()
        issued = self._issue()
        self._place_called = False
        dispatched = self._dispatch()
        fetch_before = self.fetch_ptr
        self._fetch()
        buffered = sum(self.window_count)
        if self.fifo_sets and not self.conceptual_fifos:
            for fifo_set in self.fifo_sets:
                for fifo in fifo_set.fifos:
                    buffered += len(fifo._entries)
        self.stats.occupancy_sum += buffered
        self._attribute_cycle(dispatched, issued)
        self.cycle = cycle + 1
        # An idle cycle mutated nothing: every stage would repeat the
        # exact same (non-)work until an external event lands.  The
        # two guarded exceptions are clock-resolved waits (exec-driven
        # steering) and placement attempts that consume RNG draws.
        self._idle = (
            dispatched == 0
            and issued == 0
            and not had_arrivals
            and commit_before == self.commit_ptr
            and fetch_before == self.fetch_ptr
            and (self._skippable_steering or not self._place_called)
            and self._issue_block is not StallCause.INTER_CLUSTER_WAIT
        )

    def _fast_forward(self, max_cycles: int) -> None:
        """Jump the clock from an idle cycle to the next event.

        Called only after :meth:`step` proved the just-simulated cycle
        idle.  Each skipped cycle's statistics are replicated exactly
        as the per-cycle loop would have accumulated them: one zero
        entry in the issue histogram, one stall cycle charged to the
        same cause, one dispatch-stall count when dispatch was
        blocked, and the (unchanged) buffer occupancy.

        The next event is the earliest of: a scheduled operand
        arrival, the commit head completing, the fetch buffer's head
        becoming dispatchable, and fetch resuming -- capped at the
        run's cycle bound so a genuine deadlock still trips the
        no-forward-progress guard with identical state.
        """
        cycle = self.cycle
        n = len(self.insts)
        candidates = []
        if self.arrivals:
            candidates.append(min(self.arrivals))
        ptr = self.commit_ptr
        if ptr < n and self.issued[ptr]:
            candidates.append(self.complete_cycle[ptr] + 1)
        fetch_buffer = self.fetch_buffer
        if fetch_buffer:
            # A head with ready_cycle < cycle is stuck on a resource,
            # not on time; one at exactly `cycle` clamps the skip to
            # zero (the current cycle is live, not idle).
            ready_cycle = fetch_buffer[0][1]
            if ready_cycle >= cycle:
                candidates.append(ready_cycle)
        if (
            self.pending_redirect is None
            and self.fetch_ptr < n
            and len(fetch_buffer) < self.fetch_buffer_cap
        ):
            resume = self.next_fetch_cycle
            if resume >= cycle:
                candidates.append(resume)
        if not candidates:
            # Nothing scheduled can ever change the (provably idle)
            # pipeline state again; the reference model would spin to
            # the cycle bound and raise there, so failing now reports
            # the same deadlock without the spin.
            raise RuntimeError(
                f"no forward progress possible at cycle {cycle}: no "
                f"scheduled event remains "
                f"({self.commit_ptr}/{n} committed) -- simulator bug"
            )
        target = min(candidates)
        if target > max_cycles + 1:
            target = max_cycles + 1
        skipped = target - cycle
        if skipped <= 0:
            return
        stats = self.stats
        cause = self._last_cause
        stall_cycles = stats.stall_cycles
        stall_cycles[cause] = stall_cycles.get(cause, 0) + skipped
        histogram = stats.issue_histogram
        histogram[0] = histogram.get(0, 0) + skipped
        block = self._dispatch_block
        if block is not None:
            dispatch_stalls = stats.dispatch_stalls
            dispatch_stalls[block] = dispatch_stalls.get(block, 0) + skipped
        stats.occupancy_sum += self._buffered_instructions() * skipped
        self.cycle = target
        self.skipped_cycles += skipped

    def _attribute_cycle(self, dispatched: int, issued: int) -> None:
        """Charge this cycle to exactly one cause.

        The partition (which :meth:`SimStats.validate` checks sums to
        total cycles):

        * dispatch progressed -> active;
        * dispatch hit backpressure (window/FIFO/in-flight full) while
          issue also moved nothing -> the issue-side culprit
          (FU contention, cache port, load-store order, inter-cluster
          wait) when one was observed, else the dispatch cause;
        * dispatch blocked on a rename/window resource -> that cause;
        * nothing to dispatch -> fetch-starved, or drain once the
          trace is exhausted.
        """
        if dispatched:
            cause = None
        elif self._dispatch_block is not None:
            cause = self._dispatch_block
            if (
                issued == 0
                and self._issue_block is not None
                and cause in BACKPRESSURE_CAUSES
            ):
                cause = self._issue_block
        elif self.fetch_ptr >= len(self.insts) and not self.fetch_buffer:
            cause = StallCause.DRAIN
        else:
            cause = StallCause.FETCH_STARVED
        self._last_cause = cause
        if cause is None:
            self.stats.active_cycles += 1
        else:
            stall_cycles = self.stats.stall_cycles
            stall_cycles[cause] = stall_cycles.get(cause, 0) + 1

    def run(self, max_cycles: int | None = None) -> SimStats:
        """Simulate until the whole trace commits.

        Args:
            max_cycles: Safety bound; defaults to 100 cycles per
                instruction plus slack.

        Returns:
            The populated :class:`SimStats`.

        Raises:
            RuntimeError: if the pipeline fails to make progress
                within the cycle bound (a deadlock would be a
                simulator bug).
        """
        n = len(self.insts)
        if max_cycles is None:
            max_cycles = 100 * n + 1_000
        step = self.step
        cycle_skip = self.cycle_skip
        while self.commit_ptr < n:
            if self.cycle > max_cycles:
                raise RuntimeError(
                    f"no forward progress after {self.cycle} cycles "
                    f"({self.commit_ptr}/{n} committed) -- simulator bug"
                )
            step()
            if cycle_skip and self._idle:
                self._fast_forward(max_cycles)
        self.stats.cycles = self.cycle
        self.stats.branch_lookups = self.predictor.lookups
        self.stats.branch_hits = self.predictor.hits
        self.stats.cache_accesses = self.cache.accesses
        self.stats.cache_misses = self.cache.misses
        return self.stats


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
        mode: Which model runs: ``"fast"`` (the optimized interpreter,
            the default), ``"reference"`` (the frozen seed model,
            :func:`repro.uarch.pipeline_reference.simulate_reference`
            -- the oracle the equivalence suite pins this module
            against), or ``"compiled"`` (the per-config compiled
            pipeline from :mod:`repro.uarch.compile`, falling back to
            the fast interpreter on unsupported shapes).  Results are
            identical in every mode; only the speed differs.
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
