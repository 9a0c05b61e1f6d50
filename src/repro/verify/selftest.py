"""Planted-bug self-tests: prove the fuzzer can actually catch bugs.

A verification harness that has never caught anything is an untested
claim.  This module *plants* three realistic bugs, one per layer the
fuzz oracle guards:

* a **steering bug** -- a FIFO dispatch heuristic that ignores the
  paper's behind-the-producer rule -- planted into the **fast**
  pipeline only (the module-level ``FifoDispatchSteering`` name that
  ``repro.uarch.pipeline`` binds at import is rebound for the
  duration; the reference pipeline imports its own copy and keeps the
  correct logic).  Caught by fast/reference stats divergence.
* a **port-arbiter bug** -- a ``ports_limited`` register file whose
  per-cycle read-port budget is never replenished, so issue starves
  and the pipeline deadlocks.  The reference model does not cover the
  ports_limited strategy, so this one must be caught by the fast
  simulator's own failure checks (the no-forward-progress guard
  surfaces as a failure string).
* a **compiler constant-folding bug** -- the pipeline specialiser's
  ``_PLANTED_BUG`` knob edits the specialised loop to read the
  load-miss latency as the hit latency, the classic dropped-branch
  miscompilation.  The unspecialised loop stays correct, so this one
  must be caught by the compiled/fast stats comparison the fuzzer
  runs on every compile-supported shape.

Each bug must be (a) detected and (b) shrunk to a small reproducer.
The patches are process-local, so the self-tests always run with
``jobs=1`` -- worker processes would import the unpatched modules and
see no bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.uarch import compile as compile_mod
from repro.uarch import pipeline as pipeline_mod
from repro.uarch import regfile_model as regfile_mod
from repro.uarch.regfile_model import PortsLimitedRegfile
from repro.uarch.steering import FifoDispatchSteering, Placement
from repro.verify.fuzzer import FuzzReport, run_fuzz


class PlantedSteeringBug(FifoDispatchSteering):
    """FIFO steering with the dependence heuristic removed.

    Every instruction is sent to a new empty FIFO regardless of where
    its producers sit -- exactly the "steer blindly" failure mode the
    paper's Section 5.1 heuristic exists to avoid.  Timing-visible,
    architecturally invisible: the perfect planted bug for a
    differential fuzzer.
    """

    def place(self, view, outstanding) -> Placement | None:
        placement = self._new_fifo(view)
        self.last_rule = "new_fifo" if placement is not None else ""
        return placement


class PlantedPortArbiterBug(PortsLimitedRegfile):
    """A read-port arbiter that never releases claimed ports.

    ``new_cycle`` -- the per-cycle budget replenishment -- is a no-op,
    so every read permanently consumes ports and issue eventually
    starves: the classic leaked-resource arbiter bug.  The pipeline's
    no-forward-progress guard turns the ensuing deadlock into a
    failure the fuzzer reports and minimizes.
    """

    def reset(self) -> None:
        # Grant the initial budget once per run (the correct model
        # re-grants it every cycle).
        ports = self.read_ports
        budget = self.budget
        for cluster in range(len(budget)):
            budget[cluster] = ports

    def new_cycle(self) -> None:
        pass  # the planted leak: claimed ports are never freed


@dataclass
class SelfTestResult:
    """Outcome of one planted-bug run."""

    report: FuzzReport
    detected: bool
    minimized_instructions: int | None
    reproducer: Path | None


def run_selftest(
    cases: int = 40,
    seed: int = 1,
    repro_dir: str | Path = "repros-selftest",
    max_minimized: int = 1,
) -> SelfTestResult:
    """Plant the steering bug, fuzz FIFO machines, restore, report.

    Args:
        cases: Fuzz cases to run against the sabotaged simulator.
        seed: Campaign seed (any seed works; the bug is gross).
        repro_dir: Where the minimized reproducer is written -- point
            this at a temp directory, not ``tests/repros``.
        max_minimized: Failures to shrink (1 keeps the test fast).

    Returns:
        A :class:`SelfTestResult`; ``detected`` must be True and the
        minimized reproducer small for the harness to be trusted.
    """
    original = pipeline_mod.FifoDispatchSteering
    pipeline_mod.FifoDispatchSteering = PlantedSteeringBug
    try:
        report = run_fuzz(
            cases=cases,
            seed=seed,
            jobs=1,  # the patch is process-local
            repro_dir=repro_dir,
            fifo_only=True,
            minimize=True,
            max_minimized=max_minimized,
        )
    finally:
        pipeline_mod.FifoDispatchSteering = original
    minimized = [f for f in report.failures if f.reproducer is not None]
    return SelfTestResult(
        report=report,
        detected=bool(report.failures),
        minimized_instructions=(
            minimized[0].minimized_instructions if minimized else None
        ),
        reproducer=minimized[0].reproducer if minimized else None,
    )


def run_compile_selftest(
    cases: int = 20,
    seed: int = 1,
    repro_dir: str | Path = "repros-selftest",
    max_minimized: int = 1,
) -> SelfTestResult:
    """Plant the constant-folding bug, fuzz compiled shapes, report.

    :data:`repro.uarch.compile._PLANTED_BUG` is set to
    ``"load_hit_fold"`` for the duration: every runner specialised
    while it is set reads the load-miss latency as the hit latency.  The
    knob is part of the compile-cache key and the cache is cleared on
    both sides of the patch, so sabotaged runners can never leak into
    (or survive from) clean runs.  Sampling is restricted to the
    ``baseline`` registry shape -- the compiler's home turf -- and the
    bug must surface as a compiled/fast SimStats divergence.
    """
    compile_mod.clear_compile_cache()
    original = compile_mod._PLANTED_BUG
    compile_mod._PLANTED_BUG = "load_hit_fold"
    try:
        report = run_fuzz(
            cases=cases,
            seed=seed,
            jobs=1,  # the patch is process-local
            repro_dir=repro_dir,
            only_shapes=("baseline",),
            minimize=True,
            max_minimized=max_minimized,
        )
    finally:
        compile_mod._PLANTED_BUG = original
        compile_mod.clear_compile_cache()
    minimized = [f for f in report.failures if f.reproducer is not None]
    return SelfTestResult(
        report=report,
        detected=bool(report.failures),
        minimized_instructions=(
            minimized[0].minimized_instructions if minimized else None
        ),
        reproducer=minimized[0].reproducer if minimized else None,
    )


def run_port_selftest(
    cases: int = 20,
    seed: int = 1,
    repro_dir: str | Path = "repros-selftest",
    max_minimized: int = 1,
) -> SelfTestResult:
    """Plant the port-arbiter bug, fuzz ports_limited machines, report.

    The ``ports_limited`` entry of
    :data:`repro.uarch.regfile_model.REGFILE_REGISTRY` is swapped for
    :class:`PlantedPortArbiterBug` for the duration (simulators look
    the strategy up at construction time, so the swap takes effect
    immediately) and sampling is restricted to the ``ports_limited``
    registry shape so every case exercises the sabotaged arbiter.
    """
    original = regfile_mod.REGFILE_REGISTRY["ports_limited"]
    regfile_mod.REGFILE_REGISTRY["ports_limited"] = PlantedPortArbiterBug
    try:
        report = run_fuzz(
            cases=cases,
            seed=seed,
            jobs=1,  # the patch is process-local
            repro_dir=repro_dir,
            only_shapes=("ports_limited",),
            minimize=True,
            max_minimized=max_minimized,
        )
    finally:
        regfile_mod.REGFILE_REGISTRY["ports_limited"] = original
    minimized = [f for f in report.failures if f.reproducer is not None]
    return SelfTestResult(
        report=report,
        detected=bool(report.failures),
        minimized_instructions=(
            minimized[0].minimized_instructions if minimized else None
        ),
        reproducer=minimized[0].reproducer if minimized else None,
    )
