"""Per-shape compiled pipelines (``simulate(..., mode="compiled")``).

The fast model is one hand-written function,
:func:`repro.uarch.pipeline.run_loop`, which covers every machine
shape through keyword-only boolean shape flags.  This module derives a
specialised runner from that function's own source instead of
restating it:

* :func:`compiled_runner` parses ``run_loop`` once per process (lazily,
  on the first compile -- never at import);
* it binds the flags :func:`~repro.uarch.pipeline.loop_flags` gives
  the config to constants, removes them from the signature, and folds
  ``not`` / ``and`` / ``or`` / ``if`` / conditional expressions on
  constants, so every branch a shape can never take -- clustering,
  FIFOs, steering, the port budget, tracer sites, profiling -- is
  pruned from the code rather than tested per cycle;
* it compiles the result against the pipeline module's globals and
  memoizes the function in :data:`_COMPILE_CACHE` under the flags,
  :func:`~repro.uarch.scheduler.strategy_identity`,
  :data:`COMPILE_VERSION` and :data:`_PLANTED_BUG`.

Numeric machine parameters (widths, latencies, capacities, cache
geometry) stay locals hoisted once per run: folding them into literals
measured within noise, so configs with equal flags share one runner.
The speed over the method-per-stage interpreter this module once
compiled from a string template came from the flat loop over locals,
which ``run_loop`` now has in every mode.

**Golden-identical by construction.**  The compiled function is the
loop itself with dead branches removed, so it replicates the
unspecialised run cycle-for-cycle; the three-way equivalence matrix
and the differential fuzzer still pin ``SimStats`` across reference /
fast / compiled.  :data:`COMPILE_VERSION` is folded into the campaign
result-cache key (:func:`repro.core.campaign.cache_key`) next to
``PREANALYSIS_VERSION``.

**Fallback semantics.**  :func:`supports_compile` names the compiled
family: the single-window machines (baseline and ports_limited).
Every other shape runs the same loop unspecialised inside
:func:`~repro.uarch.pipeline.simulate` -- callers never need to check
first -- and is counted by :func:`note_fallback`.  Compiles, memo
hits and fallbacks are counters in the process metrics registry
(:data:`COMPILE_COUNTERS`).

``_PLANTED_BUG`` is the fuzzer self-test's sabotage knob (see
:mod:`repro.verify.selftest`), applied as an edit to the specialised
tree; it is part of the cache key so a planted run can never leak a
buggy runner into clean runs.
"""

from __future__ import annotations

import ast
import copy
import time
import types
from typing import TYPE_CHECKING, Callable

from repro.obs.metrics import get_registry
from repro.uarch import pipeline
from repro.uarch.config import MachineConfig, SelectionPolicy, SteeringPolicy
from repro.uarch.pipeline import loop_flags
from repro.uarch.scheduler import strategy_identity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uarch.pipeline import PipelineSimulator
    from repro.uarch.stats import SimStats

#: Version of the pipeline-compilation scheme.  Bump whenever the
#: compiled code's timing behaviour could change; the campaign cache
#: key includes it (see :func:`repro.core.campaign.cache_key`).
COMPILE_VERSION = 1

#: Deliberate miscompilation knob for the fuzzer self-test
#: (:func:`repro.verify.selftest.run_compile_selftest`).  ``None`` in
#: production; the one recognised value is ``"load_hit_fold"``: the
#: specialised loop reads the cache-miss latency as the hit latency.
#: Part of the compile-cache key.
_PLANTED_BUG: str | None = None

#: The in-memory compile cache: variant key -> runner.
_COMPILE_CACHE: dict[tuple, Callable] = {}

#: Compile activity, counted in the process metrics registry
#: (:func:`repro.obs.metrics.get_registry`): ledger key -> (counter
#: name, help).  ``repro simulate --mode compiled`` records the four
#: values under these keys in its ledger entry's ``extra.compile``.
COMPILE_COUNTERS = {
    "compiles": ("compile_runners_total", "Pipeline runners compiled"),
    "cache_hits": ("compile_cache_hits_total", "Compile-cache hits"),
    "fallbacks": ("compile_fallbacks_total",
                  "Unsupported shapes run on the unspecialised loop"),
    "compile_seconds": ("compile_seconds_total",
                        "Host seconds spent specialising and compiling"),
}

#: ``run_loop`` as parsed on the first compile (one per process), with
#: the ids of its nodes that read a shape flag, directly or below
#: them: the only nodes specialising copies.
_LOOP: tuple[ast.FunctionDef, frozenset[int]] | None = None


def supports_compile(config: MachineConfig) -> bool:
    """True when :func:`compiled_runner` covers ``config``.

    The supported family is the single-window machine the paper's
    baseline belongs to: one cluster, no FIFOs, no steering policy,
    oldest-first (compacting) selection, the ``conventional``
    scheduler, and either register-file port model.  Shapes outside
    it run the unspecialised loop instead (graceful fallback).
    """
    return (
        len(config.clusters) == 1
        and not config.clusters[0].uses_fifos
        and config.steering is SteeringPolicy.NONE
        and config.selection is SelectionPolicy.OLDEST_FIRST
        and config.scheduler == "conventional"
        and config.regfile in ("unlimited", "ports_limited")
    )


def compile_cache_key(
    config: MachineConfig, traced: bool, cycle_skip: bool
) -> tuple:
    """The variant key one compiled runner is memoized under."""
    return (
        tuple(loop_flags(config, traced, cycle_skip).items()),
        strategy_identity(config),
        COMPILE_VERSION,
        _PLANTED_BUG,
    )


def _count(key: str, amount: float = 1) -> None:
    name, help_text = COMPILE_COUNTERS[key]
    get_registry().counter(name, help_text).inc(amount)


def clear_compile_cache() -> None:
    """Drop every cached runner."""
    _COMPILE_CACHE.clear()


def note_fallback() -> None:
    """Count one unsupported-shape fallback to the unspecialised loop."""
    _count("fallbacks")


# ---------------------------------------------------------------------------
# specialisation
# ---------------------------------------------------------------------------


def _fold(node, named: frozenset[int], flags: dict[str, bool]):
    """``node`` with ``flags`` bound to constants and the expressions
    and branches they decide folded away.  A folded ``if`` statement
    becomes the list of statements of the branch it keeps.

    Only the nodes in ``named`` are copied; every other subtree is
    shared with the parsed loop, which is never mutated.
    """
    if isinstance(node, list):
        folded = []
        for item in node:
            item = _fold(item, named, flags)
            if isinstance(item, list):
                folded.extend(item)
            else:
                folded.append(item)
        return folded
    if not isinstance(node, ast.AST) or id(node) not in named:
        return node
    if isinstance(node, ast.Name):
        if node.id in flags:
            return ast.copy_location(ast.Constant(flags[node.id]), node)
        return node
    folded = type(node)(**{
        name: _fold(value, named, flags)
        for name, value in ast.iter_fields(node)
    })
    return _prune(ast.copy_location(folded, node))


def _prune(node: ast.AST):
    """Fold one freshly copied node whose children are already folded."""
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.Not) and isinstance(node.operand, ast.Constant):
            return ast.copy_location(ast.Constant(not node.operand.value), node)
    elif isinstance(node, ast.BoolOp):
        # Flags only ever appear in truth-value contexts, so an operand
        # equal to the operator's identity (True for ``and``, False for
        # ``or``) is dropped and a leading absorbing constant decides
        # the whole expression.
        absorbing = isinstance(node.op, ast.Or)
        values = []
        for value in node.values:
            if not isinstance(value, ast.Constant):
                values.append(value)
            elif bool(value.value) == absorbing:
                if not values:
                    return ast.copy_location(ast.Constant(absorbing), node)
                values.append(value)
                break
        if not values:
            return ast.copy_location(ast.Constant(not absorbing), node)
        if len(values) == 1:
            return values[0]
        node.values = values
    elif isinstance(node, (ast.If, ast.IfExp)):
        if isinstance(node.test, ast.Constant):
            return node.body if node.test.value else node.orelse
    if getattr(node, "body", None) == []:
        node.body.append(ast.Pass())  # every statement was pruned
    return node


def _loop() -> tuple[ast.FunctionDef, frozenset[int]]:
    """``run_loop``'s syntax tree and its named node ids, parsed on
    first use.

    Only the function's own lines are read and parsed (padded so line
    numbers, and hence tracebacks from compiled runners, match
    ``pipeline.py``): its last statement is the highest line in its
    code object's line table, plus any indented continuation lines.
    """
    global _LOOP
    if _LOOP is None:
        code = pipeline.run_loop.__code__
        with open(code.co_filename, encoding="utf-8") as handle:
            lines = handle.read().splitlines(keepends=True)
        end = max(line for *_, line in code.co_lines() if line is not None)
        while end < len(lines) and lines[end][:1] in (" ", "\n"):
            end += 1
        first = code.co_firstlineno
        source = "\n" * (first - 1) + "".join(lines[first - 1:end])
        tree = ast.parse(source).body[0]
        names = {arg.arg for arg in tree.args.kwonlyargs}
        named: set[int] = set()

        def mark(node: ast.AST) -> bool:
            hit = isinstance(node, ast.Name) and node.id in names
            for child in ast.iter_child_nodes(node):
                hit = mark(child) or hit
            if hit:
                named.add(id(node))
            return hit

        mark(tree)
        _LOOP = (tree, frozenset(named))
    return _LOOP


def _specialise(flags: dict[str, bool], planted: str | None) -> ast.FunctionDef:
    """``run_loop`` with ``flags`` bound and their dead branches pruned."""
    tree, named = _loop()
    fn = _fold(tree, named, flags)
    del fn.body[0]  # the docstring, which describes the flags
    # The bound flags leave the signature (annotations go too: the
    # runner is built from the code object, never by running a def).
    signature = fn.args
    kept = [
        (arg, default)
        for arg, default in zip(signature.kwonlyargs, signature.kw_defaults)
        if arg.arg not in flags
    ]
    fn.args = ast.arguments(
        posonlyargs=[],
        args=[ast.arg(arg.arg) for arg in signature.args],
        kwonlyargs=[ast.arg(arg.arg) for arg, _ in kept],
        kw_defaults=[default for _, default in kept],
        defaults=list(signature.defaults),
    )
    fn.returns = None
    if planted == "load_hit_fold":
        fn = copy.deepcopy(fn)  # the edit must not reach the shared tree
        for node in ast.walk(fn):
            if (isinstance(node, ast.Name) and node.id == "miss_latency"
                    and isinstance(node.ctx, ast.Load)):
                node.id = "hit_latency"
    return ast.fix_missing_locations(fn)


def _check_supported(config: MachineConfig) -> None:
    if not supports_compile(config):
        raise ValueError(
            f"cannot compile {config.name!r}: unsupported shape "
            f"(steering={config.steering.value}, "
            f"scheduler={config.scheduler}, "
            f"clusters={len(config.clusters)})"
        )


def generate_source(
    config: MachineConfig,
    traced: bool = False,
    cycle_skip: bool = True,
    planted: str | None = None,
) -> str:
    """The specialised loop for one machine shape, as source text.

    The text is ``ast.unparse`` of exactly what
    :func:`compiled_runner` compiles: ``run_loop(sim, max_cycles)``
    with the shape flags bound and their dead branches pruned.

    Raises:
        ValueError: for shapes outside :func:`supports_compile`.
    """
    _check_supported(config)
    return ast.unparse(_specialise(loop_flags(config, traced, cycle_skip), planted))


def compiled_runner(
    config: MachineConfig, traced: bool = False, cycle_skip: bool = True
) -> Callable:
    """The memoized compiled run function for one machine variant.

    Looks the variant up in :data:`_COMPILE_CACHE` and compiles it on
    a miss; both outcomes are counted in the process registry (see
    :data:`COMPILE_COUNTERS`).

    Raises:
        ValueError: for shapes outside :func:`supports_compile`.
    """
    _check_supported(config)
    key = compile_cache_key(config, traced, cycle_skip)
    runner = _COMPILE_CACHE.get(key)
    if runner is not None:
        _count("cache_hits")
        return runner
    start = time.perf_counter()
    fn = _specialise(loop_flags(config, traced, cycle_skip), _PLANTED_BUG)
    module = ast.Module(body=[fn], type_ignores=[])
    code = compile(module, pipeline.__file__, "exec")
    # Take the function's code object directly rather than executing
    # the ``def``: the runner then resolves globals in the live
    # pipeline module, exactly like the unspecialised loop.
    body = next(const for const in code.co_consts
                if isinstance(const, types.CodeType))
    runner = types.FunctionType(body, vars(pipeline), fn.name)
    _count("compiles")
    _count("compile_seconds", time.perf_counter() - start)
    _COMPILE_CACHE[key] = runner
    return runner


def run_compiled(
    sim: "PipelineSimulator", max_cycles: int | None = None
) -> "SimStats":
    """Run one constructed simulator through its compiled function.

    The simulator is built normally (identical initial state, shared
    per-instruction timing arrays), then the whole cycle loop runs in
    the specialised function -- so equivalence tests can compare
    ``issue_cycle``/``commit_cycle``/... on the instance afterwards
    exactly as they do for the unspecialised loop.

    Raises:
        ValueError: for shapes outside :func:`supports_compile`.
        RuntimeError: on no-forward-progress, with the loop's own
            messages (the guards are part of the specialised code).
    """
    runner = compiled_runner(
        sim.config, traced=sim.tracer is not None, cycle_skip=sim.cycle_skip
    )
    return runner(sim, max_cycles)
