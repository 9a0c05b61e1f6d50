"""Property tests for the pipeline specialiser.

``repro.uarch.compile`` turns ``repro.uarch.pipeline.run_loop`` into a
per-shape runner by binding its shape flags to constants and pruning
the branches they decide.  These tests pin the parts the equivalence
matrix (tests/test_fast_reference_equivalence.py) does not: what the
specialised source contains, the compile cache's key sensitivity and
trust-nothing loads (mirroring the campaign ``ResultCache`` audits in
tests/test_campaign.py), the graceful-fallback contract of
``simulate(..., mode="compiled")``, the planted miscompilation edits
the fuzzer self-test relies on, and the no-forward-progress guard
firing *inside* compiled runners with the loop's exact message shapes.
"""

import ast
import inspect

import pytest

from repro.core.machines import MACHINE_REGISTRY, baseline_8way, ports_limited_8way
from repro.uarch import compile as compile_mod
from repro.uarch.compile import (
    COMPILE_VERSION,
    compile_cache_key,
    compile_cache_stats,
    compiled_runner,
    generate_source,
    run_compiled,
    supports_compile,
)
from repro.uarch.pipeline import SIMULATE_MODES, PipelineSimulator, simulate
from repro.uarch.pipeline_reference import simulate_reference
from repro.workloads import get_trace

LENGTH = 400


@pytest.fixture(autouse=True)
def fresh_compile_cache():
    """Every test starts from (and leaves behind) an empty cache."""
    compile_mod.clear_compile_cache()
    yield
    compile_mod.clear_compile_cache()


class TestSupportsCompile:
    """The supported family is exactly the single-window machines."""

    def test_registry_coverage(self):
        supported = {
            name
            for name, factory in MACHINE_REGISTRY.items()
            if supports_compile(factory())
        }
        assert supported == {"baseline", "ports_limited"}

    def test_generate_source_rejects_unsupported_shapes(self):
        from repro.core.machines import clustered_dependence_8way

        with pytest.raises(ValueError, match="cannot compile"):
            generate_source(clustered_dependence_8way())

    def test_compiled_runner_rejects_unsupported_shapes(self):
        from repro.core.machines import dependence_based_8way

        with pytest.raises(ValueError, match="cannot compile"):
            compiled_runner(dependence_based_8way())

    def test_source_is_a_flat_function(self):
        source = generate_source(baseline_8way())
        # One function: the loop with every shape flag bound, so the
        # keyword-only flag parameters are gone from the signature.
        assert source.startswith("def run_loop(sim, max_cycles):")
        assert source.count("def ") == 1

    def test_baseline_source_names_no_flag_and_no_fifo_or_cluster_code(self):
        from repro.uarch.pipeline import loop_flags

        source = generate_source(baseline_8way())
        names = {node.id for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.Name)}
        assert not names & set(loop_flags(baseline_8way()))
        for marker in ("fifo", "steer", "n_clusters", "extra_bypass",
                       "divmod", "place", "gather", "perf_counter",
                       "tracer"):
            assert marker not in source, marker

    def test_flags_select_what_the_source_holds(self):
        plain = generate_source(ports_limited_8way())
        traced = generate_source(ports_limited_8way(), traced=True)
        assert "grant_read_ports()" in plain
        assert "grant_read_ports" not in generate_source(baseline_8way())
        assert "tracer_emit" in traced and "tracer_emit" not in plain
        assert "fifo" not in traced


class TestCompileCacheKey:
    """Satellite: the key covers everything that changes the code."""

    def test_key_is_stable(self):
        assert compile_cache_key(baseline_8way(), False, True) == (
            compile_cache_key(baseline_8way(), False, True)
        )

    def test_configs_with_equal_flags_share_a_runner(self):
        # Numeric machine parameters stay locals of the loop, so only
        # the shape flags and strategy identity key a runner.
        narrow = baseline_8way(issue_width=4)
        assert compile_cache_key(baseline_8way(), False, True) == (
            compile_cache_key(narrow, False, True)
        )
        assert compiled_runner(baseline_8way()) is compiled_runner(narrow)
        assert compile_cache_stats()["compiles"] == 1
        trace = get_trace("li", LENGTH)
        assert run_compiled(PipelineSimulator(narrow, trace)).to_dict() == (
            simulate(narrow, trace).to_dict()
        )

    def test_key_changes_with_variant_flags(self):
        base = compile_cache_key(baseline_8way(), False, True)
        assert compile_cache_key(baseline_8way(), True, True) != base
        assert compile_cache_key(baseline_8way(), False, False) != base

    def test_key_changes_with_compile_version(self, monkeypatch):
        before = compile_cache_key(baseline_8way(), False, True)
        monkeypatch.setattr(
            compile_mod, "COMPILE_VERSION", COMPILE_VERSION + 1
        )
        assert compile_cache_key(baseline_8way(), False, True) != before

    def test_key_changes_with_planted_bug(self, monkeypatch):
        before = compile_cache_key(baseline_8way(), False, True)
        monkeypatch.setattr(compile_mod, "_PLANTED_BUG", "load_hit_fold")
        assert compile_cache_key(baseline_8way(), False, True) != before

    def test_key_changes_with_strategy_version(self, monkeypatch):
        from repro.uarch.scheduler import ConventionalScheduler

        before = compile_cache_key(baseline_8way(), False, True)
        monkeypatch.setattr(ConventionalScheduler, "version", 2)
        assert compile_cache_key(baseline_8way(), False, True) != before

    def test_key_distinguishes_regfile_strategies(self):
        # read_ports=16 never binds, so behaviour matches unlimited --
        # but the generated code differs (port-budget loop folded in).
        assert compile_cache_key(baseline_8way(), False, True) != (
            compile_cache_key(
                ports_limited_8way(read_ports=16), False, True
            )
        )


class TestCompileCache:
    """Trust-nothing loads, mirroring the campaign result cache."""

    def test_recompile_is_idempotent(self):
        first = compiled_runner(baseline_8way())
        second = compiled_runner(baseline_8way())
        assert first is second
        stats = compile_cache_stats()
        assert stats["compiles"] == 1
        assert stats["cache_hits"] == 1
        assert stats["cached_runners"] == 1
        assert stats["compile_seconds"] > 0

    def test_variants_are_cached_separately(self):
        compiled_runner(baseline_8way())
        compiled_runner(baseline_8way(), traced=True)
        compiled_runner(baseline_8way(), cycle_skip=False)
        assert compile_cache_stats()["cached_runners"] == 3
        assert compile_cache_stats()["compiles"] == 3

    def test_corrupted_entry_is_discarded(self):
        runner = compiled_runner(baseline_8way())
        key = compile_cache_key(baseline_8way(), False, True)
        compile_mod._COMPILE_CACHE[key]["runner"] = "not callable"
        recompiled = compiled_runner(baseline_8way())
        assert callable(recompiled)
        assert recompiled is not runner
        stats = compile_cache_stats()
        assert stats["stale_discards"] == 1
        assert stats["compiles"] == 2

    def test_stale_version_is_discarded(self):
        compiled_runner(baseline_8way())
        key = compile_cache_key(baseline_8way(), False, True)
        compile_mod._COMPILE_CACHE[key]["version"] = COMPILE_VERSION + 1
        compiled_runner(baseline_8way())
        stats = compile_cache_stats()
        assert stats["stale_discards"] == 1
        assert stats["compiles"] == 2

    def test_non_dict_entry_is_discarded(self):
        compiled_runner(baseline_8way())
        key = compile_cache_key(baseline_8way(), False, True)
        compile_mod._COMPILE_CACHE[key] = "garbage"
        assert callable(compiled_runner(baseline_8way()))
        assert compile_cache_stats()["stale_discards"] == 1

    def test_clear_zeroes_everything(self):
        compiled_runner(baseline_8way())
        compile_mod.clear_compile_cache()
        stats = compile_cache_stats()
        assert stats == {
            "compiles": 0,
            "cache_hits": 0,
            "stale_discards": 0,
            "fallbacks": 0,
            "compile_seconds": 0.0,
            "cached_runners": 0,
        }

    def test_fallback_is_counted(self):
        from repro.core.machines import clustered_dependence_8way

        trace = get_trace("li", LENGTH)
        simulate(clustered_dependence_8way(), trace, mode="compiled")
        assert compile_cache_stats()["fallbacks"] == 1
        # ...and nothing was compiled for the unsupported shape.
        assert compile_cache_stats()["compiles"] == 0

    def test_memo_keeps_no_source(self):
        # The memo holds runners only; generate_source re-derives the
        # text of exactly what was compiled on demand.
        runner = compiled_runner(baseline_8way())
        key = compile_cache_key(baseline_8way(), False, True)
        assert set(compile_mod._COMPILE_CACHE[key]) == {"version", "runner"}
        assert runner.__name__ == "run_loop"
        assert generate_source(baseline_8way()).startswith("def run_loop")


class TestSimulateModes:
    """The mode switch on the public simulate() entry point."""

    def test_mode_tuple(self):
        assert SIMULATE_MODES == ("reference", "fast", "compiled")

    def test_unknown_mode_rejected(self):
        trace = get_trace("li", LENGTH)
        with pytest.raises(ValueError, match="unknown simulate mode"):
            simulate(baseline_8way(), trace, mode="jit")

    def test_compiled_mode_matches_fast(self):
        trace = get_trace("li", LENGTH)
        fast = simulate(baseline_8way(), trace).to_dict()
        compiled = simulate(baseline_8way(), trace, mode="compiled").to_dict()
        assert compiled == fast

    def test_reference_mode_routes_to_reference_model(self):
        trace = get_trace("gcc", LENGTH)
        routed = simulate(baseline_8way(), trace, mode="reference")
        direct = simulate_reference(baseline_8way(), trace)
        assert routed.to_dict() == direct.to_dict()

    def test_mode_is_the_only_model_switch(self):
        parameters = inspect.signature(simulate).parameters
        assert "fast" not in parameters
        assert parameters["mode"].default == "fast"


class TestPlantedCompilerBug:
    """The knobs the fuzzer self-test turns must actually miscompile."""

    def test_planted_edits_change_the_source(self):
        clean = generate_source(baseline_8way())
        folded = generate_source(baseline_8way(), planted="load_hit_fold")
        assert "latency = miss_latency" in clean
        assert "latency = miss_latency" not in folded
        clean = generate_source(ports_limited_8way())
        leaked = generate_source(ports_limited_8way(), planted="port_leak")
        loop = leaked.index("while commit_ptr < n:")
        assert clean.index("grant_read_ports()") > clean.index(
            "while commit_ptr < n:")
        assert leaked.count("grant_read_ports()") == 1
        assert leaked.index("grant_read_ports()") < loop

    def test_load_hit_fold_diverges_from_fast(self, monkeypatch):
        monkeypatch.setattr(compile_mod, "_PLANTED_BUG", "load_hit_fold")
        trace = get_trace("gcc", LENGTH)
        bugged = run_compiled(PipelineSimulator(baseline_8way(), trace))
        fast = PipelineSimulator(baseline_8way(), trace).run()
        assert bugged.to_dict() != fast.to_dict()

    def test_clean_compiler_does_not_diverge(self):
        trace = get_trace("gcc", LENGTH)
        clean = run_compiled(PipelineSimulator(baseline_8way(), trace))
        fast = PipelineSimulator(baseline_8way(), trace).run()
        assert clean.to_dict() == fast.to_dict()

    def test_selftest_catches_and_minimizes(self, tmp_path):
        from repro.verify.selftest import run_compile_selftest

        result = run_compile_selftest(
            cases=8, seed=1, repro_dir=tmp_path, max_minimized=1
        )
        assert result.detected
        assert result.reproducer is not None
        assert result.minimized_instructions is not None
        assert result.minimized_instructions <= 12
        # The knob was restored and no sabotaged runner survived.
        assert compile_mod._PLANTED_BUG is None
        assert compile_cache_stats()["cached_runners"] == 0


class TestCompiledProgressGuard:
    """Satellite: the no-forward-progress guard fires *inside* the
    compiled step function -- a deadlocking port-budget shape must
    raise the interpreter's exact message shapes, not hang."""

    def test_guard_fires_with_cycle_skip(self, monkeypatch):
        monkeypatch.setattr(compile_mod, "_PLANTED_BUG", "port_leak")
        trace = get_trace("gcc", 50)
        sim = PipelineSimulator(ports_limited_8way(), trace, cycle_skip=True)
        with pytest.raises(
            RuntimeError,
            match=r"no forward progress possible at cycle \d+: no "
                  r"scheduled event remains \(13/50 committed\) -- "
                  r"simulator bug",
        ):
            run_compiled(sim)

    def test_guard_fires_without_cycle_skip(self, monkeypatch):
        monkeypatch.setattr(compile_mod, "_PLANTED_BUG", "port_leak")
        trace = get_trace("gcc", 50)
        sim = PipelineSimulator(ports_limited_8way(), trace, cycle_skip=False)
        with pytest.raises(
            RuntimeError,
            match=r"no forward progress after \d+ cycles "
                  r"\(13/50 committed\) -- simulator bug",
        ):
            run_compiled(sim)
