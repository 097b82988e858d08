"""Unit coverage for the exploration throughput engine's building blocks:
backend recycling, the predicate artifact memo, verified-depth replay,
prefix-suppressed footprints, per-stage timings and fork-started workers.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap

import pytest

from repro.explore.engine import (
    ExploreTask,
    TaskRuntime,
    clear_runtime_cache,
    run_prefix,
    task_runtime,
)
from repro.explore.dpor import explore_dpor
from repro.predicates.predicate import (
    _classified_parts,
    clear_predicate_memo,
    compile_predicate,
)
from repro.runtime.simulation import SimulationBackend, SimulationError
from repro.runtime.simulation.footprints import (
    DecisionFootprint,
    FootprintRecorder,
    independent,
)
from repro.runtime.simulation.schedulers import ScheduleTrace


TASK = ExploreTask(problem="bounded_buffer", mechanism="autosynch",
                   threads=2, total_ops=2)


def outcome_signature(outcome):
    return (outcome.kind, outcome.digest, outcome.trace.choices(),
            outcome.backend_metrics, outcome.monitor_stats)


class TestBackendRecycling:
    def test_recycled_backend_runs_are_bit_identical(self):
        runtime = TaskRuntime(TASK)
        first = run_prefix(TASK, (), runtime=runtime)
        # Same runtime again: the backend is recycled, not rebuilt.
        recycled = run_prefix(TASK, (), runtime=runtime)
        cold = run_prefix(TASK, (), runtime=TaskRuntime(TASK))
        assert outcome_signature(first) == outcome_signature(recycled)
        assert outcome_signature(first) == outcome_signature(cold)

    def test_recycle_refused_mid_run_and_when_tainted(self):
        backend = SimulationBackend(seed=0)
        backend._running = True
        with pytest.raises(SimulationError):
            backend.recycle()
        backend._running = False
        backend._tainted = True
        with pytest.raises(SimulationError):
            backend.recycle()

    def test_tainted_backend_is_replaced_not_recycled(self):
        runtime = TaskRuntime(TASK)
        first = run_prefix(TASK, (), runtime=runtime)
        assert runtime._backend is not None
        runtime._backend._tainted = True
        tainted = runtime._backend
        replaced = run_prefix(TASK, (), runtime=runtime)
        assert runtime._backend is not tainted
        assert outcome_signature(first) == outcome_signature(replaced)

    def test_runtime_cache_normalizes_seed_and_caps_size(self):
        clear_runtime_cache()
        base = task_runtime(TASK)
        reseeded = task_runtime(ExploreTask(**{**TASK.to_dict(), "seed": 7}))
        assert base is reseeded
        assert task_runtime(TASK) is base


class TestPredicateMemo:
    def test_recompilation_shares_classified_artifacts(self):
        clear_predicate_memo()
        first = compile_predicate("count > 0", {"count": 0}, {"n": 0})
        misses = _classified_parts.cache_info().misses
        second = compile_predicate("count > 0", {"count": 0}, {"n": 0})
        assert _classified_parts.cache_info().misses == misses
        assert _classified_parts.cache_info().hits > 0
        # Fresh wrapper objects: per-predicate mutable state (quarantine,
        # engine demotion) must not leak between compilations.
        assert first is not second
        assert first.expr is second.expr

    def test_memo_clears_and_recompiles(self):
        compile_predicate("count > 0", {"count": 0})
        clear_predicate_memo()
        assert _classified_parts.cache_info().currsize == 0
        again = compile_predicate("count > 0", {"count": 0})
        assert "count" in again.shared_names


class TestVerifiedDepthReplay:
    def test_verified_prefix_replay_matches_full_checking(self):
        full = run_prefix(TASK, (1, 1, 0))
        shared = run_prefix(TASK, (1, 1, 0), verified_depth=3)
        assert outcome_signature(full) == outcome_signature(shared)

    def test_dpor_prefix_sharing_keeps_dfs_violation_contract(self):
        # The whole-engine property: prefix-shared DPOR still visits the
        # schedules it visited before sharing existed (pinned count for the
        # canonical 2x2 exhaust) and stays complete.
        report = explore_dpor(TASK)
        assert report.complete
        assert report.schedules_visited == 17


class TestPrefixSuppressedFootprints:
    def test_recorder_skip_yields_none_placeholders(self):
        recorder = FootprintRecorder(skip=2)
        recorder.note_write("ignored")
        recorder.flush()
        recorder.note_lock("also-ignored")
        recorder.flush()
        recorder.note_write("kept")
        recorder.flush()
        assert recorder.footprints[:2] == [None, None]
        assert recorder.footprints[2].writes == frozenset({"kept"})

    def test_none_footprint_is_conservatively_dependent(self):
        real = DecisionFootprint(writes=frozenset({"x"}))
        assert not independent(None, real)
        assert not independent(real, None)

    def test_footprints_from_matches_full_recording_suffix(self):
        full = run_prefix(TASK, (1, 0), record_footprints=True)
        skip = 2
        shared = run_prefix(TASK, (1, 0), record_footprints=True,
                            verified_depth=2, footprints_from=skip)
        assert full.digest == shared.digest
        assert all(fp is None for fp in shared.trace.footprints[:skip])
        assert shared.trace.footprints[skip:] == full.trace.footprints[skip:]

    def test_trace_serialization_roundtrips_none_footprints(self):
        trace = ScheduleTrace(
            footprints=[None, DecisionFootprint(reads=frozenset({"a"}))]
        )
        restored = ScheduleTrace.from_dict(trace.to_dict())
        assert restored.footprints == trace.footprints


class TestStageTimings:
    def test_outcome_carries_stage_buckets(self):
        outcome = run_prefix(TASK, ())
        assert set(outcome.timings) == {"build", "run", "classify", "oracle"}
        assert all(seconds >= 0.0 for seconds in outcome.timings.values())
        # Oracle checks happen inside the run stage.
        assert outcome.timings["oracle"] <= outcome.timings["run"]


class TestForkedWorkers:
    def test_process_swarm_after_serial_run_does_not_hang(self):
        # A serial run caches a TaskRuntime whose backend parks carrier
        # threads; fork-started pool workers inherit those carriers without
        # their OS threads.  The kernel's at-fork hook must make the
        # children spawn their own.  Run in a subprocess: a regression hangs
        # forever, and only a process boundary turns that into a failure.
        script = textwrap.dedent(
            """
            from repro.explore.engine import ExploreTask, explore_swarm

            task = ExploreTask(problem="h2o", mechanism="autosynch",
                               threads=3, total_ops=9)
            serial = explore_swarm(task, schedules=8)
            forked = explore_swarm(task, schedules=8, executor="process", jobs=2)
            assert forked.schedules_visited == serial.schedules_visited == 8
            assert forked.failures_total == serial.failures_total
            print("done")
            """
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert "done" in completed.stdout
