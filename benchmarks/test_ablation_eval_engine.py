"""Ablation: compiled predicate closures vs. the interpreter fallback.

``GlobalizedPredicate.holds`` is the hottest call in the runtime — every
candidate entry on every monitor exit — so compiling predicates is the
single biggest per-evaluation lever.  This ablation runs a tight loop over
the actual ``waituntil`` predicates of the bounded-buffer and
readers-writers problems, comparing the tree-walking interpreter (the
fallback the runtime takes when codegen declines a predicate or a closure
is quarantined) against the codegen closure.  The acceptance bar is a >= 2x
speedup on both workloads.  A macro leg then runs each problem to
saturation twice: once as shipped, and once with codegen declining every
expression so the real fallback serves all evaluations, checking the
counter attribution of each and recording wall times.

Results are written to ``BENCH_eval_engine.json`` at the repository root;
CI uploads the file as an artifact.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.predicates.predicate as predicate_module
from repro.predicates import compile_predicate
from repro.predicates.evaluator import _EMPTY_LOCALS, evaluate, read_shared
from repro.predicates.predicate import clear_predicate_memo

from conftest import run_problem_once

#: Where the perf-trajectory snapshot lands (repository root).
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_eval_engine.json"

#: Evaluations per timing sample in the micro benchmark.
MICRO_ITERATIONS = 20_000

#: Required speedup of compiled closures over the interpreter (acceptance bar).
REQUIRED_SPEEDUP = 2.0

#: The macro leg's evaluation paths: the codegen closures, or the
#: interpreter fallback with codegen declining every expression.
EVAL_PATHS = ("compiled", "interpreted")


class _BufferState:
    """Monitor-shaped state for the bounded-buffer predicates."""

    def __init__(self) -> None:
        self.count = 3
        self.capacity = 16


class _ReadersWritersState:
    """Monitor-shaped state for the readers-writers predicates."""

    def __init__(self) -> None:
        self.serving = 7
        self.active_readers = 0
        self.active_writers = 0


#: The problems' real ``waituntil`` predicates (globalized forms).
WORKLOAD_PREDICATES = {
    "bounded_buffer": (
        _BufferState,
        [
            ("count < capacity", {"count", "capacity"}, {}),
            ("count > 0", {"count", "capacity"}, {}),
        ],
    ),
    "readers_writers": (
        _ReadersWritersState,
        [
            (
                "serving == t and active_writers == 0",
                {"serving", "active_readers", "active_writers"},
                {"t": 7},
            ),
            (
                "serving == t and active_readers == 0 and active_writers == 0",
                {"serving", "active_readers", "active_writers"},
                {"t": 7},
            ),
        ],
    ),
}

#: Collected results, flushed to RESULTS_PATH by the module fixture below.
_RESULTS: dict = {"holds_microbench": {}, "workloads": {}}


def _globalized_forms(problem: str):
    state_cls, sources = WORKLOAD_PREDICATES[problem]
    state = state_cls()
    forms = []
    for source, shared, local_values in sources:
        compiled = compile_predicate(source, shared, set(local_values))
        forms.append(compiled.globalized(local_values))
    return state, forms


def _time_holds(state, forms, engine) -> float:
    """Seconds for MICRO_ITERATIONS evaluations of every form (best of 3)."""
    import time

    if engine == "compiled":
        fns = [form.compiled_fn() for form in forms]
        assert all(fn is not None for fn in fns), "codegen declined a predicate"

        def body():
            for fn in fns:
                fn(state, read_shared, _EMPTY_LOCALS)

    else:
        exprs = [form.expr for form in forms]

        def body():
            for expr in exprs:
                evaluate(expr, state)

    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(MICRO_ITERATIONS):
            body()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.fixture(scope="module", autouse=True)
def _write_results():
    """Write the collected numbers to BENCH_eval_engine.json at teardown."""
    yield
    if _RESULTS["holds_microbench"] or _RESULTS["workloads"]:
        RESULTS_PATH.write_text(json.dumps(_RESULTS, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("problem", sorted(WORKLOAD_PREDICATES))
def test_compiled_holds_speedup(benchmark, problem):
    """Compiled closures must evaluate the problem's own predicates at
    least 2x faster than the interpreter."""

    def compare():
        state, forms = _globalized_forms(problem)
        interpreted = _time_holds(state, forms, "interpreted")
        compiled = _time_holds(state, forms, "compiled")
        return interpreted, compiled

    interpreted, compiled = benchmark.pedantic(compare, rounds=1, iterations=1)
    evaluations = MICRO_ITERATIONS * len(WORKLOAD_PREDICATES[problem][1])
    speedup = interpreted / compiled
    _RESULTS["holds_microbench"][problem] = {
        "interpreted_us_per_eval": interpreted * 1e6 / evaluations,
        "compiled_us_per_eval": compiled * 1e6 / evaluations,
        "speedup": speedup,
    }
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= REQUIRED_SPEEDUP, (
        f"compiled closures only {speedup:.2f}x faster than the interpreter "
        f"on {problem} (required: {REQUIRED_SPEEDUP}x)"
    )


@pytest.mark.parametrize("problem", sorted(WORKLOAD_PREDICATES))
@pytest.mark.parametrize("engine", EVAL_PATHS)
def test_eval_engine_workload(benchmark, monkeypatch, problem, engine):
    """Full saturation runs per evaluation path: counters must attribute
    the evaluations to that path, and wall times feed the JSON."""
    if engine == "interpreted":
        # Codegen declines every closure and fused batch, so the monitor
        # takes its interpreter fallback for every evaluation.  The
        # process-wide memo holds batch handles, so it is rebuilt on both
        # sides of the patched run.
        monkeypatch.setattr(predicate_module, "compile_expr", lambda expr: None)
        monkeypatch.setattr(predicate_module, "compile_batch", lambda shape: None)
        clear_predicate_memo()
    rounds = []

    def run():
        result = run_problem_once(problem, "autosynch", threads=4, total_ops=400)
        rounds.append(result)
        return result

    try:
        benchmark.pedantic(run, rounds=3, iterations=1)
    finally:
        clear_predicate_memo()
    # Best-of-rounds: at this scale (a few hundred evaluations, tens of ms)
    # the run-to-run scheduler noise is larger than the paths' wall-time
    # difference, so the minimum is the only comparable statistic.
    result = min(rounds, key=lambda r: r.wall_time)
    stats = result.monitor_stats
    if engine == "compiled":
        assert stats["compiled_evaluations"] > 0
        # The fallback must not have been needed: every workload predicate
        # is codegen-supported.
        assert stats["interpreted_evaluations"] == 0
    else:
        assert stats["compiled_evaluations"] == 0
        assert stats["interpreted_evaluations"] > 0
    assert stats["predicate_quarantines"] == 0
    _RESULTS["workloads"].setdefault(problem, {})[engine] = {
        "wall_time": result.wall_time,
        "per_op_us": result.wall_time * 1e6 / result.operations,
        "rounds_wall_times": [r.wall_time for r in rounds],
        "operations": result.operations,
        "compiled_evaluations": stats["compiled_evaluations"],
        "interpreted_evaluations": stats["interpreted_evaluations"],
        "shared_read_cache_hits": stats["shared_read_cache_hits"],
        "relay_entries_skipped": stats["relay_entries_skipped"],
        "batched_evaluations": stats["batched_evaluations"],
    }
    benchmark.extra_info["predicate_evaluations"] = stats["predicate_evaluations"]
    benchmark.extra_info["shared_read_cache_hits"] = stats["shared_read_cache_hits"]
