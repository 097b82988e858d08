"""The workloads of the benchmark of record.

Each workload is a class built from a seed.  Its constructor is the set-up
(everything a user pays before the first measured operation: registries,
scenario and monitor compilation, warm caches and carrier threads), and
``run_round()`` executes one fixed unit of work, checks its outputs and
returns a :class:`Round`.  The driver in ``run.py`` repeats rounds for the
requested number of seconds and reduces them to metrics.

Every round of one run executes identical inputs, so exact counts (context
switches, schedules) are the same in every round and only host timings
vary.  The seed changes the inputs of ``explore_verdict`` (the
fuzz-generated scenario).  The two drains take no input from the seed: they
are deterministic by construction (one event loop, FIFO primitives), so
their counts are identical for every seed and only their timings move.
"""

from __future__ import annotations

import asyncio
from array import array
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import register_policy
from repro.core.async_driver import run_action
from repro.core.signalling.relay import RelayTaggedPolicy
from repro.explore import ExploreTask, explore_dfs, explore_dpor
from repro.explore.engine import clear_runtime_cache, run_prefix
from repro.predicates.evaluator import evaluate
from repro.predicates.parser import parse_predicate
from repro.problems import get_problem
from repro.runtime.asyncio_backend import AsyncioBackend
from repro.scenarios import generate_scenario, register_scenario

MECHANISM = "autosynch"


@dataclass
class Round:
    """What one round did, measured and checked."""

    seconds: float
    #: Monitor operations completed (explore: monitor entries over every
    #: explored schedule).
    ops: int
    #: Checked units (drains: waiters; explore: tasks) and how many of them
    #: failed a check.
    attempted: int
    failed: int
    #: Latency samples in seconds (see README.md for each workload's meaning).
    latencies: List[float] = field(default_factory=list)
    #: Per-round latency percentiles (fraction -> seconds); the driver sets
    #: them and drops the samples when a round has enough samples of its own.
    latency_count: int = 0
    percentiles: Dict[float, float] = field(default_factory=dict)
    #: Complete program executions: drains 1, explore the number of
    #: explored schedules.
    schedules: int = 0
    #: Summed MonitorStats and BackendMetrics counters of the round.
    monitor: Dict[str, float] = field(default_factory=dict)
    backend: Dict[str, float] = field(default_factory=dict)
    #: Exploration-only aggregates (ExplorationReport.stats / timings).
    explore_stats: Dict[str, float] = field(default_factory=dict)
    explore_timings: Dict[str, float] = field(default_factory=dict)
    steps: int = 0
    #: Durations of the round's consecutive slices, the same slices in
    #: every round (drains: every ``DRAIN_SLICE`` admissions).  Empty where
    #: a workload's rounds are timed whole.
    slices: List[float] = field(default_factory=list)
    #: The latency samples of each slice, kept compact: the driver picks
    #: each slice's samples from the round where that slice ran fastest.
    slice_latencies: List[array] = field(default_factory=list)
    #: Seconds of each explicit-signalling reference drain run just before
    #: the round (see ``reference_drain_seconds``).
    reference: List[float] = field(default_factory=list)


def _accumulate(total: Dict[str, float], counters) -> None:
    for name, value in counters.items():
        total[name] = total.get(name, 0) + value


# ---------------------------------------------------------------------------
# pool_drain / ticket_drain: the asyncio service tier
# ---------------------------------------------------------------------------

#: Parked coroutine waiters per drain.
DRAIN_WAITERS = 20_000
#: Admission window: slots in circulation, i.e. closed-loop clients.
DRAIN_WINDOW = 64
#: Waiters in the warm-up drain run during set-up.
DRAIN_WARMUP_WAITERS = 256
#: Admissions per timed slice of a drain (see ``Round.slices``).  The first
#: slice also covers parking every waiter, the last one the final releases.
DRAIN_SLICE = 500
#: Waiters and repetitions of the reference drain ``run.py`` times before
#: every round of every workload.
REFERENCE_WAITERS = 5_000
REFERENCE_REPEATS = 3


async def _explicit_drain(waiters: int, window: int) -> int:
    """The drains' closed-loop protocol with hand-written explicit
    signalling on the standard library alone: a waiter that finds no free
    slot parks on its own future, and each release wakes the oldest one.
    Returns the number of admissions."""
    loop = asyncio.get_running_loop()
    free = window
    parked: deque = deque()
    completions: "asyncio.Queue[int]" = asyncio.Queue()
    admitted = 0

    async def waiter(index: int) -> None:
        nonlocal free, admitted
        if free > 0:
            free -= 1
        else:
            slot = loop.create_future()
            parked.append(slot)
            await slot
        admitted += 1
        completions.put_nowait(index)

    async def signaller() -> None:
        nonlocal free
        for _ in range(waiters):
            await completions.get()
            if parked:
                parked.popleft().set_result(None)
            else:
                free += 1

    await asyncio.gather(*(waiter(index) for index in range(waiters)), signaller())
    return admitted


def reference_drain_seconds() -> List[float]:
    """Time the explicit-signalling drain, none of whose code is this
    program's, on a fresh event loop (no loop policy applies).  It measures
    what the host's speed is right now for CPU-bound Python work like the
    workloads'; ``run.py`` scales their timings by it."""
    samples = []
    for _ in range(REFERENCE_REPEATS):
        loop = asyncio.SelectorEventLoop()
        try:
            started = time.perf_counter()
            admitted = loop.run_until_complete(
                _explicit_drain(REFERENCE_WAITERS, DRAIN_WINDOW)
            )
            samples.append(time.perf_counter() - started)
        finally:
            loop.close()
        if admitted != REFERENCE_WAITERS:
            raise RuntimeError(f"reference drain admitted {admitted} of {REFERENCE_WAITERS}")
    return samples


@dataclass(frozen=True)
class _DrainScenario:
    """How a builtin scenario maps onto the park/drain protocol."""

    name: str
    acquire: str
    release: str
    #: Window -> the scenario's parameter overrides.
    params: Callable[[int], Dict[str, int]]
    #: Slots held by admitted waiters, read from the monitor.
    held: Callable[[object], int]
    #: (window, waiters) -> expected final field values.
    final_state: Callable[[int, int], Dict[str, int]]


POOL = _DrainScenario(
    "resource_pool",
    "acquire_low",
    "release_low",
    params=lambda window: {"size": window, "reserve": 0},
    held=lambda monitor: monitor.low_held,
    final_state=lambda window, waiters: {
        "free": window,
        "low_held": 0,
        "low_served": waiters,
    },
)

TICKET = _DrainScenario(
    "fifo_semaphore",
    "acquire",
    "release",
    params=lambda window: {"permits": window},
    held=lambda monitor: monitor.permits - monitor.available,
    final_state=lambda window, waiters: {
        "available": window,
        "acquired": waiters,
        "released": waiters,
        "serving": waiters,
    },
)


class DrainWorkload:
    """Park ``waiters`` coroutines on one scenario monitor, then drain them.

    Closed loop: ``window`` slots circulate; every completed admission is
    answered by one release from a single signaller coroutine, so the
    window acts as ``window`` clients.  One OS thread runs the whole drain.

    Checks: every waiter admitted exactly once; slots held never exceed the
    window; the scenario's final state conserves every slot; with
    ``ordered`` (``ticket_drain``), the k-th admission is waiter k.  The
    waiters take their tickets in spawn order (each first enters the
    monitor before the loop runs the next task, and the monitor lock is
    FIFO), so admission order equal to spawn order is ticket order.
    """

    def __init__(self, scenario: _DrainScenario, ordered: bool, seed: int) -> None:
        del seed  # deterministic by construction; see the module docstring
        self.scenario = scenario
        self.ordered = ordered
        self.problem = get_problem(scenario.name)
        spec = self.problem.spec
        merged = dict(spec.params)
        merged.update(scenario.params(DRAIN_WINDOW))
        state: Dict[str, object] = dict(merged)
        for name, initial in spec.shared.items():
            state[name] = (
                evaluate(parse_predicate(initial), merged)
                if isinstance(initial, str)
                else initial
            )
        self.state = state
        self.request_hook = None
        warm = self._drain(DRAIN_WARMUP_WAITERS)
        if warm.failed:
            raise RuntimeError(f"{scenario.name} warm-up drain failed its checks")

    def run_round(self) -> Round:
        return self._drain(DRAIN_WAITERS)

    def close(self) -> None:
        pass

    def _drain(self, waiters: int) -> Round:
        scenario = self.scenario
        backend = AsyncioBackend()
        monitor = self.problem.monitor_cls(
            self.state, backend=backend, signalling=MECHANISM
        )
        acquire, release = scenario.acquire, scenario.release
        completions: "asyncio.Queue[int]" = asyncio.Queue()
        release_stamps: deque = deque()
        latencies: List[float] = []
        admitted = [0] * waiters
        admission_order: List[int] = []
        slice_ends: List[float] = []
        slice_marks: List[int] = []
        problems: List[str] = []
        hook = self.request_hook
        clock = time.perf_counter
        held = scenario.held

        def make_waiter(index: int):
            async def waiter() -> None:
                if hook is not None:
                    hook(index)
                await run_action(monitor, acquire)
                resumed = clock()
                if release_stamps:
                    # The oldest unconsumed release freed the slot that
                    # admitted us; the first `window` admissions ride the
                    # initial free slots and record no sample.
                    latencies.append(resumed - release_stamps.popleft())
                admitted[index] += 1
                admission_order.append(index)
                if len(admission_order) % DRAIN_SLICE == 0:
                    slice_ends.append(resumed)
                    slice_marks.append(len(latencies))
                if held(monitor) > DRAIN_WINDOW:
                    problems.append(f"{held(monitor)} slots held > window")
                completions.put_nowait(index)

            return waiter

        async def signaller() -> None:
            for _ in range(waiters):
                await completions.get()
                await run_action(monitor, release)
                release_stamps.append(clock())

        targets = [make_waiter(index) for index in range(waiters)]
        targets.append(signaller)
        names = [f"waiter-{index}" for index in range(waiters)] + ["signaller"]

        failed = 0
        started = clock()
        try:
            backend.run(targets, names)
        except Exception:
            traceback.print_exc()
            failed = waiters
        ended = clock()
        seconds = ended - started
        inner = (waiters - 1) // DRAIN_SLICE
        bounds = [started] + slice_ends[:inner] + [ended]
        marks = [0] + slice_marks[:inner] + [len(latencies)]

        if not failed:
            failed = sum(1 for count in admitted if count != 1)
            if self.ordered:
                failed += sum(
                    1 for k, index in enumerate(admission_order) if index != k
                )
            for name, expected in scenario.final_state(DRAIN_WINDOW, waiters).items():
                if getattr(monitor, name) != expected:
                    problems.append(
                        f"{name} == {getattr(monitor, name)!r}, expected {expected!r}"
                    )
            if problems:
                failed = max(failed, 1)
        for message in problems[:5]:
            print(f"[{scenario.name}] check failed: {message}", flush=True)
        return Round(
            seconds=seconds,
            ops=2 * waiters,
            attempted=waiters,
            failed=min(failed, waiters),
            latencies=latencies,
            schedules=1,
            monitor=dict(monitor.stats.snapshot()),
            backend=dict(backend.metrics.snapshot()),
            slices=[end - start for start, end in zip(bounds, bounds[1:])],
            slice_latencies=[array("d", latencies[a:b]) for a, b in zip(marks, marks[1:])],
        )


# ---------------------------------------------------------------------------
# explore_verdict: exploration tasks run to a verdict
# ---------------------------------------------------------------------------

LOSSY = "lossy_relay_bench"


class LossyRelayPolicy(RelayTaggedPolicy):
    """Tag-directed relay that drops the first signalling opportunity.

    A deliberately defective policy: the explorer must classify the
    resulting stranded waiter as ``missed_signal``.  An explorer that gets
    faster by missing bugs fails the benchmark on this task.
    """

    name = LOSSY
    description = "relay that drops the first signalling opportunity (defect)"

    def __init__(self) -> None:
        super().__init__()
        self._dropped = False

    def on_monitor_exit(self) -> None:
        if not self._dropped and self.condition_manager.find_missed_waiter() is not None:
            self._dropped = True
            return
        super().on_monitor_exit()


#: Fuzz family of the seed-dependent slot.  Its trees stay small (2-24
#: DPOR schedules at 2x2), so a held-out seed changes the inputs without
#: making the metrics a function of the seed.  The pipeline family ranges
#: from 2 to ~1000 schedules by seed (milliseconds to seconds); the pool
#: family adds 4-600 cheap monitor entries, a tenth of the round's.
FUZZ_FAMILY = "barrier"


@dataclass(frozen=True)
class VerdictTask:
    label: str
    task: ExploreTask
    explorer: str  # "dpor" | "dfs"
    #: None: must exhaust with zero failures; otherwise the failure kind
    #: the explorer must report.
    expect: Optional[str] = None


class ExploreVerdictWorkload:
    """A fixed list of exploration tasks, each run serially to a verdict."""

    def __init__(self, seed: int) -> None:
        try:
            register_policy(LossyRelayPolicy)
        except ValueError:
            pass  # registered by an earlier workload object in this process
        spec = generate_scenario(seed, family=FUZZ_FAMILY)
        register_scenario(spec, replace=True)
        self.tasks = (
            VerdictTask(
                "bounded_buffer 3x3 dpor",
                ExploreTask(problem="bounded_buffer", mechanism=MECHANISM,
                            threads=3, total_ops=3),
                "dpor",
            ),
            VerdictTask(
                "h2o 3x3 dpor",
                ExploreTask(problem="h2o", mechanism=MECHANISM, threads=3, total_ops=3),
                "dpor",
            ),
            VerdictTask(
                "bounded_buffer 2x2 dfs",
                ExploreTask(problem="bounded_buffer", mechanism=MECHANISM,
                            threads=2, total_ops=2),
                "dfs",
            ),
            VerdictTask(
                f"{spec.name} 2x2 dpor",
                ExploreTask(problem=spec.name, mechanism=MECHANISM, threads=2,
                            total_ops=2, scenario=spec.to_dict()),
                "dpor",
            ),
            VerdictTask(
                "seeded lossy relay dfs",
                ExploreTask(problem="bounded_buffer", mechanism=LOSSY, threads=1,
                            total_ops=2, problem_params={"capacity": 1}),
                "dfs",
                expect="missed_signal",
            ),
        )
        self.request_hook = None
        # Cache fill: build every task's runtime and run its first schedule.
        for verdict_task in self.tasks:
            run_prefix(verdict_task.task, ())

    def run_round(self) -> Round:
        clock = time.perf_counter
        result = Round(seconds=0.0, ops=0, attempted=0, failed=0)
        last = [0.0]

        def progress(count, outcome) -> None:
            now = clock()
            result.latencies.append(now - last[0])
            last[0] = now
            result.ops += outcome.monitor_stats.get("entries", 0)
            result.steps += outcome.steps
            _accumulate(result.monitor, outcome.monitor_stats)
            _accumulate(result.backend, outcome.backend_metrics)

        started = clock()
        for index, verdict_task in enumerate(self.tasks):
            if self.request_hook is not None:
                self.request_hook(index)
            explorer = explore_dpor if verdict_task.explorer == "dpor" else explore_dfs
            result.attempted += 1
            last[0] = clock()
            try:
                report = explorer(verdict_task.task, progress=progress)
            except Exception:
                traceback.print_exc()
                result.failed += 1
                continue
            result.schedules += report.schedules_visited
            _accumulate(result.explore_stats, report.stats)
            _accumulate(result.explore_timings, report.timings)
            verdict = self._check(verdict_task, report)
            if verdict is not None:
                print(f"[explore_verdict] {verdict_task.label}: {verdict}", flush=True)
                result.failed += 1
        result.seconds = clock() - started
        return result

    def close(self) -> None:
        # Every task's runtime recycles one SimulationBackend across its
        # runs; retire their carrier threads instead of leaving them idle.
        clear_runtime_cache()

    @staticmethod
    def _check(verdict_task: VerdictTask, report) -> Optional[str]:
        if not report.complete:
            return "exploration did not exhaust its tree"
        if verdict_task.expect is None:
            if report.failures_total:
                return f"expected no failures, got {report.failure_kinds()}"
            return None
        if verdict_task.expect not in report.failure_kinds():
            return (
                f"expected a {verdict_task.expect} failure, "
                f"got {report.failure_kinds() or 'none'}"
            )
        return None


WORKLOADS = {
    "pool_drain": lambda seed: DrainWorkload(POOL, ordered=False, seed=seed),
    "ticket_drain": lambda seed: DrainWorkload(TICKET, ordered=True, seed=seed),
    "explore_verdict": ExploreVerdictWorkload,
}
