"""Chaos sweeps: fault plans x problems x mechanisms under a recovery oracle.

A chaos sweep runs seeded-random schedules of each configuration with a
:class:`~repro.faults.FaultPlan` attached and holds every run to the
robustness contract of the fault-injection subsystem:

    every injected fault is either *recovered* (the run completes ``ok``,
    with the degradation counters showing how) or *classified* (a bounded
    verdict the plan declares acceptable — ``timeout``, ``abandonment``,
    ``missed_signal``, ...).  A silent hang is never acceptable.

Acceptability comes from the plan itself
(:attr:`~repro.faults.FaultPlan.acceptable_kinds`, the union over its fault
types): a run whose classification falls outside that set is a chaos
*failure*, shrunk with the standard greedy minimiser and written to a repro
file that replays bit-identically — the fault plan is embedded in the
task, so the replay re-injects the same faults at the same steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.explore.engine import (
    DEFAULT_MAX_STEPS,
    ExplorationFailure,
    ExploreTask,
    ScheduleOutcome,
    run_schedule,
)
from repro.explore.repro_files import repro_payload, write_repro
from repro.explore.shrink import shrink_failure
from repro.faults import FaultPlan, available_fault_plans, create_fault_plan
from repro.runtime.simulation import RandomScheduler

__all__ = [
    "DEFAULT_SCHEDULES_PER_CONFIG",
    "ChaosFailure",
    "ChaosReport",
    "chaos_sweep",
    "kind_is_acceptable",
]

DEFAULT_SCHEDULES_PER_CONFIG = 10

#: Degradation counters that constitute evidence of *recovery* (as opposed
#: to the fault simply not firing) when a faulted run still completes "ok".
RECOVERY_COUNTERS = (
    "self_heal_recoveries",
    "predicate_quarantines",
    "incremental_demotions",
    "wait_timeouts",
)


def kind_is_acceptable(kind: str, acceptable: FrozenSet[str]) -> bool:
    """Does classification *kind* satisfy the plan's acceptable set?

    A set entry either names a kind exactly or names a ``:``-prefixed
    family (``"error"`` covers ``"error:ValueError"``, ``"oracle"`` covers
    ``"oracle:fifo"``).  ``"hang"`` never appears in a plan's set, so a
    hang always fails the sweep.
    """
    return kind in acceptable or kind.split(":", 1)[0] in acceptable


@dataclass(frozen=True)
class ChaosFailure:
    """One run that violated the recovery-or-classified contract."""

    plan: str
    task: ExploreTask
    kind: str
    message: str
    acceptable: FrozenSet[str]
    prefix: Tuple[int, ...]
    digest: str
    repro_path: Optional[Path] = None

    def describe(self) -> str:
        return (
            f"{self.task.problem} [{self.task.mechanism}] seed "
            f"{self.task.seed} under plan {self.plan!r}: {self.kind} "
            f"(acceptable: {', '.join(sorted(self.acceptable))})"
        )


@dataclass
class ChaosReport:
    """Aggregate result of one chaos sweep."""

    configs: int = 0
    runs: int = 0
    #: Runs in which at least one fault actually fired.
    runs_faulted: int = 0
    #: Faulted runs that still completed "ok" (absorbed or recovered).
    runs_recovered: int = 0
    #: Faulted runs that ended with an acceptable classified verdict.
    runs_classified: int = 0
    #: Aggregate degradation counters across all runs (see RECOVERY_COUNTERS,
    #: plus "faults_injected").
    recovery_counts: Dict[str, int] = field(default_factory=dict)
    #: kind histogram per plan name.
    kind_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    failures: List[ChaosFailure] = field(default_factory=list)
    failures_total: int = 0

    @property
    def ok(self) -> bool:
        return self.failures_total == 0

    def summary(self) -> str:
        lines = [
            f"chaos sweep: {self.runs} runs over {self.configs} "
            f"configurations — {self.runs_faulted} faulted "
            f"({self.runs_recovered} recovered, {self.runs_classified} "
            f"classified), {self.failures_total} contract violations"
        ]
        counters = ", ".join(
            f"{name}={count}"
            for name, count in sorted(self.recovery_counts.items())
            if count
        )
        if counters:
            lines.append(f"  degradation: {counters}")
        for plan, kinds in sorted(self.kind_counts.items()):
            spread = ", ".join(
                f"{kind}: {count}" for kind, count in sorted(kinds.items())
            )
            lines.append(f"  {plan}: {spread}")
        for failure in self.failures:
            lines.append(f"  FAIL {failure.describe()}")
        return "\n".join(lines)


#: Cap on failures retained (and shrunk/written) per sweep; every violation
#: is still counted in ``failures_total``.
DEFAULT_FAILURE_LIMIT = 25

PlanInput = Union[str, dict, FaultPlan]


def chaos_sweep(
    problems: Sequence[str],
    mechanisms: Sequence[str],
    plans: Optional[Sequence[PlanInput]] = None,
    schedules_per_config: int = DEFAULT_SCHEDULES_PER_CONFIG,
    base_seed: int = 0,
    threads: int = 3,
    total_ops: int = 6,
    self_heal: bool = True,
    wait_timeout: Optional[float] = None,
    run_timeout: Optional[float] = None,
    max_steps: Optional[int] = DEFAULT_MAX_STEPS,
    problem_params: Optional[dict] = None,
    repro_dir: Optional[Union[str, Path]] = None,
    shrink: bool = True,
    failure_limit: int = DEFAULT_FAILURE_LIMIT,
    progress: Optional[Callable[[ExploreTask, str, ScheduleOutcome], None]] = None,
) -> ChaosReport:
    """Sweep fault plans across problems x mechanisms x seeds.

    Each configuration (plan, problem, mechanism) runs
    *schedules_per_config* seeded-random schedules.  A run whose
    classification is outside the plan's acceptable set is a contract
    violation: it is shrunk (when *shrink*) and written as a replayable
    repro file under *repro_dir* (when given) with the fault plan embedded.

    *plans* accepts registered plan names, plan dicts, or built plans;
    ``None`` sweeps every registered plan.
    """
    if plans is None:
        plans = available_fault_plans()
    resolved = [create_fault_plan(plan) for plan in plans]
    report = ChaosReport()
    for plan in resolved:
        acceptable = plan.acceptable_kinds
        kinds = report.kind_counts.setdefault(plan.name, {})
        for problem in problems:
            for mechanism in mechanisms:
                report.configs += 1
                for offset in range(schedules_per_config):
                    seed = base_seed + offset
                    task = ExploreTask(
                        problem=problem,
                        mechanism=mechanism,
                        threads=threads,
                        total_ops=total_ops,
                        seed=seed,
                        max_steps=max_steps,
                        problem_params=problem_params or {},
                        fault_plan=plan.to_dict(),
                        self_heal=self_heal,
                        run_timeout=run_timeout,
                        wait_timeout=wait_timeout,
                    )
                    outcome = run_schedule(task, RandomScheduler(seed=seed))
                    report.runs += 1
                    kinds[outcome.kind] = kinds.get(outcome.kind, 0) + 1
                    stats = outcome.monitor_stats
                    for name in RECOVERY_COUNTERS + ("faults_injected",):
                        count = int(stats.get(name, 0))
                        if count:
                            report.recovery_counts[name] = (
                                report.recovery_counts.get(name, 0) + count
                            )
                    if outcome.fault_events:
                        report.runs_faulted += 1
                        if outcome.ok:
                            report.runs_recovered += 1
                        elif kind_is_acceptable(outcome.kind, acceptable):
                            report.runs_classified += 1
                    if progress is not None:
                        progress(task, plan.name, outcome)
                    if kind_is_acceptable(outcome.kind, acceptable):
                        continue
                    report.failures_total += 1
                    if len(report.failures) >= failure_limit:
                        continue
                    report.failures.append(
                        _collect_failure(
                            task, plan, acceptable, outcome, repro_dir, shrink
                        )
                    )
    return report


def _collect_failure(
    task: ExploreTask,
    plan: FaultPlan,
    acceptable: FrozenSet[str],
    outcome: ScheduleOutcome,
    repro_dir: Optional[Union[str, Path]],
    shrink: bool,
) -> ChaosFailure:
    """Shrink one contract violation and persist its repro file."""
    prefix = tuple(outcome.trace.choices())
    digest = outcome.digest
    message = outcome.message
    shrunk_from: Optional[int] = None
    if shrink:
        try:
            result = shrink_failure(task, prefix, outcome.kind)
        except ValueError:
            # The prefix re-run no longer fails (the full trace still
            # replays); keep the raw schedule in that case.
            result = None
        if result is not None:
            shrunk_from = len(prefix)
            prefix = result.prefix
            digest = result.outcome.digest
            message = result.outcome.message
            trace = result.outcome.trace
        else:
            trace = outcome.trace
    else:
        trace = outcome.trace
    repro_path: Optional[Path] = None
    if repro_dir is not None:
        failure = ExplorationFailure(
            kind=outcome.kind,
            message=message,
            prefix=prefix,
            trace=trace,
            digest=digest,
            seed=task.seed,
        )
        name = (
            f"chaos_{task.problem}_{task.mechanism}_{plan.name}_"
            f"{outcome.kind.replace(':', '-')}_{digest[:12]}.json"
        )
        repro_path = write_repro(
            Path(repro_dir) / name,
            repro_payload(task, failure, "chaos", shrunk_from),
        )
    return ChaosFailure(
        plan=plan.name,
        task=task,
        kind=outcome.kind,
        message=message,
        acceptable=acceptable,
        prefix=prefix,
        digest=digest,
        repro_path=repro_path,
    )
