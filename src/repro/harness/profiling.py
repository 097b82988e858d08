"""Table 1 support: a CPU-usage-style breakdown per signalling mechanism.

The paper profiles the round-robin access pattern with YourKit and reports,
per mechanism, how much CPU time is spent in ``await``, lock handling,
``relaySignal`` and tag management.  Here the same breakdown is produced from
the monitor's own instrumentation:

* on the **threading** backend with ``profile=True`` the buckets are measured
  wall-clock times;
* on the **simulation** backend the buckets are modelled from the exact event
  counts using the cost model, which preserves the paper's headline
  observation (tagging removes ~95% of the relaySignal cost for a small tag
  management overhead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.harness.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.harness.results import RunResult

__all__ = [
    "UsageBreakdown",
    "EvalBreakdown",
    "cpu_usage_breakdown",
    "eval_breakdown",
    "eval_breakdown_rows",
    "modelled_breakdown_from_counters",
    "series_usage_breakdowns",
    "breakdown_rows",
]

#: Column order of Table 1.
BUCKETS = ("await", "lock", "relay_signal", "tag_manager", "others")


@dataclass(frozen=True)
class UsageBreakdown:
    """Per-mechanism time split, in seconds (measured or modelled)."""

    mechanism: str
    await_time: float
    lock_time: float
    relay_signal_time: float
    tag_manager_time: float
    others_time: float

    @property
    def total(self) -> float:
        return (
            self.await_time
            + self.lock_time
            + self.relay_signal_time
            + self.tag_manager_time
            + self.others_time
        )

    def share(self, bucket: str) -> float:
        """Fraction of the total spent in *bucket* (0 when the total is 0)."""
        value = getattr(self, f"{bucket}_time")
        return value / self.total if self.total else 0.0


def _measured_breakdown(result: RunResult) -> UsageBreakdown:
    stats = result.monitor_stats
    await_time = stats.get("await_time", 0.0)
    lock_time = stats.get("lock_time", 0.0)
    relay = stats.get("relay_signal_time", 0.0)
    tag = stats.get("tag_manager_time", 0.0)
    others = max(result.wall_time - (await_time + lock_time + relay + tag), 0.0)
    return UsageBreakdown(result.mechanism, await_time, lock_time, relay, tag, others)


def modelled_breakdown_from_counters(
    mechanism: str,
    monitor_stats: Mapping[str, float],
    backend_metrics: Mapping[str, float],
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> UsageBreakdown:
    """Build a Table-1-style breakdown from raw counters using the cost model."""
    stats = monitor_stats
    metrics = backend_metrics
    await_time = (
        stats.get("waits", 0) * cost_model.wait_us
        + metrics.get("context_switches", 0) * cost_model.context_switch_us
    ) / 1e6
    lock_time = stats.get("entries", 0) * cost_model.monitor_entry_us / 1e6
    relay = (
        stats.get("predicate_evaluations", 0) * cost_model.predicate_evaluation_us
        + stats.get("relay_signal_calls", 0) * cost_model.signal_us
        + stats.get("tag_hash_lookups", 0) * cost_model.predicate_evaluation_us
        + stats.get("tag_heap_checks", 0) * cost_model.predicate_evaluation_us
        + stats.get("exhaustive_checks", 0) * cost_model.predicate_evaluation_us
    ) / 1e6
    tag = (
        (stats.get("tag_insertions", 0) + stats.get("tag_removals", 0))
        * cost_model.predicate_evaluation_us
    ) / 1e6
    others = (
        stats.get("signals_sent", 0) + stats.get("signal_alls_sent", 0)
    ) * cost_model.signal_us / 1e6
    return UsageBreakdown(mechanism, await_time, lock_time, relay, tag, others)


def _modelled_breakdown(result: RunResult, cost_model: CostModel) -> UsageBreakdown:
    return modelled_breakdown_from_counters(
        result.mechanism, result.monitor_stats, result.backend_metrics, cost_model
    )


def cpu_usage_breakdown(
    result: RunResult, cost_model: CostModel = DEFAULT_COST_MODEL
) -> UsageBreakdown:
    """Build the Table-1-style breakdown for one run.

    Measured time buckets are used when they were collected (threading
    backend with profiling on); otherwise the breakdown is modelled from the
    event counts.
    """
    stats = result.monitor_stats
    measured_total = (
        stats.get("await_time", 0.0)
        + stats.get("lock_time", 0.0)
        + stats.get("relay_signal_time", 0.0)
        + stats.get("tag_manager_time", 0.0)
    )
    if measured_total > 0:
        return _measured_breakdown(result)
    return _modelled_breakdown(result, cost_model)


def series_usage_breakdowns(
    series,
    threads: Optional[int] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> List[UsageBreakdown]:
    """One modelled :class:`UsageBreakdown` per mechanism of a series.

    Works from the *aggregated* points (whose ``extra`` carries the mean of
    every raw monitor counter and, prefixed with ``backend_``, every
    backend metric), not from raw :class:`RunResult` values — so breakdowns
    can be built after the executor merge, no matter which process produced
    the underlying runs.  ``threads`` selects the x value to profile
    (default: the largest in the series, matching the paper's Table 1).
    """
    if threads is None:
        xs = series.x_values()
        if not xs:
            return []
        threads = xs[-1]
    breakdowns: List[UsageBreakdown] = []
    for mechanism in series.mechanisms():
        point = series.point_for(mechanism, threads)
        if point is None:
            continue
        monitor_stats = {
            key: value
            for key, value in point.extra.items()
            if not key.startswith("backend_")
        }
        backend_metrics = {
            key[len("backend_"):]: value
            for key, value in point.extra.items()
            if key.startswith("backend_")
        }
        breakdowns.append(
            modelled_breakdown_from_counters(
                mechanism, monitor_stats, backend_metrics, cost_model
            )
        )
    return breakdowns


@dataclass(frozen=True)
class EvalBreakdown:
    """Compiled-vs-interpreted attribution of one run's predicate work.

    Counters come straight from ``MonitorStats``: how many evaluations the
    compiled closures and the interpreter fallback each served, the
    wall-clock spent inside them (populated when profiling was on), and how
    many shared reads the per-pass EvalContext caches absorbed.  This is
    what lets a report attribute compilation's win instead of just
    observing a faster total.
    """

    mechanism: str
    compiled_evaluations: int
    interpreted_evaluations: int
    compiled_eval_time: float
    interpreted_eval_time: float
    shared_read_cache_hits: int
    shared_expr_cache_hits: int
    #: Entries relay passes skipped via dirty-set search (0 when the
    #: incremental path is off — exhaustive search never skips).
    relay_entries_skipped: int = 0
    #: Evaluations served by fused batch closures (a subset of
    #: ``compiled_evaluations``).
    batched_evaluations: int = 0

    @property
    def total_evaluations(self) -> int:
        return self.compiled_evaluations + self.interpreted_evaluations

    @property
    def compiled_share(self) -> float:
        """Fraction of evaluations served by compiled closures."""
        total = self.total_evaluations
        return self.compiled_evaluations / total if total else 0.0


def eval_breakdown(result: RunResult) -> EvalBreakdown:
    """Extract the compiled/interpreted attribution from one run's stats."""
    stats = result.monitor_stats
    return EvalBreakdown(
        mechanism=result.mechanism,
        compiled_evaluations=int(stats.get("compiled_evaluations", 0)),
        interpreted_evaluations=int(stats.get("interpreted_evaluations", 0)),
        compiled_eval_time=stats.get("compiled_eval_time", 0.0),
        interpreted_eval_time=stats.get("interpreted_eval_time", 0.0),
        shared_read_cache_hits=int(stats.get("shared_read_cache_hits", 0)),
        shared_expr_cache_hits=int(stats.get("shared_expr_cache_hits", 0)),
        relay_entries_skipped=int(stats.get("relay_entries_skipped", 0)),
        batched_evaluations=int(stats.get("batched_evaluations", 0)),
    )


def eval_breakdown_rows(
    breakdowns: Sequence[EvalBreakdown],
) -> List[List[object]]:
    """Table rows: compiled/interpreted counts, timings and cache hits."""
    rows: List[List[object]] = []
    for breakdown in breakdowns:
        rows.append(
            [
                breakdown.mechanism,
                breakdown.compiled_evaluations,
                breakdown.interpreted_evaluations,
                f"{100.0 * breakdown.compiled_share:.1f}%",
                breakdown.compiled_eval_time,
                breakdown.interpreted_eval_time,
                breakdown.shared_read_cache_hits + breakdown.shared_expr_cache_hits,
                breakdown.relay_entries_skipped,
                breakdown.batched_evaluations,
            ]
        )
    return rows


def breakdown_rows(
    breakdowns: Sequence[UsageBreakdown],
) -> List[List[object]]:
    """Rows matching Table 1: time and percentage per bucket, plus the total."""
    rows: List[List[object]] = []
    for breakdown in breakdowns:
        row: List[object] = [breakdown.mechanism]
        for bucket in BUCKETS:
            value = getattr(breakdown, f"{bucket}_time")
            row.append(value)
            row.append(f"{100.0 * breakdown.share(bucket):.1f}%")
        row.append(breakdown.total)
        rows.append(row)
    return rows
