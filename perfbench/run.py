"""Benchmark of record: one workload, measured and checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pool_drain --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
workload half untraced, half traced and prints the per-layer metrics plus
the tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and the meaning of each metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Fresh-interpreter set-ups whose median is ``setup_s``.
SETUP_PROBES = 5
SETUP_PROBE_TIMEOUT = 60.0
#: Where the traced run writes its spans (inside the checkout, git-ignored).
SPAN_DIR = ROOT / ".perfbench"
#: Wakeup-latency percentiles computed for every run.  p50 is the gated
#: end-to-end metric; p90 and p99 are printed but not gated.  On a shared
#: 2-vCPU VM the drains' p90 spread 10-20% across ten runs where p50 of the
#: fastest slices spread well under 10%, and p99 follows rare host stalls.
LATENCY_FRACTIONS = (0.50, 0.90, 0.99)
#: A round reports its own percentile when at least this many of its
#: samples lie beyond it; otherwise the percentile pools the run's samples.
SAMPLES_BEYOND = 10
#: A lost wakeup on the asyncio backend parks every coroutine forever; this
#: alarm turns such a hang into a failed round, so a run always ends with a
#: result well inside three minutes.
WATCHDOG_SECONDS = 150
#: Seconds the reference drain takes on the 2-vCPU VM this benchmark was
#: built on when its host runs fast; every timing is scaled to it.
REFERENCE_SECONDS = 0.040


def _watchdog_expired(signum, frame):
    raise TimeoutError(f"round still running after {WATCHDOG_SECONDS} s (lost wakeup?)")


def percentile(samples, fraction: float) -> float:
    """Nearest-rank percentile of *samples* (0 if there are none)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def environment() -> dict:
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def run_rounds(workload, seconds: float, on_round=None) -> list:
    """Run whole rounds for about *seconds*: at least one, and no round is
    started that the previous round's duration says would overrun.  Each
    round is preceded by the reference drain (see :func:`host_scale`)."""
    from bench_workloads import reference_drain_seconds

    rounds = []
    started = time.perf_counter()
    while True:
        if on_round is not None:
            on_round(len(rounds))
        # Collect the previous round's garbage outside the timed region, so
        # every round starts from the same heap instead of paying for the
        # cycles its predecessor left behind.
        gc.collect()
        reference = reference_drain_seconds()
        gc.collect()
        result = workload.run_round()
        result.reference = reference
        summarize_latencies(result)
        rounds.append(result)
        elapsed = time.perf_counter() - started
        if elapsed + result.seconds > seconds:
            return rounds


def summed(rounds, attribute: str) -> dict:
    total: dict = {}
    for result in rounds:
        for name, value in getattr(result, attribute).items():
            total[name] = total.get(name, 0) + value
    return total


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def summarize_latencies(result) -> None:
    """Compute the round's own percentiles; keep its samples only while some
    percentile still has to pool them."""
    count = len(result.latencies)
    result.latency_count = count
    result.percentiles = {
        fraction: percentile(result.latencies, fraction)
        for fraction in LATENCY_FRACTIONS
        if count * (1 - fraction) >= SAMPLES_BEYOND
    }
    if len(result.percentiles) == len(LATENCY_FRACTIONS):
        result.latencies = []


def latency_percentiles(rounds) -> dict:
    """Fraction -> seconds: the median over rounds of each round's own
    percentile (robust to a minority of rounds in a slow host phase), or the
    percentile of the pooled samples where rounds are too small for it."""
    pooled = [sample for result in rounds for sample in result.latencies]
    return {
        fraction: (
            statistics.median(r.percentiles[fraction] for r in rounds)
            if all(fraction in r.percentiles for r in rounds)
            else percentile(pooled, fraction)
        )
        for fraction in LATENCY_FRACTIONS
    }


def host_scale(rounds) -> float:
    """``REFERENCE_SECONDS`` over the fastest reference drain of the run.

    The shared host's speed for CPU-bound Python work moves by up to 1.7x
    over seconds to minutes.  The reference drain, run before every round,
    moves with it; scaling by it turns the workloads' timings into the
    program's cost on a host of fixed speed.
    """
    return REFERENCE_SECONDS / min(sample for result in rounds for sample in result.reference)


def fastest_slices(rounds):
    """For each slice position, the index of the round whose slice ran
    fastest; None where rounds are not cut into the same slices."""
    positions = {len(result.slices) for result in rounds}
    if len(positions) != 1 or positions == {0}:
        return None
    return [
        min(range(len(rounds)), key=lambda index: rounds[index].slices[position])
        for position in range(positions.pop())
    ]


def round_seconds(rounds) -> float:
    """The run's time for one round.

    Where rounds are cut into slices (the drains), this is the sum over
    slice positions of the fastest round's time for that slice.  The host
    CPU alternates, every few seconds, between speeds up to 1.7x apart
    while a drain round takes 3-9 s, so a round's time is mostly set by how
    much of it fell in a slow phase; the fastest of each ~0.1 s slice is the
    program's cost at the fastest speed the run reached.  Otherwise it is
    the median round (the exploration rounds: the fastest of their slices
    spread far more than their median).  Either is scaled by
    :func:`host_scale`.
    """
    picks = fastest_slices(rounds)
    if picks is None:
        seconds = statistics.median(result.seconds for result in rounds)
    else:
        seconds = sum(rounds[index].slices[position] for position, index in enumerate(picks))
    return seconds * host_scale(rounds)


def wakeup_percentiles(rounds) -> dict:
    """Fraction -> seconds, scaled by :func:`host_scale`.  Drains:
    percentiles of the latency samples of the fastest slices (those
    :func:`round_seconds` sums); otherwise :func:`latency_percentiles`."""
    scale = host_scale(rounds)
    picks = fastest_slices(rounds)
    if picks is None:
        return {
            fraction: seconds * scale
            for fraction, seconds in latency_percentiles(rounds).items()
        }
    samples = [
        sample
        for position, index in enumerate(picks)
        for sample in rounds[index].slice_latencies[position]
    ]
    return {fraction: percentile(samples, fraction) * scale for fraction in LATENCY_FRACTIONS}


def per_round_rate(rounds, attribute: str) -> float:
    """Median count per round over :func:`round_seconds`."""
    return statistics.median(getattr(r, attribute) for r in rounds) / round_seconds(rounds)


def end_to_end(rounds, setup_samples) -> dict:
    latency = wakeup_percentiles(rounds)
    ops = sum(result.ops for result in rounds)
    backend = summed(rounds, "backend")
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (per_round_rate(rounds, "ops"), "1/s"),
        "wakeup_p50_ms": (latency[0.50] * 1e3, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
        "switches_per_op": (ratio(backend.get("context_switches", 0), ops), "1/op"),
        "schedules_per_s": (per_round_rate(rounds, "schedules"), "1/s"),
        "verdict_s": (round_seconds(rounds), "s"),
    }


def per_layer(workload_name, rounds, tracer, setup_totals, untraced) -> dict:
    """Per-layer metrics of the traced rounds (see README.md for each)."""
    count = len(rounds)
    ops = sum(result.ops for result in rounds)
    schedules = sum(result.schedules for result in rounds)
    steps = sum(result.steps for result in rounds)
    monitor = summed(rounds, "monitor")
    backend = summed(rounds, "backend")
    stats = summed(rounds, "explore_stats")
    timings = summed(rounds, "explore_timings")
    m = monitor.get
    relay = (
        "condition_manager.relay_signal",
        "condition_manager.signal_many",
        "condition_manager.relay_signal_fifo",
    )
    compile_names = ("predicates.compile_predicate", "predicates.CompiledPredicate.globalized")
    on_asyncio = workload_name in ("pool_drain", "ticket_drain")
    on_simulation = not on_asyncio
    stage_total = sum(timings.get(stage, 0.0) for stage in ("build", "run", "classify"))
    wakeups = m("wakeups", 0)
    metrics = {
        "scenarios.compile_s": (
            setup_totals.get("scenarios.compile_scenario_monitor", (0, 0.0, 0.0))[1]
            + tracer.seconds("scenarios.compile_scenario_monitor"),
            "s",
        ),
        "predicates.compile_calls": (ratio(tracer.calls(*compile_names), ops), "1/op"),
        "predicates.compile_s": (tracer.seconds(*compile_names) / count, "s"),
        "predicates.evals_per_op": (ratio(m("predicate_evaluations", 0), ops), "1/op"),
        "predicates.batched_share": (
            ratio(m("batched_evaluations", 0), m("compiled_evaluations", 0)),
            "ratio",
        ),
        "condition_manager.relay_calls_per_op": (ratio(tracer.calls(*relay), ops), "1/op"),
        "condition_manager.relay_self_us": (
            ratio(tracer.self_seconds(*relay), tracer.calls(*relay)) * 1e6,
            "us",
        ),
        "condition_manager.evals_per_relay": (
            ratio(m("predicate_evaluations", 0), m("relay_signal_calls", 0)),
            "count",
        ),
        "condition_manager.useful_wakeup_ratio": (
            ratio(wakeups - m("spurious_wakeups", 0), wakeups),
            "ratio",
        ),
        "condition_manager.skip_ratio": (
            ratio(
                m("relay_entries_skipped", 0),
                m("relay_entries_skipped", 0) + m("predicate_evaluations", 0),
            ),
            "ratio",
        ),
        "condition_manager.tag_probes_per_relay": (
            ratio(
                m("tag_hash_lookups", 0) + m("tag_heap_checks", 0),
                m("relay_signal_calls", 0),
            ),
            "count",
        ),
        "condition_manager.register_us": (
            ratio(
                tracer.seconds(
                    "condition_manager.acquire_entry", "condition_manager.add_waiter"
                ),
                tracer.calls("condition_manager.acquire_entry"),
            )
            * 1e6,
            "us",
        ),
        "monitor.waits_per_op": (ratio(m("waits", 0), ops), "1/op"),
        "asyncio_backend.run_self_s": (
            tracer.self_seconds("asyncio_backend.run") / count if on_asyncio else 0.0,
            "s",
        ),
        "asyncio_backend.resumes_per_op": (
            ratio(backend.get("context_switches", 0), ops) if on_asyncio else 0.0,
            "1/op",
        ),
        "asyncio_backend.notifies_per_op": (
            ratio(backend.get("notifies", 0), ops) if on_asyncio else 0.0,
            "1/op",
        ),
        "asyncio_backend.lock_contention_ratio": (
            ratio(backend.get("lock_contentions", 0), backend.get("lock_acquisitions", 0))
            if on_asyncio
            else 0.0,
            "ratio",
        ),
        "simulation.handoff_us": (
            ratio(tracer.self_seconds("simulation.run"), backend.get("context_switches", 0))
            * 1e6
            if on_simulation
            else 0.0,
            "us",
        ),
        "simulation.recycle_ms": (
            ratio(tracer.seconds("simulation.recycle"), tracer.calls("simulation.recycle"))
            * 1e3,
            "ms",
        ),
        "simulation.notify_all_share": (
            ratio(
                backend.get("notify_alls", 0),
                backend.get("notifies", 0) + backend.get("notify_alls", 0),
            )
            if on_simulation
            else 0.0,
            "ratio",
        ),
        "simulation.lock_contention_ratio": (
            ratio(backend.get("lock_contentions", 0), backend.get("lock_acquisitions", 0))
            if on_simulation
            else 0.0,
            "ratio",
        ),
        "explore.schedules": (
            schedules / count if workload_name == "explore_verdict" else 0.0,
            "count",
        ),
        "explore.dpor_pruned": (
            sum(
                stats.get(key, 0)
                for key in ("sleep_skips", "symmetry_skips", "merged_configs", "cache_skips")
            )
            / count,
            "count",
        ),
        "explore.build_share": (ratio(timings.get("build", 0.0), stage_total), "ratio"),
        "explore.run_share": (ratio(timings.get("run", 0.0), stage_total), "ratio"),
        "explore.classify_share": (ratio(timings.get("classify", 0.0), stage_total), "ratio"),
        "explore.oracle_share": (ratio(timings.get("oracle", 0.0), stage_total), "ratio"),
        "explore.run_prefix_self_us": (
            ratio(tracer.self_seconds("explore.run_prefix"), tracer.calls("explore.run_prefix"))
            * 1e6,
            "us",
        ),
        "explore.steps_per_schedule": (
            ratio(steps, schedules) if workload_name == "explore_verdict" else 0.0,
            "count",
        ),
        "trace.untraced_ops_per_s": (per_round_rate(untraced, "ops"), "1/s"),
        "trace.traced_ops_per_s": (per_round_rate(rounds, "ops"), "1/s"),
        "trace.untraced_schedules_per_s": (per_round_rate(untraced, "schedules"), "1/s"),
        "trace.traced_schedules_per_s": (per_round_rate(rounds, "schedules"), "1/s"),
    }
    return metrics


def setup_probe(workload_name: str, seed: int) -> dict:
    """Set-up time of one fresh interpreter: imports, registries, compilation
    and cache fill, up to the first measured operation; then the fastest
    reference drain, timed right after it."""
    started = time.perf_counter()
    from bench_workloads import WORKLOADS, reference_drain_seconds

    workload = WORKLOADS[workload_name](seed)
    elapsed = time.perf_counter() - started
    workload.close()
    return {"setup_s": elapsed, "reference_s": min(reference_drain_seconds())}


def measure_setup(workload_name: str, seed: int) -> list:
    """Set-up times of fresh interpreters, each scaled to a fixed host speed
    by the reference drain timed in the same interpreter (see README.md): a
    probe lasts well under a second, so which host phase it lands in would
    otherwise decide it."""
    samples = []
    raw = []
    for _ in range(SETUP_PROBES):
        completed = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload",
                workload_name,
                "--seed",
                str(seed),
                "--setup-probe",
            ],
            capture_output=True,
            text=True,
            timeout=SETUP_PROBE_TIMEOUT,
            cwd=str(ROOT),
        )
        if completed.returncode != 0:
            sys.stderr.write(completed.stderr)
            raise RuntimeError(f"set-up probe exited with {completed.returncode}")
        probe = json.loads(completed.stdout.strip().splitlines()[-1])
        raw.append(probe["setup_s"])
        samples.append(probe["setup_s"] * REFERENCE_SECONDS / probe["reference_s"])
    print(f"setup_probes_s={[round(value, 4) for value in raw]} not scaled")
    return samples


def report(rounds, metrics) -> int:
    attempted = sum(result.attempted for result in rounds)
    failed = sum(result.failed for result in rounds)
    correct = failed == 0 and attempted > 0
    print(
        f"error_rate={ratio(failed, attempted):.6g} ({failed}/{attempted}) "
        f"round_s={[round(r.seconds, 3) for r in rounds]} "
        f"timed_round_s={round_seconds(rounds):.6g} host_scale={host_scale(rounds):.6g}"
    )
    samples = sum(result.latency_count for result in rounds)
    if samples:
        latency = wakeup_percentiles(rounds)
        print(
            f"latency_samples={samples} not gated: "
            f"wakeup_p90_ms={latency[0.90] * 1e3:.6g} "
            f"wakeup_p99_ms={latency[0.99] * 1e3:.6g}"
        )
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)), flush=True)
        return 0

    import bench_workloads

    if args.workload not in bench_workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"workloads: {sorted(bench_workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    print(json.dumps({"workload": args.workload, "seed": args.seed, **environment()}))
    signal.signal(signal.SIGALRM, _watchdog_expired)
    signal.alarm(WATCHDOG_SECONDS)

    if not args.trace:
        setup_samples = measure_setup(args.workload, args.seed)
        workload = bench_workloads.WORKLOADS[args.workload](args.seed)
        try:
            rounds = run_rounds(workload, args.seconds)
        finally:
            workload.close()
        return report(rounds, end_to_end(rounds, setup_samples))

    from bench_trace import Tracer

    tracer = Tracer()
    tracer.install(extra_modules=(bench_workloads,))
    tracer.set_request(f"{args.workload}-setup")
    workload = bench_workloads.WORKLOADS[args.workload](args.seed)
    setup_totals = dict(tracer.totals)
    tracer.uninstall()
    try:
        untraced = run_rounds(workload, args.seconds / 2)
        tracer.install(extra_modules=(bench_workloads,))
        tracer.reset_totals()
        round_index = [0]

        def on_round(index: int) -> None:
            round_index[0] = index

        workload.request_hook = lambda unit: tracer.set_request(
            f"{args.workload}-r{round_index[0]}-u{unit}"
        )
        try:
            traced = run_rounds(workload, args.seconds / 2, on_round=on_round)
        finally:
            tracer.uninstall()
            workload.request_hook = None
    finally:
        workload.close()
    tracer.write(SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    metrics = per_layer(args.workload, traced, tracer, setup_totals, untraced)
    return report(untraced + traced, metrics)


if __name__ == "__main__":
    sys.exit(main())
