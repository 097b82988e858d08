"""Experiment registry: one entry per figure/table of the paper's evaluation.

Each experiment knows how to run itself at two scales:

* ``full`` — the paper's parameters (thread counts 2..256, several
  repetitions).  Intended for an unattended run on a real machine.
* ``quick`` — a scaled-down sweep that finishes in seconds and is used by the
  benchmark suite and the integration tests; the *shape* checks still hold at
  this scale.

Every experiment also carries ``shape_checks``: predicates over the measured
series that encode the qualitative claims the corresponding figure makes
(who wins, by roughly what factor, whether curves stay flat).  EXPERIMENTS.md
records the outcome of these checks next to the paper's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness.results import ExperimentSeries
from repro.harness.runner import ExperimentRunner, RunConfig

__all__ = [
    "ShapeCheck",
    "Experiment",
    "EXPERIMENTS",
    "register",
    "get_experiment",
    "paper_sweep",
]

#: The paper's x-axis for most figures.
PAPER_THREAD_COUNTS = (2, 4, 8, 16, 32, 64, 128, 256)
#: Scaled-down x-axis used by the quick configurations.
QUICK_THREAD_COUNTS = (2, 8, 32)


def paper_sweep(
    problem: str,
    mechanisms: Sequence[str],
    total_ops: int,
    quick_total_ops: int,
    repetitions: int = 5,
    quick_repetitions: int = 1,
    thread_counts: Sequence[int] = PAPER_THREAD_COUNTS,
    quick_thread_counts: Sequence[int] = QUICK_THREAD_COUNTS,
    x_label: str = "# threads",
    **common: object,
) -> Tuple[RunConfig, RunConfig]:
    """Build a figure's ``(full, quick)`` config pair from one description.

    Every figure/table module used to spell out its full config and derive
    the quick one with ``scaled()``; this helper centralizes that pattern,
    so sweep-wide knobs (backend, executor, jobs, problem params — passed
    through ``**common``) apply to both scales consistently.
    """
    full = RunConfig(
        problem=problem,
        thread_counts=tuple(thread_counts),
        mechanisms=tuple(mechanisms),
        total_ops=total_ops,
        repetitions=repetitions,
        x_label=x_label,
        **common,
    )
    quick = full.scaled(
        total_ops=quick_total_ops,
        repetitions=quick_repetitions,
        thread_counts=tuple(quick_thread_counts),
    )
    return full, quick


@dataclass(frozen=True)
class ShapeCheck:
    """One qualitative claim about a figure, checkable from the series."""

    description: str
    check: Callable[[ExperimentSeries], bool]

    def evaluate(self, series: ExperimentSeries) -> bool:
        return bool(self.check(series))


@dataclass
class Experiment:
    """A reproducible figure or table."""

    experiment_id: str
    title: str
    paper_reference: str
    full_config: RunConfig
    quick_config: RunConfig
    metric: str = "modelled_runtime"
    shape_checks: Tuple[ShapeCheck, ...] = ()
    #: Optional custom report builder (Table 1 uses one).
    report_builder: Optional[Callable[[ExperimentSeries], str]] = None

    def run(
        self,
        scale: str = "quick",
        runner: Optional[ExperimentRunner] = None,
        mechanisms: Optional[Sequence[str]] = None,
        executor: Optional[str] = None,
        jobs: Optional[int] = None,
        run_timeout: Optional[float] = None,
        cell_retries: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> ExperimentSeries:
        """Run the experiment at the given scale and return its series.

        *mechanisms* overrides the configuration's comparison set — any
        names the problem supports (``"explicit"`` plus every registered
        signalling policy) are accepted, so ablations over new policies
        reuse the paper's sweeps unchanged.  *executor*/*jobs* select how
        the sweep's cells are executed (any registered executor; the merged
        series is identical either way).
        *run_timeout* caps each cell's wall-clock (hang verdict instead of
        a wedged sweep) and *cell_retries* turns on per-cell retry with
        backoff.  *backend* overrides the configuration's execution backend
        (any name in :func:`repro.runtime.registry.available_backends`).
        """
        if scale not in ("quick", "full"):
            raise ValueError(f"unknown scale {scale!r}; expected 'quick' or 'full'")
        config = self.quick_config if scale == "quick" else self.full_config
        config = self.configured(
            config,
            mechanisms,
            executor,
            jobs,
            run_timeout,
            cell_retries,
            backend,
        )
        runner = runner or ExperimentRunner()
        return runner.run(config)

    @staticmethod
    def configured(
        config: RunConfig,
        mechanisms: Optional[Sequence[str]] = None,
        executor: Optional[str] = None,
        jobs: Optional[int] = None,
        run_timeout: Optional[float] = None,
        cell_retries: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> RunConfig:
        """Return *config* with mechanisms / executor / backend /
        robustness knobs overridden (``None`` keeps the current
        value)."""
        from dataclasses import replace

        if mechanisms:
            config = replace(config, mechanisms=tuple(mechanisms))
        if run_timeout is not None:
            config = replace(config, run_timeout=run_timeout)
        if cell_retries is not None:
            config = replace(config, cell_retries=cell_retries)
        if backend is not None:
            config = replace(config, backend=backend)
        return config.with_executor(executor, jobs)

    def report(self, series: ExperimentSeries) -> str:
        """Render the figure's data as text (table of the primary metric)."""
        from repro.harness.report import format_series_table

        if self.report_builder is not None:
            return self.report_builder(series)
        title = f"{self.experiment_id}: {self.title} [{self.paper_reference}]"
        return format_series_table(series, self.metric, title=title)

    def check_shapes(self, series: ExperimentSeries) -> List[Tuple[str, bool]]:
        """Evaluate every shape check against *series*."""
        return [(check.description, check.evaluate(series)) for check in self.shape_checks]


#: Global registry, populated by the fig/table modules at import time.
EXPERIMENTS: Dict[str, Experiment] = {}


def register(experiment: Experiment) -> Experiment:
    """Add *experiment* to the registry (idempotent by id)."""
    EXPERIMENTS[experiment.experiment_id] = experiment
    return experiment


def get_experiment(experiment_id: str) -> Experiment:
    """Look up an experiment, importing the standard set on first use."""
    from repro import experiments as _pkg  # noqa: F401  (ensures registration)

    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}"
        ) from None


# ---------------------------------------------------------------------------
# Helpers shared by the per-figure modules
# ---------------------------------------------------------------------------


def final_point_metric(series: ExperimentSeries, mechanism: str, metric: str) -> float:
    """Metric value of *mechanism* at the largest x value (0 if missing)."""
    xs = series.x_values()
    if not xs:
        return 0.0
    point = series.point_for(mechanism, xs[-1])
    return point.metric(metric) if point is not None else 0.0


def ratio_at_max(series: ExperimentSeries, slow: str, fast: str, metric: str) -> float:
    """Ratio slow/fast of *metric* at the largest x value (inf-safe)."""
    fast_value = final_point_metric(series, fast, metric)
    slow_value = final_point_metric(series, slow, metric)
    if fast_value <= 0:
        return float("inf") if slow_value > 0 else 1.0
    return slow_value / fast_value
