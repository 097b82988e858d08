"""The picklable unit of experiment work: run cells.

``ExperimentRunner.run`` used to be one nested loop that built backends,
ran workloads and aggregated repetitions in place.  Sharding a sweep over
worker processes requires the opposite decomposition — three pure stages:

1. :func:`enumerate_cells` expands a :class:`~repro.harness.runner.RunConfig`
   into a flat, deterministic tuple of :class:`RunCell` values (one per
   repetition of one ``(mechanism, x value)`` pair);
2. an :class:`~repro.harness.execution.base.Executor` maps every cell
   through :func:`execute_cell` (a top-level, picklable function, so a
   ``multiprocessing`` pool can ship cells to workers);
3. :func:`merge_cell_results` folds the per-cell :class:`RunResult` values
   back into an :class:`~repro.harness.results.ExperimentSeries`, grouping
   and aggregating in config order so the merged series is independent of
   the order in which cells actually finished.

Every cell carries its own seed, derived by :func:`cell_seed` from the
cell's *coordinates* rather than from its position in the sweep, so a
cell's RNG stream does not depend on sweep order or executor scheduling.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.harness.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.harness.results import ExperimentSeries, RunResult, aggregate_runs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner imports us)
    from repro.harness.runner import RunConfig

__all__ = [
    "FrozenMapping",
    "RunCell",
    "cell_seed",
    "enumerate_cells",
    "execute_cell",
    "merge_cell_results",
]


class FrozenMapping(Mapping):
    """An immutable, hashable, picklable string-keyed mapping.

    ``RunConfig.problem_params`` used to be a plain ``dict`` inside a frozen
    dataclass: ``dataclasses.replace()`` (and therefore ``scaled()``) aliased
    the same dict across copies, so mutating one config's params silently
    mutated them all.  Normalizing to this type makes configs genuinely
    immutable and usable as shard/cache keys.
    """

    __slots__ = ("_data", "_items")

    def __init__(self, mapping: Mapping = ()) -> None:
        data = dict(mapping)
        self._data: Dict[str, object] = data
        self._items: Tuple[Tuple[str, object], ...] = tuple(sorted(data.items()))

    def __getitem__(self, key: str) -> object:
        return self._data[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __hash__(self) -> int:
        return hash(self._items)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Mapping):
            return dict(self._data) == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"FrozenMapping({self._data!r})"

    def __reduce__(self):
        return (FrozenMapping, (self._data,))


def cell_seed(base_seed: int, problem: str, mechanism: str, x_value: int,
              repetition: int) -> int:
    """Stable per-cell seed derived from the cell's coordinates.

    The previous scheme (``config.seed + repetition``) made every
    ``(mechanism, x value)`` pair share the same repetition seeds, and any
    future scheme based on sweep position would couple a cell's RNG stream
    to enumeration order.  Hashing the coordinates instead gives every cell
    an independent, order- and scheduler-invariant stream (the hash is
    ``sha256``, not Python's salted ``hash()``, so it is stable across
    processes and interpreter runs).
    """
    payload = f"{base_seed}|{problem}|{mechanism}|{x_value}|{repetition}"
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class RunCell:
    """One repetition of one ``(mechanism, x value)`` sweep configuration.

    Cells are self-contained and picklable: a worker process needs nothing
    beyond the cell (problems are resolved by name, backends are built
    fresh from the cell's seed), so any executor can run any cell.
    """

    problem: str
    mechanism: str
    #: The figure's x-axis value (number of threads/consumers/philosophers...).
    x_value: int
    repetition: int
    seed: int
    backend: str
    total_ops: int
    profile: bool
    validate: bool
    problem_params: FrozenMapping
    #: JSON spec of a runtime-registered scenario problem (see
    #: ``RunConfig.scenario_json``); lets worker processes resolve the
    #: problem name without inheriting the parent's registry.
    scenario_json: Optional[str] = None
    #: Wall-clock safety net for this cell's run, in seconds (simulation
    #: backend only; ``None`` keeps the kernel default).  When it fires the
    #: kernel raises a hang verdict with a parked-thread autopsy instead of
    #: blocking the sweep forever.
    run_timeout: Optional[float] = None

    def describe(self) -> str:
        """One-line label used by progress reporting."""
        return (
            f"{self.problem}: mechanism={self.mechanism} "
            f"threads={self.x_value} rep={self.repetition + 1}"
        )


def enumerate_cells(config: "RunConfig") -> Tuple[RunCell, ...]:
    """Expand *config* into its flat cell list, in deterministic sweep order.

    The order is mechanism-major (the order mechanisms appear in the
    config), then x value, then repetition — the same order the legacy
    serial runner executed, so progress output stays familiar.
    """
    params = FrozenMapping(config.problem_params)
    cells: List[RunCell] = []
    for mechanism in config.mechanisms:
        for x_value in config.thread_counts:
            for repetition in range(config.repetitions):
                cells.append(
                    RunCell(
                        problem=config.problem,
                        mechanism=mechanism,
                        x_value=x_value,
                        repetition=repetition,
                        seed=cell_seed(
                            config.seed, config.problem, mechanism, x_value, repetition
                        ),
                        backend=config.backend,
                        total_ops=config.total_ops,
                        profile=config.profile,
                        validate=config.validate,
                        problem_params=params,
                        scenario_json=config.scenario_json,
                        run_timeout=config.run_timeout,
                    )
                )
    return tuple(cells)


def execute_cell(cell: RunCell) -> RunResult:
    """Run one cell and return its measurements.

    This is the function worker processes execute; it is deliberately a
    top-level function of a plain module so it pickles by reference.
    """
    from repro.harness.saturation import make_backend, run_workload
    from repro.problems import get_problem

    if cell.scenario_json is not None:
        # Runtime-registered scenario problem: make sure this process's
        # registry can resolve it (a spawn-started worker never saw the
        # parent's registration).  The common already-registered path is a
        # serialized-form comparison, not a re-parse.
        from repro.scenarios import ScenarioSpec, register_scenario, scenario_for

        current = scenario_for(cell.problem)
        if current is None or current.to_json() != cell.scenario_json:
            register_scenario(
                ScenarioSpec.from_json(cell.scenario_json), replace=True
            )
    problem = get_problem(cell.problem)
    backend = make_backend(cell.backend, seed=cell.seed, run_timeout=cell.run_timeout)
    return run_workload(
        problem,
        cell.mechanism,
        backend,
        threads=cell.x_value,
        total_ops=cell.total_ops,
        seed=cell.seed,
        profile=cell.profile,
        validate=cell.validate,
        **dict(cell.problem_params),
    )


def merge_cell_results(
    config: "RunConfig",
    cells: Sequence[RunCell],
    results: Sequence[RunResult],
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> ExperimentSeries:
    """Fold per-cell results back into an :class:`ExperimentSeries`.

    *results* must align index-for-index with *cells* (every executor
    returns results in cell order).  Grouping, repetition ordering and the
    drop-best/drop-worst protocol all happen here, in config order, so the
    merged series is identical no matter which executor produced the
    results or how its workers were scheduled.
    """
    if len(cells) != len(results):
        raise ValueError(
            f"got {len(results)} results for {len(cells)} cells; every cell "
            "must produce exactly one result"
        )
    grouped: Dict[Tuple[str, int], List[Tuple[int, RunResult]]] = {}
    for cell, result in zip(cells, results):
        grouped.setdefault((cell.mechanism, cell.x_value), []).append(
            (cell.repetition, result)
        )
    series = ExperimentSeries(
        name=config.problem, x_label=config.x_label, backend=config.backend
    )
    for mechanism in config.mechanisms:
        for x_value in config.thread_counts:
            pairs = grouped.get((mechanism, x_value))
            if pairs is None:
                raise ValueError(
                    f"no cells for mechanism={mechanism!r} x={x_value}; "
                    "cells do not cover the config's sweep"
                )
            runs = [result for _, result in sorted(pairs, key=lambda pair: pair[0])]
            series.add(
                aggregate_runs(
                    runs,
                    drop_extremes=config.drop_extremes,
                    cost_model=cost_model,
                    rank_metric=config.effective_rank_metric,
                )
            )
    return series
