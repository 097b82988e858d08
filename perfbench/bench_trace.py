"""Span tracing around the public entry points of each layer.

The traced run wraps, from outside the program, the calls into each
layer's public entry points: functions are replaced under every name they
are bound to in a loaded ``repro`` module (so ``from x import f``
re-exports are caught too), methods are replaced on their class.  Nothing
under ``src/`` changes, and :meth:`Tracer.uninstall` restores every
original, so one process can measure the same workload untraced and traced
and report the overhead.

A span records its name, start, end, parent span and request id.  The
parent is the innermost open span of the calling context (a ContextVar, so
asyncio tasks inherit it from the code that created them).  Code running on
a simulation carrier thread has no open span of its own; it is parented to
the innermost open ``SimulationBackend.run`` span, which is blocked while
the carriers run.  Only calls that never block are wrapped, so the
children of a span never overlap and a span's self time is its duration
minus the sum of its children's.

Spans are kept in memory (the first :data:`SPAN_LIMIT` of them; per-name
totals count every span) and written as JSON lines when the run ends.
"""

from __future__ import annotations

import contextvars
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import repro.core.condition_manager as condition_manager
import repro.explore.dpor as dpor
import repro.explore.engine as engine
import repro.predicates.predicate as predicate
import repro.runtime.asyncio_backend as asyncio_backend
import repro.runtime.simulation.kernel as kernel
import repro.scenarios.compile as scenario_compile

#: Raw spans kept for the output file; totals are exact beyond it.
SPAN_LIMIT = 200_000

#: (span name, owner, attribute): module-level functions (owner is the
#: defining module) and methods (owner is the class).
ENTRY_POINTS: Tuple[Tuple[str, object, str], ...] = (
    ("scenarios.compile_scenario_monitor", scenario_compile, "compile_scenario_monitor"),
    ("scenarios.ScenarioProblem.build", scenario_compile.ScenarioProblem, "build"),
    ("predicates.compile_predicate", predicate, "compile_predicate"),
    ("predicates.CompiledPredicate.globalized", predicate.CompiledPredicate, "globalized"),
    ("condition_manager.relay_signal", condition_manager.ConditionManager, "relay_signal"),
    ("condition_manager.signal_many", condition_manager.ConditionManager, "signal_many"),
    (
        "condition_manager.relay_signal_fifo",
        condition_manager.ConditionManager,
        "relay_signal_fifo",
    ),
    ("condition_manager.acquire_entry", condition_manager.ConditionManager, "acquire_entry"),
    ("condition_manager.add_waiter", condition_manager.ConditionManager, "add_waiter"),
    ("asyncio_backend.run", asyncio_backend.AsyncioBackend, "run"),
    ("simulation.run", kernel.SimulationBackend, "run"),
    ("simulation.recycle", kernel.SimulationBackend, "recycle"),
    ("explore.explore_dfs", engine, "explore_dfs"),
    ("explore.explore_dpor", dpor, "explore_dpor"),
    ("explore.run_prefix", engine, "run_prefix"),
)

#: Spans that host code of other threads while they block.
BLOCKING_HOSTS = frozenset({"simulation.run"})


class _Span:
    __slots__ = ("name", "start", "end", "parent", "request", "child", "sid")

    def __init__(self, name, start, parent, request, sid):
        self.name = name
        self.start = start
        self.end = 0.0
        self.parent = parent
        self.request = request
        self.child = 0.0
        self.sid = sid


class Tracer:
    """Installs span wrappers and accumulates per-name totals."""

    def __init__(self) -> None:
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._request: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_request", default=None
        )
        #: Request id for code on threads without a request of their own.
        self.thread_request: Optional[str] = None
        self._hosts: List[_Span] = []
        self._saved: List[Tuple[object, str, object]] = []
        self._next_sid = 0
        self.spans: List[Tuple] = []
        self.dropped = 0
        #: name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}

    # -- requests -------------------------------------------------------------

    def set_request(self, request: str) -> None:
        """Tag spans of the calling context (and carrier threads) with *request*."""
        self._request.set(request)
        self.thread_request = request

    # -- installation ---------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Wrap every entry point; functions also under the names *extra_modules*
        (the benchmark's own modules) bound them to."""
        for name, owner, attribute in ENTRY_POINTS:
            original = owner.__dict__[attribute]
            if isinstance(owner, type):
                self._patch(owner, attribute, self._wrap(name, original))
            else:
                wrapper = self._wrap(name, original)
                modules = [
                    module
                    for module in list(sys.modules.values())
                    if getattr(module, "__name__", "").startswith("repro")
                ]
                for module in modules + list(extra_modules):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _wrap(self, name: str, original: Callable) -> Callable:
        current = self._current
        request = self._request
        hosts = self._hosts
        clock = time.perf_counter
        blocking = name in BLOCKING_HOSTS
        finish = self._finish

        def traced(*args, **kwargs):
            parent = current.get()
            if parent is None and hosts:
                parent = hosts[-1]
            rid = request.get()
            if rid is None:
                rid = self.thread_request
            self._next_sid += 1
            span = _Span(name, clock(), parent, rid, self._next_sid)
            token = current.set(span)
            if blocking:
                hosts.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                span.end = clock()
                if blocking:
                    hosts.remove(span)
                current.reset(token)
                finish(span)

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        traced.__doc__ = getattr(original, "__doc__", None)
        return traced

    def _finish(self, span: _Span) -> None:
        duration = span.end - span.start
        parent = span.parent
        if parent is not None:
            parent.child += duration
        entry = self.totals.get(span.name)
        if entry is None:
            entry = self.totals[span.name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - span.child
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append(
                (
                    span.sid,
                    span.name,
                    span.start,
                    span.end,
                    parent.sid if parent is not None else None,
                    span.request,
                )
            )
        else:
            self.dropped += 1

    # -- results ----------------------------------------------------------------

    def calls(self, *names: str) -> int:
        return int(sum(self.totals.get(name, (0, 0.0, 0.0))[0] for name in names))

    def seconds(self, *names: str) -> float:
        return sum(self.totals.get(name, (0, 0.0, 0.0))[1] for name in names)

    def self_seconds(self, *names: str) -> float:
        return sum(self.totals.get(name, (0, 0.0, 0.0))[2] for name in names)

    def reset_totals(self) -> None:
        self.totals = {}

    def write(self, path) -> None:
        """Write the kept spans as JSON lines (one header line first)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n"
            )
            for sid, name, start, end, parent, request in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )
