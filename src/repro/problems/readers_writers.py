"""The readers/writers problem with ticket ordering (§6.3.2, Fig. 12).

Following the paper (which follows Buhr & Harji), arrival order is preserved
with a ticket: every reader or writer draws a ticket on arrival and waits for
its turn.  Consecutive readers may hold the resource concurrently; a writer
needs exclusive access.  The ``waituntil`` predicates are complex equivalence
predicates (``serving == my_ticket`` plus extra conjuncts), so AutoSynch can
locate the next admissible thread with a hash lookup while the explicit
version keeps a per-ticket condition variable — the "complicated code" the
paper mentions programmers must write to avoid ``signalAll``.

``threads`` in :meth:`ReadersWritersProblem.build` is the number of writers;
the number of readers defaults to five times as many, matching the 2/10 ...
64/320 x-axis of Fig. 12.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.monitor import AutoSynchMonitor, ExplicitMonitor
from repro.problems.base import Oracle, Problem, WorkloadSpec
from repro.runtime.api import Backend

__all__ = ["AutoReadersWriters", "ExplicitReadersWriters", "ReadersWritersProblem"]

DEFAULT_READERS_PER_WRITER = 5


class AutoReadersWriters(AutoSynchMonitor):
    """Automatic-signal fair readers/writers lock."""

    def __init__(self, **monitor_kwargs: object) -> None:
        super().__init__(**monitor_kwargs)
        self.next_ticket = 0
        self.serving = 0
        self.active_readers = 0
        self.active_writers = 0
        self.reads_done = 0
        self.writes_done = 0
        self.max_concurrent_readers = 0
        self.violations = 0

    def start_read(self) -> int:
        ticket = self.next_ticket
        self.next_ticket += 1
        self.wait_until("serving == t and active_writers == 0", t=ticket)
        if self.active_writers != 0:
            self.violations += 1
        self.active_readers += 1
        self.max_concurrent_readers = max(self.max_concurrent_readers, self.active_readers)
        # Admit the next arrival immediately: further readers may read
        # concurrently, a writer will additionally wait for readers to drain.
        self.serving += 1
        return ticket

    def end_read(self) -> None:
        self.active_readers -= 1
        self.reads_done += 1

    def start_write(self) -> int:
        ticket = self.next_ticket
        self.next_ticket += 1
        self.wait_until(
            "serving == t and active_readers == 0 and active_writers == 0", t=ticket
        )
        if self.active_readers != 0 or self.active_writers != 0:
            self.violations += 1
        self.active_writers += 1
        return ticket

    def end_write(self) -> None:
        self.active_writers -= 1
        self.writes_done += 1
        # Only now may the next arrival be admitted.
        self.serving += 1


class ExplicitReadersWriters(ExplicitMonitor):
    """Explicit-signal fair readers/writers lock with per-ticket conditions."""

    def __init__(self, **monitor_kwargs: object) -> None:
        super().__init__(**monitor_kwargs)
        self.next_ticket = 0
        self.serving = 0
        self.active_readers = 0
        self.active_writers = 0
        self.reads_done = 0
        self.writes_done = 0
        self.max_concurrent_readers = 0
        self.violations = 0
        self._turn_conditions: Dict[int, object] = {}

    def _condition_for(self, ticket: int):
        condition = self._turn_conditions.get(ticket)
        if condition is None:
            condition = self.new_condition(f"ticket-{ticket}")
            self._turn_conditions[ticket] = condition
        return condition

    def _wake_ticket(self, ticket: int) -> None:
        condition = self._turn_conditions.get(ticket)
        if condition is not None:
            self.signal(condition)

    def start_read(self) -> int:
        ticket = self.next_ticket
        self.next_ticket += 1
        while not (self.serving == ticket and self.active_writers == 0):
            self.wait_on(self._condition_for(ticket))
        self._turn_conditions.pop(ticket, None)
        if self.active_writers != 0:
            self.violations += 1
        self.active_readers += 1
        self.max_concurrent_readers = max(self.max_concurrent_readers, self.active_readers)
        self.serving += 1
        self._wake_ticket(self.serving)
        return ticket

    def end_read(self) -> None:
        self.active_readers -= 1
        self.reads_done += 1
        if self.active_readers == 0:
            # A writer at the head of the queue may have been admitted by
            # ticket order but still waits for readers to drain.
            self._wake_ticket(self.serving)

    def start_write(self) -> int:
        ticket = self.next_ticket
        self.next_ticket += 1
        while not (
            self.serving == ticket and self.active_readers == 0 and self.active_writers == 0
        ):
            self.wait_on(self._condition_for(ticket))
        self._turn_conditions.pop(ticket, None)
        if self.active_readers != 0 or self.active_writers != 0:
            self.violations += 1
        self.active_writers += 1
        return ticket

    def end_write(self) -> None:
        self.active_writers -= 1
        self.writes_done += 1
        self.serving += 1
        self._wake_ticket(self.serving)


class ReadersWritersProblem(Problem):
    """Saturation workload: ``threads`` writers and ``ratio`` times as many readers."""

    name = "readers_writers"
    description = "fair readers/writers with ticket-ordered admission"
    uses_complex_predicates = True

    def oracles(self, monitor) -> Tuple[Oracle, ...]:
        def exclusion() -> Optional[str]:
            if monitor.active_writers not in (0, 1):
                return f"{monitor.active_writers} writers active at once"
            if monitor.active_writers and monitor.active_readers:
                return (
                    f"writer active alongside {monitor.active_readers} reader(s)"
                )
            if monitor.active_readers < 0:
                return f"negative reader count {monitor.active_readers}"
            return None

        def ticket_order() -> Optional[str]:
            if not 0 <= monitor.serving <= monitor.next_ticket:
                return (
                    f"serving={monitor.serving} outside "
                    f"[0, next_ticket={monitor.next_ticket}]"
                )
            return None

        return (
            Oracle("reader_writer_exclusion", exclusion),
            Oracle("ticket_order", ticket_order),
        )

    def build(
        self,
        mechanism: str,
        backend: Backend,
        threads: int,
        total_ops: int,
        seed: int = 0,
        profile: bool = False,
        validate: bool = False,
        readers_per_writer: int = DEFAULT_READERS_PER_WRITER,
        **params: object,
    ) -> WorkloadSpec:
        self._check_mechanism(mechanism)
        if threads < 1:
            raise ValueError("need at least one writer")
        writers = threads
        readers = max(1, readers_per_writer * writers)

        if mechanism == "explicit":
            monitor = ExplicitReadersWriters(backend=backend, profile=profile)
        else:
            monitor = AutoReadersWriters(
                **self.monitor_kwargs(mechanism, backend, profile, validate)
            )

        workers = writers + readers
        per_worker = max(1, total_ops // workers)

        def make_reader():
            def reader() -> None:
                for _ in range(per_worker):
                    monitor.start_read()
                    monitor.end_read()

            return reader

        def make_writer():
            def writer() -> None:
                for _ in range(per_worker):
                    monitor.start_write()
                    monitor.end_write()

            return writer

        targets: List = []
        names: List[str] = []
        for index in range(writers):
            targets.append(make_writer())
            names.append(f"writer-{index}")
        for index in range(readers):
            targets.append(make_reader())
            names.append(f"reader-{index}")

        def verify() -> None:
            assert monitor.violations == 0
            assert monitor.reads_done == readers * per_worker
            assert monitor.writes_done == writers * per_worker
            assert monitor.active_readers == 0
            assert monitor.active_writers == 0
            assert monitor.serving == monitor.next_ticket

        return WorkloadSpec(
            monitor=monitor,
            targets=targets,
            names=names,
            verify=verify,
            operations=2 * per_worker * workers,
        )
