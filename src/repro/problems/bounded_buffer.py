"""The classic bounded-buffer (producer/consumer) problem (§6.3.1, Fig. 8).

Producers put single items, consumers take single items; a producer waits
while the buffer is full and a consumer waits while it is empty.  Both
``waituntil`` predicates are *shared* predicates (``count < capacity`` and
``count > 0``), so the automatic-signal mechanisms only ever manage two
condition entries.

``threads`` in :meth:`BoundedBufferProblem.build` is the paper's x-axis
value: the number of producers, which equals the number of consumers.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.monitor import AutoSynchMonitor, ExplicitMonitor
from repro.problems.base import Oracle, Problem, WorkloadSpec
from repro.runtime.api import Backend

__all__ = [
    "AutoBoundedBuffer",
    "ExplicitBoundedBuffer",
    "BoundedBufferProblem",
    "buffer_oracles",
]


def buffer_oracles(monitor) -> Tuple[Oracle, ...]:
    """Bounds and conservation oracles for any buffer-shaped monitor.

    Works for every monitor exposing ``count``/``capacity``/``items``/
    ``total_put``/``total_taken`` — both variants of the plain bounded
    buffer and of the parameterized one share these invariants.
    """

    def buffer_bounds() -> Optional[str]:
        if not 0 <= monitor.count <= monitor.capacity:
            return f"count={monitor.count} outside [0, capacity={monitor.capacity}]"
        if len(monitor.items) != monitor.count:
            return f"count={monitor.count} but {len(monitor.items)} items stored"
        return None

    def conservation() -> Optional[str]:
        outstanding = monitor.total_put - monitor.total_taken
        if outstanding != monitor.count:
            return (
                f"put {monitor.total_put} - taken {monitor.total_taken} = "
                f"{outstanding}, but count={monitor.count}"
            )
        if monitor.total_taken > monitor.total_put:
            return (
                f"took {monitor.total_taken} items but only "
                f"{monitor.total_put} were ever put"
            )
        return None

    return (
        Oracle("buffer_bounds", buffer_bounds),
        Oracle("item_conservation", conservation),
    )

DEFAULT_CAPACITY = 16


class AutoBoundedBuffer(AutoSynchMonitor):
    """Automatic-signal bounded buffer: no condition variables, no signals."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY, **monitor_kwargs: object) -> None:
        super().__init__(**monitor_kwargs)
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.items: List[object] = []
        self.count = 0
        self.total_put = 0
        self.total_taken = 0

    def put(self, item: object) -> None:
        """Add *item*, waiting while the buffer is full."""
        self.wait_until("count < capacity")
        self.items.append(item)
        self.count += 1
        self.total_put += 1

    def take(self) -> object:
        """Remove and return the oldest item, waiting while the buffer is empty."""
        self.wait_until("count > 0")
        self.count -= 1
        self.total_taken += 1
        return self.items.pop(0)


class ExplicitBoundedBuffer(ExplicitMonitor):
    """Explicit-signal bounded buffer using two condition variables."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY, **monitor_kwargs: object) -> None:
        super().__init__(**monitor_kwargs)
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.items: List[object] = []
        self.count = 0
        self.total_put = 0
        self.total_taken = 0
        self.not_full = self.new_condition("not_full")
        self.not_empty = self.new_condition("not_empty")

    def put(self, item: object) -> None:
        while self.count >= self.capacity:
            self.wait_on(self.not_full)
        self.items.append(item)
        self.count += 1
        self.total_put += 1
        self.signal(self.not_empty)

    def take(self) -> object:
        while self.count == 0:
            self.wait_on(self.not_empty)
        self.count -= 1
        self.total_taken += 1
        item = self.items.pop(0)
        self.signal(self.not_full)
        return item


class BoundedBufferProblem(Problem):
    """Saturation workload: ``threads`` producers and ``threads`` consumers."""

    name = "bounded_buffer"
    description = "classic single-item producers/consumers over a bounded buffer"
    uses_complex_predicates = False

    def oracles(self, monitor) -> Tuple[Oracle, ...]:
        return buffer_oracles(monitor)

    def symmetry_classes(
        self, threads: int, total_ops: int, **params: object
    ) -> Tuple[Tuple[int, ...], ...]:
        # build() spawns producers as tids 0..threads-1 and consumers as
        # threads..2*threads-1.  Producers differ only in the item *values*
        # they put (base offsets), which the state projection below erases,
        # so within each group threads are interchangeable — but only while
        # _split_ops hands every member the same quota; with an uneven split
        # renaming changes the remaining work, so declare no symmetry then.
        items_total = max(threads, total_ops // 2)
        if items_total % threads != 0:
            return ()
        return (tuple(range(threads)), tuple(range(threads, 2 * threads)))

    def state_projection(self, threads: int, total_ops: int, **params: object):
        # The buffer's control flow (both the waituntil predicates and the
        # explicit twin's while-loops) depends on ``items`` only through
        # ``count``/emptiness, and every oracle and the post-run verify()
        # constrain counters and lengths, never item identity.  Projecting
        # containers to their length is therefore observation-preserving
        # here, and it is what lets schedules that interleave *different*
        # producers converge to one abstract configuration.
        def project(name: str, value: object) -> object:
            if isinstance(value, (list, tuple, set, frozenset, dict)):
                return ("len", len(value))
            return value

        return project

    def build(
        self,
        mechanism: str,
        backend: Backend,
        threads: int,
        total_ops: int,
        seed: int = 0,
        profile: bool = False,
        validate: bool = False,
        capacity: int = DEFAULT_CAPACITY,
        **params: object,
    ) -> WorkloadSpec:
        self._check_mechanism(mechanism)
        if threads < 1:
            raise ValueError("the bounded buffer needs at least one producer/consumer pair")

        if mechanism == "explicit":
            monitor = ExplicitBoundedBuffer(capacity, backend=backend, profile=profile)
        else:
            monitor = AutoBoundedBuffer(
                capacity, **self.monitor_kwargs(mechanism, backend, profile, validate)
            )

        # ``total_ops`` counts puts + takes; items produced must equal items
        # consumed so the workload terminates.
        items_total = max(threads, total_ops // 2)
        producer_quota = self._split_ops(items_total, threads)
        consumer_quota = self._split_ops(items_total, threads)

        def make_producer(quota: int, base: int):
            def producer() -> None:
                for index in range(quota):
                    monitor.put(base + index)

            return producer

        def make_consumer(quota: int, sink: List[object]):
            def consumer() -> None:
                for _ in range(quota):
                    sink.append(monitor.take())

            return consumer

        taken: List[object] = []
        targets = []
        names = []
        for index, quota in enumerate(producer_quota):
            targets.append(make_producer(quota, index * items_total))
            names.append(f"producer-{index}")
        for index, quota in enumerate(consumer_quota):
            targets.append(make_consumer(quota, taken))
            names.append(f"consumer-{index}")

        def verify() -> None:
            assert monitor.total_put == items_total, (
                f"expected {items_total} puts, saw {monitor.total_put}"
            )
            assert monitor.total_taken == items_total, (
                f"expected {items_total} takes, saw {monitor.total_taken}"
            )
            assert monitor.count == 0 and not monitor.items, "buffer should drain completely"
            assert len(taken) == items_total

        return WorkloadSpec(
            monitor=monitor,
            targets=targets,
            names=names,
            verify=verify,
            operations=2 * items_total,
        )
