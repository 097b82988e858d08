"""The dining-philosophers problem (§6.3.2, Fig. 13).

``threads`` philosophers sit around a table with one chopstick between each
pair of neighbours.  A philosopher picks up both chopsticks atomically (the
monitor makes the two-chopstick grab a single critical section, so no
deadlock is possible) and waits while either neighbour holds one of them.

The ``waituntil`` predicate is complex — it indexes the chopstick array with
the philosopher's own position — and is written as an equivalence
(``chopsticks[left] + chopsticks[right] == 2``) so AutoSynch can index
waiting philosophers by the state of their own pair of chopsticks.  The
explicit version keeps one condition variable per philosopher and signals
both neighbours on putting the chopsticks down.  As the paper observes, a
philosopher only ever competes with two neighbours, so all mechanisms stay
relatively close on this problem.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.monitor import AutoSynchMonitor, ExplicitMonitor
from repro.problems.base import Oracle, Problem, WorkloadSpec
from repro.runtime.api import Backend

__all__ = ["AutoDiningTable", "ExplicitDiningTable", "DiningPhilosophersProblem"]


class AutoDiningTable(AutoSynchMonitor):
    """Automatic-signal dining table."""

    def __init__(self, seats: int, **monitor_kwargs: object) -> None:
        super().__init__(**monitor_kwargs)
        if seats < 2:
            raise ValueError("the table needs at least two philosophers")
        self.seats = seats
        # 1 = chopstick available, 0 = held by a neighbour.
        self.chopsticks = [1] * seats
        self.meals = 0
        self.violations = 0

    def pick_up(self, seat: int) -> None:
        """Grab both chopsticks adjacent to *seat*, waiting until both are free."""
        left = seat
        right = (seat + 1) % self.seats
        self.wait_until("chopsticks[left] + chopsticks[right] == 2", left=left, right=right)
        if self.chopsticks[left] != 1 or self.chopsticks[right] != 1:
            self.violations += 1
        self.chopsticks[left] = 0
        self.chopsticks[right] = 0

    def put_down(self, seat: int) -> None:
        """Release both chopsticks adjacent to *seat*."""
        left = seat
        right = (seat + 1) % self.seats
        if self.chopsticks[left] != 0 or self.chopsticks[right] != 0:
            self.violations += 1
        self.chopsticks[left] = 1
        self.chopsticks[right] = 1
        self.meals += 1


class ExplicitDiningTable(ExplicitMonitor):
    """Explicit-signal dining table with one condition per philosopher."""

    def __init__(self, seats: int, **monitor_kwargs: object) -> None:
        super().__init__(**monitor_kwargs)
        if seats < 2:
            raise ValueError("the table needs at least two philosophers")
        self.seats = seats
        self.chopsticks = [1] * seats
        self.meals = 0
        self.violations = 0
        self.seat_conditions = [self.new_condition(f"seat-{i}") for i in range(seats)]

    def _both_free(self, seat: int) -> bool:
        left = seat
        right = (seat + 1) % self.seats
        return self.chopsticks[left] == 1 and self.chopsticks[right] == 1

    def pick_up(self, seat: int) -> None:
        while not self._both_free(seat):
            self.wait_on(self.seat_conditions[seat])
        left = seat
        right = (seat + 1) % self.seats
        if self.chopsticks[left] != 1 or self.chopsticks[right] != 1:
            self.violations += 1
        self.chopsticks[left] = 0
        self.chopsticks[right] = 0

    def put_down(self, seat: int) -> None:
        left = seat
        right = (seat + 1) % self.seats
        if self.chopsticks[left] != 0 or self.chopsticks[right] != 0:
            self.violations += 1
        self.chopsticks[left] = 1
        self.chopsticks[right] = 1
        self.meals += 1
        # Only the two neighbours can possibly be unblocked by this.
        self.signal(self.seat_conditions[(seat - 1) % self.seats])
        self.signal(self.seat_conditions[(seat + 1) % self.seats])


class DiningPhilosophersProblem(Problem):
    """Saturation workload: every philosopher eats the same number of meals."""

    name = "dining_philosophers"
    description = "philosophers grab both adjacent chopsticks atomically"
    uses_complex_predicates = True

    def oracles(self, monitor) -> Tuple[Oracle, ...]:
        def chopstick_exclusion() -> Optional[str]:
            bad = [
                (seat, stick)
                for seat, stick in enumerate(monitor.chopsticks)
                if stick not in (0, 1)
            ]
            if bad:
                return f"chopsticks hold non-binary state: {bad}"
            if monitor.violations:
                return (
                    f"{monitor.violations} pick-up/put-down exclusion "
                    "violation(s) observed by the monitor"
                )
            return None

        return (Oracle("chopstick_exclusion", chopstick_exclusion),)

    def build(
        self,
        mechanism: str,
        backend: Backend,
        threads: int,
        total_ops: int,
        seed: int = 0,
        profile: bool = False,
        validate: bool = False,
        **params: object,
    ) -> WorkloadSpec:
        self._check_mechanism(mechanism)
        if threads < 2:
            raise ValueError("need at least two philosophers")

        if mechanism == "explicit":
            monitor = ExplicitDiningTable(threads, backend=backend, profile=profile)
        else:
            monitor = AutoDiningTable(
                threads, **self.monitor_kwargs(mechanism, backend, profile, validate)
            )

        # One "operation" is a full pick_up/put_down cycle (a meal).
        meals_per_philosopher = max(1, total_ops // (2 * threads))

        def make_philosopher(seat: int):
            def philosopher() -> None:
                for _ in range(meals_per_philosopher):
                    monitor.pick_up(seat)
                    monitor.put_down(seat)

            return philosopher

        targets: List = [make_philosopher(seat) for seat in range(threads)]
        names = [f"philosopher-{seat}" for seat in range(threads)]

        def verify() -> None:
            assert monitor.violations == 0
            assert monitor.meals == meals_per_philosopher * threads
            assert all(stick == 1 for stick in monitor.chopsticks)

        return WorkloadSpec(
            monitor=monitor,
            targets=targets,
            names=names,
            verify=verify,
            operations=2 * meals_per_philosopher * threads,
        )
