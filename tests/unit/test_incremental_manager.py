"""Unit tests for the condition manager's dirty-set (incremental) search."""

from __future__ import annotations

from repro.core.condition_manager import ConditionManager
from repro.core.instrumentation import MonitorStats
from repro.core.write_tracking import WriteTracker
from repro.predicates import compile_predicate

from test_condition_manager import FakeBackend, FakeMonitor


class DeclaredMonitor(FakeMonitor):
    """Monitor double declaring its state names as tracked writes (the
    scenario-compiled-monitor contract)."""

    _tracked_write_names = frozenset({"items"})


def make_manager(owner, use_tags=False, tracker=None):
    backend = FakeBackend()
    stats = MonitorStats()
    manager = ConditionManager(
        owner=owner,
        backend=backend,
        lock=backend.create_lock(),
        stats=stats,
        use_tags=use_tags,
        write_tracker=tracker,
    )
    return manager, stats


def park(manager, source, shared, local_values=None, quarantined=False):
    """Register *source* and add one waiter, like a thread about to block.

    *quarantined* demotes the predicate to the interpreter fallback first,
    as a misbehaving compiled closure would.
    """
    local_values = local_values or {}
    compiled = compile_predicate(source, shared, set(local_values))
    form = compiled.globalized(local_values)
    if quarantined:
        form.quarantine()
    entry = manager.acquire_entry(form, from_shared_predicate=compiled.is_shared)
    manager.add_waiter(entry)
    return entry


class TestDirtySetSearch:
    def test_false_entry_is_skipped_until_its_variable_is_written(self):
        tracker = WriteTracker()
        owner = FakeMonitor(flag=0)
        manager, stats = make_manager(owner, tracker=tracker)
        park(manager, "flag == 1", {"flag"})

        assert not manager.relay_signal()
        assert stats.predicate_evaluations == 1
        assert stats.relay_entries_skipped == 0

        # Nothing written: the pass skips the entry without evaluating.
        assert not manager.relay_signal()
        assert stats.predicate_evaluations == 1
        assert stats.relay_entries_skipped == 1

        # A write to an unrelated name does not wake the entry up either.
        tracker.bump("other")
        assert not manager.relay_signal()
        assert stats.predicate_evaluations == 1
        assert stats.relay_entries_skipped == 2

        # A write to the tracked name forces re-evaluation — and it is true.
        owner.flag = 1
        tracker.bump("flag")
        assert manager.relay_signal()
        assert stats.predicate_evaluations == 2
        assert stats.signals_sent == 1

    def test_exhaustive_manager_never_skips(self):
        owner = FakeMonitor(flag=0)
        manager, stats = make_manager(owner, tracker=None)
        park(manager, "flag == 1", {"flag"})
        assert not manager.relay_signal()
        assert not manager.relay_signal()
        assert stats.predicate_evaluations == 2
        assert stats.relay_entries_skipped == 0

    def test_quarantined_entry_is_skipped_until_written(self):
        # The interpreter fallback answers for a quarantined predicate, and
        # dirty-set skipping applies to it exactly as to a compiled one.
        tracker = WriteTracker()
        owner = FakeMonitor(flag=0)
        manager, stats = make_manager(owner, tracker=tracker)
        assert manager.incremental is True
        park(manager, "flag == 1", {"flag"}, quarantined=True)
        assert not manager.relay_signal()
        assert not manager.relay_signal()
        assert stats.predicate_evaluations == 1
        assert stats.relay_entries_skipped == 1
        owner.flag = 1
        tracker.bump("flag")
        assert manager.relay_signal()
        assert stats.interpreted_evaluations == stats.predicate_evaluations == 2
        assert stats.compiled_evaluations == 0

    def test_container_fields_are_never_marked_clean(self):
        tracker = WriteTracker()
        owner = FakeMonitor(items=[])
        manager, stats = make_manager(owner, tracker=tracker)
        park(manager, "len(items) > 0", {"items"})
        assert not manager.relay_signal()
        # A list can be mutated in place without any tracked write, so the
        # entry must be re-evaluated every pass.
        owner.items.append("x")
        assert manager.relay_signal()
        assert stats.predicate_evaluations == 2
        assert stats.relay_entries_skipped == 0

    def test_declared_tracked_names_allow_container_skipping(self):
        tracker = WriteTracker()
        owner = DeclaredMonitor(items=[])
        manager, stats = make_manager(owner, tracker=tracker)
        park(manager, "len(items) > 0", {"items"})
        assert not manager.relay_signal()
        assert not manager.relay_signal()
        assert stats.predicate_evaluations == 1
        assert stats.relay_entries_skipped == 1
        # The declared contract: every mutation is reported explicitly.
        owner.items.append("x")
        tracker.bump("items")
        assert manager.relay_signal()
        assert stats.predicate_evaluations == 2

    def test_query_predicates_are_never_skipped(self):
        class Gate:
            def is_open(self):
                return False

        tracker = WriteTracker()
        manager, stats = make_manager(FakeMonitor(gate=Gate()), tracker=tracker)
        # A method call on a shared object reads state no write to ``gate``
        # itself bounds, so the entry must be re-evaluated every pass.
        park(manager, "gate.is_open()", {"gate"})
        assert not manager.relay_signal()
        assert not manager.relay_signal()
        assert stats.predicate_evaluations == 2
        assert stats.relay_entries_skipped == 0

    def test_reactivation_resets_cleanliness(self):
        tracker = WriteTracker()
        owner = FakeMonitor(flag=0)
        manager, stats = make_manager(owner, tracker=tracker)
        entry = park(manager, "flag == 1", {"flag"})
        assert not manager.relay_signal()
        manager.remove_waiter(entry)  # deactivates; cleanliness must not leak

        owner.flag = 1  # changed while inactive, with no tracked write
        entry = park(manager, "flag == 1", {"flag"})
        assert manager.relay_signal()
        assert stats.signals_sent == 1

    def test_fifo_search_skips_and_recovers(self):
        tracker = WriteTracker()
        owner = FakeMonitor(flag=0, gate=0)
        manager, stats = make_manager(owner, tracker=tracker)
        park(manager, "flag == 1", {"flag", "gate"})
        park(manager, "gate == 1", {"flag", "gate"})

        assert not manager.relay_signal_fifo()
        assert stats.predicate_evaluations == 2
        assert not manager.relay_signal_fifo()
        assert stats.predicate_evaluations == 2
        assert stats.relay_entries_skipped == 2

        owner.gate = 1
        tracker.bump("gate")
        assert manager.relay_signal_fifo()
        assert stats.predicate_evaluations == 3  # only the dirty entry


class TestTaggedDirtySet:
    def test_tagged_entries_skip_via_version_vector(self):
        tracker = WriteTracker()
        owner = FakeMonitor(count=0, open=0)
        manager, stats = make_manager(owner, use_tags=True, tracker=tracker)
        # Two conjuncts: the equivalence tag on ``count`` finds the entry,
        # but the whole predicate is false while ``open`` is 0 — the classic
        # "tag satisfied, predicate false" shape that incremental skipping
        # prunes on repeat passes.
        park(manager, "count == 0 and open == 1", {"count", "open"})

        assert not manager.relay_signal()
        evals_after_first = stats.predicate_evaluations
        assert evals_after_first >= 1

        assert not manager.relay_signal()
        assert stats.predicate_evaluations == evals_after_first
        assert stats.relay_entries_skipped >= 1

        owner.open = 1
        tracker.bump("open")
        assert manager.relay_signal()


class TestBatchedSearch:
    def test_signal_many_uses_fused_batch_closures(self):
        tracker = WriteTracker()
        owner = FakeMonitor(count=-1)
        manager, stats = make_manager(owner, tracker=tracker)
        for i in range(10):
            park(manager, f"count > {i}", {"count"})

        assert manager.signal_many(4) == 0
        assert stats.batched_evaluations == 10
        assert stats.compiled_evaluations == 10
        assert stats.predicate_evaluations == 10

        owner.count = 5
        tracker.bump("count")
        # All ten entries re-pend (same read set); the batch finds the five
        # true ones and the limit caps the wake-ups at four.
        assert manager.signal_many(4) == 4
        assert stats.signals_sent == 4
        assert stats.batched_evaluations == 20

    def test_relay_signal_stays_per_entry(self):
        owner = FakeMonitor(count=-1)
        manager, stats = make_manager(owner, tracker=WriteTracker())
        for i in range(4):
            park(manager, f"count > {i}", {"count"})
        assert not manager.relay_signal()
        assert stats.batched_evaluations == 0

    def test_batch_matches_exhaustive_selection(self):
        owner_batched = FakeMonitor(count=2)
        manager_batched, stats_batched = make_manager(
            owner_batched, tracker=WriteTracker()
        )
        owner_plain = FakeMonitor(count=2)
        manager_plain, stats_plain = make_manager(owner_plain, tracker=None)
        for manager in (manager_batched, manager_plain):
            for i in range(6):
                park(manager, f"count > {i}", {"count"})
        assert manager_batched.signal_many(3) == manager_plain.signal_many(3) == 2
        assert stats_batched.signals_sent == stats_plain.signals_sent == 2
