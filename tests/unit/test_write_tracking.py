"""Unit tests for shared-variable write tracking and its monitor gating."""

from __future__ import annotations

from repro.core.monitor import AutoSynchMonitor
from repro.core.write_tracking import (
    WriteTracker,
    incremental_enabled,
    set_incremental_enabled,
)
from repro.runtime import SimulationBackend


class Cell(AutoSynchMonitor):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.value = 0
        self._hidden = 0


class Latch(Cell):
    def await_value(self, target):
        self.wait_until("value >= target", target=target)

    def set_value(self, value):
        self.value = value


class MisbehavingClosures:
    """Fault hook under which every compiled evaluation raises a
    non-semantic error, forcing quarantine and interpreter fallback."""

    def on_compiled_eval(self, monitor):
        raise RuntimeError("compiled closure misbehaved")


class CustomSetattrCell(Cell):
    """Overriding __setattr__ means writes may bypass the tracking hook."""

    def __setattr__(self, name, value):
        object.__setattr__(self, name, value)


class PreprocessedCell(Cell):
    """Carries the source-to-source preprocessor marker."""

    _autosynch_options = {"from": "preprocessor"}


class TestWriteTracker:
    def test_bump_advances_clock_and_versions(self):
        tracker = WriteTracker()
        assert tracker.version("x") == 0
        tracker.bump("x")
        tracker.bump("y")
        tracker.bump("x")
        assert tracker.clock == 3
        assert tracker.version("x") == 3
        assert tracker.version("y") == 2
        assert tracker.version("z") == 0

    def test_written_since(self):
        tracker = WriteTracker()
        tracker.bump("x")
        mark = tracker.clock
        assert not tracker.written_since(("x",), mark)
        tracker.bump("y")
        assert not tracker.written_since(("x",), mark)
        assert tracker.written_since(("x", "y"), mark)
        # None means "never observed clean": always treated as written.
        assert tracker.written_since(("x",), None)

    def test_drain_returns_and_clears_dirty_names(self):
        tracker = WriteTracker()
        tracker.bump("a")
        tracker.bump("b")
        tracker.bump("a")
        assert tracker.drain() == {"a", "b"}
        assert tracker.drain() == set()
        tracker.bump("c")
        assert tracker.drain() == {"c"}


class TestGlobalToggle:
    def test_set_incremental_enabled_returns_previous(self):
        previous = set_incremental_enabled(False)
        try:
            assert incremental_enabled() is False
            assert set_incremental_enabled(True) is False
            assert incremental_enabled() is True
        finally:
            set_incremental_enabled(previous)

    def test_toggle_off_disables_monitor_tracking(self):
        previous = set_incremental_enabled(False)
        try:
            cell = Cell(backend=SimulationBackend(seed=1))
            assert cell.write_tracker is None
        finally:
            set_incremental_enabled(previous)


class TestMonitorIntegration:
    def test_public_assignments_are_tracked(self):
        cell = Cell(backend=SimulationBackend(seed=1))
        tracker = cell.write_tracker
        assert tracker is not None
        baseline = tracker.version("value")
        cell.value = 7
        assert tracker.version("value") > baseline
        assert cell.stats.tracked_writes >= 1

    def test_private_assignments_are_not_tracked(self):
        cell = Cell(backend=SimulationBackend(seed=1))
        tracker = cell.write_tracker
        clock = tracker.clock
        cell._hidden = 99
        assert tracker.clock == clock

    def test_bump_write_reports_in_place_mutations(self):
        cell = Cell(backend=SimulationBackend(seed=1))
        tracker = cell.write_tracker
        clock = tracker.clock
        cell._bump_write("value")
        assert tracker.version("value") == tracker.clock > clock

    def test_global_toggle_selects_tracking(self):
        assert Cell(backend=SimulationBackend(seed=1)).write_tracker is not None
        previous = set_incremental_enabled(False)
        try:
            cell = Cell(backend=SimulationBackend(seed=1))
            assert cell.write_tracker is None
            assert cell.condition_manager.incremental is False
        finally:
            set_incremental_enabled(previous)

    def test_custom_setattr_disables_tracking(self):
        cell = CustomSetattrCell(backend=SimulationBackend(seed=1))
        assert cell.write_tracker is None

    def test_preprocessor_marker_disables_tracking(self):
        cell = PreprocessedCell(backend=SimulationBackend(seed=1))
        assert cell.write_tracker is None

    def test_manager_is_incremental(self):
        cell = Cell(backend=SimulationBackend(seed=1))
        assert cell.condition_manager.incremental is True

    def test_interpreter_fallback_keeps_incremental_relay(self):
        # Every compiled closure misbehaves, is quarantined and answered by
        # the interpreter; the relay passes stay incremental regardless.
        backend = SimulationBackend(seed=1)
        latch = Latch(backend=backend)
        latch._fault_hook = MisbehavingClosures()

        def waiter():
            latch.await_value(3)

        def setter():
            for value in (1, 2, 3):
                latch.set_value(value)

        backend.run([waiter, waiter, setter])
        stats = latch.stats
        assert latch.condition_manager.incremental is True
        assert stats.predicate_quarantines > 0
        assert stats.interpreted_evaluations > 0
        assert (
            stats.compiled_evaluations + stats.interpreted_evaluations
            == stats.predicate_evaluations
        )

    def test_autosynch_t_policy_opts_out(self):
        cell = Cell(backend=SimulationBackend(seed=1), signalling="autosynch_t")
        assert cell.condition_manager.incremental is False
