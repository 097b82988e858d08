"""Unit tests for the per-relay-pass EvalContext memoization.

The key soundness/performance contract: within one relay search pass the
monitor lock is held, so one context may serve every shared read from a
cache — a batch of N entries over the same shared expression costs one
read — but the cache must never survive into the next pass, where state
may have changed.  The contract holds on both evaluation paths: compiled
closures and the interpreter fallback (reached through a codegen-declined
expression or a quarantined closure).
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.condition_manager import ConditionManager
from repro.core.instrumentation import MonitorStats
from repro.predicates import EvalContext, compile_expr, compile_predicate, to_dnf
from repro.predicates.ast_nodes import Attribute, Compare, Const, Name, Scope
from repro.predicates.predicate import GlobalizedPredicate
from repro.runtime import ThreadingBackend


class CountingState:
    """State object that counts every shared-variable read."""

    def __init__(self, **values):
        self.__dict__["_values"] = dict(values)
        self.__dict__["reads"] = {}

    def __getattr__(self, name):
        values = self.__dict__["_values"]
        if name in values:
            reads = self.__dict__["reads"]
            reads[name] = reads.get(name, 0) + 1
            return values[name]
        raise AttributeError(name)

    def set(self, name, value):
        self.__dict__["_values"][name] = value


# ---------------------------------------------------------------------------
# EvalContext in isolation
# ---------------------------------------------------------------------------


class TestEvalContext:
    def test_read_shared_is_memoized(self):
        state = CountingState(count=7)
        stats = MonitorStats()
        ctx = EvalContext(state, stats=stats)
        for _ in range(5):
            assert ctx.read_shared(state, "count") == 7
        assert state.reads == {"count": 1}
        assert stats.shared_read_cache_hits == 4

    def test_fresh_context_rereads(self):
        state = CountingState(count=7)
        EvalContext(state).read_shared(state, "count")
        EvalContext(state).read_shared(state, "count")
        assert state.reads == {"count": 2}

    def test_evaluate_shared_is_memoized(self):
        state = CountingState(count=7)
        stats = MonitorStats()
        ctx = EvalContext(state, stats=stats)
        expr = Name("count", Scope.SHARED)
        assert ctx.evaluate_shared(expr, "count") == 7
        assert ctx.evaluate_shared(expr, "count") == 7
        assert state.reads == {"count": 1}
        assert stats.shared_expr_cache_hits == 1

    def test_cached_value_is_served_even_if_state_mutates_mid_pass(self):
        # Nothing mutates state mid-pass in the real runtime (the lock is
        # held); this pins down that the cache, not the state, answers.
        state = CountingState(count=1)
        ctx = EvalContext(state)
        assert ctx.read_shared(state, "count") == 1
        state.set("count", 99)
        assert ctx.read_shared(state, "count") == 1
        assert EvalContext(state).read_shared(state, "count") == 99

    @pytest.mark.parametrize("quarantined", [False, True])
    def test_holds_reads_through_the_cache(self, quarantined):
        state = CountingState(count=7)
        stats = MonitorStats()
        ctx = EvalContext(state, stats=stats)
        form = compile_predicate("count > 0", {"count"}).globalized()
        if quarantined:
            form.quarantine()
        for _ in range(4):
            assert ctx.holds(form)
        assert state.reads == {"count": 1}
        if quarantined:
            assert stats.interpreted_evaluations == 4
            assert stats.compiled_evaluations == 0
        else:
            assert stats.compiled_evaluations == 4
            assert stats.interpreted_evaluations == 0

    def test_codegen_declined_predicate_reads_through_the_cache(self):
        # A non-identifier attribute name is valid IR for the interpreter
        # (plain getattr) but cannot be lowered to Python source.
        expr = Compare(">", Attribute(Name("box", Scope.SHARED), "odd-name"), Const(0))
        assert compile_expr(expr) is None
        dnf = to_dnf(expr)
        form = GlobalizedPredicate(
            source="box.odd-name > 0",
            expr=dnf.to_expr(),
            dnf=dnf,
            tags=(),
            canonical=dnf.canonical(),
        )
        state = CountingState(box=SimpleNamespace(**{"odd-name": 3}))
        stats = MonitorStats()
        ctx = EvalContext(state, stats=stats)
        for _ in range(3):
            assert ctx.holds(form)
        assert state.reads == {"box": 1}
        assert stats.interpreted_evaluations == 3
        assert stats.compiled_evaluations == 0

    def test_misbehaving_closure_is_quarantined_mid_pass(self):
        state = CountingState(count=7)
        stats = MonitorStats()
        ctx = EvalContext(state, stats=stats)
        form = compile_predicate("count > 0", {"count"}).globalized()

        def broken(state, reader, locals_map):
            raise RuntimeError("closure misbehaved")

        object.__setattr__(form, "_compiled_fn", broken)
        assert ctx.holds(form)
        assert ctx.holds(form)
        assert form.quarantined
        assert stats.predicate_quarantines == 1
        assert stats.compiled_evaluations == 0
        assert stats.interpreted_evaluations == 2


# ---------------------------------------------------------------------------
# The condition manager's relay passes
# ---------------------------------------------------------------------------


def make_manager(owner, use_tags):
    backend = ThreadingBackend()
    lock = backend.create_lock()
    stats = MonitorStats()
    manager = ConditionManager(
        owner=owner,
        backend=backend,
        lock=lock,
        stats=stats,
        use_tags=use_tags,
    )
    return manager, stats, lock


def add_waiting_entry(manager, source, local_values=None, quarantined=False):
    """Register one waiter; *quarantined* demotes its predicate to the
    interpreter fallback first, as a misbehaving closure would."""
    local_values = local_values or {}
    compiled = compile_predicate(source, {"count"}, set(local_values))
    form = compiled.globalized(local_values)
    if quarantined:
        form.quarantine()
    entry = manager.acquire_entry(form, from_shared_predicate=compiled.is_shared)
    manager.add_waiter(entry)
    return entry


@pytest.mark.parametrize("quarantined", [False, True])
@pytest.mark.parametrize("use_tags", [True, False])
def test_one_shared_read_per_relay_pass(use_tags, quarantined):
    """N waiting predicates over the same shared variable cost one read."""
    state = CountingState(count=0)
    manager, stats, lock = make_manager(state, use_tags)
    for threshold in (10, 20, 30):
        add_waiting_entry(manager, "count >= n", {"n": threshold}, quarantined)

    lock.acquire()
    try:
        # All predicates false: the search is exhaustive over all 3 entries.
        assert manager.signal_many(3) == 0
        assert state.reads == {"count": 1}
        # A second pass gets a fresh context: exactly one more read.
        assert manager.signal_many(3) == 0
        assert state.reads == {"count": 2}
    finally:
        lock.release()
    assert (
        stats.compiled_evaluations + stats.interpreted_evaluations
        == stats.predicate_evaluations
    )
    if quarantined:
        assert stats.compiled_evaluations == 0


@pytest.mark.parametrize("quarantined", [False, True])
def test_relay_batch_wakes_all_with_one_read(quarantined):
    state = CountingState(count=100)
    manager, stats, lock = make_manager(state, True)
    entries = [
        add_waiting_entry(manager, "count >= n", {"n": threshold}, quarantined)
        for threshold in (10, 20, 30)
    ]
    lock.acquire()
    try:
        assert manager.signal_many(3) == 3
    finally:
        lock.release()
    assert all(entry.pending_signals == 1 for entry in entries)
    # One raw read served the tag expression and all three evaluations.
    assert state.reads == {"count": 1}
    assert stats.shared_read_cache_hits + stats.shared_expr_cache_hits > 0
    assert (
        stats.compiled_evaluations + stats.interpreted_evaluations
        == stats.predicate_evaluations
    )
    if quarantined:
        assert stats.interpreted_evaluations == 3
        assert stats.compiled_evaluations == 0


def test_find_missed_waiter_uses_its_own_context():
    state = CountingState(count=0)
    manager, _, lock = make_manager(state, use_tags=False)
    add_waiting_entry(manager, "count >= n", {"n": 5})
    lock.acquire()
    try:
        assert manager.relay_signal() is False
        reads_after_relay = state.reads["count"]
        # The validate-mode recheck runs in a fresh pass: it must re-read.
        assert manager.find_missed_waiter() is None
        assert state.reads["count"] == reads_after_relay + 1
        # State change between passes is observed (no cross-pass leak).
        state.set("count", 7)
        assert manager.find_missed_waiter() is not None
    finally:
        lock.release()


def test_fifo_relay_memoizes_too():
    state = CountingState(count=50)
    manager, _, lock = make_manager(state, use_tags=False)
    for threshold in (10, 20):
        add_waiting_entry(manager, "count >= n", {"n": threshold})
    lock.acquire()
    try:
        assert manager.relay_signal_fifo() is True
    finally:
        lock.release()
    assert state.reads == {"count": 1}


def test_quarantined_entry_relays_through_the_interpreter():
    state = CountingState(count=1)
    manager, stats, lock = make_manager(state, True)
    add_waiting_entry(manager, "count >= n", {"n": 1}, quarantined=True)
    lock.acquire()
    try:
        assert manager.relay_signal() is True
    finally:
        lock.release()
    assert stats.interpreted_evaluations > 0
    assert stats.compiled_evaluations == 0
