"""Unit tests for the predicate codegen engine (IR -> native closures)."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.core import AutoSynchMonitor
from repro.predicates import (
    Compare,
    Const,
    EvaluationError,
    Expr,
    Name,
    Scope,
    compile_predicate,
    evaluate,
)
from repro.predicates.codegen import compile_expr, compiled_source
from repro.predicates.evaluator import _EMPTY_LOCALS, read_shared
from repro.runtime import SimulationBackend

from test_write_tracking import MisbehavingClosures


class State:
    """Monitor-shaped state with containers, nesting and query methods."""

    def __init__(self):
        self.count = 3
        self.capacity = 8
        self.items = [10, 20, 30]
        self.table = {"key": 5}
        self.child = type("Child", (), {"depth": 2})()

    def ready(self):
        return True

    def above(self, threshold):
        return self.count > threshold


PARITY_CASES = [
    ("count < capacity", (), {}),
    ("count >= n and count % 2 == 1", ("n",), {"n": 3}),
    ("len(items) == 3 or count == 0", (), {}),
    ("items[0] + items[1] == 30", (), {}),
    ("table['key'] > 4", (), {}),
    ("child.depth * 2 == 4", (), {}),
    ("self.ready()", (), {}),
    ("self.above(n)", ("n",), {"n": 2}),
    ("-count < 0", (), {}),
    ("min(count, capacity) == 3", (), {}),
    ("not (count == capacity)", (), {}),
    ("count / 3 == 1.0", (), {}),
]


@pytest.mark.parametrize("source, local_names, local_values", PARITY_CASES)
def test_compiled_matches_interpreter(source, local_names, local_values):
    state = State()
    shared = {"count", "capacity", "items", "table", "child"}
    compiled = compile_predicate(source, shared, set(local_names))
    fn = compile_expr(compiled.expr)
    assert fn is not None
    assert fn(state, read_shared, local_values) == evaluate(
        compiled.expr, state, local_values
    )
    assert compiled.compiled_evaluate(state, local_values) == compiled.evaluate(
        state, local_values
    )


@pytest.mark.parametrize(
    "source, exc",
    [
        ("missing > 0", EvaluationError),  # absent shared variable
        ("items[9] == 1", EvaluationError),  # out-of-range index
        ("count // 0 == 1", EvaluationError),  # division by zero
        ("self.no_such_method()", EvaluationError),  # missing query method
        ("child.no_attr == 1", AttributeError),  # raw attribute miss
    ],
)
def test_error_class_parity(source, exc):
    state = State()
    shared = {"count", "capacity", "items", "table", "child", "missing"}
    compiled = compile_predicate(source, shared, ())
    fn = compile_expr(compiled.expr)
    assert fn is not None
    with pytest.raises(exc):
        evaluate(compiled.expr, state)
    with pytest.raises(exc):
        fn(state, read_shared, _EMPTY_LOCALS)


def test_mapping_state_supported():
    expr = Compare(">", Name("count", Scope.SHARED), Const(1))
    fn = compile_expr(expr)
    assert fn({"count": 2}, read_shared, _EMPTY_LOCALS) is True
    with pytest.raises(EvaluationError):
        fn({}, read_shared, _EMPTY_LOCALS)


def test_unsupported_node_falls_back_to_interpreter():
    @dataclass(frozen=True)
    class Exotic(Expr):
        pass

    assert compile_expr(Exotic()) is None
    assert compiled_source(Exotic()) is None
    # The high-level wrappers must transparently fall back, not crash.
    with pytest.raises(EvaluationError):
        evaluate(Exotic(), State())


def test_compilation_is_memoized_on_the_tree():
    first = Compare("<", Name("count", Scope.SHARED), Const(5))
    second = Compare("<", Name("count", Scope.SHARED), Const(5))
    assert compile_expr(first) is compile_expr(second)


def test_globalized_predicate_caches_its_closure():
    compiled = compile_predicate("count > n", {"count"}, {"n"})
    form = compiled.globalized({"n": 2})
    assert form.compiled_fn() is form.compiled_fn()
    class S:
        count = 3
    assert form.compiled_holds(S()) is True
    assert form.holds(S()) is True


def test_compiled_source_is_inspectable():
    expr = Compare("<", Name("count", Scope.SHARED), Const(5))
    source = compiled_source(expr)
    assert "def __cg_predicate(state, __cg_read, __cg_locals):" in source
    assert "__cg_read(state, 'count')" in source


class _Buffer(AutoSynchMonitor):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.count = 0
        self.capacity = 2

    def put(self):
        self.wait_until("count < capacity")
        self.count += 1

    def take(self):
        self.wait_until("count > 0")
        self.count -= 1


@pytest.mark.parametrize("misbehaving", [False, True])
def test_monitor_evaluation_attribution(misbehaving):
    backend = SimulationBackend(seed=3)
    buffer = _Buffer(backend=backend)
    if misbehaving:
        buffer._fault_hook = MisbehavingClosures()

    def producer():
        for _ in range(8):
            buffer.put()

    def consumer():
        for _ in range(8):
            buffer.take()

    backend.run([producer, consumer])
    stats = buffer.stats
    assert buffer.count == 0
    if misbehaving:
        # Each predicate is quarantined on its first compiled evaluation
        # (rolled back from the compiled count) and the interpreter answers.
        assert stats.predicate_quarantines > 0
        assert stats.interpreted_evaluations > 0
    else:
        assert stats.compiled_evaluations > 0
        assert stats.interpreted_evaluations == 0
        assert stats.predicate_quarantines == 0
    # The compiled/interpreted split accounts for every evaluation.
    assert (
        stats.compiled_evaluations + stats.interpreted_evaluations
        == stats.predicate_evaluations
    )
