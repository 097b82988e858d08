"""Evaluation of predicate IR trees against monitor state.

The condition manager evaluates predicates *on behalf of waiting threads*
(that is the whole point of globalization), so the evaluator reads shared
variables from a state object — normally the monitor instance itself — and
local variables from an explicit mapping.

The evaluator is deliberately side-effect free: it only reads attributes,
indexes containers, calls the whitelisted pure builtins, and calls query
methods on the monitor when the predicate uses them.

Predicates are evaluated by compiled closures (see
:mod:`repro.predicates.codegen`), with the tree walk below as the fallback
whenever codegen declines an expression or a closure is quarantined:

* the **interpreter** below — a tree walk over the IR.  The dispatch
  table and per-node handlers are module-level, so ``evaluate`` does not
  rebuild any closures per call; the per-node cost is one type lookup plus
  one function call.  It is also the reference semantics the compiled
  closures are checked against.
* **compiled closures** — each predicate is lowered to a generated Python
  function.  Both paths read shared variables through the same *reader*
  protocol: a callable ``reader(state, name)`` (default
  :func:`read_shared`), which is what lets :class:`EvalContext` memoize
  shared reads for a whole batch of evaluations.

:class:`EvalContext` is the per-relay-pass context the condition manager
evaluates through: while a monitor exit holds the lock, shared state cannot
change, so one context caches every shared-variable and shared-expression
read for the duration of the pass — a batch of N predicates over the same
shared expression costs one read instead of N.
"""

from __future__ import annotations

import operator
import time
from typing import Callable, Dict, Mapping, Optional

from repro.predicates.ast_nodes import (
    And,
    Attribute,
    BinOp,
    BoolConst,
    Call,
    Compare,
    Const,
    Expr,
    Name,
    Not,
    Or,
    Scope,
    Subscript,
    UnaryOp,
)
from repro.predicates.errors import PredicateError

__all__ = [
    "EvaluationError",
    "EvalContext",
    "evaluate",
    "evaluate_bool",
    "read_shared",
]

_BUILTINS = {
    "len": len,
    "abs": abs,
    "min": min,
    "max": max,
    "sum": sum,
    "all": all,
    "any": any,
}

#: Shared empty mapping used when no local values are supplied.
_EMPTY_LOCALS: Mapping[str, object] = {}

#: Per-type memo of "is this state object a Mapping?".  The ABC
#: ``isinstance`` check costs ~0.6µs per call — more than the rest of a
#: shared read — and the answer is a property of the class, so it is
#: computed once per state type.  (A class registered as a Mapping *after*
#: its first use as a state object would be mis-cached; no supported
#: monitor does that.)
_IS_MAPPING_TYPE: Dict[type, bool] = {}


class EvaluationError(PredicateError):
    """Raised when a predicate cannot be evaluated against the given state."""


def read_shared(state: object, name: str) -> object:
    """Read shared variable *name* from *state* (attribute or mapping key).

    This is the default *reader*: compiled closures and the interpreter
    funnel every shared-variable read through a ``reader(state, name)``
    callable so a caching reader (:meth:`EvalContext.read_shared`) can be substituted.
    """
    cls = state.__class__
    is_mapping = _IS_MAPPING_TYPE.get(cls)
    if is_mapping is None:
        is_mapping = isinstance(state, Mapping)
        _IS_MAPPING_TYPE[cls] = is_mapping
    if is_mapping:
        if name not in state:
            raise EvaluationError(f"shared variable {name!r} not found in state mapping")
        return state[name]
    try:
        return getattr(state, name)
    except AttributeError as exc:
        raise EvaluationError(
            f"shared variable {name!r} is not an attribute of {type(state).__name__}"
        ) from exc


# ---------------------------------------------------------------------------
# The interpreter: module-level dispatch, no per-call closures
# ---------------------------------------------------------------------------

_BINOPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "//": operator.floordiv,
    "/": operator.truediv,
    "%": operator.mod,
}

_COMPARES = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _ev(node: Expr, state: object, locals_map: Mapping[str, object], reader) -> object:
    handler = _DISPATCH.get(type(node))
    if handler is None:
        raise EvaluationError(f"unknown IR node type: {type(node)!r}")
    return handler(node, state, locals_map, reader)


def _ev_const(node, state, locals_map, reader):
    return node.value


def _ev_name(node, state, locals_map, reader):
    scope = node.scope
    if scope is Scope.LOCAL:
        if node.ident not in locals_map:
            raise EvaluationError(
                f"no value supplied for local variable {node.ident!r}"
            )
        return locals_map[node.ident]
    if scope is Scope.SHARED:
        return reader(state, node.ident)
    # Unresolved name: prefer an explicitly supplied local, then state.
    if node.ident in locals_map:
        return locals_map[node.ident]
    return reader(state, node.ident)


def _ev_attribute(node, state, locals_map, reader):
    return getattr(_ev(node.value, state, locals_map, reader), node.attr)


def _ev_subscript(node, state, locals_map, reader):
    container = _ev(node.value, state, locals_map, reader)
    index = _ev(node.index, state, locals_map, reader)
    try:
        return container[index]
    except (TypeError, IndexError, KeyError) as exc:
        raise EvaluationError(
            f"cannot index {type(container).__name__} with {index!r}"
        ) from exc


def _ev_call(node, state, locals_map, reader):
    args = [_ev(arg, state, locals_map, reader) for arg in node.args]
    if node.receiver is None:
        builtin = _BUILTINS.get(node.func)
        if builtin is not None:
            return builtin(*args)
        # Query method on the monitor object itself.
        target = state
    else:
        target = _ev(node.receiver, state, locals_map, reader)
    try:
        method = getattr(target, node.func)
    except AttributeError as exc:
        raise EvaluationError(
            f"{type(target).__name__} has no method {node.func!r}"
        ) from exc
    return method(*args)


def _ev_unaryop(node, state, locals_map, reader):
    if node.op == "-":
        return -_ev(node.operand, state, locals_map, reader)
    raise EvaluationError(f"unknown unary operator {node.op!r}")


def _ev_binop(node, state, locals_map, reader):
    apply = _BINOPS.get(node.op)
    if apply is None:
        raise TypeError(f"unknown operator {node.op!r}")
    try:
        return apply(
            _ev(node.left, state, locals_map, reader),
            _ev(node.right, state, locals_map, reader),
        )
    except ZeroDivisionError as exc:
        raise EvaluationError("division by zero while evaluating predicate") from exc


def _ev_compare(node, state, locals_map, reader):
    apply = _COMPARES.get(node.op)
    if apply is None:
        raise TypeError(f"unknown comparison {node.op!r}")
    return apply(
        _ev(node.left, state, locals_map, reader),
        _ev(node.right, state, locals_map, reader),
    )


def _ev_not(node, state, locals_map, reader):
    return not _ev(node.operand, state, locals_map, reader)


def _ev_and(node, state, locals_map, reader):
    for operand in node.operands:
        if not _ev(operand, state, locals_map, reader):
            return False
    return True


def _ev_or(node, state, locals_map, reader):
    for operand in node.operands:
        if _ev(operand, state, locals_map, reader):
            return True
    return False


_DISPATCH: Dict[type, Callable] = {
    Const: _ev_const,
    BoolConst: _ev_const,
    Name: _ev_name,
    Attribute: _ev_attribute,
    Subscript: _ev_subscript,
    Call: _ev_call,
    UnaryOp: _ev_unaryop,
    BinOp: _ev_binop,
    Compare: _ev_compare,
    Not: _ev_not,
    And: _ev_and,
    Or: _ev_or,
}


def evaluate(
    expr: Expr,
    state: object,
    local_values: Optional[Mapping[str, object]] = None,
    reader: Optional[Callable[[object, str], object]] = None,
) -> object:
    """Evaluate *expr*, reading shared names from *state* and local names from
    *local_values*.  Returns the raw value (not coerced to bool).

    *reader* overrides how shared variables are read (default
    :func:`read_shared`); :class:`EvalContext` passes its memoizing reader
    here so interpreted evaluation also benefits from per-pass caching.
    """
    return _ev(
        expr,
        state,
        local_values if local_values else _EMPTY_LOCALS,
        reader if reader is not None else read_shared,
    )


def evaluate_bool(
    expr: Expr,
    state: object,
    local_values: Optional[Mapping[str, object]] = None,
    reader: Optional[Callable[[object, str], object]] = None,
) -> bool:
    """Evaluate *expr* and coerce the result to a boolean."""
    return bool(evaluate(expr, state, local_values, reader))


# ---------------------------------------------------------------------------
# Per-relay-pass evaluation context
# ---------------------------------------------------------------------------


class EvalContext:
    """Memoizing evaluation context for one relay/search pass.

    The condition manager creates one context per ``relay_signal`` /
    ``signal_many`` / ``relay_signal_fifo`` / ``find_missed_waiter`` pass.
    The monitor lock is held for the whole pass, so shared state cannot
    change mid-pass and it is sound to cache:

    * **shared-variable reads** (:meth:`read_shared`) — N predicates over the
      same monitor field cost one attribute/mapping read, and
    * **shared-expression values** (:meth:`evaluate_shared`) — the tag
      structures' per-column expressions are evaluated once per pass.

    :meth:`holds` evaluates a predicate through its compiled closure, falling
    back to the interpreter when codegen declined it or it is quarantined,
    wiring the memoizing reader into either one and attributing
    counters/timings to *stats* when given.  The context must be
    discarded at the end of the pass — caches never leak across passes.
    """

    __slots__ = ("state", "stats", "_reads", "_shared_exprs")

    def __init__(self, state: object, stats: Optional[object] = None) -> None:
        self.state = state
        self.stats = stats
        self._reads: Dict[str, object] = {}
        self._shared_exprs: Dict[str, object] = {}

    def reset(self) -> None:
        """Drop both memo caches, making the context safe for a new pass.

        The pooling alternative to discarding: the condition manager keeps
        one context per manager and resets it at the start of each relay
        pass, so a high-rate relay loop stops allocating a context (and two
        dicts) per pass.
        """
        self._reads.clear()
        self._shared_exprs.clear()

    def read_shared(self, state: object, name: str) -> object:
        """Memoized :func:`read_shared` (reader-protocol compatible)."""
        cache = self._reads
        if name in cache:
            stats = self.stats
            if stats is not None:
                stats.shared_read_cache_hits += 1
            return cache[name]
        value = read_shared(state, name)
        cache[name] = value
        return value

    def evaluate_shared(self, expr: Expr, key: str) -> object:
        """Evaluate a fully-shared expression, memoized under *key*.

        Used by the tag-directed search for the per-column shared
        expressions; *key* is the expression's canonical form.
        """
        cache = self._shared_exprs
        if key in cache:
            stats = self.stats
            if stats is not None:
                stats.shared_expr_cache_hits += 1
            return cache[key]
        value = evaluate(expr, self.state, None, reader=self.read_shared)
        cache[key] = value
        return value

    def holds(self, globalized) -> bool:
        """Evaluate a :class:`GlobalizedPredicate` through this context.

        Uses the predicate's cached compiled closure when codegen succeeded
        and it is not quarantined, the interpreter otherwise; either way
        shared reads go through the per-pass cache.
        """
        stats = self.stats
        fn = globalized.compiled_fn()
        if fn is not None:
            try:
                if stats is None:
                    return bool(fn(self.state, self.read_shared, _EMPTY_LOCALS))
                stats.compiled_evaluations += 1
                if stats.profiling:
                    started = time.perf_counter()
                    result = bool(fn(self.state, self.read_shared, _EMPTY_LOCALS))
                    stats.compiled_eval_time += time.perf_counter() - started
                    return result
                return bool(fn(self.state, self.read_shared, _EMPTY_LOCALS))
            except EvaluationError:
                # Semantic errors have guaranteed class parity with the
                # interpreter; re-running would raise the same thing.
                raise
            except Exception:
                # The closure misbehaved in a way the interpreter cannot
                # (by construction their semantics agree): quarantine it
                # and degrade to the interpreter, this pass and forever.
                globalized.quarantine()
                if stats is not None:
                    stats.compiled_evaluations -= 1
                    stats.predicate_quarantines += 1
        if stats is None:
            return bool(_ev(globalized.expr, self.state, _EMPTY_LOCALS, self.read_shared))
        stats.interpreted_evaluations += 1
        if stats.profiling:
            started = time.perf_counter()
            result = bool(
                _ev(globalized.expr, self.state, _EMPTY_LOCALS, self.read_shared)
            )
            stats.interpreted_eval_time += time.perf_counter() - started
            return result
        return bool(_ev(globalized.expr, self.state, _EMPTY_LOCALS, self.read_shared))
