"""Predicate compilation: lower IR trees to native Python closures.

The tree-walking interpreter in :mod:`repro.predicates.evaluator` pays one
dispatch lookup plus one Python function call *per IR node per evaluation* —
and ``GlobalizedPredicate.holds`` is the hottest call in the whole runtime
(every candidate entry on every monitor exit).  This module removes that tax
by lowering each predicate once into generated Python source, compiling it
with :func:`compile`, and caching the resulting function.

Semantics are kept bit-for-bit identical to the interpreter, including which
exceptions are raised (the engine-equivalence property test enforces this):

* shared-variable reads go through the same *reader* protocol
  (``reader(state, name)``) so :class:`~repro.predicates.evaluator.EvalContext`
  can memoize them per relay pass,
* subscripting, ``/ // %`` and method lookup are emitted as calls to tiny
  helpers that wrap ``TypeError``/``IndexError``/``KeyError``/
  ``ZeroDivisionError``/``AttributeError`` into
  :class:`~repro.predicates.evaluator.EvaluationError` exactly like the
  interpreter does,
* ``and``/``or`` results are coerced with ``bool`` (the interpreter returns
  strict booleans, not the last operand).

Generated functions have the signature ``fn(state, reader, locals_map)`` and
return the raw (uncoerced) value, mirroring ``evaluate``.

:func:`compile_expr` returns ``None`` for IR it cannot lower (unknown node
types, unsupported operators) — callers fall back to the interpreter, so
compilation is a pure optimisation, never a behaviour change.  Every
evaluation takes the compiled closure when one exists and the interpreter
otherwise, including after a closure has been quarantined for misbehaving.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, List, Optional

from repro.predicates.ast_nodes import (
    And,
    Attribute,
    BinOp,
    BoolConst,
    Call,
    COMPARISON_OPS,
    Compare,
    Const,
    Expr,
    Name,
    Not,
    Or,
    Scope,
    Subscript,
    UnaryOp,
    unparse,
)
from repro.predicates.evaluator import _BUILTINS, EvaluationError

__all__ = [
    "compile_expr",
    "compile_batch",
    "compiled_source",
    "parametrize_expr",
]

#: How many distinct lowered predicates are kept compiled.  Complex
#: predicates globalize to a fresh tree per distinct local value, so the
#: cache must be bounded; 1024 comfortably covers every workload in the
#: benchmark suite while capping memory on adversarial ones.
CODEGEN_CACHE_SIZE = 1024


class _Unsupported(Exception):
    """Internal: the expression contains something codegen cannot lower."""


# ---------------------------------------------------------------------------
# Runtime helpers referenced by the generated code
# ---------------------------------------------------------------------------


def _cg_local(locals_map, name):
    if name not in locals_map:
        raise EvaluationError(f"no value supplied for local variable {name!r}")
    return locals_map[name]


def _cg_unknown(state, reader, locals_map, name):
    if name in locals_map:
        return locals_map[name]
    return reader(state, name)


def _cg_subscript(container, index):
    try:
        return container[index]
    except (TypeError, IndexError, KeyError) as exc:
        raise EvaluationError(
            f"cannot index {type(container).__name__} with {index!r}"
        ) from exc


def _cg_div(left, right):
    try:
        return left / right
    except ZeroDivisionError as exc:
        raise EvaluationError("division by zero while evaluating predicate") from exc


def _cg_floordiv(left, right):
    try:
        return left // right
    except ZeroDivisionError as exc:
        raise EvaluationError("division by zero while evaluating predicate") from exc


def _cg_mod(left, right):
    try:
        return left % right
    except ZeroDivisionError as exc:
        raise EvaluationError("division by zero while evaluating predicate") from exc


def _cg_call_method(name, *args, target):
    # ``target`` is a keyword argument on purpose: Python evaluates keyword
    # arguments after positional ones, which reproduces the interpreter's
    # args-then-receiver-then-method evaluation order.
    try:
        method = getattr(target, name)
    except AttributeError as exc:
        raise EvaluationError(
            f"{type(target).__name__} has no method {name!r}"
        ) from exc
    return method(*args)


#: Exec namespace shared by every generated function.  Generated code never
#: contains bare user identifiers (all reads go through the reader / locals
#: helpers), so these reserved names cannot collide with predicate variables.
_NAMESPACE = {
    "__builtins__": {},
    "bool": bool,
    "__cg_local": _cg_local,
    "__cg_unknown": _cg_unknown,
    "__cg_subscript": _cg_subscript,
    "__cg_div": _cg_div,
    "__cg_floordiv": _cg_floordiv,
    "__cg_mod": _cg_mod,
    "__cg_call": _cg_call_method,
}
_NAMESPACE.update({f"__cg_b_{name}": fn for name, fn in _BUILTINS.items()})

#: Native binary operators whose exception behaviour already matches the
#: interpreter (it only wraps ZeroDivisionError, which these cannot raise).
_NATIVE_BINOPS = {"+", "-", "*"}

_WRAPPED_BINOPS = {"/": "__cg_div", "//": "__cg_floordiv", "%": "__cg_mod"}


class _Slot:
    """Placeholder constant: row-parameter *index* in a fused batch closure.

    :func:`parametrize_expr` substitutes one of these for every literal
    constant, so predicates that differ only in their constants (the typical
    shape after globalization freezes each thread's local values) collapse
    to a single *shape* — and a single generated batch function.
    """

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __eq__(self, other: object) -> bool:
        return type(other) is _Slot and other.index == self.index

    def __hash__(self) -> int:
        return hash((_Slot, self.index))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<slot {self.index}>"


def _emit_const(value: object, consts: List[object]) -> str:
    """Emit a constant: literal source when repr round-trips, else a slot in
    the function's constant tuple.

    Exact types only — an int/str *subclass* (with, say, an overridden
    ``__eq__``) must keep its identity, so it goes through the constant
    tuple rather than being reconstructed from a literal.
    """
    if type(value) is _Slot:
        return f"__cg_p[{value.index}]"
    if value is None or value is True or value is False:
        return repr(value)
    if type(value) in (int, str):
        return repr(value)
    if type(value) is float and math.isfinite(value):
        return repr(value)
    consts.append(value)
    return f"__cg_consts[{len(consts) - 1}]"


def _emit(node: Expr, consts: List[object]) -> str:
    """Lower one IR node to a (parenthesized) Python source fragment."""
    kind = type(node)
    if kind is Const:
        return _emit_const(node.value, consts)
    if kind is BoolConst:
        return "True" if node.value else "False"
    if kind is Name:
        if node.scope is Scope.SHARED:
            return f"__cg_read(state, {node.ident!r})"
        if node.scope is Scope.LOCAL:
            return f"__cg_local(__cg_locals, {node.ident!r})"
        return f"__cg_unknown(state, __cg_read, __cg_locals, {node.ident!r})"
    if kind is Attribute:
        if not node.attr.isidentifier():
            raise _Unsupported(f"attribute {node.attr!r} is not an identifier")
        return f"({_emit(node.value, consts)}).{node.attr}"
    if kind is Subscript:
        return f"__cg_subscript({_emit(node.value, consts)}, {_emit(node.index, consts)})"
    if kind is Call:
        args = ", ".join(_emit(arg, consts) for arg in node.args)
        if node.receiver is None and node.func in _BUILTINS:
            return f"__cg_b_{node.func}({args})"
        target = "state" if node.receiver is None else _emit(node.receiver, consts)
        if args:
            return f"__cg_call({node.func!r}, {args}, target={target})"
        return f"__cg_call({node.func!r}, target={target})"
    if kind is UnaryOp:
        if node.op != "-":
            raise _Unsupported(f"unary operator {node.op!r}")
        return f"(-{_emit(node.operand, consts)})"
    if kind is BinOp:
        left = _emit(node.left, consts)
        right = _emit(node.right, consts)
        if node.op in _NATIVE_BINOPS:
            return f"({left} {node.op} {right})"
        helper = _WRAPPED_BINOPS.get(node.op)
        if helper is None:
            raise _Unsupported(f"binary operator {node.op!r}")
        return f"{helper}({left}, {right})"
    if kind is Compare:
        if node.op not in COMPARISON_OPS:
            raise _Unsupported(f"comparison operator {node.op!r}")
        return f"({_emit(node.left, consts)} {node.op} {_emit(node.right, consts)})"
    if kind is Not:
        return f"(not {_emit(node.operand, consts)})"
    if kind is And:
        if not node.operands:
            return "True"
        return "bool(" + " and ".join(_emit(op, consts) for op in node.operands) + ")"
    if kind is Or:
        if not node.operands:
            return "False"
        return "bool(" + " or ".join(_emit(op, consts) for op in node.operands) + ")"
    raise _Unsupported(f"codegen does not support IR node type {kind!r}")


@lru_cache(maxsize=CODEGEN_CACHE_SIZE)
def _compile_cached(expr: Expr) -> Optional[Callable]:
    consts: List[object] = []
    try:
        body = _emit(expr, consts)
    except _Unsupported:
        return None
    source = (
        "def __cg_predicate(state, __cg_read, __cg_locals):\n"
        f"    return {body}\n"
    )
    namespace = dict(_NAMESPACE)
    namespace["__cg_consts"] = tuple(consts)
    try:
        code = compile(source, f"<predicate: {unparse(expr)[:80]}>", "exec")
        exec(code, namespace)
    except (SyntaxError, ValueError):  # pragma: no cover - defensive fallback
        return None
    fn = namespace["__cg_predicate"]
    fn.__cg_source__ = source
    return fn


def compile_expr(expr: Expr) -> Optional[Callable]:
    """Lower *expr* to a native Python function, or None when unsupported.

    The returned function has signature ``fn(state, reader, locals_map)``
    and the exact raw-value/exception semantics of
    :func:`repro.predicates.evaluator.evaluate`.  Results are memoized on
    the (hashable, immutable) IR tree, so repeated globalizations of the
    same predicate share one compilation.
    """
    try:
        return _compile_cached(expr)
    except TypeError:
        # An unhashable constant (no IR the parser emits, but defensive):
        # compile without memoization.
        return _compile_cached.__wrapped__(expr)


def compiled_source(expr: Expr) -> Optional[str]:
    """Return the generated source for *expr* (None when codegen declined)."""
    fn = compile_expr(expr)
    return getattr(fn, "__cg_source__", None) if fn is not None else None


# ---------------------------------------------------------------------------
# Fused batch closures: one generated loop for a whole group of predicates
# ---------------------------------------------------------------------------


def parametrize_expr(expr: Expr) -> tuple:
    """Split *expr* into its constant-free *shape* and its constants.

    Returns ``(shape, params)`` where every :class:`Const` of *expr* has been
    replaced by a positional slot (in left-to-right order) and ``params`` is
    the tuple of extracted values.  Two globalized predicates that differ
    only in their frozen local values — ``serving == 3`` and
    ``serving == 7`` — share the same shape, which is what lets one fused
    batch closure (see :func:`compile_batch`) evaluate all of them in a
    single generated loop.  ``BoolConst`` stays inline: it is structural
    (``and True`` simplifications), not data.
    """
    params: List[object] = []

    def rebuild(node: Expr) -> Expr:
        kind = type(node)
        if kind is Const:
            params.append(node.value)
            return Const(_Slot(len(params) - 1))
        if kind in (BoolConst, Name):
            return node
        if kind is Attribute:
            return Attribute(rebuild(node.value), node.attr)
        if kind is Subscript:
            return Subscript(rebuild(node.value), rebuild(node.index))
        if kind is Call:
            receiver = rebuild(node.receiver) if node.receiver is not None else None
            return Call(node.func, tuple(rebuild(a) for a in node.args), receiver)
        if kind is UnaryOp:
            return UnaryOp(node.op, rebuild(node.operand))
        if kind is BinOp:
            return BinOp(node.op, rebuild(node.left), rebuild(node.right))
        if kind is Compare:
            return Compare(node.op, rebuild(node.left), rebuild(node.right))
        if kind is Not:
            return Not(rebuild(node.operand))
        if kind is And:
            return And(tuple(rebuild(op) for op in node.operands))
        if kind is Or:
            return Or(tuple(rebuild(op) for op in node.operands))
        raise _Unsupported(f"codegen does not support IR node type {kind!r}")

    try:
        shape = rebuild(expr)
    except _Unsupported:
        return None, ()
    return shape, tuple(params)


@lru_cache(maxsize=CODEGEN_CACHE_SIZE)
def _compile_batch_cached(shape: Expr) -> Optional[Callable]:
    consts: List[object] = []
    try:
        body = _emit(shape, consts)
    except _Unsupported:
        return None
    source = (
        "def __cg_batch(__cg_rows, state, __cg_read, __cg_locals):\n"
        "    __cg_out = []\n"
        "    __cg_append = __cg_out.append\n"
        "    for __cg_p in __cg_rows:\n"
        f"        __cg_append(bool({body}))\n"
        "    return __cg_out\n"
    )
    namespace = dict(_NAMESPACE)
    namespace["__cg_consts"] = tuple(consts)
    try:
        code = compile(source, f"<batch predicate: {unparse(shape)[:80]}>", "exec")
        exec(code, namespace)
    except (SyntaxError, ValueError):  # pragma: no cover - defensive fallback
        return None
    fn = namespace["__cg_batch"]
    fn.__cg_source__ = source
    return fn


def compile_batch(shape: Expr) -> Optional[Callable]:
    """Lower a parametrized *shape* (see :func:`parametrize_expr`) to a fused
    batch function, or None when unsupported.

    The returned function has signature
    ``fn(rows, state, reader, locals_map) -> List[bool]`` where each row is
    one predicate's extracted constant tuple: all rows are evaluated in a
    single generated loop sharing one reader (and therefore one
    :class:`~repro.predicates.evaluator.EvalContext` cache), with no
    per-predicate Python call.  Results are bool-coerced exactly like
    ``EvalContext.holds``.  Memoized on the shape, so every predicate group
    with the same structure shares one compilation.
    """
    if shape is None:
        return None
    try:
        return _compile_batch_cached(shape)
    except TypeError:
        # An unhashable constant survived into the shape (no IR the parser
        # emits, but defensive): compile without memoization.
        return _compile_batch_cached.__wrapped__(shape)
