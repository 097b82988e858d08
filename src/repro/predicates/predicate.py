"""High-level predicate objects used by the monitor runtime.

:func:`compile_predicate` runs the whole front-end pipeline — parse,
classify, (lazily) globalize, convert to DNF, derive tags — and produces a
:class:`CompiledPredicate`.  The monitor compiles each distinct ``waituntil``
source string once and reuses the compiled form for every call; only the
globalization step depends on the calling thread's local values.

Both predicate objects additionally carry a lazily-built **compiled
closure** (see :mod:`repro.predicates.codegen`): the IR lowered to a native
Python function with identical semantics to the tree-walking interpreter.
``compiled_fn()`` returns that function (or None when codegen declined, in
which case callers fall back to the interpreter), and ``compiled_holds`` /
``compiled_evaluate`` are the convenience wrappers that do the fallback
automatically.  Closures are cached per instance *and* memoized on the IR
tree module-wide, so re-globalizing a complex predicate with the same local
values never recompiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Mapping, Optional, Tuple

from repro.predicates.ast_nodes import Expr
from repro.predicates.classify import (
    classify,
    local_names_used,
    shared_names_used,
    uses_monitor_queries,
)
from repro.predicates.codegen import compile_batch, compile_expr, parametrize_expr
from repro.predicates.dnf import DNFPredicate, to_dnf
from repro.predicates.evaluator import _EMPTY_LOCALS, evaluate_bool, read_shared
from repro.predicates.globalization import globalize
from repro.predicates.parser import parse_predicate
from repro.predicates.tags import Tag, analyze_predicate

__all__ = [
    "GlobalizedPredicate",
    "CompiledPredicate",
    "compile_predicate",
    "clear_predicate_memo",
]

#: Sentinel distinguishing "not compiled yet" from "codegen declined" (None).
_UNCOMPILED = object()


@dataclass(frozen=True)
class GlobalizedPredicate:
    """A fully shared predicate, ready for the condition manager.

    ``canonical`` is the deterministic source form of the DNF; two
    ``waituntil`` calls whose predicates are identical after globalization
    (the paper's *syntax equivalence*) produce the same canonical string and
    therefore share a predicate-table entry and condition variable.
    """

    source: str
    expr: Expr
    dnf: DNFPredicate
    tags: Tuple[Tag, ...]
    canonical: str
    #: Per-instance cache of the lowered closure (:data:`_UNCOMPILED` until
    #: first use; None when codegen declined and the interpreter is used).
    _compiled_fn: object = field(
        default=_UNCOMPILED, init=False, repr=False, compare=False
    )
    #: Per-instance cache of the fused-batch form (lazily built, see
    #: :meth:`batch_form`).
    _batch_form: object = field(
        default=_UNCOMPILED, init=False, repr=False, compare=False
    )
    #: Per-instance cache of :meth:`read_set`.
    _read_set: object = field(
        default=_UNCOMPILED, init=False, repr=False, compare=False
    )
    #: Per-instance cache of :meth:`uses_queries`.
    _uses_queries: object = field(
        default=_UNCOMPILED, init=False, repr=False, compare=False
    )
    #: Set by :meth:`quarantine` when the compiled closure misbehaved; a
    #: quarantined predicate evaluates through the interpreter forever.
    _quarantined: bool = field(
        default=False, init=False, repr=False, compare=False
    )

    def compiled_fn(self) -> Optional[Callable]:
        """The predicate lowered to a native closure, or None (cached)."""
        if self._quarantined:
            return None
        fn = self._compiled_fn
        if fn is _UNCOMPILED:
            fn = compile_expr(self.expr)
            object.__setattr__(self, "_compiled_fn", fn)
        return fn

    def quarantine(self) -> None:
        """Permanently demote this predicate to the interpreter.

        Called when the compiled closure raised a non-semantic exception
        (anything but ``EvaluationError``, whose class parity with the
        interpreter is guaranteed): rather than failing the run, evaluation
        falls back to the tree walker, which shares the closure's semantics
        by construction.  Irreversible by design — a closure that
        misbehaved once cannot be trusted again.
        """
        object.__setattr__(self, "_quarantined", True)

    @property
    def quarantined(self) -> bool:
        """Whether the compiled closure has been quarantined."""
        return self._quarantined

    def read_set(self) -> frozenset:
        """The shared-variable names this predicate reads (cached).

        This is the dirty-set key of the incremental relay path: an entry
        evaluated false can be skipped while no name in its read set has
        been written since.
        """
        names = self._read_set
        if names is _UNCOMPILED:
            names = frozenset(shared_names_used(self.expr))
            object.__setattr__(self, "_read_set", names)
        return names

    def uses_queries(self) -> bool:
        """True when the predicate calls monitor query methods (cached).

        Query results are not bounded by the predicate's shared *names*, so
        the incremental relay path never version-tracks such a predicate.
        """
        flag = self._uses_queries
        if flag is _UNCOMPILED:
            flag = uses_monitor_queries(self.expr)
            object.__setattr__(self, "_uses_queries", flag)
        return flag

    def batch_form(self) -> Optional[Tuple[Callable, Tuple[object, ...]]]:
        """The predicate's fused-batch handle ``(fn, params)``, or None.

        ``fn`` is the shape's generated batch function (shared by every
        predicate with the same constant-free structure) and ``params`` is
        this predicate's extracted constant tuple — one row of the batch.
        None when codegen cannot lower the shape; callers fall back to
        per-predicate evaluation.
        """
        if self._quarantined:
            # A quarantined predicate must not be evaluated through any
            # generated code, fused batches included.
            return None
        form = self._batch_form
        if form is _UNCOMPILED:
            shape, params = parametrize_expr(self.expr)
            fn = compile_batch(shape)
            form = (fn, params) if fn is not None else None
            object.__setattr__(self, "_batch_form", form)
        return form

    def holds(self, state: object) -> bool:
        """Evaluate the predicate against the monitor *state* (interpreted)."""
        return evaluate_bool(self.expr, state)

    def compiled_holds(self, state: object) -> bool:
        """Evaluate against *state* via the compiled closure.

        Falls back to the interpreter when codegen declined the expression,
        so this is always safe to call.
        """
        fn = self.compiled_fn()
        if fn is None:
            return evaluate_bool(self.expr, state)
        return bool(fn(state, read_shared, _EMPTY_LOCALS))

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.canonical


@dataclass
class CompiledPredicate:
    """The compiled form of one ``waituntil`` condition source string."""

    source: str
    expr: Expr
    shared_names: frozenset
    local_names: frozenset
    _shared_form: Optional[GlobalizedPredicate] = field(default=None, repr=False)
    _compiled_fn: object = field(
        default=_UNCOMPILED, repr=False, compare=False
    )
    #: See :meth:`GlobalizedPredicate.quarantine`.
    _quarantined: bool = field(default=False, repr=False, compare=False)
    #: ``(source, shared, local)`` memo key set by :func:`compile_predicate`,
    #: letting the shared-form build reuse the process-wide ingredient memo.
    _memo_key: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def is_shared(self) -> bool:
        """True when the predicate mentions no thread-local variables."""
        return not self.local_names

    @property
    def is_complex(self) -> bool:
        return bool(self.local_names)

    def read_set(self) -> frozenset:
        """The shared-variable names this predicate reads (see
        :meth:`GlobalizedPredicate.read_set`)."""
        return self.shared_names

    def compiled_fn(self) -> Optional[Callable]:
        """The (possibly complex) predicate as a native closure, or None.

        Unlike the globalized form, this closure still reads local variables
        from the ``locals_map`` argument, so it serves the monitor's initial
        ``wait_until`` check before globalization.
        """
        if self._quarantined:
            return None
        fn = self._compiled_fn
        if fn is _UNCOMPILED:
            fn = compile_expr(self.expr)
            self._compiled_fn = fn
        return fn

    def quarantine(self) -> None:
        """Demote this predicate to the interpreter for good (see
        :meth:`GlobalizedPredicate.quarantine`)."""
        self._quarantined = True

    @property
    def quarantined(self) -> bool:
        """Whether the compiled closure has been quarantined."""
        return self._quarantined

    def evaluate(
        self, state: object, local_values: Optional[Mapping[str, object]] = None
    ) -> bool:
        """Evaluate the original (possibly complex) predicate directly."""
        return evaluate_bool(self.expr, state, local_values)

    def compiled_evaluate(
        self, state: object, local_values: Optional[Mapping[str, object]] = None
    ) -> bool:
        """Like :meth:`evaluate` but through the compiled closure (with
        transparent interpreter fallback)."""
        fn = self.compiled_fn()
        if fn is None:
            return evaluate_bool(self.expr, state, local_values)
        return bool(fn(state, read_shared, local_values or _EMPTY_LOCALS))

    def globalized(
        self, local_values: Optional[Mapping[str, object]] = None
    ) -> GlobalizedPredicate:
        """Return the globalization of this predicate for *local_values*.

        Shared predicates are independent of local values, so their
        globalized form is computed once and cached.
        """
        if self.is_shared:
            if self._shared_form is None:
                self._shared_form = self._build(local_values or {})
            return self._shared_form
        if local_values is None:
            local_values = {}
        missing = self.local_names - set(local_values)
        if missing:
            from repro.predicates.errors import PredicateError

            raise PredicateError(
                f"missing values for local variables {sorted(missing)} "
                f"in predicate {self.source!r}"
            )
        return self._build(local_values)

    def _build(self, local_values: Mapping[str, object]) -> GlobalizedPredicate:
        if not local_values and self._memo_key is not None:
            # Shared predicates globalize identically every time; reuse the
            # process-wide ingredient memo and wrap fresh (the wrapper
            # carries mutable quarantine/closure state that must stay
            # per-monitor).  The memoized runtime traits seed the wrapper's
            # per-instance caches, so the per-run rebuild skips the AST
            # walks behind read_set/uses_queries/batch_form.
            expr, dnf, tags, canonical, read_set, uses_q, batch = (
                _shared_form_ingredients(*self._memo_key)
            )
            form = GlobalizedPredicate(
                source=self.source, expr=expr, dnf=dnf, tags=tags, canonical=canonical
            )
            object.__setattr__(form, "_read_set", read_set)
            object.__setattr__(form, "_uses_queries", uses_q)
            object.__setattr__(form, "_batch_form", batch)
            return form
        shared_expr = globalize(self.expr, local_values)
        dnf = to_dnf(shared_expr)
        tags = analyze_predicate(dnf)
        return GlobalizedPredicate(
            source=self.source,
            expr=dnf.to_expr(),
            dnf=dnf,
            tags=tags,
            canonical=dnf.canonical(),
        )


@lru_cache(maxsize=512)
def _classified_parts(
    source: str, shared: frozenset, local: frozenset
) -> Tuple[Expr, frozenset, frozenset]:
    """Process-wide memo of the parse→classify front end.

    The returned expression tree is immutable and shared by every
    :class:`CompiledPredicate` built from the same ``(source, shared,
    local)`` triple — across monitors, runs and exploration tasks.  Parse
    and classification *errors* are deliberately not cached (``lru_cache``
    never caches exceptions), so retry-after-fix still works.
    """
    expr = classify(parse_predicate(source), set(shared), set(local))
    return (
        expr,
        frozenset(shared_names_used(expr)),
        frozenset(local_names_used(expr)),
    )


@lru_cache(maxsize=512)
def _shared_form_ingredients(
    source: str, shared: frozenset, local: frozenset
) -> tuple:
    """Process-wide memo of the shared-form pipeline (globalize with no
    locals → DNF → tags → canonical source), all immutable artifacts.

    Also pre-computes the runtime traits the condition manager asks of
    every shared-form wrapper — the read set, the monitor-query flag and
    the fused-batch handle — so a recompilation (one per monitor per run
    during exploration) does not re-walk the expression tree for them.
    """
    expr, _, _ = _classified_parts(source, shared, local)
    shared_expr = globalize(expr, {})
    dnf = to_dnf(shared_expr)
    final = dnf.to_expr()
    shape, params = parametrize_expr(final)
    fn = compile_batch(shape)
    batch = (fn, params) if fn is not None else None
    return (
        final,
        dnf,
        analyze_predicate(dnf),
        dnf.canonical(),
        frozenset(shared_names_used(final)),
        uses_monitor_queries(final),
        batch,
    )


def clear_predicate_memo() -> None:
    """Drop the process-wide predicate artifact memos (benchmarking hook:
    the throughput benchmark's *cold* legs measure uncached builds)."""
    _classified_parts.cache_clear()
    _shared_form_ingredients.cache_clear()


def compile_predicate(
    source: str,
    shared_names: Mapping[str, object] | Tuple[str, ...] | frozenset | set | list,
    local_names: Mapping[str, object] | Tuple[str, ...] | frozenset | set | list = (),
) -> CompiledPredicate:
    """Parse and classify *source* into a :class:`CompiledPredicate`.

    ``shared_names`` and ``local_names`` may be any iterable of names (a
    mapping's keys are used when a mapping is given).  The parse/classify
    work is memoized process-wide; every call still returns a fresh
    :class:`CompiledPredicate` wrapper, because the wrapper carries mutable
    quarantine state that must not leak across monitors or runs.
    """
    key = (source, frozenset(shared_names), frozenset(local_names))
    expr, shared_used, local_used = _classified_parts(*key)
    return CompiledPredicate(
        source=source,
        expr=expr,
        shared_names=shared_used,
        local_names=local_used,
        _memo_key=key,
    )
