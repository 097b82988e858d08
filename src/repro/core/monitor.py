"""Monitor base classes: the AutoSynch automatic-signal monitor and the
explicit-signal monitor used as the paper's comparison baseline.

Usage sketch (the automatic-signal bounded buffer from Fig. 1)::

    class BoundedBuffer(AutoSynchMonitor):
        def __init__(self, capacity, **monitor_kwargs):
            super().__init__(**monitor_kwargs)
            self.buffer = []
            self.capacity = capacity

        def put(self, item):
            self.wait_until("len(buffer) < capacity")
            self.buffer.append(item)

        def take(self):
            self.wait_until("len(buffer) > 0")
            return self.buffer.pop(0)

Every public method of a monitor subclass is an *entry method*: it runs under
the monitor lock, and when it leaves the monitor (returns or blocks in
``wait_until``) the signalling strategy decides which waiting thread to wake.
There are no condition variables and no ``signal`` calls in user code.

The ``signalling`` constructor argument selects the signalling policy.  It
resolves through the policy registry (:mod:`repro.core.signalling`), so it
accepts any registered name — including the three mechanisms compared in the
paper's evaluation:

* ``"autosynch"`` — relay signalling guided by predicate tags (the paper's
  contribution),
* ``"autosynch_t"`` — relay signalling with exhaustive predicate search
  (AutoSynch without tagging),
* ``"baseline"`` — a single condition variable and ``notify_all`` on every
  monitor exit; each woken thread re-evaluates its own predicate,

as well as the extension policies (``"relay_batched"``, ``"relay_fifo"``,
...), a :class:`~repro.core.signalling.SignallingPolicy` subclass, or a
configured policy instance.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.core.condition_manager import DEFAULT_INACTIVE_CAPACITY, ConditionManager
from repro.core.errors import MonitorUsageError
from repro.predicates.evaluator import EvaluationError
from repro.core.instrumentation import MonitorStats
from repro.core.signalling import SignallingPolicy, create_policy
from repro.core.write_tracking import WriteTracker, incremental_enabled
from repro.predicates.classify import ClassificationError
from repro.predicates.evaluator import _EMPTY_LOCALS, evaluate_bool, read_shared
from repro.predicates.predicate import (
    CompiledPredicate,
    GlobalizedPredicate,
    compile_predicate,
)
from repro.runtime.api import Backend, ConditionAPI
from repro.runtime.threads import ThreadingBackend

__all__ = [
    "AUTOMATIC_MODES",
    "MonitorBase",
    "AutoSynchMonitor",
    "ExplicitMonitor",
    "entry_method",
    "query_method",
]

#: The automatic signalling mechanisms of §6.2 (the paper's legacy modes;
#: the full, extensible list lives in the signalling-policy registry — see
#: :func:`repro.core.signalling.available_policies`).
AUTOMATIC_MODES = ("autosynch", "autosynch_t", "baseline")


def query_method(func: Callable) -> Callable:
    """Mark a method as a side-effect-free query usable inside predicates.

    Query methods are *not* wrapped as entry methods: they are called by the
    condition manager (and by entry methods) while the monitor lock is
    already held.
    """
    func._monitor_query = True
    return func


def entry_method(func: Callable) -> Callable:
    """Explicitly mark a method as a monitor entry method.

    Public methods are wrapped automatically; this decorator exists for
    wrapping a method whose name starts with an underscore, or simply for
    documentation.
    """
    func._monitor_entry = True
    return func


def _wrap_entry(func: Callable) -> Callable:
    @functools.wraps(func)
    def wrapper(self: "MonitorBase", *args: object, **kwargs: object):
        return self._run_entry(func, args, kwargs)

    wrapper._monitor_entry_wrapped = True
    return wrapper


class MonitorBase:
    """Common machinery: the monitor lock, entry-method wrapping and stats."""

    # Class-level defaults so the footprint bridge reads cleanly before (and
    # without) __init__ binding backend methods over them.
    _fp_note_write = None
    _fp_note_reads = None

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        for name, attribute in list(vars(cls).items()):
            if not callable(attribute):
                continue
            if getattr(attribute, "_monitor_entry_wrapped", False):
                continue
            if getattr(attribute, "_monitor_query", False):
                continue
            explicit = getattr(attribute, "_monitor_entry", False)
            if name.startswith("_") and not explicit:
                continue
            if not explicit and name in _NEVER_WRAPPED:
                continue
            setattr(cls, name, _wrap_entry(attribute))

    def __init__(
        self,
        backend: Optional[Backend] = None,
        profile: bool = False,
        tracer: Optional[object] = None,
    ) -> None:
        self._backend = backend if backend is not None else ThreadingBackend()
        self._stats = MonitorStats(profiling=profile)
        self._tracer = tracer
        self._mutex = self._backend.create_lock()
        self._owner_id: Optional[object] = None
        # Footprint bridge for schedule exploration: when the simulation
        # backend records per-decision footprints, shared-variable writes
        # (the __setattr__ hook) and predicate read sets flow into it.  Bound
        # once here so the common no-recording path costs one None check.
        if getattr(self._backend, "records_footprints", False):
            self._fp_note_write = self._backend.note_write
            self._fp_note_reads = self._backend.note_reads

    # -- public introspection ------------------------------------------------

    @property
    def stats(self) -> MonitorStats:
        """Event counters and (optional) time buckets for this monitor."""
        return self._stats

    @property
    def backend(self) -> Backend:
        """The execution backend this monitor runs on."""
        return self._backend

    @property
    def tracer(self) -> Optional[object]:
        """The attached :class:`repro.core.trace.Tracer`, if any."""
        return self._tracer

    # -- entry-method machinery -----------------------------------------------

    def _holds_monitor(self) -> bool:
        return self._owner_id is not None and self._owner_id == self._backend.current_id()

    def _run_entry(self, func: Callable, args: tuple, kwargs: dict):
        if not hasattr(self, "_mutex"):
            raise MonitorUsageError(
                f"{type(self).__name__}.__init__ must call super().__init__() "
                "before any entry method is used"
            )
        if self._holds_monitor():
            # Nested call from another entry method: already inside the monitor.
            return func(self, *args, **kwargs)
        self._enter(func.__name__)
        try:
            return func(self, *args, **kwargs)
        finally:
            self._leave(func.__name__)

    def _trace(self, kind: str, predicate: Optional[str] = None, detail: Optional[str] = None) -> None:
        if self._tracer is not None:
            self._tracer.record(kind, self._backend.current_id(), predicate, detail)

    def _enter(self, method_name: str = "") -> None:
        self._stats.entries += 1
        with self._stats.time_bucket("lock_time"):
            self._mutex.acquire()
        self._owner_id = self._backend.current_id()
        self._trace("enter", detail=method_name)

    def _leave(self, method_name: str = "") -> None:
        try:
            self._before_release()
        finally:
            self._trace("exit", detail=method_name)
            self._owner_id = None
            self._mutex.release()

    def _before_release(self) -> None:
        """Hook invoked, with the lock held, every time a thread leaves the
        monitor through an entry method return."""

    def _require_monitor_held(self, operation: str) -> None:
        if not self._holds_monitor():
            raise MonitorUsageError(
                f"{operation} may only be used from inside a monitor entry method"
            )


#: Names on monitor base classes that must never be treated as entry methods.
_NEVER_WRAPPED = frozenset(
    {
        "stats",
        "backend",
        "wait_until",
        "new_condition",
        "wait_on",
        "signal",
        "signal_all",
        "condition_manager",
        "try_self_heal",
    }
)


class AutoSynchMonitor(MonitorBase):
    """Automatic-signal monitor: ``wait_until`` instead of condition variables.

    Parameters
    ----------
    backend:
        Execution backend (defaults to a private :class:`ThreadingBackend`).
    signalling:
        A registered policy name (``"autosynch"`` — the default —,
        ``"autosynch_t"``, ``"baseline"``, ``"relay_batched"``,
        ``"relay_fifo"``, ...), a :class:`SignallingPolicy` subclass, or a
        configured policy instance.
    profile:
        Enable wall-clock time buckets (Table 1 measurements).
    inactive_capacity:
        How many inactive complex predicates to keep cached for reuse.
    validate:
        Check the relay-invariance property after every relay step that
        signalled nobody (slow; used by the validation sweeps).

    Notes
    -----
    Predicates are evaluated through compiled closures, falling back to the
    interpreter for anything codegen declines and for closures quarantined
    after misbehaving.  Relay passes use dirty-set search (skip
    re-evaluating predicates none of whose shared variables were written
    since their last false evaluation) unless write tracking cannot be
    trusted for the class (a subclass overriding ``__setattr__``,
    preprocessor-transformed classes), in which case they search
    exhaustively — incremental relay is a pure optimisation, never a
    behaviour change.
    """

    #: The monitor's write tracker (None when incremental relay is off or
    #: write tracking is unsupported for this class).  A class-level default
    #: so ``__setattr__`` works during ``__init__`` itself.
    _write_tracker: Optional[WriteTracker] = None

    #: Fault-injection hook (a :class:`repro.faults.FaultInjector`), consulted
    #: before every compiled predicate evaluation.  Class-level default so
    #: monitors without fault injection pay one attribute read, nothing more.
    _fault_hook: Optional[object] = None

    def __init__(
        self,
        backend: Optional[Backend] = None,
        signalling: object = "autosynch",
        profile: bool = False,
        inactive_capacity: int = DEFAULT_INACTIVE_CAPACITY,
        tracer: Optional[object] = None,
        validate: bool = False,
        wait_timeout: Optional[float] = None,
    ) -> None:
        super().__init__(backend, profile, tracer)
        self._validate = validate
        #: Default timeout applied to every ``wait_until`` that does not pass
        #: its own (None: wait forever).  Measured in the backend's time
        #: units — seconds on real threads, scheduling steps under simulation.
        self._wait_timeout = wait_timeout
        self._inactive_capacity = inactive_capacity
        self._predicate_cache: Dict[Tuple[str, frozenset], CompiledPredicate] = {}
        self._shared_name_cache: Optional[frozenset] = None
        if incremental_enabled() and self._write_tracking_supported():
            self._write_tracker = WriteTracker()
        if isinstance(signalling, str):
            try:
                self._policy = create_policy(signalling)
            except ValueError as error:
                raise ValueError(f"unknown signalling mode: {error}") from None
        else:
            # Class/instance specs: construction errors (e.g. a bad
            # batch_limit) are the policy's own and must surface verbatim.
            self._policy = create_policy(signalling)
        self._policy.bind(self)
        self._cond_mgr: Optional[ConditionManager] = self._policy.condition_manager

    # -- write tracking ---------------------------------------------------------

    def __setattr__(self, name: str, value: object) -> None:
        # Every assignment to a public field is a shared-variable write the
        # incremental relay path must see.  In-place container mutation does
        # not come through here — which is why the condition manager only
        # trusts the version vector for scalar-valued (or declared-tracked)
        # reads.
        object.__setattr__(self, name, value)
        if not name.startswith("_"):
            tracker = self._write_tracker
            if tracker is not None:
                tracker.bump(name)
                self._stats.tracked_writes += 1
            note = self._fp_note_write
            if note is not None:
                note(name)

    def _write_tracking_supported(self) -> bool:
        """Whether this class's shared-variable writes all reach our
        ``__setattr__`` hook.

        A subclass overriding ``__setattr__`` and classes produced by the
        source-to-source preprocessor (markers ``__autosynch_source__`` /
        ``_autosynch_options``) may assign state in ways the hook never
        sees, so they get the exhaustive fallback.
        """
        cls = type(self)
        if cls.__setattr__ is not AutoSynchMonitor.__setattr__:
            return False
        if getattr(cls, "__autosynch_source__", None) is not None:
            return False
        if getattr(cls, "_autosynch_options", None) is not None:
            return False
        return True

    def _bump_write(self, name: str) -> None:
        """Record a shared-variable write that bypassed ``__setattr__``.

        The scenario runtime calls this for compiled subscript stores
        (``container[i] = value`` mutates in place); anything else that
        mutates a tracked field without assigning it must do the same.
        """
        tracker = self._write_tracker
        if tracker is not None:
            tracker.bump(name)
            self._stats.tracked_writes += 1

    # -- public API ------------------------------------------------------------

    @property
    def write_tracker(self) -> Optional[WriteTracker]:
        """The monitor's shared-variable write tracker (None when the
        incremental relay path is disabled or unsupported)."""
        return self._write_tracker

    @property
    def signalling(self) -> str:
        """Name of the signalling policy this monitor instance uses."""
        return self._policy.name

    @property
    def signalling_policy(self) -> SignallingPolicy:
        """The bound :class:`SignallingPolicy` strategy object."""
        return self._policy

    @property
    def condition_manager(self) -> Optional[ConditionManager]:
        """The policy's condition manager (None for broadcast policies)."""
        return self._cond_mgr

    def wait_until(
        self,
        predicate: str,
        timeout: Optional[float] = None,
        **local_values: object,
    ) -> None:
        """Block until *predicate* holds (the paper's ``waituntil`` statement).

        *predicate* is a Python boolean expression over the monitor's public
        fields (written either bare or as ``self.field``) and over the
        keyword arguments, which play the role of the calling thread's local
        variables and are frozen to their current values (globalization).

        *timeout* bounds the wait, in the backend's time units (seconds on
        real threads, scheduling steps under simulation — see
        :meth:`Backend.now`); when it expires with the predicate still
        false, :class:`~repro.core.errors.WaitTimeout` is raised with the
        monitor lock re-held.  None falls back to the monitor-wide
        ``wait_timeout`` default (itself None: wait forever).  ``timeout``
        is therefore a reserved name — a local variable of that name cannot
        be passed through ``local_values``.

        Must be called from inside an entry method.
        """
        self._require_monitor_held("wait_until")
        compiled = self._compiled(predicate, local_values)
        if self._evaluate_predicate(compiled, local_values):
            return
        if timeout is None:
            timeout = self._wait_timeout
        self._policy.on_wait(compiled, local_values, timeout=timeout)

    def _before_release(self) -> None:
        self._policy.on_monitor_exit()

    # -- services the signalling policies build on -------------------------------

    def _create_condition_manager(
        self, use_tags: bool, incremental: bool = True
    ) -> ConditionManager:
        """Build a condition manager wired to this monitor's lock and stats.

        ``incremental=False`` (the exhaustive-by-design policies, e.g. the
        AutoSynch-T ablation) withholds the write tracker so every pass
        stays a full search no matter what the monitor supports.
        """
        return ConditionManager(
            owner=self,
            backend=self._backend,
            lock=self._mutex,
            stats=self._stats,
            use_tags=use_tags,
            inactive_capacity=self._inactive_capacity,
            tracer=self._tracer,
            write_tracker=self._write_tracker if incremental else None,
        )

    def _evaluate_predicate(
        self,
        predicate: CompiledPredicate | GlobalizedPredicate,
        local_values: Optional[Mapping[str, object]] = None,
    ) -> bool:
        """Evaluate *predicate* on behalf of the calling thread.

        Takes the predicate's compiled closure, or the interpreter when
        codegen declined it or the closure is quarantined.  Used for the
        checks the calling thread performs itself — the initial
        ``wait_until`` test and the broadcast policy's re-check, where
        *local_values* are still live, and the relay policies' wakeup
        re-check of a globalized predicate.  The condition manager's batch
        searches instead evaluate through a shared per-pass
        :class:`~repro.predicates.evaluator.EvalContext`.
        """
        note = self._fp_note_reads
        if note is not None:
            note(predicate.read_set())
        stats = self._stats
        stats.predicate_evaluations += 1
        locals_map = local_values or _EMPTY_LOCALS
        fn = predicate.compiled_fn()
        if fn is not None:
            stats.compiled_evaluations += 1
            try:
                hook = self._fault_hook
                if hook is not None:
                    hook.on_compiled_eval(self)
                with stats.time_bucket("compiled_eval_time"):
                    return bool(fn(self, read_shared, locals_map))
            except EvaluationError:
                raise
            except Exception:
                self._quarantine(predicate, stats)
        stats.interpreted_evaluations += 1
        with stats.time_bucket("interpreted_eval_time"):
            return evaluate_bool(predicate.expr, self, locals_map)

    @staticmethod
    def _quarantine(predicate: object, stats: MonitorStats) -> None:
        """Demote a misbehaving compiled closure to the interpreter.

        ``EvaluationError`` never lands here — it has guaranteed class
        parity with the interpreter, so re-raising is the honest outcome;
        anything else means the closure diverged from the tree walker and
        can no longer be trusted.  The compiled-evaluation counter is
        rolled back so ``compiled + interpreted == predicate_evaluations``
        still holds after the interpreter answers instead.
        """
        predicate.quarantine()
        stats.compiled_evaluations -= 1
        stats.predicate_quarantines += 1

    def _create_condition(self) -> ConditionAPI:
        """Create a condition variable tied to the monitor lock."""
        return self._backend.create_condition(self._mutex)

    def _block_on(
        self, condition: ConditionAPI, timeout: Optional[float] = None
    ) -> bool:
        """Release the monitor and block on *condition* (owner bookkeeping
        and the ``await_time`` bucket included).

        Returns whether the wake-up was a notification (False: the timed
        wait expired); either way the monitor lock is re-held."""
        self._owner_id = None
        try:
            with self._stats.time_bucket("await_time"):
                return condition.wait(timeout)
        finally:
            self._owner_id = self._backend.current_id()

    def try_self_heal(self) -> Optional[ConditionAPI]:
        """Attempt to recover from an imminent deadlock (pure bookkeeping).

        Designed as a deadlock-recovery hook for the simulation kernel
        (:meth:`SimulationBackend.set_deadlock_recovery`), which calls it
        with its scheduler lock held from outside any simulated thread — so
        this method must not touch any backend primitive.  It exhaustively
        looks for a waiting predicate that is true (including waiters whose
        promised signal may have been lost in flight); if one is found while
        the dirty-set relay path is engaged, the write tracker evidently
        missed a write, so the manager is demoted to exhaustive search for
        good.  Either way the lost signal is re-promised, and the condition
        to wake is returned for the kernel to deliver — None when there is
        nothing to heal.
        """
        manager = self._cond_mgr
        if manager is None:
            return None
        entry = manager.find_missed_waiter(include_promised=True)
        if entry is None:
            return None
        stats = self._stats
        if manager.incremental:
            # The tracker let a true predicate be skipped: its dirty-set
            # bookkeeping can no longer be trusted for this monitor.
            manager.demote_to_exhaustive()
            stats.incremental_demotions += 1
        entry.pending_signals = min(entry.pending_signals + 1, entry.waiters)
        stats.signals_sent += 1
        stats.self_heal_recoveries += 1
        if self._tracer is not None:
            self._tracer.record("self_heal", None, predicate=entry.canonical)
        return entry.condition

    def _check_no_missed_signal(self) -> None:
        """Validation mode: after a relay that signalled nobody, no waiting
        predicate may be true (otherwise tag pruning lost a signal)."""
        from repro.core.errors import RelayInvarianceError

        missed = self._cond_mgr.find_missed_waiter()
        if missed is not None:
            raise RelayInvarianceError(
                "relay invariance violated: predicate "
                f"{missed.canonical!r} is true, has {missed.unsignalled_waiters} "
                "un-signalled waiter(s), but relay_signal found nothing to wake"
            )

    # -- predicate compilation ---------------------------------------------------

    def _shared_names(self) -> frozenset:
        """The monitor's public field names, memoized per instance."""
        if self._shared_name_cache is None:
            self._shared_name_cache = frozenset(
                name for name in vars(self) if not name.startswith("_")
            )
        return self._shared_name_cache

    def _compiled(
        self, source: str, local_values: Mapping[str, object]
    ) -> CompiledPredicate:
        key = (source, frozenset(local_values))
        compiled = self._predicate_cache.get(key)
        if compiled is None:
            try:
                compiled = compile_predicate(
                    source, self._shared_names(), set(local_values)
                )
            except ClassificationError:
                # A field assigned after the shared-name set was computed
                # (e.g. lazily, in a later entry method) would misclassify as
                # unknown: invalidate the memoized set and retry against the
                # monitor's current fields before giving up.
                self._shared_name_cache = None
                compiled = compile_predicate(
                    source, self._shared_names(), set(local_values)
                )
            self._predicate_cache[key] = compiled
        return compiled


class ExplicitMonitor(MonitorBase):
    """Conventional explicit-signal monitor (the paper's comparison point).

    Subclasses create condition variables with :meth:`new_condition` and use
    :meth:`wait_on`, :meth:`signal` and :meth:`signal_all` inside entry
    methods — exactly the discipline required by ``java.util.concurrent``,
    including the burden of choosing the right condition to signal.
    """

    def __init__(
        self,
        backend: Optional[Backend] = None,
        profile: bool = False,
        tracer: Optional[object] = None,
    ) -> None:
        super().__init__(backend, profile, tracer)

    def new_condition(self, name: Optional[str] = None) -> ConditionAPI:
        """Create a condition variable tied to the monitor lock."""
        condition = self._backend.create_condition(self._mutex)
        if name is not None and hasattr(condition, "label"):
            condition.label = name
        return condition

    @staticmethod
    def _condition_label(condition: ConditionAPI) -> str:
        label = getattr(condition, "label", None)
        return label if label is not None else f"condition@{id(condition):#x}"

    def wait_on(self, condition: ConditionAPI) -> None:
        """Wait on *condition* (the monitor lock is released while waiting)."""
        self._require_monitor_held("wait_on")
        self._stats.waits += 1
        self._trace("wait", predicate=self._condition_label(condition))
        self._owner_id = None
        try:
            with self._stats.time_bucket("await_time"):
                condition.wait()
        finally:
            self._owner_id = self._backend.current_id()
        self._stats.wakeups += 1
        self._trace("wakeup", predicate=self._condition_label(condition))

    def signal(self, condition: ConditionAPI) -> None:
        """Wake one thread waiting on *condition*."""
        self._require_monitor_held("signal")
        self._stats.signals_sent += 1
        self._trace("signal", predicate=self._condition_label(condition))
        condition.notify()

    def signal_all(self, condition: ConditionAPI) -> None:
        """Wake every thread waiting on *condition*."""
        self._require_monitor_held("signal_all")
        self._stats.signal_alls_sent += 1
        self._trace("signal_all", predicate=self._condition_label(condition))
        condition.notify_all()
