"""The simulation engine — executes runs ``⟨F, H, S, T⟩``.

The engine owns the clock (the global step index ``t``), the shared
:class:`~repro.memory.base.Memory`, the processes'
:class:`~repro.runtime.process.ProcessRuntime` states, and the recorded
:class:`~repro.runtime.trace.Trace`.  It enforces the run requirements of
Sect. 3.3:

1. a crashed process takes no step (``p ∉ F(T[k])``),
2. a ``QueryFD`` step returns ``H(p, t)`` for the step's time,
3. steps are totally ordered (one step per time unit),
4. shared objects behave per their specifications (dispatched to
   :class:`~repro.memory.base.Memory`),
5. fairness is the scheduler's job — :meth:`Simulation.run` with a fair
   scheduler approximates "every correct process takes infinitely many
   steps" up to the step budget.

Drivers may bypass the scheduler and call :meth:`Simulation.step` directly;
the adversarial constructions of Theorems 1 and 5 do exactly that.
"""

from __future__ import annotations

import gc
import threading
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

from ..detectors.base import History
from ..failures.pattern import FailurePattern
from ..memory.base import Memory
from ..obs.events import (
    Decided,
    EmitChanged,
    EventBus,
    FDQueried,
    ProcessCrashed,
    ProtocolViolated,
    StepTaken,
)
from .errors import NonTerminationError, ProtocolError, SimulationLimitError
from .ops import (
    SHARED_OBJECT_OPS,
    Broadcast,
    Decide,
    Emit,
    Nop,
    Operation,
    QueryFD,
    Receive,
    Send,
)
from .process import (
    ProcessContext,
    ProcessRuntime,
    ProcessStatus,
    Protocol,
    System,
)
from .scheduler import RandomScheduler, Scheduler
from .trace import OutputRecord, StepRecord, Trace

_RUNNING = ProcessStatus.RUNNING
_CRASHED = ProcessStatus.CRASHED

#: Guards explicit handler registration (:meth:`Simulation.register_operation`
#: and :meth:`repro.memory.base.Memory.register_operation`).  The dispatch
#: fast path never takes it — lookups are read-only.
_HANDLER_LOCK = threading.Lock()


def resolve_op_handler(
    handlers: Mapping[type, Callable], op_type: type
) -> Optional[Callable]:
    """Find the handler for ``op_type`` by walking its MRO (read-only).

    Used as the dispatch fallback for :class:`~repro.runtime.ops.Operation`
    subclasses that were defined after import and never registered.  The
    walk never mutates the handler table: memoizing from instance code was
    a cross-instance class mutation and a data race under threads (the
    farm's heartbeat runs trials concurrently with dict writes).  Late
    subclasses either pay the walk per step or get registered once via
    ``register_operation``.
    """
    for base in op_type.__mro__[1:]:
        handler = handlers.get(base)
        if handler is not None:
            return handler
    return None


def precompute_op_handlers(handlers: Dict[type, Callable]) -> None:
    """Resolve every currently-defined Operation subclass into ``handlers``.

    Called at registration time (module import, or an explicit
    ``register_operation``) so the hot path is a single exact-type dict
    hit for every operation class known at that point.
    """
    frontier = [Operation]
    while frontier:
        cls = frontier.pop()
        for sub in cls.__subclasses__():
            if sub not in handlers:
                resolved = resolve_op_handler(handlers, sub)
                if resolved is not None:
                    handlers[sub] = resolved
            frontier.append(sub)


class Simulation:
    """One run in progress.

    Parameters
    ----------
    system:
        The process universe.
    protocols:
        Either a single protocol run by every process, or a map
        ``pid -> protocol``.
    inputs:
        Map ``pid -> proposal`` (or any per-process input); processes
        absent from the map receive ``None``.  A pid mapped to the
        :data:`NON_PARTICIPANT` sentinel is never started — this models
        the non-participating processes of the Remark after Theorem 2.
    pattern:
        The failure pattern ``F``.
    history:
        The failure-detector history ``H`` (may be ``None`` if no process
        ever queries).
    memory:
        Optionally a pre-populated memory (for typed objects such as
        ``m``-process consensus objects).
    bus:
        Optionally an :class:`~repro.obs.events.EventBus`; the engine (and
        the run's memory and network) publish typed events to it.  With no
        bus — or an idle one — instrumentation costs a single attribute
        test per step.
    """

    def __init__(
        self,
        system: System,
        protocols: Protocol | Mapping[int, Protocol],
        inputs: Optional[Mapping[int, Any]] = None,
        pattern: Optional[FailurePattern] = None,
        history: Optional[History] = None,
        memory: Optional[Memory] = None,
        network=None,
        bus: Optional[EventBus] = None,
    ):
        self.system = system
        self.pattern = pattern or FailurePattern.failure_free(system)
        self.history = history
        self.memory = memory if memory is not None else Memory(system)
        self.network = network
        self.bus = bus
        if bus is not None:
            self.memory.bus = bus
            if network is not None:
                network.bus = bus
        self.trace = Trace()
        self.time = 0
        #: Optional checkpoint journal (:mod:`repro.mc.checkpoint`); when
        #: attached it takes over post-step bookkeeping in :meth:`step`.
        self._journal = None
        #: Cached :meth:`eligible` list; ``None`` = dirty.  Rebuilt only
        #: when a runtime changes status or a crash fires.
        self._eligible: Optional[list] = None
        #: Cached participating-and-correct runtimes (pattern-dependent).
        self._correct_cache: Optional[list] = None
        inputs = dict(inputs or {})
        self.runtimes: Dict[int, ProcessRuntime] = {}
        for pid in system.pids:
            value = inputs.get(pid)
            if value is NON_PARTICIPANT:
                continue
            if isinstance(protocols, Mapping):
                if pid not in protocols:
                    continue  # not participating in this run
                protocol = protocols[pid]
            else:
                protocol = protocols
            ctx = ProcessContext(pid=pid, system=system)
            self.runtimes[pid] = ProcessRuntime(ctx, protocol, value)
        # Hot-path state for :meth:`eligible`: the participating runtimes in
        # pid order (computed once — the set is fixed after construction)
        # and the earliest pending crash time, so failure-free stretches of
        # a run never consult the pattern per process per step.
        self._ordered_runtimes = [
            (pid, self.runtimes[pid]) for pid in sorted(self.runtimes)
        ]
        self._recompute_next_crash()

    @property
    def pattern(self) -> FailurePattern:
        return self._pattern

    @pattern.setter
    def pattern(self, value: FailurePattern) -> None:
        # Fault-injection drivers swap the pattern mid-run; the cached
        # next-crash time (and everything derived from the pattern) must
        # follow it.
        self._pattern = value
        if hasattr(self, "_ordered_runtimes"):
            self._recompute_next_crash()
            self._eligible = None
            self._correct_cache = None

    def _recompute_next_crash(self) -> None:
        self._next_crash: Optional[int] = min(
            (
                when
                for pid, when in self._pattern.crash_times.items()
                if pid in self.runtimes
            ),
            default=None,
        )

    # -- step execution ------------------------------------------------------

    def _crash(self, runtime: ProcessRuntime) -> None:
        runtime.crash()
        self._eligible = None
        bus = self.bus
        if bus is not None and bus.active:
            bus.publish(ProcessCrashed(self.time, runtime.pid))

    def _apply_due_crashes(self) -> None:
        """Crash every runtime whose pattern time has arrived; refresh the
        earliest pending crash time."""
        t = self.time
        crash_times = self.pattern.crash_times
        pending: Optional[int] = None
        for pid, runtime in self._ordered_runtimes:
            when = crash_times.get(pid)
            if when is None:
                continue
            if when <= t:
                if runtime.status is ProcessStatus.RUNNING:
                    self._crash(runtime)
            elif pending is None or when < pending:
                pending = when
        self._next_crash = pending

    def eligible(self) -> list[int]:
        """Processes that may take the next step (alive and not returned).

        Returns a cached list when no crash has fired and no runtime has
        changed status since the last call — callers must treat it as
        read-only (every in-tree scheduler does).  The cache is replaced,
        never mutated, so holding a reference across steps is safe.
        """
        next_crash = self._next_crash
        if next_crash is not None and self.time >= next_crash:
            self._apply_due_crashes()
        cached = self._eligible
        if cached is None:
            cached = self._eligible = [
                pid
                for pid, runtime in self._ordered_runtimes
                if runtime.status is _RUNNING
            ]
        return cached

    def step(self, pid: int) -> StepRecord:
        """Execute one atomic step of ``pid`` at the current time."""
        runtime = self.runtimes.get(pid)
        if runtime is None:
            raise ProtocolError(f"pid {pid} is not participating in this run")
        # Consulting the pattern per step is only needed while a crash is
        # pending: once ``_apply_due_crashes`` has marked every due crash
        # (the invariant behind ``_next_crash``), a dead stepper is caught
        # by its CRASHED status below.
        next_crash = self._next_crash
        if (
            next_crash is not None
            and self.time >= next_crash
            and not self._pattern.is_alive(pid, self.time)
        ):
            self._crash(runtime)
            raise ProtocolError(f"pid {pid} is crashed at t={self.time}")
        if runtime.status is not _RUNNING:
            if runtime.status is _CRASHED:
                raise ProtocolError(f"pid {pid} is crashed at t={self.time}")
            raise ProtocolError(f"pid {pid} has returned; no steps left")
        op = runtime.pending_op
        # Dispatch inlined from ``_execute`` — one frame per step matters.
        handler = self._OP_HANDLERS.get(op.__class__)
        if handler is None:
            handler = resolve_op_handler(self._OP_HANDLERS, op.__class__)
            if handler is None:
                raise ProtocolError(f"unknown operation {op!r}")
        response = handler(self, op, pid)
        record = StepRecord(self.time, pid, op, response)
        # Inline of ``Trace.record`` (kept in sync with it): the call
        # frame is measurable at one record per engine step.
        trace = self.trace
        trace.steps.append(record)
        if isinstance(op, (Decide, Emit)):
            trace.outputs.append(OutputRecord(
                record.time, pid, op.value,
                "decide" if isinstance(op, Decide) else "emit",
            ))
        bus = self.bus
        if bus is not None and bus.active:
            # Inline of ``EventBus.wants`` + ``publish`` (kept in sync
            # with them): this is the highest-frequency publish site in
            # the engine, and a bus that only counts (the trace already
            # holds every step) builds no event here.
            handler = bus._dispatch.get(StepTaken)
            if handler is not None or bus._catch_all:
                event = StepTaken(self.time, pid, op, response)
                if handler is not None:
                    handler(event)
                for handler in bus._catch_all:
                    handler(event)
        self.time += 1
        journal = self._journal
        if journal is None:
            runtime.resume(response)
        else:
            journal.advance(runtime, op, response)
        if runtime.status is not _RUNNING:
            self._eligible = None
        return record

    def _violate(self, pid: int, reason: str) -> "ProtocolError":
        bus = self.bus
        if bus is not None and bus.active:
            bus.publish(ProtocolViolated(self.time, pid, reason))
        return ProtocolError(reason)

    # ``_execute`` runs once per atomic step; operations dispatch through a
    # per-type table (two dict lookups: engine, then memory) instead of an
    # ``isinstance`` chain.  When the bus is inactive no event object is
    # ever constructed — the gate sits before the constructor call, so an
    # uninstrumented run allocates nothing beyond its :class:`StepRecord`.
    # The per-step events (``StepTaken``, ``FDQueried``, ``MemoryOp``) are
    # built only for a subscriber of their type or of every event.

    def _exec_shared(self, op: Operation, pid: int) -> Any:
        return self.memory.execute(op, pid)

    def _exec_query_fd(self, op: QueryFD, pid: int) -> Any:
        if self.history is None:
            raise ProtocolError(
                f"pid {pid} queried a failure detector but the run has "
                "no history"
            )
        value = self.history.value(pid, self.time)
        bus = self.bus
        if bus is not None and bus.active and bus.wants(FDQueried):
            bus.publish(FDQueried(self.time, pid, value))
        return value

    def _exec_decide(self, op: Decide, pid: int) -> None:
        runtime = self.runtimes[pid]
        if runtime.has_decided:
            raise self._violate(
                pid,
                f"process {pid} issued a second Decide at t={self.time} "
                f"(first decision: {runtime.decision!r})",
            )
        runtime.record_decision(op.value)
        bus = self.bus
        if bus is not None and bus.active:
            bus.publish(Decided(self.time, pid, op.value))
        return None

    def _exec_emit(self, op: Emit, pid: int) -> None:
        runtime = self.runtimes[pid]
        bus = self.bus
        if bus is not None and bus.active:
            previous = runtime.emitted if runtime.has_emitted else None
            changed = not runtime.has_emitted or previous != op.value
            bus.publish(
                EmitChanged(self.time, pid, op.value, previous, changed)
            )
        runtime.record_emit(op.value)
        return None

    def _exec_nop(self, op: Nop, pid: int) -> None:
        return None

    def _require_network(self, pid: int):
        if self.network is None:
            raise ProtocolError(
                f"pid {pid} used a messaging operation but the run has "
                "no network"
            )
        return self.network

    def _exec_send(self, op: Send, pid: int) -> None:
        self._require_network(pid).send(pid, op.dest, op.payload, self.time)
        return None

    def _exec_broadcast(self, op: Broadcast, pid: int) -> None:
        self._require_network(pid).broadcast(pid, op.payload, self.time)
        return None

    def _exec_receive(self, op: Receive, pid: int) -> Any:
        return self._require_network(pid).deliver(pid, self.time)

    #: type -> handler table; populated right after the class body (a dict
    #: comprehension inside the class body could not see the methods) and
    #: precomputed for every Operation subclass known at import time.
    #: NEVER mutated from instance code: the farm's threaded heartbeat
    #: runs simulations concurrently, and a hot-path memoization write
    #: here was both a data race and a cross-instance mutation.  Exotic
    #: subclasses defined later either register once via
    #: :meth:`register_operation` or pay a read-only MRO walk per step.
    _OP_HANDLERS: Dict[type, Callable] = {}

    @classmethod
    def register_operation(
        cls, op_type: type, handler: Optional[Callable] = None
    ) -> None:
        """Register ``handler`` for ``op_type`` (resolved from its bases
        when omitted), then re-precompute subclass dispatch.  The only
        supported way to extend the dispatch table after import."""
        with _HANDLER_LOCK:
            table = dict(cls._OP_HANDLERS)
            if handler is None:
                handler = resolve_op_handler(table, op_type)
                if handler is None:
                    raise ProtocolError(
                        f"no handler registered for {op_type!r} or its bases"
                    )
            table[op_type] = handler
            precompute_op_handlers(table)
            cls._OP_HANDLERS = table

    def _execute(self, op: Operation, pid: int) -> Any:
        handlers = self._OP_HANDLERS
        handler = handlers.get(op.__class__)
        if handler is None:
            handler = resolve_op_handler(handlers, op.__class__)
            if handler is None:
                raise ProtocolError(f"unknown operation {op!r}")
        return handler(self, op, pid)

    # -- run loops -----------------------------------------------------------

    def run(
        self,
        max_steps: int,
        scheduler: Optional[Scheduler] = None,
        stop_when: Optional[Callable[["Simulation"], bool]] = None,
    ) -> Trace:
        """Run under a scheduler until ``stop_when``, quiescence, or budget.

        Returns the trace.  Does *not* raise on budget exhaustion — use
        :meth:`run_until` for runs that must reach their stop condition.
        """
        scheduler = scheduler or RandomScheduler()
        step = self.step
        pick_eligible = self.eligible
        choose = scheduler.choose
        # The loop allocates only acyclic value objects (StepRecords,
        # events, operation responses), so the cyclic collector can only
        # ever scan them and find nothing; its periodic gen-0 passes cost
        # a double-digit percentage of a long run.  Pause it for the loop
        # and restore on the way out; refcounting still reclaims
        # everything promptly, and any cyclic garbage made by subscriber
        # callbacks is collected at the next pass after re-enabling.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            for _ in range(max_steps):
                if stop_when is not None and stop_when(self):
                    break
                # Inline of ``eligible()``'s cache hit — the overwhelming
                # common case (no due crash, no status change last step).
                eligible = self._eligible
                next_crash = self._next_crash
                if eligible is None or (
                    next_crash is not None and self.time >= next_crash
                ):
                    eligible = pick_eligible()
                if not eligible:
                    break
                step(choose(self.time, eligible))
        finally:
            if gc_was_enabled:
                gc.enable()
        return self.trace

    def run_until(
        self,
        condition: Callable[["Simulation"], bool],
        max_steps: int,
        scheduler: Optional[Scheduler] = None,
    ) -> Trace:
        """Run until ``condition``; raise if the budget is exhausted first."""
        self.run(max_steps=max_steps, scheduler=scheduler, stop_when=condition)
        if not condition(self):
            raise NonTerminationError(
                f"condition not reached within {max_steps} steps "
                f"(t={self.time})",
                max_steps=max_steps,
                time=self.time,
            )
        return self.trace

    def run_script(self, script: Sequence[int]) -> None:
        """Execute an explicit pid sequence (adversary driver API).

        Due crashes are applied before every step and once after the
        last, exactly as :meth:`run` applies them through
        :meth:`eligible` — a replayed schedule must leave the run in the
        same state as the scheduled run it was recorded from, crashed
        bystanders included.
        """
        for pid in script:
            if self._next_crash is not None and self.time >= self._next_crash:
                self._apply_due_crashes()
            self.step(pid)
        if self._next_crash is not None and self.time >= self._next_crash:
            self._apply_due_crashes()

    # -- predicates ----------------------------------------------------------

    def _correct_runtimes(self) -> list[ProcessRuntime]:
        # ``pattern.correct`` rebuilds frozensets per access and the
        # termination predicates below run once per scheduled step, so the
        # participating-and-correct runtimes are cached until the pattern
        # is swapped (the membership depends on nothing else).
        cached = self._correct_cache
        if cached is None:
            correct = self._pattern.correct
            cached = self._correct_cache = [
                runtime
                for pid, runtime in self._ordered_runtimes
                if pid in correct
            ]
        return cached

    def correct_runtimes(self) -> list[ProcessRuntime]:
        return list(self._correct_runtimes())

    def all_correct_decided(self) -> bool:
        """Termination predicate for decision tasks."""
        for runtime in self._correct_runtimes():
            if not runtime.has_decided:
                return False
        return True

    def all_correct_returned(self) -> bool:
        for runtime in self._correct_runtimes():
            if runtime.status is not ProcessStatus.RETURNED:
                return False
        return True

    def decisions(self) -> Dict[int, Any]:
        return {
            pid: r.decision
            for pid, r in self.runtimes.items()
            if r.has_decided
        }

    def emulated_outputs(self) -> Dict[int, Any]:
        """Current emitted value per process (the D-output variable)."""
        return {
            pid: r.emitted
            for pid, r in self.runtimes.items()
            if r.has_emitted
        }


Simulation._OP_HANDLERS.update(
    {op_type: Simulation._exec_shared for op_type in SHARED_OBJECT_OPS}
)
Simulation._OP_HANDLERS.update(
    {
        QueryFD: Simulation._exec_query_fd,
        Decide: Simulation._exec_decide,
        Emit: Simulation._exec_emit,
        Nop: Simulation._exec_nop,
        Send: Simulation._exec_send,
        Broadcast: Simulation._exec_broadcast,
        Receive: Simulation._exec_receive,
    }
)
# Resolve dispatch for every Operation subclass already defined, so the
# hot path is one exact-type dict hit (registration-time precomputation —
# the table is frozen from the hot path's point of view).
precompute_op_handlers(Simulation._OP_HANDLERS)


class _NonParticipant:
    """Sentinel: a process that never starts its protocol."""

    def __repr__(self) -> str:
        return "NON_PARTICIPANT"


NON_PARTICIPANT = _NonParticipant()


def run_protocol(
    system: System,
    protocol: Protocol | Mapping[int, Protocol],
    inputs: Mapping[int, Any],
    pattern: Optional[FailurePattern] = None,
    history: Optional[History] = None,
    scheduler: Optional[Scheduler] = None,
    max_steps: int = 100_000,
    memory: Optional[Memory] = None,
    require_termination: bool = True,
) -> Simulation:
    """Convenience wrapper: build a simulation and run it to decision.

    With ``require_termination`` (the default) the run must end with every
    correct participating process decided, else
    :class:`~repro.runtime.errors.SimulationLimitError` is raised.
    """
    sim = Simulation(
        system,
        protocol,
        inputs=inputs,
        pattern=pattern,
        history=history,
        memory=memory,
    )
    if require_termination:
        sim.run_until(
            Simulation.all_correct_decided, max_steps=max_steps, scheduler=scheduler
        )
    else:
        sim.run(max_steps=max_steps, scheduler=scheduler)
    return sim
