"""Typed run events and the engine's event bus.

Every layer of the engine publishes a small set of typed events:

* :class:`StepTaken` — the engine, once per atomic step;
* :class:`FDQueried` — the engine, when a step is a detector query;
* :class:`MemoryOp` — :class:`~repro.memory.base.Memory`, per shared-object
  operation;
* :class:`MessageSent` / :class:`MessageDelivered` —
  :class:`~repro.messaging.network.Network`;
* :class:`ProcessCrashed` — the engine, when a failure pattern kills a
  process;
* :class:`Decided` / :class:`EmitChanged` — the engine, for the output
  events of part (iii) of a step;
* :class:`ProtocolViolated` — the engine, just before it raises a
  :class:`~repro.runtime.errors.ProtocolError` for a contract breach
  (e.g. a second ``Decide``);
* :class:`SchedulerDecision` — :class:`~repro.runtime.scheduler.ObservedScheduler`.

Publishing is gated on :attr:`EventBus.active`, which is true only while at
least one subscriber is attached.  The engine's fast path is therefore a
single attribute test per potential event — runs without subscribers pay
essentially nothing (see ``python -m repro profile``).  The three per-step
events — :class:`StepTaken`, :class:`FDQueried` and :class:`MemoryOp` —
are further gated on :meth:`EventBus.wants`: they are built only when a
subscriber asked for their type or for every event, so a bus that only
counts (the run's trace already holds every step) gets none of them.

Events are ``__slots__`` dataclasses and are *immutable by convention*:
a streamed run constructs one :class:`StepTaken` plus roughly one
:class:`MemoryOp` per atomic step, and the slotted plain-assignment
``__init__`` costs about a third of a ``frozen=True`` one (which routes
every field through ``object.__setattr__``).  Subscribers must treat
received events as read-only; value equality is preserved, hashing is
not (events were never hashed — identity would be the wrong key for a
stream of value objects anyway).

This module deliberately imports nothing from the rest of the library so
that any layer may depend on it without cycles.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Type


@dataclasses.dataclass(slots=True)
class Event:
    """Base class of all run events.  ``time`` is the global step index."""

    time: int


@dataclasses.dataclass(slots=True)
class StepTaken(Event):
    """One atomic step: who stepped, the operation, and its response."""

    pid: int
    op: Any
    response: Any


@dataclasses.dataclass(slots=True)
class FDQueried(Event):
    """A failure-detector query step; ``value`` is ``H(pid, time)``."""

    pid: int
    value: Any


@dataclasses.dataclass(slots=True)
class MemoryOp(Event):
    """A shared-object operation dispatched by the memory.

    ``time`` is ``-1`` when the memory is driven outside a simulation (the
    engine stamps the step time via the surrounding :class:`StepTaken`).
    """

    pid: int
    kind: str
    key: Any


@dataclasses.dataclass(slots=True)
class MessageSent(Event):
    """A message entered the network (``deliver_at`` is its arrival time)."""

    sender: int
    dest: int
    deliver_at: int


@dataclasses.dataclass(slots=True)
class MessageDelivered(Event):
    """A message left a mailbox; ``latency`` = delivery − send time."""

    dest: int
    sender: int
    latency: int


@dataclasses.dataclass(slots=True)
class ProcessCrashed(Event):
    """The failure pattern crashed ``pid`` (observed at ``time``)."""

    pid: int


@dataclasses.dataclass(slots=True)
class Decided(Event):
    """A process produced its (first and only) decision output."""

    pid: int
    value: Any


@dataclasses.dataclass(slots=True)
class EmitChanged(Event):
    """A process re-published its emulated output (the D-output variable).

    ``changed`` is false when the new value equals the previous one —
    emit *churn* is the count of events with ``changed`` true.
    """

    pid: int
    value: Any
    previous: Any
    changed: bool


@dataclasses.dataclass(slots=True)
class ProtocolViolated(Event):
    """A protocol contract breach the engine is about to raise for."""

    pid: int
    reason: str


@dataclasses.dataclass(slots=True)
class SchedulerDecision(Event):
    """The scheduler picked ``pid`` among ``eligible_count`` candidates."""

    pid: int
    eligible_count: int


# -- chaos-layer events ------------------------------------------------------
#
# Published by :mod:`repro.chaos` (fault injection) and by the resilient
# executor in :mod:`repro.perf.resilience`.  Harness-level events have no
# simulation clock, so — like :class:`MemoryOp` outside a run — they carry
# ``time = -1``.


@dataclasses.dataclass(slots=True)
class ChaosInjected(Event):
    """A chaos knob is active for this run, or the scheduler perturbed it.

    At ``time = 0`` one event per active knob: ``kind`` is the
    :class:`~repro.chaos.config.ChaosConfig` field (``"lying_prefix"``,
    ``"drop_rate"``, …) and ``detail`` its setting.  During the run the
    chaos scheduler publishes one ``"burst"`` or ``"starvation"`` event
    per perturbation it starts.
    """

    kind: str
    detail: str = ""


@dataclasses.dataclass(slots=True)
class MessageDropped(Event):
    """The faulty network discarded a message copy."""

    sender: int
    dest: int


@dataclasses.dataclass(slots=True)
class MessageDuplicated(Event):
    """The faulty network enqueued an extra copy of a message."""

    sender: int
    dest: int


@dataclasses.dataclass(slots=True)
class MessageDelayed(Event):
    """The faulty network added ``extra`` steps of reorder jitter."""

    sender: int
    dest: int
    extra: int


@dataclasses.dataclass(slots=True)
class TrialRetried(Event):
    """The resilient executor is re-running a failed trial (``time = -1``)."""

    key: str
    attempt: int
    reason: str


@dataclasses.dataclass(slots=True)
class TrialQuarantined(Event):
    """A trial spec exhausted its retries and was set aside (``time = -1``)."""

    key: str
    attempts: int
    reason: str


@dataclasses.dataclass(slots=True)
class TrialTimedOut(Event):
    """A trial hit its wall-clock watchdog (``time = -1``)."""

    key: str
    seconds: float


@dataclasses.dataclass(slots=True)
class TrialSpanRecorded(Event):
    """One timed phase of a trial's journey through the harness.

    Published by the executor's telemetry relay, and a ``retry_backoff``
    by a farm worker too (``time = -1``).  ``span`` is the phase name
    (``"queue_wait"``, ``"cache_lookup"``, ``"execute"``,
    ``"retry_backoff"``); ``seconds`` its wall-clock duration; ``key`` a
    short prefix of the trial's spec key (or ``""`` for harness-level
    spans).
    """

    span: str
    seconds: float
    key: str = ""


@dataclasses.dataclass(slots=True)
class TrialCompleted(Event):
    """A trial finished and its telemetry reached the parent (``time = -1``).

    ``kind`` is the spec kind (``"set_agreement"``, ``"extraction"``,
    ``"chaos"``, …); ``ok`` the trial's own verdict (true when the spec's
    properties held, or when the result carries no verdict); ``cached``
    whether the result was served from the trial cache.  ``stabilization``
    and ``latency`` carry the trial's stabilization time and last-decision
    step when the result exposes them (``-1`` otherwise) — the dashboard's
    latency-vs-stabilization curve is built from these.
    """

    key: str
    kind: str
    seconds: float
    ok: bool = True
    cached: bool = False
    stabilization: int = -1
    latency: int = -1


@dataclasses.dataclass(slots=True)
class FarmTrialClaimed(Event):
    """A farm worker leased one trial from the store (``time = -1``).

    Published by :mod:`repro.farm.worker` per claimed trial.  ``key`` is
    the short spec-key prefix, ``worker`` the claiming worker's id, and
    ``attempt`` the 1-based attempt number this claim starts.
    """

    key: str
    worker: str
    attempt: int = 1


@dataclasses.dataclass(slots=True)
class FarmLeaseExpired(Event):
    """An expired lease was reaped back to claimable (``time = -1``).

    Published by whichever farm participant noticed the expiry during a
    claim.  ``worker`` is the id that *held* the dead lease (``""`` if
    unknown); ``quarantined`` is true when the reap exhausted the trial's
    attempt budget and parked it instead of requeueing.
    """

    key: str
    worker: str = ""
    attempts: int = 0
    quarantined: bool = False


@dataclasses.dataclass(slots=True)
class InfraFaultInjected(Event):
    """The infra chaos layer injected one fault (``time = -1``).

    Published by :mod:`repro.chaos.infra` when an
    :class:`~repro.chaos.infra.InfraFaultPlan` fires.  ``component``
    names the wrapped subsystem (``"store"`` or ``"cache"``); ``kind``
    the fault (``"locked"``, ``"enospc"``, ``"truncate"``, ``"kill"``);
    ``op`` the operation it hit (``"claim"``, ``"complete"``,
    ``"heartbeat"``, ``"put"``…).
    """

    component: str
    kind: str
    op: str = ""


@dataclasses.dataclass(slots=True)
class AuditDivergence(Event):
    """Two run paths that must be equivalent disagreed (``time = -1``).

    Published by :mod:`repro.audit` when an oracle pair — serial vs
    parallel executor, cold vs warm cache, live vs replay, zero-severity
    chaos vs pristine, shared memory vs ABD — produces differing outcomes
    for the same logical trial.  ``pair`` names the oracle, ``kind`` the
    comparison that broke (``"result"``, ``"trace"``, ``"fingerprint"``,
    ``"contract"``), and ``detail`` a one-line description.
    """

    pair: str
    kind: str
    detail: str = ""


def event_types() -> Dict[str, Type[Event]]:
    """Every registered :class:`Event` subclass, by class name.

    Walks the subclass tree so event types declared in other modules (as
    long as they are imported) are included — the serialization round-trip
    test uses this to catch new event types that fail to encode.
    """
    out: Dict[str, Type[Event]] = {}
    frontier = list(Event.__subclasses__())
    while frontier:
        cls = frontier.pop()
        out[cls.__name__] = cls
        frontier.extend(cls.__subclasses__())
    return out


#: Signature of a subscriber: receives each published event.
Subscriber = Callable[[Event], None]


class EventBus:
    """Zero-or-more subscribers per event type, with a no-op fast path.

    Subscribers register for specific event types or for everything.
    :attr:`active` flips true only while at least one subscriber exists;
    publishers are expected to gate on it, so an idle bus costs publishers
    a single attribute read.  Publishers of the per-step events also check
    :meth:`wants` (a typed or catch-all subscriber for the event's type)
    before building one.

    Internally ``_by_type`` keeps the bookkeeping lists (for unsubscribe
    and counting) while ``_dispatch`` holds ONE callable per event type —
    the lone handler, or a :func:`combined` composition when several
    registered.  :meth:`publish` is then a dict lookup plus a call, with
    no Python-level loop on the single-subscriber path that instrumented
    runs take a few times per atomic step.
    """

    __slots__ = ("_by_type", "_dispatch", "_catch_all", "active")

    def __init__(self) -> None:
        self._by_type: Dict[Type[Event], List[Subscriber]] = {}
        self._dispatch: Dict[Type[Event], Subscriber] = {}
        self._catch_all: List[Subscriber] = []
        self.active = False

    # -- subscription ------------------------------------------------------

    def _recompose(self, kind: Type[Event]) -> None:
        handlers = self._by_type.get(kind)
        if not handlers:
            self._dispatch.pop(kind, None)
        elif len(handlers) == 1:
            self._dispatch[kind] = handlers[0]
        else:
            self._dispatch[kind] = combined(*handlers)

    def subscribe(
        self,
        handler: Subscriber,
        kinds: Optional[Iterable[Type[Event]]] = None,
    ) -> Subscriber:
        """Attach ``handler`` for ``kinds`` (or every event); returns it."""
        if kinds is None:
            self._catch_all.append(handler)
        else:
            for kind in kinds:
                self._by_type.setdefault(kind, []).append(handler)
                self._recompose(kind)
        self.active = True
        return handler

    def subscribe_map(self, mapping: Dict[Type[Event], Subscriber]) -> None:
        """Attach one handler per event type in a single call.

        Equivalent to ``subscribe(handler, (kind,))`` per entry; exists
        because wiring a fresh :class:`MetricsCollector` per trial (the
        sweep executors' "every trial is observed" contract) pays this
        setup cost thousands of times per campaign.
        """
        by_type = self._by_type
        dispatch = self._dispatch
        for kind, handler in mapping.items():
            handlers = by_type.get(kind)
            if handlers is None:
                by_type[kind] = [handler]
                dispatch[kind] = handler
            else:
                handlers.append(handler)
                dispatch[kind] = combined(*handlers)
        self.active = True

    def unsubscribe(self, handler: Subscriber) -> None:
        """Detach ``handler`` everywhere it was registered."""
        self._catch_all = [h for h in self._catch_all if h is not handler]
        for kind in list(self._by_type):
            remaining = [h for h in self._by_type[kind] if h is not handler]
            if remaining:
                self._by_type[kind] = remaining
            else:
                del self._by_type[kind]
            self._recompose(kind)
        self.active = bool(self._catch_all or self._by_type)

    def wants(self, kind: Type[Event]) -> bool:
        """Whether a ``kind`` event would reach a subscriber — a typed one
        or a catch-all.  Publishers of per-step events check this before
        building one."""
        return kind in self._dispatch or bool(self._catch_all)

    def subscriber_count(self) -> int:
        seen: List[Subscriber] = list(self._catch_all)
        for handlers in self._by_type.values():
            seen.extend(handlers)
        return len(seen)

    # -- publication -------------------------------------------------------

    def publish(self, event: Event) -> None:
        """Deliver ``event`` to its type's subscribers, then catch-alls."""
        handler = self._dispatch.get(type(event))
        if handler is not None:
            handler(event)
        if self._catch_all:
            for handler in self._catch_all:
                handler(event)


def combined(*handlers: Subscriber) -> Subscriber:
    """Compose several subscribers into one (delivery in argument order)."""

    def fan_out(event: Event, _handlers: Tuple[Subscriber, ...] = handlers) -> None:
        for handler in _handlers:
            handler(event)

    return fan_out
