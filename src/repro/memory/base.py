"""Shared-object framework.

The paper's processes communicate by applying atomic operations to shared
objects (Sect. 3.1).  :class:`Memory` is the collection of shared objects of
one run: it owns the initial memory state, creates objects lazily on first
use (protocols with unbounded round structure address fresh registers every
round), and dispatches the operations of :mod:`repro.runtime.ops` to them.

Atomicity is by construction: the simulation executes exactly one operation
per global time step, so every operation is trivially linearizable at its
step's time.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Tuple

from ..obs.events import MemoryOp
from ..runtime.errors import MemoryError_
from ..runtime.ops import (
    BOT,
    ConsensusPropose,
    ImmediateWriteScan,
    Operation,
    Read,
    SnapshotScan,
    SnapshotUpdate,
    Write,
)
from ..runtime.process import System


class SharedObject:
    """Base class for atomic shared objects."""

    def describe(self) -> str:
        return type(self).__name__

    # -- checkpoint support -------------------------------------------------
    #
    # ``undo_state`` / ``restore_state`` give the model checker's memory
    # journal an O(object) snapshot of the mutable fields, so backtracking
    # can restore a checkpoint instead of replaying the run prefix.  Only
    # objects implementing both can be journaled; the journal raises for
    # anything else (mirroring the fingerprint encodability contract).

    def undo_state(self) -> Any:
        raise MemoryError_(
            f"{self.describe()} does not support checkpoint/undo"
        )

    def restore_state(self, state: Any) -> None:
        raise MemoryError_(
            f"{self.describe()} does not support checkpoint/undo"
        )


class AtomicRegister(SharedObject):
    """A multi-writer multi-reader atomic read/write register."""

    __slots__ = ("value", "write_count")

    def __init__(self, initial: Any = BOT):
        self.value = initial
        self.write_count = 0

    def read(self) -> Any:
        return self.value

    def write(self, value: Any) -> None:
        self.value = value
        self.write_count += 1

    def check_writer(self, pid: int) -> None:  # MWMR: anyone may write
        pass

    def undo_state(self) -> Any:
        return (self.value, self.write_count)

    def restore_state(self, state: Any) -> None:
        self.value, self.write_count = state


class SWMRRegister(AtomicRegister):
    """A single-writer multi-reader register.

    The base-register constructions of the literature (Afek et al.'s
    snapshots, the immediate-snapshot levels) only need SWMR registers;
    declaring a register single-writer makes the discipline machine-checked
    rather than by-convention.
    """

    __slots__ = ("writer",)

    def __init__(self, writer: int, initial: Any = BOT):
        super().__init__(initial)
        self.writer = writer

    def check_writer(self, pid: int) -> None:
        if pid != self.writer:
            raise MemoryError_(
                f"process {pid} wrote a single-writer register owned by "
                f"{self.writer}"
            )


class PrimitiveSnapshot(SharedObject):
    """An atomic-snapshot object as a primitive (one step per operation).

    The object has one position per process (Sect. 5.3): ``update(i, v)``
    writes ``v`` to position ``i`` and ``snapshot()`` atomically returns all
    positions.  Because the simulation serializes steps, the containment
    property of [1] (any two snapshots are ``⊆``-comparable) holds trivially.

    The register-based wait-free construction (used when a run must be
    register-only) lives in :mod:`repro.memory.snapshot`.
    """

    __slots__ = ("cells", "update_count")

    def __init__(self, n_cells: int):
        self.cells = [BOT] * n_cells
        self.update_count = 0

    def update(self, index: int, value: Any) -> None:
        if not 0 <= index < len(self.cells):
            raise MemoryError_(f"snapshot index {index} out of range")
        self.cells[index] = value
        self.update_count += 1

    def scan(self) -> tuple:
        return tuple(self.cells)

    def undo_state(self) -> Any:
        return (tuple(self.cells), self.update_count)

    def restore_state(self, state: Any) -> None:
        cells, self.update_count = state
        self.cells = list(cells)


class ConsensusObject(SharedObject):
    """An ``m``-process consensus object (Sect. 1, Corollary 4).

    ``propose(v)`` returns the first value ever proposed.  The object may be
    accessed by at most ``m`` *distinct* processes over its lifetime;
    an access by an ``m+1``-st process raises, which is how the type
    discipline of "solving n+1-process consensus using n-process consensus
    objects" is enforced in :mod:`repro.core.boosting`.
    """

    __slots__ = ("m", "decision", "decided", "accessors")

    def __init__(self, m: int):
        if m < 1:
            raise MemoryError_("consensus object needs m >= 1")
        self.m = m
        self.decision: Any = None
        self.decided = False
        self.accessors: set[int] = set()

    def propose(self, pid: int, value: Any) -> Any:
        self.accessors.add(pid)
        if len(self.accessors) > self.m:
            raise MemoryError_(
                f"{len(self.accessors)} distinct processes accessed an "
                f"{self.m}-process consensus object"
            )
        if not self.decided:
            self.decided = True
            self.decision = value
        return self.decision

    def undo_state(self) -> Any:
        return (self.decision, self.decided, frozenset(self.accessors))

    def restore_state(self, state: Any) -> None:
        self.decision, self.decided, accessors = state
        self.accessors = set(accessors)


#: Operations that never change object state.  Anything else dispatched to
#: the memory is journaled conservatively as a mutation (restoring an
#: unchanged state is harmless; missing a change would corrupt restores).
_READ_ONLY_OPS = frozenset({Read, SnapshotScan})

#: Sentinel undo entry: the operation created the object, so the undo is
#: deleting it.
_CREATED = object()


class MemoryJournal:
    """Reverse-delta undo log over one :class:`Memory`.

    The model checker's checkpointed backtracking attaches one of these
    (``memory.attach_journal``).  Every operation that creates or mutates
    a shared object first appends a reverse delta — copy-on-write over
    the object table, scoped to exactly the keys a step touched.
    ``mark()`` is an O(1) checkpoint token; ``undo_to(mark)`` walks the
    deltas backwards, restoring object states and deleting objects that
    were created after the mark.

    ``on_touch(key)`` (when set) fires after any forward change or undo
    of ``key`` — the incremental fingerprint subscribes to invalidate
    just that key's cached canonical fragment.
    """

    __slots__ = ("memory", "on_touch", "_log")

    def __init__(self, memory: "Memory"):
        self.memory = memory
        self.on_touch = None
        self._log: list = []

    def mark(self) -> int:
        return len(self._log)

    def record_and_execute(self, memory, handler, op, pid) -> Any:
        """Journal the pre-state of ``op``'s target, then run ``handler``.

        The delta is logged *before* execution so a handler that raises
        mid-mutation (e.g. a consensus access-limit breach after the
        accessor set grew) still restores cleanly.
        """
        key = getattr(op, "key", None)
        obj = memory._objects.get(key)
        if obj is None:
            self._log.append((key, _CREATED))
        elif op.__class__ not in _READ_ONLY_OPS:
            self._log.append((key, obj.undo_state()))
        else:
            return handler(memory, op, pid)
        try:
            return handler(memory, op, pid)
        finally:
            on_touch = self.on_touch
            if on_touch is not None:
                on_touch(key)

    def undo_to(self, mark: int) -> None:
        log = self._log
        objects = self.memory._objects
        on_touch = self.on_touch
        while len(log) > mark:
            key, state = log.pop()
            if state is _CREATED:
                objects.pop(key, None)
            else:
                objects[key].restore_state(state)
            if on_touch is not None:
                on_touch(key)


class Memory:
    """All shared objects of one run, with lazy creation and dispatch."""

    def __init__(self, system: System, default_consensus_m: int | None = None):
        self.system = system
        self._objects: Dict[Hashable, SharedObject] = {}
        self._default_consensus_m = (
            system.n_processes if default_consensus_m is None else default_consensus_m
        )
        self.op_count = 0
        #: Optional :class:`~repro.obs.events.EventBus`; the simulation
        #: attaches its own bus here so every dispatched operation is
        #: published as a :class:`~repro.obs.events.MemoryOp` event to
        #: the bus's ``MemoryOp`` and catch-all subscribers.
        self.bus = None
        #: Optional :class:`MemoryJournal`; costs one ``is None`` test per
        #: operation while detached.
        self._journal: MemoryJournal | None = None

    def attach_journal(self) -> MemoryJournal:
        """Create (or return) the undo journal for this memory."""
        if self._journal is None:
            self._journal = MemoryJournal(self)
        return self._journal

    # -- explicit creation -------------------------------------------------

    def create_register(self, key: Hashable, initial: Any = BOT) -> AtomicRegister:
        return self._create(key, AtomicRegister(initial))

    def create_swmr(self, key: Hashable, writer: int, initial: Any = BOT) -> "SWMRRegister":
        """Create a single-writer register owned by ``writer``."""
        return self._create(key, SWMRRegister(writer, initial))

    def create_snapshot(self, key: Hashable, n_cells: int | None = None) -> PrimitiveSnapshot:
        cells = self.system.n_processes if n_cells is None else n_cells
        return self._create(key, PrimitiveSnapshot(cells))

    def create_consensus(self, key: Hashable, m: int) -> ConsensusObject:
        return self._create(key, ConsensusObject(m))

    def _create(self, key: Hashable, obj: SharedObject) -> Any:
        if key in self._objects:
            raise MemoryError_(f"object {key!r} already exists")
        self._objects[key] = obj
        return obj

    # -- lookup ------------------------------------------------------------

    def get(self, key: Hashable) -> SharedObject | None:
        """Peek at an object without creating it (testing/analysis only)."""
        return self._objects.get(key)

    def keys(self) -> Tuple[Hashable, ...]:
        """The keys of every object created so far (read-only snapshot).

        Analysis code that needs to walk the footprint of a run (e.g. the
        round counter of :func:`repro.analysis.runner.max_round_reached`)
        should use this instead of reaching into private state.
        """
        return tuple(self._objects)

    def peek_register(self, key: Hashable) -> Any:
        """Read a register's value outside the run (analysis only)."""
        obj = self._objects.get(key)
        if obj is None:
            return BOT
        if not isinstance(obj, AtomicRegister):
            raise MemoryError_(f"{key!r} is a {obj.describe()}, not a register")
        return obj.value

    def __len__(self) -> int:
        return len(self._objects)

    def _lookup(self, key: Hashable, expected: type, factory) -> SharedObject:
        obj = self._objects.get(key)
        if obj is None:
            obj = factory()
            self._objects[key] = obj
        elif not isinstance(obj, expected):
            raise MemoryError_(
                f"operation expects {expected.__name__} at {key!r}, "
                f"found {obj.describe()}"
            )
        return obj

    # -- dispatch ----------------------------------------------------------
    #
    # ``execute`` is on the engine's hot path (one call per shared-object
    # step), so operations dispatch through a per-type table instead of an
    # ``isinstance`` chain.  Unknown concrete types fall back to an MRO walk
    # once and are then memoized, so ``Operation`` subclasses keep working.

    # Reads and writes are the bulk of every run's operation mix; both
    # inline ``_lookup``'s hit path (kept in sync with it) to spare the
    # call frame.

    def _exec_read(self, op: Read, pid: int) -> Any:
        reg = self._objects.get(op.key)
        if reg is None or not isinstance(reg, AtomicRegister):
            reg = self._lookup(op.key, AtomicRegister, AtomicRegister)
        return reg.read()

    def _exec_write(self, op: Write, pid: int) -> None:
        reg = self._objects.get(op.key)
        if reg is None or not isinstance(reg, AtomicRegister):
            reg = self._lookup(op.key, AtomicRegister, AtomicRegister)
        reg.check_writer(pid)
        reg.write(op.value)
        return None

    def _exec_snapshot_update(self, op: SnapshotUpdate, pid: int) -> None:
        snap = self._lookup(
            op.key,
            PrimitiveSnapshot,
            lambda: PrimitiveSnapshot(self.system.n_processes),
        )
        snap.update(op.index, op.value)
        return None

    def _exec_snapshot_scan(self, op: SnapshotScan, pid: int) -> tuple:
        snap = self._lookup(
            op.key,
            PrimitiveSnapshot,
            lambda: PrimitiveSnapshot(self.system.n_processes),
        )
        return snap.scan()

    def _exec_immediate(self, op: ImmediateWriteScan, pid: int) -> Any:
        from .immediate import ImmediateSnapshotObject

        obj = self._lookup(
            op.key,
            ImmediateSnapshotObject,
            lambda: ImmediateSnapshotObject(self.system.n_processes),
        )
        return obj.write_and_scan(op.index, op.value)

    def _exec_consensus(self, op: ConsensusPropose, pid: int) -> Any:
        cons = self._lookup(
            op.key,
            ConsensusObject,
            lambda: ConsensusObject(self._default_consensus_m),
        )
        return cons.propose(pid, op.value)

    #: Exact-type dispatch table.  Subclass resolution is precomputed at
    #: registration time (import, or :meth:`register_operation`) — never
    #: memoized from the hot path, which mutated class state from instance
    #: code and raced under the farm's threaded heartbeat.
    _HANDLERS = {
        Read: _exec_read,
        Write: _exec_write,
        SnapshotUpdate: _exec_snapshot_update,
        SnapshotScan: _exec_snapshot_scan,
        ImmediateWriteScan: _exec_immediate,
        ConsensusPropose: _exec_consensus,
    }

    @classmethod
    def register_operation(cls, op_type, handler=None) -> None:
        """Register ``handler`` for ``op_type`` (resolved from its bases
        when omitted) and re-precompute subclass dispatch."""
        from ..runtime.simulation import (
            _HANDLER_LOCK,
            precompute_op_handlers,
            resolve_op_handler,
        )

        with _HANDLER_LOCK:
            table = dict(cls._HANDLERS)
            if handler is None:
                handler = resolve_op_handler(table, op_type)
                if handler is None:
                    raise MemoryError_(
                        f"no handler registered for {op_type!r} or its bases"
                    )
            table[op_type] = handler
            precompute_op_handlers(table)
            cls._HANDLERS = table

    def execute(self, op: Operation, pid: int) -> Any:
        """Apply one shared-object operation; returns its response."""
        self.op_count += 1
        bus = self.bus
        if bus is not None and bus.active:
            # Inline of ``EventBus.wants`` + ``publish`` (kept in sync
            # with them): instrumented runs come through here about once
            # per step, and only a subscriber to MemoryOp (or to every
            # event) gets one built.
            handler = bus._dispatch.get(MemoryOp)
            if handler is not None or bus._catch_all:
                try:
                    key = op.key
                except AttributeError:  # exotic op without a key slot
                    key = None
                event = MemoryOp(-1, pid, op.__class__.__name__, key)
                if handler is not None:
                    handler(event)
                for handler in bus._catch_all:
                    handler(event)
        handlers = self._HANDLERS
        handler = handlers.get(op.__class__)
        if handler is None:
            # Read-only MRO fallback for unregistered late subclasses.
            for base in op.__class__.__mro__[1:]:
                handler = handlers.get(base)
                if handler is not None:
                    break
            else:
                raise MemoryError_(f"not a shared-object operation: {op!r}")
        journal = self._journal
        if journal is None:
            return handler(self, op, pid)
        return journal.record_and_execute(self, handler, op, pid)
