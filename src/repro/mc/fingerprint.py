"""Deterministic state fingerprints for the model checker.

A fingerprint is a stable hash of everything that determines a run's
*future* behaviour, so that two exploration branches reaching the same
fingerprint may share their subtrees:

* **Per-process control state.**  Protocols are deterministic generators:
  a process's local state is a function of its input and the sequence of
  ``(operation, response)`` pairs it has observed.  We therefore hash each
  process's step history (plus its runtime status) instead of its Python
  frame — frames carry address-bearing objects that differ across replays
  of the *same* run.  The history enters the digest as a per-process
  **blake2b chain**: ``chain_{k+1} = blake2b(chain_k ‖ step_k)`` where
  ``step_k`` is the canonical bytes of the ``k``-th ``(op, response)``
  pair.  A chain is extended in O(1) from the single step a transition
  produced, while the chained digest still commits to the entire
  observation sequence.
* **Shared-memory contents**, encoded per object kind.  Write/update
  counters are deliberately excluded: no operation observes them.
* **Time and the pending crash set** — but only while the state is
  *time-sensitive* (:func:`time_sensitive`), that is before the run's
  :func:`sensitivity_horizon`: once a :class:`StableHistory` has
  stabilized and no crash is pending, the detector answers and the failure
  pattern are invariant under time shifts, so states reached at different
  clock values may merge.

One canonical byte encoder (:class:`Encoder`) produces every byte that
is hashed.  :class:`FingerprintState` maintains a live simulation's
digest incrementally; :func:`fingerprint` builds a fresh one over a
simulation's trace, so the full walk and the incremental digest are
byte-identical by construction.  The encoder's caches belong to the
``FingerprintState``, so they live exactly as long as one exploration.

Soundness caveats (see docs/API.md):

* Protocols must be deterministic in their observations.  Randomized
  protocols would need their RNG state folded into the process history.
* Values outside the encoder's domain (``None``, ``⊥``, ``bool``, ``int``,
  ``float``, ``str`` and tuples and frozensets of these), operations the
  encoder does not know and unknown shared-object types raise
  :class:`FingerprintError` rather than hash a ``repr``.  The explorer
  then explores without merging.
* Message-passing runs (a non-``None`` network) are always time-sensitive
  — mailbox delivery times are absolute, so almost no merging would be
  sound; the explorer disables deduplication instead.
"""

from __future__ import annotations

import hashlib
import math
import struct
from bisect import bisect_left, insort
from typing import Any, Dict, List, Optional, Tuple

from ..detectors.base import (
    ConstantHistory,
    History,
    LocallyStableHistory,
    ScriptedHistory,
    StableHistory,
)
from ..memory.base import (
    AtomicRegister,
    ConsensusObject,
    PrimitiveSnapshot,
    SWMRRegister,
)
from ..memory.immediate import ImmediateSnapshotObject
from ..runtime.errors import ReproError
from ..runtime.ops import (
    BOT,
    Broadcast,
    ConsensusPropose,
    Decide,
    Emit,
    ImmediateWriteScan,
    Nop,
    QueryFD,
    Read,
    Receive,
    Send,
    SnapshotScan,
    SnapshotUpdate,
    Write,
)
from ..runtime.process import ProcessStatus
from ..runtime.simulation import Simulation


class FingerprintError(ReproError):
    """A state holds something the fingerprint cannot canonically encode."""


# -- time sensitivity ---------------------------------------------------------


def pending_crashes(sim: Simulation) -> List[Tuple[int, int]]:
    """Crashes of participating processes still in the future, sorted."""
    t = sim.time
    return sorted(
        (pid, when)
        for pid, when in sim.pattern.crash_times.items()
        if pid in sim.runtimes and when > t
    )


def history_sensitivity_horizon(history: Optional[History]) -> float:
    """First time from which the history is provably constant.

    ``0`` for no history, a :class:`ConstantHistory`, or a (locally)
    stable history without noise; the stabilization time of a noisy one;
    one past the last scripted entry of a :class:`ScriptedHistory`.
    Unknown history classes are conservatively never constant.
    """
    if history is None or isinstance(history, ConstantHistory):
        return 0
    if isinstance(history, (StableHistory, LocallyStableHistory)):
        if history._noise is None:
            return 0
        return history.stabilization_time
    if isinstance(history, ScriptedHistory):
        return max((when for (_, when) in history._table), default=-1) + 1
    return math.inf


def sensitivity_horizon(sim: Simulation) -> float:
    """First time from which the run's states are time-insensitive.

    Fixed for a run: the latest crash time of a participating process or
    the history's horizon, whichever is later, and ``math.inf`` with a
    network attached (delivery times are absolute).
    """
    if sim.network is not None:
        return math.inf
    return max(
        [history_sensitivity_horizon(sim.history)]
        + [
            when
            for pid, when in sim.pattern.crash_times.items()
            if pid in sim.runtimes
        ]
    )


def time_sensitive(sim: Simulation) -> bool:
    """Does the absolute clock value still matter for this state's future?

    True when a network is attached, when a participating process has a
    crash scheduled in the future, or when the detector history has not
    provably stabilized yet.  Time-insensitivity is monotone: once a
    state is insensitive, all its successors are.
    """
    return sim.time < sensitivity_horizon(sim)


# -- canonical encoding -------------------------------------------------------
#
# Every encoding is prefix-free, so a concatenation of encodings is
# injective without any framing:
#
#   None   N                True   T         int  i<decimal>;
#   ⊥      B                False  F
#   float  f<IEEE 754 binary64, big-endian: 0.0 and -0.0 differ>
#   str    s<length of the UTF-8 bytes>:<UTF-8 bytes>
#   tuple  (<items>)        frozenset  {<items, sorted by their encodings>}
#
# An operation is its class tag followed by its fields in declaration
# order; a shared object is its kind tag followed by its observable fields.

_pack_float = struct.Struct(">d").pack

_OP_TAGS = {
    Read: b"r",
    Write: b"w",
    SnapshotUpdate: b"u",
    SnapshotScan: b"s",
    ImmediateWriteScan: b"i",
    ConsensusPropose: b"p",
    QueryFD: b"q",
    Decide: b"d",
    Emit: b"e",
    Send: b">",
    Broadcast: b"*",
    Receive: b"<",
    Nop: b"n",
}


class Encoder:
    """Canonical bytes of values, operations and shared objects.

    Encodes by exact type: ``True``, ``1`` and ``1.0`` encode apart, as do
    ``0.0`` and ``-0.0``.  Anything outside the domain raises
    :class:`FingerprintError`.

    Values and operations are remembered by object identity, so each
    object is encoded once per encoder.  The encoder keeps every object
    it remembers alive, which guarantees that an id is never reused while
    its entry exists; every object in the domain is immutable, so a
    remembered encoding stays correct.
    """

    __slots__ = ("_memo", "_pinned")

    def __init__(self) -> None:
        self._memo: Dict[int, bytes] = {}
        self._pinned: List[Any] = []

    def value(self, value: Any) -> bytes:
        encoded = self._memo.get(id(value))
        if encoded is None:
            encoded = self._memo[id(value)] = self._encode(value)
            self._pinned.append(value)
        return encoded

    def _encode(self, value: Any) -> bytes:
        cls = value.__class__
        if cls is str:
            raw = value.encode("utf-8", "surrogatepass")
            return b"s%d:%b" % (len(raw), raw)
        if cls is int:
            return b"i%d;" % value
        if cls is tuple:
            return b"(%b)" % b"".join([self.value(item) for item in value])
        if cls is frozenset:
            return self._set(value)
        if cls is bool:
            return b"T" if value else b"F"
        if cls is float:
            return b"f" + _pack_float(value)
        if value is None:
            return b"N"
        if value is BOT:
            return b"B"
        raise FingerprintError(
            f"cannot canonically encode {cls.__name__} value {value!r}"
        )

    def _set(self, items) -> bytes:
        return b"{%b}" % b"".join(sorted([self.value(item) for item in items]))

    def step(self, op: Any, response: Any) -> bytes:
        """One observation: the operation's bytes, then the response's."""
        encoded = self._memo.get(id(op))
        if encoded is None:
            tag = _OP_TAGS.get(op.__class__)
            if tag is None:
                raise FingerprintError(
                    f"cannot canonically encode operation {op!r}"
                )
            encoded = self._memo[id(op)] = tag + b"".join(
                [self.value(field) for field in vars(op).values()]
            )
            self._pinned.append(op)
        if response is None:
            return encoded + b"N"
        if response.__class__ is tuple:
            # A scan builds a fresh tuple every step: remember its items,
            # not the tuple, or the memo would grow with every scan.
            return b"%b(%b)" % (
                encoded, b"".join([self.value(item) for item in response])
            )
        return encoded + self.value(response)

    def shared_object(self, key: Any, obj: Any) -> bytes:
        """The observable state of one shared object."""
        cls = obj.__class__
        value = self.value
        if cls is AtomicRegister:
            return b"R" + value(obj.value)
        if cls is SWMRRegister:
            return b"W" + value(obj.writer) + value(obj.value)
        if cls is PrimitiveSnapshot:
            return b"S(%b)" % b"".join([value(cell) for cell in obj.cells])
        if cls is ImmediateSnapshotObject:
            return b"I(%b)%b" % (
                b"".join([value(cell) for cell in obj.cells]),
                self._set(obj.called),
            )
        if cls is ConsensusObject:
            return b"C%b%b%b%b" % (
                value(obj.m),
                value(obj.decided),
                value(obj.decision),
                self._set(obj.accessors),
            )
        raise FingerprintError(
            f"cannot canonically encode shared object {obj.describe()} at "
            f"key {key!r}"
        )


# -- fingerprints -------------------------------------------------------------

#: The chain of a process that has not stepped yet (chains are 16 bytes).
_EMPTY_CHAIN = bytes(16)
_blake2b = hashlib.blake2b

_RUNNING = ProcessStatus.RUNNING
_RETURNED = ProcessStatus.RETURNED
_STATUS_TAGS = (b"R", b"D", b"C")  # running, returned, crashed


class FingerprintState:
    """Incrementally maintained fingerprint of one live simulation.

    Owns the :class:`Encoder` and three caches, each invalidated by
    exactly the events that change its component:

    * per-process blake2b **chains**, extended in O(1) per executed step
      (:meth:`extend`) and restored from checkpoints on backtrack;
    * per-key **memory fragments**, dropped when the memory journal
      reports a touch (:meth:`touch`) and reassembled lazily from the
      encoder's remembered encodings of the object's contents;
    * the **key order** (keys sorted by their encodings), adjusted when a
      touch creates or deletes a key.

    The digest hashes, in one call, each process's pid, status and chain,
    then each object's key and state in key order, then — while the state
    is time-sensitive — the time and the pending crashes.  A process whose
    history holds an unencodable step has no chain, and :meth:`digest`
    raises :class:`FingerprintError` while that step is in the state.
    """

    __slots__ = (
        "_sim",
        "_encoder",
        "_procs",
        "_chains",
        "_errors",
        "_objects",
        "_keys",
        "_order",
        "_fragments",
        "_horizon",
        "_time_parts",
    )

    def __init__(self, sim: Simulation):
        self._sim = sim
        self._encoder = encoder = Encoder()
        #: (pid, runtime, label if running, if returned, if crashed)
        self._procs = [
            (pid, runtime, *[encoder.value(pid) + tag for tag in _STATUS_TAGS])
            for pid, runtime in sorted(sim.runtimes.items())
        ]
        self._chains: Dict[int, Optional[bytes]] = {
            proc[0]: _EMPTY_CHAIN for proc in self._procs
        }
        self._errors: Dict[int, str] = {}
        for step in sim.trace.steps:
            self.extend(step.pid, step.op, step.response)
        self._objects = sim.memory._objects
        #: memory key -> its encoding, for the keys in ``_order``
        self._keys: Dict[Any, bytes] = {}
        #: ``(encoding, key)`` sorted; ``None`` = rebuild at the next digest
        self._order: Optional[List[Tuple[bytes, Any]]] = None
        self._fragments: Dict[Any, bytes] = {}
        self._horizon = sensitivity_horizon(sim)
        self._time_parts: Dict[int, bytes] = {}

    # -- maintenance -------------------------------------------------------

    def extend(self, pid: int, op: Any, response: Any) -> Optional[bytes]:
        """Fold one executed step into ``pid``'s chain; returns the new
        chain (which doubles as the history-memo key in
        :mod:`repro.mc.checkpoint`), or ``None`` once the process has
        observed a step the encoder cannot encode."""
        chain = self._chains[pid]
        if chain is None:
            return None
        try:
            chain = _blake2b(
                chain + self._encoder.step(op, response), digest_size=16
            ).digest()
        except FingerprintError as exc:
            self._errors.setdefault(pid, str(exc))
            chain = None
        self._chains[pid] = chain
        return chain

    def touch(self, key: Any) -> None:
        """A step (or an undo) changed ``key``'s object: drop its fragment,
        and track a created or deleted key in the key order."""
        self._fragments.pop(key, None)
        order = self._order
        if order is None:
            return
        keys = self._keys
        if key in self._objects:
            if key not in keys:
                try:
                    encoded = keys[key] = self._encoder.value(key)
                except FingerprintError:
                    self._order = None  # the next digest raises
                    return
                insort(order, (encoded, key))
        elif key in keys:
            del order[bisect_left(order, (keys.pop(key),))]

    def chains_snapshot(self) -> Tuple[Optional[bytes], ...]:
        """The per-process chains in sorted-pid order (checkpoint state)."""
        return tuple(self._chains.values())

    def restore_chains(self, snapshot: Tuple[Optional[bytes], ...]) -> None:
        self._chains = dict(zip(self._chains, snapshot))

    # -- digest ------------------------------------------------------------

    def digest(self) -> str:
        """The state digest; byte-identical to ``fingerprint(self._sim)``."""
        chains = self._chains
        parts = []
        append = parts.append
        for pid, runtime, running, returned, crashed in self._procs:
            chain = chains[pid]
            if chain is None:
                raise FingerprintError(
                    f"process {pid} observed a step that cannot be "
                    f"canonically encoded: {self._errors[pid]}"
                )
            status = runtime.status
            append(
                running if status is _RUNNING
                else returned if status is _RETURNED
                else crashed
            )
            append(chain)
        append(b"|")
        order = self._order
        if order is None:
            order = self._rebuild_order()
        fragments = self._fragments
        for encoded, key in order:
            fragment = fragments.get(key)
            if fragment is None:
                fragment = fragments[key] = encoded + (
                    self._encoder.shared_object(key, self._objects[key])
                )
            append(fragment)
        append(b"|")
        time = self._sim.time
        if time < self._horizon:
            part = self._time_parts.get(time)
            if part is None:
                part = self._time_parts[time] = b"t" + self._encoder.value(
                    (time, tuple(pending_crashes(self._sim)))
                )
            append(part)
        return _blake2b(b"".join(parts), digest_size=16).hexdigest()

    def _rebuild_order(self) -> List[Tuple[bytes, Any]]:
        value = self._encoder.value
        keys = self._keys = {key: value(key) for key in self._objects}
        order = self._order = sorted(
            [(encoded, key) for key, encoded in keys.items()]
        )
        return order


def fingerprint(sim: Simulation) -> str:
    """A stable 128-bit hex digest of the state.

    Deterministic across replays and across processes (the encoded bytes
    never depend on object identities or hash randomization).  Computed from
    scratch by walking the trace into a fresh :class:`FingerprintState`,
    so it is byte-identical to the incrementally maintained digest of a
    :class:`~repro.mc.checkpoint.SimulationJournal` at every state.
    """
    return FingerprintState(sim).digest()
