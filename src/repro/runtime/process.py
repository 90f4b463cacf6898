"""Process automata and their runtime state.

The paper's system is a set ``Π = {p1, …, p_{n+1}}`` of ``n + 1`` processes.
We index processes ``0 … n`` (so the paper's ``p_i`` is pid ``i - 1``) and
write ``system.n`` for the paper's ``n`` (= max crashes in the wait-free
case).

A *protocol* is a generator function

    def protocol(ctx: ProcessContext, value):
        ...
        response = yield SomeOperation(...)
        ...

Each ``yield`` is one atomic step (see :mod:`repro.runtime.ops`).  A
protocol that ``return``s stops taking protocol steps; the process is still
*correct* if it never crashes (the model's infinitely-many-steps requirement
is satisfied by implicit no-op idling, which the simulation does not need to
materialize).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Callable, Generator, Iterable, Optional, Sequence

from .errors import ProtocolError
from .ops import Operation

#: Type of a protocol generator: yields Operations, receives responses.
ProtocolGen = Generator[Operation, Any, Any]
#: Type of a protocol factory: ``(ctx, input_value) -> generator``.
Protocol = Callable[["ProcessContext", Any], ProtocolGen]


@dataclasses.dataclass(frozen=True)
class System:
    """The static process universe ``Π``.

    Parameters
    ----------
    n_processes:
        ``|Π| = n + 1`` in the paper's notation.  Must be at least 2.
    """

    n_processes: int

    def __post_init__(self) -> None:
        if self.n_processes < 2:
            raise ValueError("a distributed system needs at least 2 processes")

    @property
    def n(self) -> int:
        """The paper's ``n`` (``|Π| - 1``; max crashes in the wait-free case)."""
        return self.n_processes - 1

    @property
    def pids(self) -> range:
        """All process identifiers ``0 … n``."""
        return range(self.n_processes)

    @property
    def pid_set(self) -> frozenset[int]:
        """``Π`` as a frozenset, for complement computations."""
        return frozenset(self.pids)

    def complement(self, pids: Iterable[int]) -> frozenset[int]:
        """``Π − pids`` — used by the complement reductions of Sect. 4."""
        return self.pid_set - frozenset(pids)

    def validate_pid(self, pid: int) -> None:
        if not 0 <= pid < self.n_processes:
            raise ValueError(f"pid {pid} outside Π = 0..{self.n}")


@dataclasses.dataclass
class ProcessContext:
    """Per-process, read-only view handed to a protocol generator."""

    pid: int
    system: System

    @property
    def others(self) -> frozenset[int]:
        """All pids except this process's own."""
        return self.system.pid_set - {self.pid}


class ProcessStatus(enum.Enum):
    """Lifecycle of a process inside one simulation run."""

    RUNNING = "running"
    RETURNED = "returned"
    CRASHED = "crashed"


# Module-level aliases: enum member access goes through a descriptor, and
# ``resume`` reads these once per atomic step.
_RUNNING = ProcessStatus.RUNNING
_RETURNED = ProcessStatus.RETURNED


class ProcessRuntime:
    """Mutable simulation-side state of one process.

    Tracks the protocol generator, the operation it is blocked on, its
    decision (if any) and its currently emitted emulated output.

    ``__slots__`` because one runtime exists per process per run and every
    engine step reads and writes several of these fields; slot access also
    keeps :meth:`resume` — run once per engine step, inline in
    :meth:`~repro.runtime.simulation.Simulation.step` — cheap.
    """

    __slots__ = (
        "ctx",
        "pid",
        "input_value",
        "status",
        "decision",
        "has_decided",
        "emitted",
        "has_emitted",
        "steps_taken",
        "return_value",
        "pending_op",
        "_protocol",
        "_generator",
    )

    def __init__(self, ctx: ProcessContext, protocol: Protocol, input_value: Any):
        self.ctx = ctx
        self.pid = ctx.pid
        self.input_value = input_value
        self.status = ProcessStatus.RUNNING
        self.decision: Any = None
        self.has_decided = False
        self.emitted: Any = None
        self.has_emitted = False
        self.steps_taken = 0
        self.return_value: Any = None
        self._protocol = protocol
        self._generator: Optional[ProtocolGen] = protocol(ctx, input_value)
        self.pending_op: Optional[Operation] = None
        self._prime()

    def _prime(self) -> None:
        """Advance the generator to its first yield (no step consumed)."""
        try:
            op = next(self._generator)
        except StopIteration as stop:
            self.status = ProcessStatus.RETURNED
            self.return_value = stop.value
            return
        self.pending_op = self._check_op(op)

    def _check_op(self, op: Any) -> Operation:
        if not isinstance(op, Operation):
            raise ProtocolError(
                f"process {self.pid} yielded {op!r}, not an Operation"
            )
        return op

    def resume(self, response: Any) -> None:
        """Deliver ``response`` for the pending op and fetch the next op.

        ``_check_op`` is inlined: this method runs once per atomic step.
        ``Simulation.step`` runs a copy of this body; keep the two in sync.
        """
        if self.status is not _RUNNING:
            raise ProtocolError(f"process {self.pid} resumed while {self.status}")
        self.steps_taken += 1
        try:
            op = self._generator.send(response)
        except StopIteration as stop:
            self.status = _RETURNED
            self.return_value = stop.value
            self.pending_op = None
            return
        if not isinstance(op, Operation):
            raise ProtocolError(
                f"process {self.pid} yielded {op!r}, not an Operation"
            )
        self.pending_op = op

    def crash(self) -> None:
        """Mark the process crashed; it takes no further steps.

        The generator is *detached* (not merely closed in place): a
        checkpoint restore may revive this process, and a closed-but-held
        generator would masquerade as live and StopIteration on resume.
        """
        self.status = ProcessStatus.CRASHED
        self.pending_op = None
        generator = self._generator
        if generator is not None:
            self._generator = None
            generator.close()

    # -- checkpoint support (used by :mod:`repro.mc.checkpoint`) -----------

    @property
    def detached(self) -> bool:
        """Whether the protocol generator has been discarded (see below)."""
        return self._generator is None

    def detach_generator(self) -> None:
        """Drop the live generator after a checkpoint restore.

        Generators cannot be rewound, so when a restore moves this process
        back past steps its generator already took, the generator is
        discarded.  The runtime then serves steps from the checkpoint
        journal's history memo, and :meth:`rematerialize` rebuilds a live
        generator only on a memo miss.
        """
        generator = self._generator
        self._generator = None
        if generator is not None:
            generator.close()

    def rematerialize(self, responses: Sequence[Any]) -> int:
        """Rebuild the generator and fast-forward it through ``responses``.

        Sound for the same reason fingerprint-based state merging is
        sound: protocols are deterministic in their observations, so
        replaying the recorded response sequence reproduces the exact
        local state.  Returns the number of generator steps replayed.
        """
        generator = self._protocol(self.ctx, self.input_value)
        steps = 0
        try:
            op = next(generator)
            for response in responses:
                steps += 1
                op = generator.send(response)
        except StopIteration as stop:
            if steps != len(responses):
                raise ProtocolError(
                    f"process {self.pid} returned after {steps} replayed "
                    f"steps but its history records {len(responses)} — "
                    "the protocol is not deterministic in its observations"
                )
            self._generator = generator
            self.status = ProcessStatus.RETURNED
            self.return_value = stop.value
            self.pending_op = None
            return steps
        self._generator = generator
        self.pending_op = self._check_op(op)
        return steps

    def record_decision(self, value: Any) -> None:
        if self.has_decided:
            raise ProtocolError(f"process {self.pid} decided twice")
        self.has_decided = True
        self.decision = value

    def record_emit(self, value: Any) -> None:
        self.has_emitted = True
        self.emitted = value

    @property
    def schedulable(self) -> bool:
        """Whether the scheduler may give this process its next step."""
        return self.status is ProcessStatus.RUNNING
