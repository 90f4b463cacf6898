"""Checkpointed backtracking for the explorer (replay-free DFS).

The explorer's DFS historically backtracked by rebuilding the simulation
and replaying the shared schedule prefix — O(depth) generator steps and
shared-object operations per backtrack, which profiling put at ~⅓ of the
exploration budget (the rest being fingerprints, now incremental too; see
:mod:`repro.mc.fingerprint`).

:class:`SimulationJournal` removes the replays.  Attached to a fresh
simulation it takes over post-step bookkeeping (``Simulation.step`` calls
:meth:`advance` instead of ``runtime.resume``) and maintains, per step:

* the **memory undo journal** (:class:`repro.memory.base.MemoryJournal`)
  — reverse deltas scoped to the keys each step touched;
* the **incremental fingerprint**
  (:class:`repro.mc.fingerprint.FingerprintState`) — per-process blake2b
  chains plus per-key memory fragments, wired to the memory journal's
  ``on_touch``, with the canonical encoder's caches living as long as the
  journal;
* a per-process **response log** (everything the process observed, in
  order) and a **history memo** mapping a process's chain digest to the
  step outcome it produced.

:meth:`checkpoint` is O(processes): scalar runtime fields, the chain
snapshot, and marks into the shared logs.  :meth:`restore` undoes memory
deltas back to the mark, truncates the trace and response logs, and
resets the runtime scalars — **without** touching protocol generators.

Generators cannot be rewound, so a restore that moves a process back past
steps its generator already took *detaches* the generator
(:meth:`repro.runtime.process.ProcessRuntime.detach_generator`).  A
detached process then serves steps virtually from the history memo: the
chain digest after folding in the new ``(op, response)`` identifies the
exact observation sequence, and protocols are deterministic in their
observations (the same assumption fingerprint dedup rests on), so the
memoized ``pending_op`` / return value *is* the step's outcome.  Only on
a memo miss — the first time a branch pushes a process past everything
it has ever executed — is a generator rebuilt and fast-forwarded through
the response log (``gen_replays`` / ``gen_replay_steps`` count exactly
this residual work; DFS over a tree re-executes each process-local
prefix at most once, so the counters collapse toward zero relative to
the old whole-run replays).

A step the encoder cannot encode leaves its process without a chain.
The journal then keeps stepping that process without the memo (a detached
process is rebuilt instead of served), and :meth:`digest` raises
:class:`~repro.mc.fingerprint.FingerprintError` until a restore moves the
process back before that step — so the explorer turns deduplication off
exactly where a full-walk fingerprint would, and never reports the step
as an error.

Not supported: message-passing runs (mailbox state has no undo journal)
— the journal refuses to attach when a network is present, and the
explorer falls back to rebuild-and-replay backtracking there.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Dict, List, Optional, Tuple

from ..runtime.process import ProcessStatus
from ..runtime.simulation import Simulation
from .fingerprint import FingerprintState

_RUNNING = ProcessStatus.RUNNING

#: The runtime fields a checkpoint saves, in :class:`Checkpoint` order.
_runtime_state = attrgetter(
    "status",
    "steps_taken",
    "pending_op",
    "has_decided",
    "decision",
    "has_emitted",
    "emitted",
    "return_value",
)


class Checkpoint:
    """O(processes) token capturing one simulation state.

    Everything mutable-per-step lives either in a scalar captured here or
    in a shared append-only log captured by an integer mark.
    """

    __slots__ = (
        "time",
        "next_crash",
        "trace_len",
        "outputs_len",
        "op_count",
        "mem_mark",
        "procs",
        "chains",
    )

    def __init__(
        self,
        time: int,
        next_crash: Optional[int],
        trace_len: int,
        outputs_len: int,
        op_count: int,
        mem_mark: int,
        procs: Tuple[tuple, ...],
        chains: Tuple[bytes, ...],
    ):
        self.time = time
        self.next_crash = next_crash
        self.trace_len = trace_len
        self.outputs_len = outputs_len
        self.op_count = op_count
        self.mem_mark = mem_mark
        self.procs = procs
        self.chains = chains


class SimulationJournal:
    """Checkpoint/restore driver over one live :class:`Simulation`."""

    __slots__ = (
        "sim",
        "_runtimes",
        "memory_journal",
        "fingerprints",
        "_responses",
        "_memo",
        "restores",
        "gen_replays",
        "gen_replay_steps",
    )

    def __init__(self, sim: Simulation):
        if sim.network is not None:
            raise ValueError(
                "checkpointed backtracking does not support message-passing "
                "runs (no undo journal over mailboxes); use replay"
            )
        self.sim = sim
        self._runtimes = [rt for _, rt in sim._ordered_runtimes]
        self.memory_journal = sim.memory.attach_journal()
        self.fingerprints = FingerprintState(sim)
        self.memory_journal.on_touch = self.fingerprints.touch
        self._responses: Dict[int, List[Any]] = {
            pid: [] for pid in sim.runtimes
        }
        for step in sim.trace.steps:  # warm attach: rebuild response logs
            self._responses[step.pid].append(step.response)
        self._memo: Dict[int, Dict[bytes, tuple]] = {
            pid: {} for pid in sim.runtimes
        }
        self.restores = 0
        self.gen_replays = 0
        self.gen_replay_steps = 0
        sim._journal = self

    # -- forward path ------------------------------------------------------

    def advance(self, runtime, op, response) -> None:
        """Post-execution half of one step (called from ``Simulation.step``
        in place of ``runtime.resume``): fold the step into the process's
        chain, log the response, and advance the process — live generator,
        memo hit, or rematerialization, in that order of preference."""
        pid = runtime.pid
        chain = self.fingerprints.extend(pid, op, response)
        self._responses[pid].append(response)
        if runtime.detached:
            hit = self._memo[pid].get(chain)
            if hit is not None:
                is_op, value = hit
                runtime.steps_taken += 1
                if is_op:
                    runtime.pending_op = value
                else:
                    runtime.status = ProcessStatus.RETURNED
                    runtime.return_value = value
                    runtime.pending_op = None
                return
            responses = self._responses[pid]
            steps = runtime.rematerialize(responses)
            self.gen_replays += 1
            self.gen_replay_steps += steps
            runtime.steps_taken = len(responses)
        else:
            runtime.resume(response)
        if chain is None:
            return  # an unencodable step: no key to remember the outcome by
        if runtime.status is _RUNNING:
            self._memo[pid][chain] = (True, runtime.pending_op)
        else:
            self._memo[pid][chain] = (False, runtime.return_value)

    def digest(self) -> str:
        """The current state's fingerprint (incremental; byte-identical to
        :func:`repro.mc.fingerprint.fingerprint`)."""
        return self.fingerprints.digest()

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self) -> Checkpoint:
        sim = self.sim
        trace = sim.trace
        return Checkpoint(
            sim.time,
            sim._next_crash,
            len(trace.steps),
            len(trace.outputs),
            sim.memory.op_count,
            self.memory_journal.mark(),
            tuple(map(_runtime_state, self._runtimes)),
            self.fingerprints.chains_snapshot(),
        )

    def restore(self, checkpoint: Checkpoint) -> None:
        """Rewind the simulation to ``checkpoint``.

        Checkpoints must be restored inner-first (LIFO, as DFS naturally
        does): the memory journal is a single shared log, and undoing to
        an older mark discards the deltas of every younger checkpoint.
        """
        sim = self.sim
        self.restores += 1
        self.memory_journal.undo_to(checkpoint.mem_mark)
        trace = sim.trace
        del trace.steps[checkpoint.trace_len:]
        del trace.outputs[checkpoint.outputs_len:]
        sim.time = checkpoint.time
        sim._next_crash = checkpoint.next_crash
        sim.memory.op_count = checkpoint.op_count
        self.fingerprints.restore_chains(checkpoint.chains)
        responses = self._responses
        for rt, saved in zip(self._runtimes, checkpoint.procs):
            steps_taken = saved[1]
            if rt.steps_taken == steps_taken:
                # Steps only accumulate between checkpoint and restore, so
                # equal counts mean the process took no step since; if it
                # did not crash either, every saved field is current.
                if rt.status is saved[0]:
                    continue
            elif not rt.detached:
                # The generator moved past the checkpoint; it cannot be
                # rewound.
                rt.detach_generator()
            (
                rt.status,
                rt.steps_taken,
                rt.pending_op,
                rt.has_decided,
                rt.decision,
                rt.has_emitted,
                rt.emitted,
                rt.return_value,
            ) = saved
            log = responses[rt.pid]
            if len(log) > steps_taken:
                del log[steps_taken:]
        sim._eligible = None
