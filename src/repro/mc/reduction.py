"""Sleep-set partial-order reduction.

Two steps by *distinct* processes are independent when executing them in
either order from any state yields the same state and the same responses.
The explorer then needs only one of the two orders: after fully exploring
the subtree below sibling ``p``, later siblings put ``p`` to *sleep* and
child states drop sleeping processes from their candidate sets as long as
the executed step stays independent of the sleeper's pending step
(Godefroid's sleep sets).  Every Mazurkiewicz trace keeps at least one
representative interleaving, so all terminal states — and all safety
violations along the way — are preserved.  A sleep set is a pid bitmask:
bit ``p`` set means process ``p`` is asleep.

Soundness assumptions (enforced by :meth:`SleepSetReducer.applicable`):

* **Time-insensitive states only.**  Every step advances the global
  clock, so two orders of the same steps reach the same state only when
  nothing else observes the clock — no pending crash, no unstabilized
  detector history, no network (see
  :func:`repro.mc.fingerprint.time_sensitive`).  ``QueryFD`` is treated
  as a local step for the same reason: past stabilization its response is
  a constant.
* **Op-level independence** (:func:`independent`) is a static
  under-approximation: operations on distinct keys commute because
  objects are disjoint; same-key reads (and scans) commute; same-key
  snapshot updates commute iff they write distinct cells.  Everything
  else on a shared key is conservatively dependent, as are all messaging
  operations.
"""

from __future__ import annotations

import dataclasses
import math
import weakref
from typing import Optional

from ..runtime.ops import (
    Broadcast,
    Decide,
    Emit,
    Nop,
    Operation,
    QueryFD,
    Read,
    Receive,
    Send,
    SnapshotScan,
    SnapshotUpdate,
)
from ..runtime.simulation import Simulation
from .fingerprint import sensitivity_horizon

#: Steps with no shared-state footprint.  ``QueryFD`` qualifies only in
#: time-insensitive states — the only states where the reducer runs.
_LOCAL_OPS = frozenset({Decide, Emit, Nop, QueryFD})
_NETWORK_OPS = frozenset({Send, Broadcast, Receive})


def independent(op_a: Operation, op_b: Operation) -> bool:
    """Do steps ``op_a`` and ``op_b`` (by distinct processes) commute?

    A static, conservative check on the operations alone; only meaningful
    in time-insensitive states (see the module docstring).
    """
    type_a, type_b = type(op_a), type(op_b)
    if type_a in _NETWORK_OPS or type_b in _NETWORK_OPS:
        return False
    if type_a in _LOCAL_OPS or type_b in _LOCAL_OPS:
        return True
    # Both shared-object operations from here on.
    if getattr(op_a, "key", None) != getattr(op_b, "key", None):
        return True
    if type_a is Read and type_b is Read:
        return True
    if type_a is SnapshotScan and type_b is SnapshotScan:
        return True
    if type_a is SnapshotUpdate and type_b is SnapshotUpdate:
        return op_a.index != op_b.index
    return False


@dataclasses.dataclass
class ReductionStats:
    """Proof of the reduction ratio, aggregated over one exploration."""

    #: Scheduler choices enabled across all expanded states.
    enabled: int = 0
    #: Choices actually branched on (``enabled − slept``).
    explored: int = 0
    #: Choices pruned because the process was asleep.
    slept: int = 0
    #: Expanded states where reduction was inhibited (time-sensitive).
    sensitive_states: int = 0

    @property
    def ratio(self) -> float:
        """Explored fraction of enabled choices (1.0 = no reduction)."""
        return self.explored / self.enabled if self.enabled else 1.0

    def merge(self, other: "ReductionStats") -> None:
        self.enabled += other.enabled
        self.explored += other.explored
        self.slept += other.slept
        self.sensitive_states += other.sensitive_states

    def to_dict(self) -> dict:
        body = dataclasses.asdict(self)
        body["ratio"] = self.ratio
        return body


class SleepSetReducer:
    """Sleep-set bookkeeping for the DFS explorer."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.stats = ReductionStats()
        #: The run ``_horizon`` belongs to, held weakly so that the reducer
        #: never keeps a finished run (and its journal's caches) alive.
        self._run: Optional[weakref.ref] = None
        self._horizon = math.inf

    def applicable(self, sim: Simulation) -> bool:
        """May sleep sets prune at this state without losing behaviours?

        Only past the run's :func:`~repro.mc.fingerprint.sensitivity_horizon`
        (never with a network), computed once per simulation.
        """
        run = self._run
        if run is None or run() is not sim:
            self._run = weakref.ref(sim)
            self._horizon = sensitivity_horizon(sim)
        return self.enabled and sim.time >= self._horizon

    def child_sleep(
        self,
        sim: Simulation,
        executed_op: Operation,
        prior: int,
    ) -> int:
        """The sleep set below an executed step, as a pid bitmask.

        ``prior`` has a bit set for each of the parent's sleepers and each
        earlier-explored sibling; a process stays asleep iff it is still
        schedulable and its pending step is independent of the step just
        executed.
        """
        runtimes = sim.runtimes
        keep = 0
        while prior:
            bit = prior & -prior  # lowest set bit
            prior ^= bit
            runtime = runtimes.get(bit.bit_length() - 1)
            if runtime is None or not runtime.schedulable:
                continue
            pending = runtime.pending_op
            if pending is not None and independent(executed_op, pending):
                keep |= bit
        return keep
