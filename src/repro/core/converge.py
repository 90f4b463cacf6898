"""The ``k``-converge routine of Yang, Neiger and Gafni [21] (Sect. 5.1).

A process calls ``k-converge`` with an input value ``v ∈ V`` and gets back
``(v', c)`` — it *picks* ``v'`` and, if ``c`` is true, *commits* to it.
The routine guarantees:

1. **C-Termination** — every correct process picks some value;
2. **C-Validity** — if a process picks ``v`` then some process invoked
   ``k-converge`` with ``v``;
3. **C-Agreement** — if some process commits, then at most ``k`` values
   are picked (by anybody);
4. **Convergence** — if at most ``k`` distinct values are input, every
   process that picks commits.

By definition ``0-converge(v)`` always returns ``(v, false)``.

Implementation and correctness
------------------------------

We use two atomic-snapshot phases (snapshots themselves are register-
implementable, :mod:`repro.memory.snapshot`, so the routine needs only
registers):

* *Phase 1*: ``update`` own value into snapshot object ``A``; ``scan`` and
  let ``V`` be the set of values seen.  Set the local flag
  ``ok := |V| ≤ k``.
* *Phase 2*: ``update`` the proposal ``(V, ok)`` into snapshot object
  ``B``; ``scan`` ``B`` and consider the proposals seen:

  - If no proposal has ``ok = true``: return ``(v, false)``.
  - Else let ``W`` be the smallest ``ok``-proposal set seen.  Return
    ``(min(W), true)`` if own ``ok`` holds and *every* proposal seen has
    ``ok = true``; return ``(min(W), false)`` otherwise.

Correctness sketch (full argument mirrored by the property-based tests):

* **C-Termination** is wait-freedom: two updates and two scans, no loops.
* **C-Validity**: ``min(W)`` is a member of some phase-1 scan, hence an
  input.
* **Convergence**: with at most ``k`` distinct inputs every phase-1 set
  has at most ``k`` values, so every proposal carries ``ok = true`` and
  every process takes the commit branch.
* **C-Agreement**: phase-1 scans of ``A`` are totally ordered by
  containment, so their value sets form a chain; the ``ok``-proposal sets
  are a sub-chain ``C₁ ⊆ … ⊆ C_m`` with ``|C_m| ≤ k``.  Every pick of the
  form ``min(W)`` satisfies ``min(W) ∈ C_m``, and the minima of a chain
  take at most ``|C_m| ≤ k`` distinct values.  It remains to rule out
  picks of own values when somebody commits.  Suppose ``p`` commits: every
  proposal in ``p``'s phase-2 scan has ``ok = true``.  Take any ``q`` with
  ``ok = false``.  If ``q``'s phase-2 update preceded ``p``'s scan, ``p``
  would have seen ``ok = false`` — contradiction; hence it followed
  ``p``'s scan, so ``q``'s own phase-2 scan contains ``p``'s ``ok = true``
  proposal and ``q`` picks ``min(W_q)``, not its own value.  ∎

The values proposed must be totally ordered (we use Python's ``min``); all
experiments propose integers or strings.
"""

from __future__ import annotations

from typing import Any, Hashable, Tuple

from ..memory.snapshot import SnapshotAPI, make_snapshot_api, nonbot_values
from ..messaging.abd import AbdRegisters, abd_snapshot_api
from ..runtime.ops import Decide
from ..runtime.process import ProcessContext, Protocol


class ConvergeInstance:
    """One shared ``k``-converge instance.

    Each participating *process* builds its own :class:`ConvergeInstance`
    with the same ``key`` (the instance identity) and the same ``k``; the
    two snapshot objects are shared through the key.

    Parameters
    ----------
    key:
        Hashable instance identity, e.g. ``("conv", round, sub_round)``.
        Protocols with per-set instances include the set in the key.
    k:
        The convergence parameter; ``k = 0`` yields the degenerate routine.
    n_cells:
        Snapshot width — the number of processes that may participate.
    register_based:
        Build the snapshots from registers (Afek et al.) instead of the
        primitive snapshot objects.
    """

    def __init__(
        self,
        key: Hashable,
        k: int,
        n_cells: int,
        register_based: bool = False,
        snapshot_factory=None,
    ):
        if k < 0:
            raise ValueError(f"k-converge needs k >= 0, got {k}")
        self.key = key
        self.k = k
        self.n_cells = n_cells
        if snapshot_factory is None:
            def snapshot_factory(name, cells):
                return make_snapshot_api(name, cells, register_based)
        self._phase1: SnapshotAPI = snapshot_factory((key, "cvA"), n_cells)
        self._phase2: SnapshotAPI = snapshot_factory((key, "cvB"), n_cells)

    def converge(self, ctx: ProcessContext, value: Any):
        """Generator subroutine: ``(picked, committed) = yield from …``."""
        if self.k == 0:
            # By definition 0-converge(v) always returns (v, false).
            return value, False

        # Phase 1: publish own value, scan the values so far.
        yield from self._phase1.update(ctx.pid, value)
        view1 = yield from self._phase1.scan()
        seen = frozenset(nonbot_values(view1))
        ok = len(seen) <= self.k

        # Phase 2: publish (seen, ok), scan the proposals.
        yield from self._phase2.update(ctx.pid, (seen, ok))
        view2 = yield from self._phase2.scan()
        proposals = nonbot_values(view2)
        ok_sets = [s for (s, flag) in proposals if flag]

        if not ok_sets:
            return value, False
        smallest = min(ok_sets, key=len)
        picked = min(smallest)
        commit = ok and all(flag for (_, flag) in proposals)
        return picked, commit


def k_converge(
    ctx: ProcessContext,
    key: Hashable,
    k: int,
    value: Any,
    register_based: bool = False,
) -> Tuple[Any, bool]:
    """One-shot helper: run ``k``-converge on instance ``key``.

    Suitable when a process participates in an instance exactly once (the
    common case in Fig. 1 / Fig. 2, where instances are indexed by round).
    """
    instance = ConvergeInstance(
        key, k, ctx.system.n_processes, register_based=register_based
    )
    result = yield from instance.converge(ctx, value)
    return result


def make_converge_protocol(
    key: Hashable, k: int, n_cells: int, instance_cls=ConvergeInstance
) -> Protocol:
    """One ``instance_cls`` k-converge on instance ``key``, then Decide
    the ``(picked, committed)`` pair (:class:`~repro.tasks.ConvergeSpec`)."""

    def protocol(ctx, value):
        instance = instance_cls(key, k, n_cells)
        result = yield from instance.converge(ctx, value)
        yield Decide(result)

    return protocol


def make_abd_converge_protocol(
    key: Hashable, k: int, n_cells: int, quorum: int
) -> Protocol:
    """:func:`make_converge_protocol` over ABD-emulated registers (E13);
    a process that decided keeps serving the others' quorums."""

    def protocol(ctx, value):
        abd = AbdRegisters(ctx, quorum=quorum)
        instance = ConvergeInstance(
            key, k, n_cells,
            snapshot_factory=lambda name, cells: abd_snapshot_api(
                abd, name, cells
            ),
        )
        result = yield from instance.converge(ctx, value)
        yield Decide(result)
        yield from abd.serve()

    return protocol
