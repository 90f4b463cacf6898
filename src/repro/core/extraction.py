"""Fig. 3 — transforming a stable f-non-trivial D into Υf (Theorem 10).

Every process runs two logically parallel tasks (interleaved step-by-step
here, which is one legal asynchronous schedule of the paper's "parallel
tasks"):

* **Task 1** — periodically query the local module of ``D`` and publish
  the returned value with an ever-growing timestamp in register ``R[i]``.
  Two successive ``d``-valued writes by ``p_j`` prove a fresh query of
  ``p_j`` returned ``d`` in between — the unit of evidence the batch
  observation counts.

* **Task 2** — proceed in rounds.  A round works with the process's
  current detector value ``d``:

  1. set the emulated output ``Υf-output`` to ``Π`` (line 8);
  2. evaluate ``(S, w) = ϕD(d)`` (line 10) — the correct-set /
     prefix-length certificate that the constantly-``d`` sequence over
     ``S`` is *not* an f-resilient sample of ``D``
     (:mod:`repro.core.samples`);
  3. if ``S = Π``: keep Task 1 running and watch the registers; the round
     ends only if some process reports a fresh value ``≠ d`` (line 21);
  4. else: observe ``w`` *batches* — a batch completes when every process
     in ``Π`` has published two fresh ``d``-valued reports (line 15).  A
     process that completes the observation publishes ``d`` in ``B[i]``
     (line 19) so that blocked peers may exit too, sets ``Υf-output`` to
     ``S``, and then blocks watching for a fresh value ``≠ d``
     (line 21).

  Any fresh report of a value different from ``d`` restarts the procedure
  with the process's own current detector value.

Why the emitted values eventually satisfy Υf: after ``D``'s history
stabilizes on ``d*``, restarts cease.  If every process is correct, Task 1
supplies batches forever, so every correct process eventually emits
``S = ϕD(d*).correct`` — and ``correct(F) = S`` is impossible, since ``d*``
(the actual stable value) is incompatible with correct set ``S`` by the
construction of ϕD.  If batches stall forever, some process has crashed, so
the emitted ``Π`` is also not the correct set.  The ``B`` register makes
the two cases mutually exclusive in the limit: one completed observation
frees everybody.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..runtime.ops import BOT, Emit, QueryFD, Read, Write
from ..runtime.process import ProcessContext, Protocol
from .samples import PhiEntry

#: Return sentinel of the observation subroutine: all batches observed.
_DONE = object()


def report_key(pid: int) -> tuple:
    """``R[i]`` — Task 1's (value, timestamp) report register."""
    return ("R", pid)


def done_key(pid: int) -> tuple:
    """``B[i]`` — the observation-complete register (the proof's D[j])."""
    return ("B", pid)


def make_extraction_protocol(phi: Callable[[Any], PhiEntry]) -> Protocol:
    """Build the Fig. 3 reduction for a given ϕD map.

    The returned protocol never terminates; its ``Emit`` outputs implement
    the distributed variable ``Υf-output``.  Run it under a fair scheduler
    and inspect :meth:`repro.runtime.simulation.Simulation.emulated_outputs`
    (or the trace's emit timeline).
    """

    def protocol(ctx: ProcessContext, _input: Any):
        pids = list(ctx.system.pids)
        everyone = ctx.system.pid_set
        timestamp = 0
        # Freshness tracking: last timestamp seen per process's R register.
        last_seen: Dict[int, int] = {j: -1 for j in pids}
        # Operations are immutable values, and the register keys never
        # change: one query and one read per R[j] / B[j] serve every step.
        query = QueryFD()
        own_report = report_key(ctx.pid)
        report_reads = [(j, Read(report_key(j))) for j in pids]
        done_reads = [Read(done_key(j)) for j in pids]

        def task1_pulse():
            """One Task 1 beat: query D, publish with a fresh timestamp."""
            nonlocal timestamp
            value = yield query
            yield Write(own_report, (value, timestamp))
            timestamp += 1
            return value

        def fresh_reports(d):
            """Scan R[*]; returns (d_write_counts, conflicting_value).

            Counts processes' fresh ``d``-valued writes since the last
            scan; a fresh write with a different value is a conflict.
            """
            counts: Dict[int, int] = {}
            conflict = None
            for j, read in report_reads:
                raw = yield read
                if raw is BOT:
                    continue
                value, ts = raw
                if ts > last_seen[j]:
                    last_seen[j] = ts
                    if value == d:
                        counts[j] = counts.get(j, 0) + 1
                    else:
                        conflict = value
            return counts, conflict

        def watch_for_change(d):
            """Line 21: block until a fresh report differs from ``d``.

            Keeps Task 1 beating.  Returns the process's own next value to
            restart with.
            """
            while True:
                own = yield from task1_pulse()
                if own != d:
                    return own
                _, conflict = yield from fresh_reports(d)
                if conflict is not None:
                    own = yield from task1_pulse()
                    return own

        def observe_batches(d, batches_needed):
            """Line 15: wait for the batches (or a peer's B flag).

            Returns ``_DONE`` on success or the value to restart with.
            """
            batches = 0
            progress: Dict[int, int] = {j: 0 for j in pids}
            while batches < batches_needed:
                own = yield from task1_pulse()
                if own != d:
                    return own
                counts, conflict = yield from fresh_reports(d)
                if conflict is not None:
                    own = yield from task1_pulse()
                    return own
                for j, c in counts.items():
                    progress[j] += c
                if all(progress[j] >= 2 for j in pids):
                    batches += 1
                    progress = {j: 0 for j in pids}
                    continue
                # A peer that finished observing d frees us (line 15/19).
                for read in done_reads:
                    flag = yield read
                    if flag is not BOT and flag == d:
                        return _DONE
            return _DONE

        current = yield from task1_pulse()
        while True:  # rounds of Task 2
            yield Emit(everyone)  # line 8
            target, width = phi(current)  # line 10
            target = frozenset(target)
            if target == everyone:
                current = yield from watch_for_change(current)
                continue
            outcome = yield from observe_batches(current, width)
            if outcome is not _DONE:
                current = outcome
                continue
            yield Write(done_key(ctx.pid), current)  # line 19
            yield Emit(target)
            current = yield from watch_for_change(current)

    return protocol


def make_local_extraction_protocol(phi: Callable[[Any], PhiEntry]) -> Protocol:
    """The *locally stable* variant of the reduction (Sect. 6.2, footnote).

    The paper notes its lower bounds also hold for detectors that are only
    **locally** stable — each correct process eventually sticks to its own
    value, possibly different across processes.  Cross-process round
    restarts (Fig. 3's "some process reported a new value") would then
    never cease, so the local variant drops all shared registers: each
    process simply queries its own module and emits ``ϕD(d)`` for its
    current value ``d``.  Once the local value stabilizes on ``d*``, the
    emitted set stabilizes on ``S = ϕD(d*).correct`` — and ``correct(F) =
    S`` is impossible because ``d*`` could then not be a stable output at
    *any* process (our ϕ maps derive incompatibility from per-process
    legality, which is process-independent for every shipped detector).

    The extracted object is the locally-stable variant of Υf: each correct
    process eventually permanently outputs a (possibly different) set of
    at least ``n + 1 − f`` processes that is not the correct set.  Check
    with :func:`locally_stable_outputs`.

    Only ``w(σ) = 0`` certificates are usable without cross-process
    evidence; the constructive :class:`~repro.core.samples.PhiMap` always
    produces ``w = 0``, so this covers every stable detector we ship.  A
    ``w > 0`` entry raises at run time.
    """

    def protocol(ctx: ProcessContext, _input: Any):
        while True:
            current = yield QueryFD()
            target, width = phi(current)
            if width != 0:
                raise ValueError(
                    "local extraction needs w(σ) = 0 certificates; got "
                    f"w = {width} for value {current!r}"
                )
            yield Emit(frozenset(target))

    return protocol


def locally_stable_outputs(
    sim, pattern, tail_fraction: float = 0.25
) -> Optional[Dict[int, Any]]:
    """Per-process final emitted values, requiring only *local* stability.

    Like :func:`stable_emulated_output` but without the all-processes-agree
    requirement: returns the map as long as every correct process's output
    stopped changing before the trailing window.
    """
    return stable_emulated_output(sim, pattern, tail_fraction=tail_fraction)


def stable_emulated_output(
    sim, pattern, tail_fraction: float = 0.25
) -> Optional[Dict[int, Any]]:
    """Final emitted value per correct process, or ``None`` if any correct
    process's emits were still changing during the trailing window.

    ``tail_fraction`` of the run (by time) must be change-free for the run
    to count as stabilized — the finite-horizon stand-in for "eventually
    permanently output".
    """
    horizon = sim.time
    cutoff = horizon * (1 - tail_fraction)
    outputs: Dict[int, Any] = {}
    for pid in sorted(pattern.correct):
        runtime = sim.runtimes.get(pid)
        if runtime is None or not runtime.has_emitted:
            return None
        stable_since = sim.trace.emit_stabilization_time(pid)
        if stable_since is None or stable_since > cutoff:
            return None
        outputs[pid] = sim.trace.final_emit(pid)
    return outputs
