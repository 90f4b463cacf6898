"""The parallel sweep executor: batched fan-out over a persistent pool.

Trials are seeded and fully deterministic, which makes an experiment grid
embarrassingly parallel: :func:`run_trials` partitions the specs into
chunks, hands each chunk as **one batch** to the process-wide
:class:`~repro.perf.pool.WorkerPool` (forked once, warm-started, reused
by every call — see :func:`~repro.perf.pool.shared_pool`), and
reassembles the results **in input order** regardless of completion
order — a ``jobs=8`` sweep is byte-for-byte the same CSV as a serial one.

With a :class:`~repro.perf.cache.TrialCache`, the whole grid is
prefiltered with one :meth:`~repro.perf.cache.TrialCache.get_many`
``SELECT``; only the misses fan out, workers flush each batch's results
with one :meth:`~repro.perf.cache.TrialCache.put_many` transaction into
the same SQLite file (each reply carries what the worker's cache stored
and whether it degraded), and a fully warm grid never touches the pool
at all.  Pass a
:class:`~repro.perf.pool.DispatchStats` as ``dispatch`` to meter what
the fan-out cost (pool spawns, batch messages, pickle bytes, cache round
trips — the ``dispatch_overhead_per_trial`` numbers in BENCH_sweep.json).

At ``jobs=1`` the same loop drives an
:class:`~repro.perf.pool.InlinePool` instead, one spec per task, so
every trial of a sweep runs in :func:`~repro.perf.pool._execute_batch`
whichever way it is dispatched.

**Resilient mode** (any of ``retries``/``trial_timeout``/``journal``/
``quarantine`` set) hardens the fan-out against the trials themselves:

* every trial runs under the watchdog
  (:func:`~repro.perf.resilience._guarded`), so exceptions and
  wall-clock timeouts come back as
  :class:`~repro.perf.resilience.TrialFailure` values;
* each worker owns a private pipe, so a worker death names its batch
  exactly — the dead slot is *recycled* (a replacement forked in place,
  never a whole new pool) and the suspect specs re-run **pinned to the
  recycled worker** one at a time while the rest of the pool keeps
  draining healthy work; an aborted batch reply is blamed the same way;
* a spec that fails ``retries + 1`` times is quarantined (recorded in
  the :class:`~repro.perf.resilience.QuarantineReport`, ``None`` in the
  results) instead of aborting the sweep;
* completed keys go to the :class:`~repro.perf.resilience.CheckpointJournal`
  so an interrupted sweep resumes without re-running finished work.

Surviving results keep their input-order slots either way, so partial
results are deterministic.
"""

from __future__ import annotations

import os
import time as _time
from collections import deque
from typing import Any, List, Optional, Sequence, Union

from .cache import TrialCache
from .pool import (
    DispatchStats,
    InlinePool,
    WorkerCrashError,
    WorkerPool,
    batch_lost,
    shared_pool,
)
from .resilience import (
    CheckpointJournal,
    QuarantineReport,
    ResiliencePolicy,
    TrialFailure,
)
from .spec import TrialSpec, execute_trial, spec_key


class StoreJournalConflictError(ValueError):
    """``store=`` and ``journal=`` both given — the store already
    checkpoints progress per trial, so a journal would be a second,
    possibly disagreeing, source of truth."""


def resolve_jobs(jobs: Optional[int]) -> int:
    """``None`` or ``0`` means one worker per CPU; negatives are errors."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be positive, got {jobs}")
    return jobs


def _chunk_indices(n_items: int, jobs: int, chunk_size: Optional[int]) -> List[range]:
    """Split ``range(n_items)`` into contiguous chunks.

    The default aims at ~2 chunks per worker — small enough to balance
    uneven trial costs across the pool, large enough that a grid costs a
    handful of batch messages instead of hundreds.
    """
    if chunk_size is None:
        chunk_size = max(1, -(-n_items // (jobs * 2)))
    elif chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    return [
        range(start, min(start + chunk_size, n_items))
        for start in range(0, n_items, chunk_size)
    ]


def _publish(bus, event) -> None:
    if bus is not None and bus.active:
        bus.publish(event)


def run_trials(
    specs: Sequence[TrialSpec],
    jobs: Optional[int] = 1,
    cache: Optional[TrialCache] = None,
    chunk_size: Optional[int] = None,
    *,
    retries: int = 0,
    trial_timeout: Optional[float] = None,
    journal: Union[CheckpointJournal, str, os.PathLike, None] = None,
    quarantine: Optional[QuarantineReport] = None,
    backoff: float = 0.5,
    bus=None,
    collector=None,
    dispatch: Optional[DispatchStats] = None,
    pool: Optional[WorkerPool] = None,
    store=None,
) -> List[Any]:
    """Execute every spec; results come back in input order.

    Parameters
    ----------
    specs:
        The trial grid, as picklable spec dataclasses.
    jobs:
        Worker processes.  ``1`` (the default) runs serially in this
        process; ``None``/``0`` uses one worker per CPU.
    cache:
        Optional :class:`TrialCache`; cached specs are served from disk
        (one batched ``get_many`` round trip for the whole grid) and
        computed ones stored back (one ``put_many`` per worker batch).
    chunk_size:
        Specs per batch; defaults to ~2 batches per worker.  The CLI
        exposes this as ``--batch-size``.
    retries:
        Resilient mode: re-run a failing spec up to this many extra
        times (with per-spec exponential backoff) before quarantining it.
    trial_timeout:
        Resilient mode: per-trial wall-clock budget in seconds, enforced
        by an in-worker watchdog.
    journal:
        Resilient mode: a :class:`CheckpointJournal` (or a path to one).
        Keys already recorded as done are served from the cache and
        skipped; completed keys are appended as the sweep progresses.
    quarantine:
        Resilient mode: a :class:`QuarantineReport` collecting the specs
        the executor gave up on.  Their result slots hold ``None``.
    backoff:
        Base of the exponential retry backoff, in seconds: a spec's
        ``a``-th failed attempt sleeps ``backoff * 2**(a - 1)`` before
        its re-run, capped by
        :attr:`~repro.perf.resilience.ResiliencePolicy.max_backoff`
        (pass 0 in tests).
    bus:
        Optional :class:`~repro.obs.events.EventBus` for
        ``TrialRetried`` / ``TrialQuarantined`` / ``TrialTimedOut``
        harness events.
    collector:
        Optional :class:`~repro.obs.metrics.MetricsCollector` — enables
        the **telemetry relay**: every trial (worker or in-process) runs
        with a private collector whose registry ships back as a
        :class:`~repro.obs.telemetry.TrialTelemetry` payload, merged into
        ``collector.registry`` in input order and summarized as
        ``TrialSpanRecorded`` / ``TrialCompleted`` events on
        ``collector.bus``.  A ``jobs=4`` run then reports the same
        trial-level counters as ``jobs=1``.  When ``bus`` is unset,
        resilience events go to ``collector.bus`` as well.
    dispatch:
        Optional :class:`~repro.perf.pool.DispatchStats` that this call
        fills with its dispatch costs — pool spawns vs. reuses, batch
        messages, pickle bytes, cache round trips.  Deliberately an
        out-param rather than registry metrics so jobs=1 and jobs=N
        telemetry snapshots stay identical.
    pool:
        Optional :class:`~repro.perf.pool.WorkerPool` to run on.
        Defaults to the process-wide :func:`~repro.perf.pool.shared_pool`
        (forked once, reused by every subsequent call).
    store:
        Farm backend: a :class:`~repro.farm.store.FarmStore` (or a DB
        URL for one).  The grid is enqueued as a campaign and drained by
        an in-process farm worker — any `repro worker --store URL`
        processes pointed at the same store share the load — and results
        come back in input order exactly like the local paths.  The
        store *is* the checkpoint tier, so combining it with ``journal``
        is refused (:class:`StoreJournalConflictError`).
    """
    specs = list(specs)
    policy = ResiliencePolicy(
        retries=retries, trial_timeout=trial_timeout, backoff=backoff
    )
    if store is not None:
        if journal is not None:
            raise StoreJournalConflictError(
                "--store and --resume are mutually exclusive: the farm "
                "store already journals completion per trial, so a "
                "CheckpointJournal would record the same progress twice "
                "(and lie about trials other workers completed). Drop "
                "the journal/--resume flag for store-backed runs."
            )
        from ..farm.campaign import run_store_backed

        return run_store_backed(
            specs, store, jobs=jobs, cache=cache,
            policy=policy, quarantine=quarantine,
            bus=bus, collector=collector, dispatch=dispatch,
        )
    jobs = resolve_jobs(jobs)
    results: List[Any] = [None] * len(specs)

    relay = None
    if collector is not None:
        from ..obs.telemetry import TelemetryRelay

        relay = TelemetryRelay(collector.registry, collector.bus)
        if bus is None:
            bus = collector.bus

    resilient = bool(
        retries or trial_timeout or journal is not None
        or quarantine is not None
    )
    owns_journal = False
    if journal is not None and not isinstance(journal, CheckpointJournal):
        journal = CheckpointJournal(journal)
        owns_journal = True
    if resilient and quarantine is None:
        quarantine = QuarantineReport()

    cache_rt_base = (
        (cache.get_round_trips, cache.put_round_trips, cache.stores)
        if dispatch is not None and cache is not None else None
    )

    def cached_hit(index: int, spec: TrialSpec, result: Any,
                   seconds: float) -> None:
        results[index] = result
        if relay is not None:
            from ..obs.telemetry import (
                TrialTelemetry,
                result_curve_point,
                result_verdict,
            )

            stabilization, latency = result_curve_point(result)
            relay.record(index, TrialTelemetry.from_snapshot(
                spec_key(spec), getattr(spec, "kind", type(spec).__name__),
                getattr(result, "metrics", None),
                spans=(("cache_lookup", seconds),),
                ok=result_verdict(result),
                stabilization=stabilization, latency=latency,
            ))

    try:
        pending: List[int] = []
        if cache is not None:
            # One batched round trip answers the whole grid; per-hit
            # lookup cost is apportioned evenly into the telemetry span.
            lookup_start = _time.perf_counter()
            hits = cache.get_many(specs)
            per_hit = (_time.perf_counter() - lookup_start) \
                / max(1, len(specs))
            for index, (spec, hit) in enumerate(zip(specs, hits)):
                # Resume triage: journaled keys are done *iff* the cache
                # still has their result; a cleared cache degrades to a
                # re-run, and an unjournaled hit is journaled now.
                if hit is None:
                    pending.append(index)
                    continue
                cached_hit(index, spec, hit, per_hit)
                if journal is not None:
                    key = spec_key(spec)
                    if not journal.is_done(key):
                        journal.record_done(key)
        else:
            pending = list(range(len(specs)))

        if pending:
            _run(
                specs, pending, results, jobs, cache, chunk_size,
                capture=resilient, policy=policy, journal=journal,
                quarantine=quarantine, bus=bus, relay=relay,
                dispatch=dispatch, pool=pool,
            )
        if relay is not None:
            relay.finish()
        if dispatch is not None:
            dispatch.trials += len(specs) - len(pending)  # cached ones
            if cache_rt_base is not None:
                dispatch.cache_get_round_trips += \
                    cache.get_round_trips - cache_rt_base[0]
                dispatch.cache_put_round_trips += \
                    cache.put_round_trips - cache_rt_base[1]
                dispatch.cache_stores += cache.stores - cache_rt_base[2]
        return results
    finally:
        if owns_journal:
            journal.close()


def _pool_session(pool: Optional[WorkerPool], jobs: int,
                  dispatch: Optional[DispatchStats]) -> WorkerPool:
    """Resolve the pool for a fan-out and size it for ``jobs`` workers.

    Sizing happens under ``dispatch`` scope so a cold start is charged
    to the call that triggered it (``pool_spawns`` vs ``pool_reuses``).
    """
    if pool is None:
        pool = shared_pool()
    with pool.scoped(dispatch):
        pool.ensure(jobs)
        pool.limit(jobs)
    return pool


def _fold_reply(reply, cache: Optional[TrialCache]) -> None:
    """Fold a worker's cache accounting back into the parent cache: what
    the worker's cache stored, and whether its writes failed."""
    if cache is not None:
        cache.stores += reply.cache_stores
        cache.put_round_trips += reply.cache_put_round_trips
        if reply.cache_degraded:
            cache.cache_degraded = 1


def _run(
    specs: List[TrialSpec],
    pending: List[int],
    results: List[Any],
    jobs: int,
    cache: Optional[TrialCache],
    chunk_size: Optional[int],
    *,
    capture: bool,
    policy: ResiliencePolicy,
    journal: Optional[CheckpointJournal],
    quarantine: Optional[QuarantineReport],
    bus,
    relay,
    dispatch: Optional[DispatchStats],
    pool: Optional[WorkerPool],
) -> None:
    """Run the pending specs and settle every reply into ``results``.

    Plain mode (``capture=False``) re-raises a trial's exception, and a
    worker death as :class:`WorkerCrashError`.  Resilient mode
    (``capture=True``) runs trials under the watchdog and settles
    failures instead: a failed spec is charged an attempt and re-run
    alone after ``backoff * 2**(attempt - 1)`` seconds, until its
    ``retries + 1``-th failure quarantines it.  A lost batch (a worker
    death or an aborted reply) charges a singleton the same way; a
    multi-spec batch's culprit is unknown, so its specs re-run one at a
    time, uncharged, pinned to the recycled worker after a death.
    """
    from ..obs.events import TrialQuarantined, TrialRetried, TrialTimedOut

    observed = relay is not None
    keys = {i: spec_key(specs[i]) for i in pending} if capture else {}
    attempts = dict.fromkeys(pending, 0)
    if jobs <= 1 or (not capture and len(pending) == 1):
        # In-process: one spec per task and one task at a time, so each
        # trial is cached and journaled (and a failed one re-run) before
        # the next starts.  Trials go through this module's
        # execute_trial, so a hook on it sees each one (perfbench times
        # serial trials that way).
        pool = InlinePool(cache, execute_trial)
        batches = [[i] for i in pending]
        window = 1
        if dispatch is not None:
            dispatch.trials += len(pending)
    else:
        # Fan the misses out as batches over the persistent pool; results
        # are written back by original position, so completion order (and
        # any OS scheduling jitter) cannot perturb the output order.
        pool = _pool_session(pool, jobs, dispatch)
        batches = [
            [pending[k] for k in chunk]
            for chunk in _chunk_indices(len(pending), jobs, chunk_size)
        ]
        window = len(batches)
    def submit(indices: List[int], pin: Optional[int] = None) -> None:
        # A degraded cache is read-only, in the workers too — also once
        # a worker's reply has degraded it mid-run.
        cache_root = str(cache.root) \
            if cache is not None and not cache.degraded else None
        pool.submit(pool.make_task(
            indices=indices, specs=[specs[i] for i in indices],
            keys=tuple(keys[i] for i in indices) if observed and capture
            else (),
            observed=observed, capture=capture,
            timeout=policy.trial_timeout, cache_root=cache_root, pin=pin,
        ))

    def charge(i: int, reason: str, timed_out: bool = False) -> bool:
        """Count one failed attempt of spec ``i``; False once quarantined."""
        attempts[i] += 1
        if timed_out:
            _publish(bus, TrialTimedOut(-1, keys[i], policy.trial_timeout))
        if attempts[i] > policy.retries:
            quarantine.add(i, keys[i], specs[i], attempts[i], reason)
            if journal is not None:
                journal.record_quarantined(keys[i], reason)
            _publish(bus, TrialQuarantined(-1, keys[i], attempts[i], reason))
            return False
        _publish(bus, TrialRetried(-1, keys[i], attempts[i], reason))
        return True

    todo = deque(batches)
    outstanding = 0
    with pool.scoped(dispatch):
        try:
            while todo or outstanding:
                while todo and outstanding < window:
                    submit(todo.popleft())
                    outstanding += 1
                kind, task, payload = pool.wait()
                outstanding -= 1
                lost = batch_lost(kind, payload)
                if lost is not None and not capture:
                    if kind == "died":
                        raise WorkerCrashError(
                            f"pool worker died while running a batch of "
                            f"{len(task.specs)} trial(s)"
                        )
                    raise payload.error
                isolate: List[int] = []  # re-run alone, uncharged
                retry: List[int] = []    # re-run alone after a charge
                pin = payload if kind == "died" else None
                if lost is not None:
                    if len(task.indices) > 1:
                        isolate = list(task.indices)
                    elif charge(task.indices[0], lost):
                        retry.append(task.indices[0])
                else:
                    _fold_reply(payload, cache)
                    for i, (outcome, telemetry) in zip(
                        task.indices, payload.items
                    ):
                        if isinstance(outcome, TrialFailure):
                            if charge(i, outcome.detail,
                                      outcome.kind == "timeout"):
                                retry.append(i)
                            continue
                        results[i] = outcome
                        if relay is not None:
                            relay.record(i, telemetry)
                        if journal is not None:
                            journal.record_done(keys[i])
                if retry:
                    delay, key = max(
                        (policy.backoff_seconds(attempts[i] - 1), keys[i])
                        for i in retry
                    )
                    if delay > 0:
                        if relay is not None:
                            relay.span("retry_backoff", delay, key[:12])
                        _time.sleep(delay)
                for i in isolate + retry:
                    submit([i], pin)
                outstanding += len(isolate) + len(retry)
        except BaseException:
            pool.abandon_all()
            raise
