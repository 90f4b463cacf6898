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
whichever way it is dispatched.  A farm worker drains its claims through
the same loop, :func:`run_batches`, and settles the replies into its
store instead.

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
* completed and quarantined keys go to the
  :class:`~repro.perf.resilience.CheckpointJournal`; the cache is what
  lets an interrupted sweep resume without re-running finished work.

Surviving results keep their input-order slots either way, so partial
results are deterministic.
"""

from __future__ import annotations

import os
import time as _time
from collections import deque
from contextlib import contextmanager
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
        Completed and quarantined keys are appended as the sweep
        progresses.  Only the cache skips work: a journaled key runs
        again unless the cache still holds its result.
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
        with a private collector.  Its counters and gauges come back in
        the result's ``metrics`` snapshot, its spans and raw histogram
        samples in a :class:`~repro.obs.telemetry.TrialTelemetry`
        payload; both are merged into ``collector.registry`` in input
        order and summarized as ``TrialSpanRecorded`` /
        ``TrialCompleted`` events on ``collector.bus``.  A ``jobs=4``
        run, or a ``store`` run, then reports the same trial-level
        metrics as ``jobs=1``.  When ``bus`` is unset, the resilience
        events go to ``collector.bus`` as well.
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
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
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

        with _metered(cache, dispatch):
            return run_store_backed(
                specs, store, jobs=jobs, cache=cache,
                policy=policy, quarantine=quarantine,
                bus=bus, collector=collector, dispatch=dispatch, pool=pool,
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
    # Each spec is hashed once, here, if anything needs its key: the
    # cache, the journal, the telemetry or a failure report.
    keys = [spec_key(spec) for spec in specs] \
        if cache is not None or relay is not None or resilient else None

    try:
        with _metered(cache, dispatch):
            pending: List[int] = []
            if cache is not None:
                # One batched round trip answers the whole grid; per-hit
                # lookup cost is apportioned evenly into the telemetry span.
                lookup_start = _time.perf_counter()
                hits = cache.get_many(specs, keys)
                per_hit = (_time.perf_counter() - lookup_start) \
                    / max(1, len(specs))
                for index, (spec, key, hit) in enumerate(
                        zip(specs, keys, hits)):
                    # Resume triage: journaled keys are done *iff* the
                    # cache still has their result; a cleared cache
                    # degrades to a re-run, and an unjournaled hit is
                    # journaled now.
                    if hit is None:
                        pending.append(index)
                        continue
                    results[index] = hit
                    if relay is not None:
                        from ..obs.telemetry import trial_telemetry

                        relay.record(index, trial_telemetry(
                            spec, hit, key, (("cache_lookup", per_hit),)))
                    if journal is not None and not journal.is_done(key):
                        journal.record_done(key)
            else:
                pending = list(range(len(specs)))

            if pending:
                _run(
                    specs, keys, pending, results, jobs, cache, chunk_size,
                    capture=resilient, policy=policy, journal=journal,
                    quarantine=quarantine, bus=bus, relay=relay,
                    dispatch=dispatch, pool=pool,
                )
        if relay is not None:
            relay.finish(results)
        if dispatch is not None:
            dispatch.trials += len(specs) - len(pending)  # cached ones
        return results
    finally:
        if owns_journal:
            journal.close()


@contextmanager
def _metered(cache: Optional[TrialCache],
             dispatch: Optional[DispatchStats]):
    """Add the cache round trips and stores made inside to ``dispatch``."""
    if cache is None or dispatch is None:
        yield
        return
    base = (cache.get_round_trips, cache.put_round_trips, cache.stores)
    yield
    dispatch.cache_get_round_trips += cache.get_round_trips - base[0]
    dispatch.cache_put_round_trips += cache.put_round_trips - base[1]
    dispatch.cache_stores += cache.stores - base[2]


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


def _cache_root(cache: Optional[TrialCache]) -> Optional[str]:
    """The cache root a new task names: none once the cache has degraded,
    because a degraded cache is read-only in the workers too."""
    return str(cache.root) \
        if cache is not None and not cache.degraded else None


def _fold_reply(reply, cache: Optional[TrialCache]) -> None:
    """Fold a worker's cache accounting back into the parent cache: what
    the worker's cache stored, and whether its writes failed."""
    if cache is not None:
        cache.stores += reply.cache_stores
        cache.put_round_trips += reply.cache_put_round_trips
        if reply.cache_degraded:
            cache.cache_degraded = 1


def run_batches(pool, batches, specs, settle, *, keys=None,
                cache: Optional[TrialCache] = None, **fields) -> None:
    """Run ``batches`` of indices into ``specs`` on ``pool`` and settle
    every reply: the one drain loop of :func:`run_trials` and the farm
    worker.

    Each task carries its specs, their ``keys`` when given, ``fields``
    (``observed``, ``capture``, ``timeout``) and the root of
    ``cache`` until it degrades; each reply's cache accounting is folded
    back into ``cache``.  ``settle(indices, items)`` settles a reply's
    ``(outcome, telemetry)`` pairs and returns the indices to run again,
    alone.  A lost batch (a worker death or an aborted reply) raises if
    its task has no failure protocol (``capture=False``); otherwise a
    multi-spec batch's culprit is unknown, so its specs re-run alone and
    uncharged, pinned to the recycled worker after a death, and a lost
    singleton is settled as a :class:`TrialFailure`.  An
    :class:`InlinePool` runs one task at a time, so each trial is
    settled (and a failed one re-run) before the next starts.
    """
    def submit(indices, pin: Optional[int] = None) -> None:
        pool.submit(pool.make_task(
            indices=indices, specs=[specs[i] for i in indices],
            keys=tuple(keys[i] for i in indices) if keys else (),
            cache_root=_cache_root(cache), pin=pin, **fields,
        ))

    window = 1 if isinstance(pool, InlinePool) else len(batches)
    todo = deque(batches)
    outstanding = 0
    try:
        while todo or outstanding:
            while todo and outstanding < window:
                submit(todo.popleft())
                outstanding += 1
            kind, task, payload = pool.wait()
            outstanding -= 1
            lost = batch_lost(kind, payload)
            if lost is None:
                _fold_reply(payload, cache)
                rerun = settle(task.indices, payload.items)
            elif not task.capture:
                if kind == "died":
                    raise WorkerCrashError(
                        f"pool worker died while running a batch of "
                        f"{len(task.specs)} trial(s)"
                    )
                raise payload.error
            elif len(task.indices) > 1:
                rerun = task.indices
            else:
                rerun = settle(task.indices,
                               [(TrialFailure("error", lost), None)])
            pin = payload if kind == "died" else None
            for i in rerun:
                submit([i], pin)
            outstanding += len(rerun)
    except BaseException:
        pool.abandon_all()
        raise


def _run(
    specs: List[TrialSpec],
    keys: Optional[List[str]],
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
    """Run the pending specs through :func:`run_batches` into ``results``.

    ``keys`` are the specs' keys (``None`` when nothing needs them: no
    cache, no telemetry, plain mode); each task carries its specs' keys.
    Plain mode (``capture=False``) re-raises a trial's exception, and a
    worker death as :class:`WorkerCrashError`.  Resilient mode
    (``capture=True``) runs trials under the watchdog and settles
    failures instead: a failed spec is charged an attempt and re-run
    alone after ``backoff * 2**(attempt - 1)`` seconds, until its
    ``retries + 1``-th failure quarantines it.
    """
    from ..obs.events import TrialQuarantined, TrialRetried, TrialTimedOut

    observed = relay is not None
    attempts = dict.fromkeys(pending, 0)
    if jobs <= 1 or (not capture and len(pending) == 1):
        # In-process, one spec per task, so each trial is cached and
        # journaled before the next starts.  Trials go through this
        # module's execute_trial, so a hook on it sees each one
        # (perfbench times serial trials that way).
        pool = InlinePool(cache, execute_trial)
        batches = [[i] for i in pending]
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

    def settle(indices, items) -> List[int]:
        """Fill and journal each result and charge each failure an
        attempt; returns the failures to retry, after their backoff."""
        retry: List[int] = []
        for i, (outcome, telemetry) in zip(indices, items):
            if not isinstance(outcome, TrialFailure):
                results[i] = outcome
                if relay is not None:
                    relay.record(i, telemetry)
                if journal is not None:
                    journal.record_done(keys[i])
                continue
            attempts[i] += 1
            reason = outcome.detail
            if outcome.kind == "timeout":
                _publish(bus, TrialTimedOut(-1, keys[i], policy.trial_timeout))
            if attempts[i] <= policy.retries:
                _publish(bus, TrialRetried(-1, keys[i], attempts[i], reason))
                retry.append(i)
                continue
            quarantine.add(i, keys[i], specs[i], attempts[i], reason)
            if journal is not None:
                journal.record_quarantined(keys[i], reason)
            _publish(bus, TrialQuarantined(-1, keys[i], attempts[i], reason))
        if retry:
            delay, key = max(
                (policy.backoff_seconds(attempts[i] - 1), keys[i])
                for i in retry
            )
            if delay > 0:
                if relay is not None:
                    relay.span("retry_backoff", delay, key[:12])
                _time.sleep(delay)
        return retry

    with pool.scoped(dispatch):
        run_batches(pool, batches, specs, settle, keys=keys,
                    cache=cache, observed=observed, capture=capture,
                    timeout=policy.trial_timeout)
