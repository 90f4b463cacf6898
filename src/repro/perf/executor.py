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
round trip; only the misses fan out, workers flush each batch's results
with one :meth:`~repro.perf.cache.TrialCache.put_many`, and a fully warm
grid never touches the pool at all.  Pass a
:class:`~repro.perf.pool.DispatchStats` as ``dispatch`` to meter what
the fan-out cost (pool spawns, batch messages, pickle bytes, cache round
trips — the ``dispatch_overhead_per_trial`` numbers in BENCH_sweep.json).

**Resilient mode** (any of ``retries``/``trial_timeout``/``journal``/
``quarantine`` set) hardens the fan-out against the trials themselves:

* every trial runs under the in-worker watchdog
  (:func:`~repro.perf.resilience._guarded`), so exceptions and
  wall-clock timeouts come back as
  :class:`~repro.perf.resilience.TrialFailure` values;
* each worker owns a private pipe, so a worker death names its batch
  exactly — the dead slot is *recycled* (a replacement forked in place,
  never a whole new pool) and the suspect specs re-run **pinned to the
  recycled worker** one at a time while the rest of the pool keeps
  draining healthy work;
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
from typing import Any, Dict, List, Optional, Sequence, Union

from .cache import TrialCache
from .pool import DispatchStats, WorkerCrashError, WorkerPool, shared_pool
from .resilience import (
    CheckpointJournal,
    QuarantineReport,
    ResiliencePolicy,
    TrialFailure,
    guarded_execute,
    guarded_execute_observed,
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


def _execute_observed(spec: TrialSpec, submitted_at: float):
    """Execute one spec with a private collector; telemetry rides along.

    The serial in-process path: exceptions propagate (the non-resilient
    executor has no failure protocol to hide them behind).  Worker-side
    execution lives in :func:`repro.perf.pool._execute_batch`, which
    stamps one dequeue time per batch instead of trusting the caller's
    ``submitted_at``.
    """
    from ..obs.metrics import MetricsCollector
    from ..obs.telemetry import capture_telemetry

    queue_wait = max(0.0, _time.time() - submitted_at)
    collector = MetricsCollector()
    started = _time.perf_counter()
    result = execute_trial(spec, collector=collector)
    seconds = _time.perf_counter() - started
    telemetry = capture_telemetry(
        spec, result, collector.registry,
        key=spec_key(spec),
        spans=(("queue_wait", queue_wait), ("execute", seconds)),
        seconds=seconds,
    )
    return result, telemetry


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
    policy: Optional[ResiliencePolicy] = None,
    bus=None,
    collector=None,
    dispatch: Optional[DispatchStats] = None,
    pool: Optional[WorkerPool] = None,
    store=None,
    lease_ttl: float = 30.0,
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
        times (with exponential backoff) before quarantining it.
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
        Base of the exponential retry backoff, in seconds (failure round
        ``r`` sleeps ``backoff * 2**r``, capped by the policy's
        ``max_backoff``; pass 0 in tests).
    policy:
        A :class:`~repro.perf.resilience.ResiliencePolicy` bundling
        ``retries``/``trial_timeout``/``backoff`` as one value (shared
        with the farm workers).  When given, it wins over the individual
        keyword knobs.
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
    lease_ttl:
        Farm backend: lease time-to-live in seconds for claims made by
        the in-process worker.
    """
    specs = list(specs)
    if policy is not None:
        retries = policy.retries
        trial_timeout = policy.trial_timeout
        backoff = policy.backoff
    else:
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
            lease_ttl=lease_ttl,
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
            if not resilient:
                _run_plain(specs, pending, results, jobs, cache,
                           chunk_size, relay, dispatch, pool)
            else:
                _run_resilient(
                    specs, pending, results, jobs, cache, chunk_size,
                    policy=policy, journal=journal, quarantine=quarantine,
                    bus=bus, relay=relay, dispatch=dispatch, pool=pool,
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
    """Fold a worker's cache accounting back into the parent cache."""
    if cache is not None and reply.cache_stores:
        cache.stores += reply.cache_stores
        cache.put_round_trips += reply.cache_put_round_trips


def _run_plain(
    specs: List[TrialSpec],
    pending: List[int],
    results: List[Any],
    jobs: int,
    cache: Optional[TrialCache],
    chunk_size: Optional[int],
    relay=None,
    dispatch: Optional[DispatchStats] = None,
    pool: Optional[WorkerPool] = None,
) -> None:
    """The fast path — no watchdog, no retries, no journal."""
    if jobs <= 1 or len(pending) == 1:
        for index in pending:
            if relay is not None:
                result, telemetry = _execute_observed(
                    specs[index], _time.time()
                )
                relay.record(index, telemetry)
            else:
                result = execute_trial(specs[index])
            results[index] = result
            if cache is not None:
                cache.put(specs[index], result)
        if dispatch is not None:
            dispatch.trials += len(pending)
        return

    # Fan the misses out as batches over the persistent pool; results
    # are written back by original position, so completion order (and
    # any OS scheduling jitter) cannot perturb the output order.
    pool = _pool_session(pool, jobs, dispatch)
    with pool.scoped(dispatch):
        chunks = _chunk_indices(len(pending), jobs, chunk_size)
        cache_root = str(cache.root) if cache is not None else None
        for chunk in chunks:
            pool.submit(pool.make_task(
                indices=[pending[i] for i in chunk],
                specs=[specs[pending[i]] for i in chunk],
                observed=relay is not None,
                cache_root=cache_root,
            ))
        outstanding = len(chunks)
        try:
            while outstanding:
                kind, task, payload = pool.wait()
                outstanding -= 1
                if kind == "died":
                    raise WorkerCrashError(
                        f"pool worker died while running a batch of "
                        f"{len(task.specs)} trial(s)"
                    )
                if payload.error is not None:
                    raise payload.error
                _fold_reply(payload, cache)
                for index, (result, telemetry) in zip(
                    task.indices, payload.items
                ):
                    if relay is not None:
                        relay.record(index, telemetry)
                    results[index] = result
        except BaseException:
            pool.abandon_all()
            raise


def _run_resilient(
    specs: List[TrialSpec],
    pending: List[int],
    results: List[Any],
    jobs: int,
    cache: Optional[TrialCache],
    chunk_size: Optional[int],
    *,
    policy: ResiliencePolicy,
    journal: Optional[CheckpointJournal],
    quarantine: QuarantineReport,
    bus,
    relay=None,
    dispatch: Optional[DispatchStats] = None,
    pool: Optional[WorkerPool] = None,
) -> None:
    from ..obs.events import TrialQuarantined, TrialRetried, TrialTimedOut

    retries = policy.retries
    trial_timeout = policy.trial_timeout
    keys = {i: spec_key(specs[i]) for i in pending}
    attempts = {i: 0 for i in pending}

    def record_success(i: int, result: Any, telemetry=None,
                       stored_in_worker: bool = False) -> None:
        results[i] = result
        if relay is not None:
            relay.record(i, telemetry)
        if cache is not None and not stored_in_worker:
            cache.put(specs[i], result)
        if journal is not None:
            journal.record_done(keys[i])

    def backoff_sleep(seconds: float, key: str) -> None:
        if relay is not None:
            relay.span("retry_backoff", seconds, key[:12])
        _time.sleep(seconds)

    def give_up(i: int, reason: str) -> None:
        quarantine.add(i, keys[i], specs[i], attempts[i], reason)
        if journal is not None:
            journal.record_quarantined(keys[i], reason)
        _publish(bus, TrialQuarantined(-1, keys[i], attempts[i], reason))

    if jobs <= 1:
        # Serial resilient path: the watchdog runs in this process.
        for i in pending:
            while True:
                attempts[i] += 1
                if relay is not None:
                    outcome, telemetry = guarded_execute_observed(
                        specs[i], trial_timeout, _time.time(), keys[i]
                    )
                else:
                    outcome = guarded_execute(specs[i], trial_timeout)
                    telemetry = None
                if not isinstance(outcome, TrialFailure):
                    record_success(i, outcome, telemetry)
                    break
                if outcome.kind == "timeout":
                    _publish(bus, TrialTimedOut(-1, keys[i], trial_timeout))
                if attempts[i] > retries:
                    give_up(i, outcome.detail)
                    break
                _publish(
                    bus, TrialRetried(-1, keys[i], attempts[i], outcome.detail)
                )
                delay = policy.backoff_seconds(attempts[i] - 1)
                if delay > 0:
                    backoff_sleep(delay, keys[i])
        if dispatch is not None:
            dispatch.trials += len(pending)
        return

    # Pooled resilient path.  Batches carry the in-worker watchdog
    # (capture=True: failures come back as TrialFailure values).  Worker
    # deaths blame their batch exactly — a multi-spec batch is requeued
    # as singletons pinned to the recycled worker slot (no attempt
    # charged: the culprit within the batch is unknown); a singleton
    # death charges its one spec.
    pool = _pool_session(pool, jobs, dispatch)
    with pool.scoped(dispatch):
        cache_root = str(cache.root) if cache is not None else None
        observed = relay is not None

        def submit(indices: List[int], pin: Optional[int] = None) -> None:
            pool.submit(pool.make_task(
                indices=indices, specs=[specs[i] for i in indices],
                observed=observed, capture=True, timeout=trial_timeout,
                cache_root=cache_root, pin=pin,
            ))

        order = sorted(pending)
        chunks = _chunk_indices(len(order), jobs, chunk_size)
        for chunk in chunks:
            submit([order[i] for i in chunk])
        outstanding = len(chunks)
        failure_rounds = 0
        try:
            while outstanding:
                kind, task, payload = pool.wait()
                outstanding -= 1
                resubmits: List = []  # (indices, pin) pairs
                any_failed = False
                if kind == "died":
                    any_failed = True
                    wid = payload
                    if len(task.indices) > 1:
                        # Culprit unknown within the batch: isolate every
                        # spec on the recycled worker, uncharged.
                        for i in task.indices:
                            resubmits.append(([i], wid))
                    else:
                        i = task.indices[0]
                        attempts[i] += 1
                        reason = "worker death (worker recycled in place)"
                        if attempts[i] > retries:
                            give_up(i, reason)
                        else:
                            _publish(bus, TrialRetried(
                                -1, keys[i], attempts[i], reason
                            ))
                            resubmits.append(([i], wid))
                else:
                    _fold_reply(payload, cache)
                    for i, (outcome, telemetry) in zip(
                        task.indices, payload.items
                    ):
                        if not isinstance(outcome, TrialFailure):
                            record_success(i, outcome, telemetry,
                                           stored_in_worker=cache is not None)
                            continue
                        any_failed = True
                        attempts[i] += 1
                        if outcome.kind == "timeout":
                            _publish(bus, TrialTimedOut(
                                -1, keys[i], trial_timeout
                            ))
                        if attempts[i] > retries:
                            give_up(i, outcome.detail)
                        else:
                            _publish(bus, TrialRetried(
                                -1, keys[i], attempts[i], outcome.detail
                            ))
                            resubmits.append(([i], None))
                if resubmits and any_failed:
                    delay = policy.backoff_seconds(failure_rounds)
                    if delay > 0:
                        backoff_sleep(delay, "")
                if any_failed:
                    failure_rounds += 1
                for indices, pin in resubmits:
                    submit(indices, pin=pin)
                outstanding += len(resubmits)
        except BaseException:
            pool.abandon_all()
            raise
