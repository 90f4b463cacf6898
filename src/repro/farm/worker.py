"""The farm worker: claim → execute → complete, with heartbeats.

A :class:`FarmWorker` drains a :class:`~repro.farm.store.FarmStore` in a
loop — ``claim_batch`` leases a batch of trials, the trials run
through the **same** loop as a local sweep
(:func:`~repro.perf.executor.run_batches`: in this process through an
:class:`~repro.perf.pool.InlinePool` at ``jobs == 1``, on the warm
:func:`~repro.perf.pool.shared_pool` when ``jobs > 1``), and the
outcomes go back with their lease tokens: each reply's results in one
:meth:`~repro.farm.store.FarmStore.complete_many`, failures one by one
via :meth:`~repro.farm.store.FarmStore.fail` (which requeues or
quarantines per the shared
:class:`~repro.perf.resilience.ResiliencePolicy`).  A lost batch is
settled as in a local sweep: its trials re-run alone, uncharged, so
only the trial that kills a worker (or aborts a batch) is charged.

Unless ``batch_size`` is given, each claim is sized from the worker's
own wall time per trial in its previous batch, aiming at
:data:`CLAIM_TARGET_SECONDS` of work per claim and at most
:data:`MAX_CLAIM` trials per job: short trials get large claims, so
store round trips stop mattering (and a pooled task carries as many
trials as an in-process claim), while long trials keep small ones, so
several workers still share a small campaign.

A background thread heartbeats the live lease tokens every third of the
TTL, so a slow trial never loses its lease — only a dead worker does.
Every completion stores its result (whose ``metrics`` snapshot holds the
trial's counters and gauges) beside its
:class:`~repro.obs.telemetry.TrialTelemetry` payload (spans and raw
histogram samples), which is what lets the submit side reassemble farm
metrics exactly like ``sweep --jobs N`` reassembles pool metrics.

The worker exits when its scope (one campaign, or the whole store) has
no claimable or leased rows left; while only *other* workers' live
leases remain it idles on a short poll, ready to reap them if they
expire.
"""

from __future__ import annotations

import logging
import os
import random
import socket
import threading
import time
from functools import partial
from typing import Dict, List, Optional, Tuple

from ..perf.cache import TrialCache
from ..perf.executor import _pool_session, run_batches
from ..perf.pool import InlinePool, WorkerPool
from ..perf.resilience import ResiliencePolicy, TrialFailure
from .store import FarmStore, LeasedTrial, RetryingStore

log = logging.getLogger("repro.farm.worker")

#: Exit code of the deliberate mid-batch crash (self-test hook).
CRASH_EXIT_CODE = 86

#: Consecutive heartbeat failures before a worker declares its leases
#: lost and abandons them (they expire and get reclaimed elsewhere).
HEARTBEAT_MAX_MISSES = 3

#: Wall-clock work a derived claim aims at.
CLAIM_TARGET_SECONDS = 0.1

#: Ceiling on a derived claim size, per job.
MAX_CLAIM = 64


def default_worker_id() -> str:
    return f"{socket.gethostname()}:{os.getpid()}"


class _Heartbeat:
    """Background lease refresher: one store connection, its own thread.

    A single failed heartbeat is survivable (the lease TTL has two more
    beats of slack), so it is only logged; :data:`HEARTBEAT_MAX_MISSES`
    *consecutive* failures mean the store is unreachable and the leases
    will lapse regardless — ``lost`` is set so the worker can abandon
    them cleanly instead of completing against stale tokens.
    """

    def __init__(self, store: FarmStore, lease_ttl: float,
                 max_misses: int = HEARTBEAT_MAX_MISSES):
        self.store = store
        self.lease_ttl = lease_ttl
        self.max_misses = max_misses
        self.lost = threading.Event()
        self._misses = 0
        self._tokens: set = set()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="farm-heartbeat", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        period = max(0.05, self.lease_ttl / 3.0)
        while not self._stop.wait(period):
            with self._lock:
                tokens = list(self._tokens)
            if not tokens:
                continue
            try:
                self.store.heartbeat(tokens, self.lease_ttl)
            except Exception as exc:
                # A failed heartbeat just means the lease may lapse
                # and be reclaimed — the safe direction.
                self._misses += 1
                log.warning(
                    "heartbeat failed (%s: %s), miss %d/%d",
                    type(exc).__name__, exc, self._misses, self.max_misses,
                )
                if self._misses >= self.max_misses:
                    self.lost.set()
            else:
                self._misses = 0

    def track(self, tokens: List[str]) -> None:
        with self._lock:
            self._tokens.update(tokens)

    def release(self, token: str) -> None:
        with self._lock:
            self._tokens.discard(token)

    def tracked(self) -> List[str]:
        with self._lock:
            return list(self._tokens)

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)


class FarmWorker:
    """One drain loop over a farm store.

    Parameters mirror the ``repro worker`` CLI.  ``jobs == 1`` executes
    each claimed batch in-process as one task (watchdog armed when on the
    main thread); ``jobs > 1`` fans it out over the persistent warm
    pool with the in-worker watchdog, exactly like a resilient local
    sweep.  ``batch_size`` fixes the claim size; by default the first
    claim takes ``max(2, 2·jobs)`` and later ones are derived (see the
    module docstring), never below that nor above
    ``MAX_CLAIM · jobs``.
    ``crash_after`` is the self-test hook behind
    ``--self-test-crash-after``: hard-exit (``os._exit``) right after
    that many durable completions, mid-batch, leases still held — the
    worker-death recovery tests and CI drive it.
    """

    def __init__(
        self,
        store: FarmStore,
        *,
        worker_id: Optional[str] = None,
        jobs: int = 1,
        batch_size: Optional[int] = None,
        lease_ttl: float = 30.0,
        policy: Optional[ResiliencePolicy] = None,
        cache: Optional[TrialCache] = None,
        campaign: Optional[str] = None,
        bus=None,
        poll: float = 0.2,
        max_idle: Optional[float] = None,
        pool: Optional[WorkerPool] = None,
        crash_after: Optional[int] = None,
    ):
        self.worker_id = worker_id or default_worker_id()
        if not isinstance(store, RetryingStore):
            # Transient 'database is locked' faults get bounded, jittered
            # retries instead of crashing the drain loop.  Seeded by the
            # worker id: deterministic per worker, decorrelated across
            # workers.
            store = RetryingStore(
                store, rng=random.Random(f"farm-retry:{self.worker_id}")
            )
        self.store = store
        self.jobs = max(1, jobs)
        self.min_batch = max(2, self.jobs * 2)
        self.derive_batch = not batch_size
        self.batch_size = batch_size or self.min_batch
        self.lease_ttl = lease_ttl
        self.policy = policy or ResiliencePolicy()
        self.cache = cache
        self.campaign = campaign
        self.bus = bus
        self.poll = poll
        self.max_idle = max_idle
        self.pool = pool
        self.crash_after = crash_after
        self.stats: Dict[str, int] = {
            "claimed": 0, "completed": 0, "failed": 0, "quarantined": 0,
            "reaped": 0, "stale": 0, "batches": 0, "abandoned": 0,
        }

    # -- event plumbing ----------------------------------------------------

    def _publish(self, event) -> None:
        if self.bus is not None and self.bus.active:
            self.bus.publish(event)

    def _announce(self, leases: List[LeasedTrial], reaped) -> None:
        from ..obs.events import FarmLeaseExpired, FarmTrialClaimed

        for reap in reaped:
            self.stats["reaped"] += 1
            self._publish(FarmLeaseExpired(
                -1, reap.key[:12], reap.worker, reap.attempts,
                reap.quarantined,
            ))
        for lease in leases:
            self.stats["claimed"] += 1
            self._publish(FarmTrialClaimed(
                -1, lease.key[:12], self.worker_id, lease.attempts,
            ))

    # -- outcome plumbing --------------------------------------------------

    def _fail(self, lease: LeasedTrial, failure: TrialFailure) -> None:
        """Report one failed trial against its lease."""
        from ..obs.events import TrialQuarantined, TrialRetried, TrialTimedOut

        if failure.kind == "timeout":
            self._publish(TrialTimedOut(
                -1, lease.key[:12], self.policy.trial_timeout
            ))
        verdict = self.store.fail(lease.token, failure.detail, self.policy)
        if verdict == "stale":
            self.stats["stale"] += 1
        elif verdict == "quarantined":
            self.stats["quarantined"] += 1
            self._publish(TrialQuarantined(
                -1, lease.key[:12], lease.attempts, failure.detail
            ))
        else:
            self.stats["failed"] += 1
            self._publish(TrialRetried(
                -1, lease.key[:12], lease.attempts, failure.detail
            ))

    def _settle(self, leases: List[LeasedTrial], heartbeat: _Heartbeat,
                indices, items) -> Tuple[int, ...]:
        """Report one reply: ``items`` holds the ``(outcome, telemetry)``
        pair of ``leases[i]`` for each ``i`` in ``indices``.

        Failures go through ``fail`` one by one, which requeues or
        quarantines them, so nothing re-runs here; the results are
        settled in one ``complete_many``.
        """
        done = []
        for index, (outcome, telemetry) in zip(indices, items):
            lease = leases[index]
            heartbeat.release(lease.token)
            if isinstance(outcome, TrialFailure):
                self._fail(lease, outcome)
            else:
                done.append((lease, outcome, telemetry))
        while done:
            cut = len(done)
            if self.crash_after is not None:
                # The crash hook dies right after the N-th durable
                # completion, so commit no further than that.
                cut = max(1, self.crash_after - self.stats["completed"])
            part, done = done[:cut], done[cut:]
            oks = self.store.complete_many([
                (lease.token, outcome, telemetry)
                for lease, outcome, telemetry in part
            ])
            for ok in oks:
                self.stats["completed" if ok else "stale"] += 1
            if (self.crash_after is not None
                    and self.stats["completed"] >= self.crash_after):
                # Self-test hook: die exactly like a power cut — no
                # cleanup, leases for the rest of the batch still held.
                os._exit(CRASH_EXIT_CODE)
        return ()

    # -- execution ---------------------------------------------------------

    def _abandon(self, heartbeat: _Heartbeat,
                 leases: Optional[List[LeasedTrial]] = None) -> None:
        """Give up the given (or all tracked) leases without settling.

        Used when heartbeats are lost: the tokens are likely stale, so
        completing against them would be wasted work at best.  The rows
        simply expire and get reaped/reclaimed by a healthy worker.
        """
        tokens = ([lease.token for lease in leases] if leases is not None
                  else heartbeat.tracked())
        for token in tokens:
            heartbeat.release(token)
        if tokens:
            self.stats["abandoned"] += len(tokens)
            log.warning(
                "worker %s abandoning %d lease(s) after heartbeat loss; "
                "they will expire and be reclaimed", self.worker_id,
                len(tokens),
            )

    def _run(self, leases: List[LeasedTrial], heartbeat: _Heartbeat,
             pool: Optional[WorkerPool] = None) -> None:
        """Run one claim on ``pool`` (``None``: in this process) through
        the executor's loop, :func:`~repro.perf.executor.run_batches`.

        In-process the claim is one task, so its results reach the cache
        in one ``put_many``; pooled, it is split into ``jobs`` tasks.
        Each reply is settled by :meth:`_settle`, so a lost batch is
        handled as in a local sweep: its trials re-run alone, uncharged,
        and only a lost singleton is failed through ``fail``.
        """
        if heartbeat.lost.is_set():
            self._abandon(heartbeat, leases)
            return
        chunk = -(-len(leases) // self.jobs)
        run_batches(
            pool if pool is not None else InlinePool(self.cache),
            [range(start, min(start + chunk, len(leases)))
             for start in range(0, len(leases), chunk)],
            [lease.spec for lease in leases],
            partial(self._settle, leases, heartbeat),
            keys=[lease.key for lease in leases], cache=self.cache,
            observed=True, capture=True, timeout=self.policy.trial_timeout,
        )

    # -- the drain loop ----------------------------------------------------

    def _claim_size(self, seconds_per_trial: float) -> int:
        """Leases for about :data:`CLAIM_TARGET_SECONDS` of work."""
        wanted = CLAIM_TARGET_SECONDS / max(seconds_per_trial, 1e-9)
        return max(self.min_batch, min(MAX_CLAIM * self.jobs, int(wanted)))

    def drain(self) -> Dict[str, int]:
        """Run until the scope is finished; returns this worker's stats."""
        # One pool session per drain, opened at its first claim: a
        # metered drain counts one pool spawn or reuse, like one
        # run_trials call, and a drain with nothing to claim forks none.
        pool: Optional[WorkerPool] = None
        heartbeat = _Heartbeat(self.store, self.lease_ttl)
        heartbeat.start()
        idle = 0.0
        failure_rounds = 0
        try:
            while True:
                if heartbeat.lost.is_set():
                    self._abandon(heartbeat)
                    break
                leases, reaped = self.store.claim_batch(
                    self.worker_id, self.batch_size, self.lease_ttl,
                    self.policy, campaign=self.campaign,
                )
                self._announce(leases, reaped)
                if leases:
                    idle = 0.0
                    self.stats["batches"] += 1
                    heartbeat.track([lease.token for lease in leases])
                    before_failed = self.stats["failed"]
                    started = time.perf_counter()
                    if self.jobs > 1 and pool is None:
                        pool = _pool_session(self.pool, self.jobs, None)
                    self._run(leases, heartbeat, pool)
                    if self.derive_batch:
                        self.batch_size = self._claim_size(
                            (time.perf_counter() - started) / len(leases)
                        )
                    if self.stats["failed"] > before_failed:
                        delay = self.policy.backoff_seconds(failure_rounds)
                        failure_rounds += 1
                        if delay > 0:
                            time.sleep(delay)
                    else:
                        failure_rounds = 0
                    continue
                counts = self.store.counts(self.campaign)
                if counts["pending"] + counts["failed"] \
                        + counts["leased"] == 0:
                    break
                # Only live leases held elsewhere (or a backoff window)
                # remain: idle briefly, then look again — an expired
                # lease shows up as claimable on the next pass.
                time.sleep(self.poll)
                idle += self.poll
                if self.max_idle is not None and idle >= self.max_idle:
                    break
        finally:
            heartbeat.stop()
        return dict(self.stats)
