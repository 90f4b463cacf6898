"""Persistent warm worker pool with batched dispatch.

The pre-pool executor paid three per-dispatch taxes that made ``--jobs N``
*slower* than serial on small trials (BENCH_sweep.json recorded 0.62×):
a fresh :class:`~concurrent.futures.ProcessPoolExecutor` per call (and
per resilient retry round), one pickle round-trip per trial, and one
disk cache round-trip per trial.  This module removes all three:

* :class:`WorkerPool` forks its workers **once** and keeps them; a
  module-level reuse handle (:func:`shared_pool`) makes every
  ``run_trials`` call in the same process share one pool, so the spawn
  cost amortizes to zero across sweeps.
* Workers are **warm-started** (:func:`repro.perf.spec.warm_imports`):
  the trial drivers, the detector registry and the mc instance tables
  are imported at worker boot, not lazily inside the first trial.
* Work travels as **batches** of specs — one pickle per batch in, one
  compact result+telemetry payload per batch out — and workers flush
  results to the :class:`~repro.perf.cache.TrialCache` with one
  :meth:`~repro.perf.cache.TrialCache.put_many` transaction per batch
  instead of one write per trial.  A worker keeps its connection to
  the cache file the last task named and opens a new one when a task
  names another root or the file was replaced, so a root deleted and
  re-created between sweeps is written afresh.

Each worker owns a private duplex pipe, so a worker death is **precisely
attributable**: the parent knows exactly which batch the dead worker was
running (the old shared-queue pool could only say "someone died" and had
to rebuild everything).  The dead worker is *recycled* — a replacement
is forked into the same slot — and suspect specs re-run pinned to that
recycled worker one at a time; the rest of the pool keeps draining
healthy batches meanwhile.

Every dispatch cost is metered into :class:`DispatchStats` (pool spawns,
worker forks/recycles, batch messages, pickle bytes, cache round-trips),
which is what ``BENCH_sweep.json`` reports as
``dispatch_overhead_per_trial`` and what the CI ``pool-smoke`` job
asserts on.

:class:`InlinePool` is the same task surface run in the calling process:
``run_trials`` at ``jobs=1`` and a ``jobs=1`` farm worker use it, so
:func:`_execute_batch` is the one place a sweep or farm trial runs.
"""

from __future__ import annotations

import atexit
import dataclasses
import gc
import os
import pickle
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from ..runtime.simulation import gc_paused

# A module, not its names: execute_trial and spec_key are looked up per
# batch, so a replacement installed on repro.perf.spec (tests) applies.
from . import spec as spec_module
from .cache import DB_NAME, TrialCache
from .resilience import _guarded

_PROTOCOL = pickle.HIGHEST_PROTOCOL


class WorkerCrashError(RuntimeError):
    """A pool worker died while running a batch on the *plain* path.

    The resilient path turns worker deaths into retries/quarantine; the
    plain path has no failure protocol, so the death surfaces here (the
    pool itself survives — the dead worker is recycled).
    """


@dataclasses.dataclass
class DispatchStats:
    """Metered dispatch costs of one ``run_trials`` call (or a pool's life).

    ``pool_spawns`` counts 0→N worker cold starts this scope triggered
    (a warm reuse of the shared pool counts ``pool_reuses`` instead);
    ``batches`` is task messages sent (each batch is exactly one pickled
    message out and one back); ``cache_get_round_trips`` /
    ``cache_put_round_trips`` count cache queries and transactions, not
    trials — a ``get_many`` over a whole grid is **one** round trip.
    """

    pool_spawns: int = 0
    pool_reuses: int = 0
    worker_spawns: int = 0
    worker_recycles: int = 0
    batches: int = 0
    trials: int = 0
    pickle_bytes_out: int = 0
    pickle_bytes_in: int = 0
    cache_get_round_trips: int = 0
    cache_put_round_trips: int = 0
    cache_stores: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)

    def dispatch_events(self) -> int:
        """Pool spawns + batch messages (out and back) + cache visits —
        the dimensionless "how many times did the harness pay a fork,
        a pickle boundary, or a cache query" count."""
        return (
            self.pool_spawns + 2 * self.batches
            + self.cache_get_round_trips + self.cache_put_round_trips
        )

    def per_trial(self) -> Dict[str, float]:
        """Per-trial dispatch overhead rates (the BENCH_sweep metric)."""
        n = max(1, self.trials)
        return {
            "pool_spawns": round(self.pool_spawns / n, 4),
            "messages": round(2 * self.batches / n, 4),
            "cache_round_trips": round(
                (self.cache_get_round_trips + self.cache_put_round_trips) / n,
                4,
            ),
            "pickle_bytes": round(
                (self.pickle_bytes_out + self.pickle_bytes_in) / n, 1
            ),
            "events_per_trial": round(self.dispatch_events() / n, 4),
        }


@dataclasses.dataclass(frozen=True)
class PoolTask:
    """One batch of specs on its way to a worker (picklable).

    ``indices`` are caller-side bookkeeping (input-grid positions) that
    ride along untouched; ``capture`` selects the failure protocol —
    ``True`` returns in-worker failures as
    :class:`~repro.perf.resilience.TrialFailure` values per spec,
    ``False`` (the plain path) aborts the batch and re-raises the
    original exception in the parent.  ``pin`` routes the task to one
    specific worker slot (isolation after a worker death).  ``keys`` are
    the specs' :func:`~repro.perf.spec.spec_key` values when the caller
    holds them, so neither the telemetry nor the cache flush hashes a
    spec again.
    """

    task_id: int
    indices: Tuple[int, ...]
    specs: Tuple[Any, ...]
    keys: Tuple[str, ...] = ()
    observed: bool = False
    capture: bool = False
    timeout: Optional[float] = None
    cache_root: Optional[str] = None
    submitted_at: float = 0.0
    pin: Optional[int] = None


@dataclasses.dataclass(frozen=True)
class BatchReply:
    """One batch's way back: per-spec outcomes plus worker-side accounting.

    ``items`` aligns with ``task.specs``: ``(outcome, telemetry)`` pairs
    where a failed spec (capture mode) holds a
    :class:`~repro.perf.resilience.TrialFailure` and ``telemetry=None``.
    ``error`` carries the re-raisable exception of an aborted batch (any
    exception in plain mode; in capture mode one the per-spec guard does
    not catch, such as ``SystemExit``) and then ``items`` is empty.
    ``dequeued_at`` is stamped when the worker *picked up* the
    batch — the parent-side ``submitted_at`` minus this is the true
    queue wait, identical for every trial in the batch (trial k's queue
    wait must not absorb trials 1..k-1's execution time).
    ``cache_stores`` / ``cache_put_round_trips`` are what the worker's
    cache counted for this batch, and ``cache_degraded`` is its state
    after the batch, for the parent to fold into its own cache.
    """

    task_id: int
    items: Tuple[Tuple[Any, Any], ...] = ()
    error: Optional[BaseException] = None
    dequeued_at: float = 0.0
    cache_stores: int = 0
    cache_put_round_trips: int = 0
    cache_degraded: bool = False


# -- worker side -------------------------------------------------------------


def _execute_batch(task: PoolTask, cache: Optional[TrialCache] = None,
                   execute=None) -> BatchReply:
    """Run one batch in this process: the unit of work of both pools.

    ``cache`` is the :class:`~repro.perf.cache.TrialCache` that stores
    the batch's results, if any (a worker's own for the root
    ``task.cache_root`` names, from :func:`_task_cache`;
    :class:`InlinePool` hands in the caller's).  ``execute`` runs one
    spec (default :func:`~repro.perf.spec.execute_trial`).  Pure with
    respect to the worker loop, so tests drive it in-process: queue-wait
    stamping, per-spec watchdogs, and the batched cache flush are all
    exercised without forking.
    """
    if execute is None:
        execute = spec_module.execute_trial
    if task.observed:
        from ..obs.metrics import MetricsCollector
        from ..obs.telemetry import trial_telemetry
    dequeued = time.time()
    queue_wait = max(0.0, dequeued - task.submitted_at)
    items: List[Tuple[Any, Any]] = []
    store: List[Tuple[Any, Any]] = []
    keys: List[str] = []
    try:
        for position, spec in enumerate(task.specs):
            collector = MetricsCollector() if task.observed else None
            started = time.perf_counter()
            # The cyclic GC stays off until the trial has returned and
            # its trace is freed by reference counting (see gc_paused).
            with gc_paused():
                if task.capture:
                    outcome, ok = _guarded(
                        spec, task.timeout, collector, execute)
                else:
                    # Plain mode: no watchdog, exceptions abort the batch
                    # (caught below and re-raised parent-side).
                    outcome, ok = execute(spec, collector=collector), True
            seconds = time.perf_counter() - started
            telemetry = None
            if task.observed and ok:
                telemetry = trial_telemetry(
                    spec, outcome,
                    task.keys[position] if task.keys
                    else spec_module.spec_key(spec),
                    (("queue_wait", queue_wait), ("execute", seconds)),
                    registry=collector.registry, seconds=seconds,
                )
            items.append((outcome, telemetry))
            if ok:
                store.append((spec, outcome))
                if task.keys:
                    keys.append(task.keys[position])
    except BaseException as exc:  # abort the batch; the parent settles it
        return BatchReply(task.task_id, error=exc, dequeued_at=dequeued)

    if cache is None:
        return BatchReply(task.task_id, items=tuple(items),
                          dequeued_at=dequeued)
    stores, put_round_trips = cache.stores, cache.put_round_trips
    cache.put_many(store, keys if task.keys else None)
    return BatchReply(
        task.task_id, items=tuple(items), dequeued_at=dequeued,
        cache_stores=cache.stores - stores,
        cache_put_round_trips=cache.put_round_trips - put_round_trips,
        cache_degraded=cache.degraded,
    )


def _task_cache(cache: Optional[TrialCache],
                cache_file: Optional[Tuple[int, int]],
                root: str) -> Tuple[TrialCache, Optional[Tuple[int, int]]]:
    """The worker's cache for a task naming ``root``, and the device and
    inode of the file it is bound to.

    The open cache is kept while ``root`` holds the same file and the
    cache has not degraded; otherwise a new one is made.  A root deleted
    and re-created since holds a new inode, because the open connection
    keeps the old one allocated.  The file is identified before the new
    cache opens it, so a replacement racing the open costs one more
    reopen, never a write into a deleted file.
    """
    try:
        st = os.stat(os.path.join(root, DB_NAME))
        current: Optional[Tuple[int, int]] = (st.st_dev, st.st_ino)
    except OSError:
        current = None
    if cache is not None and current is not None \
            and current == cache_file and not cache.degraded:
        return cache, cache_file
    if cache is not None:
        cache.close()
    return TrialCache(root), current


def _worker_main(conn) -> None:
    """Long-lived worker loop: recv batch → execute → send reply."""
    global _SHARED, _SHARED_PID
    _SHARED, _SHARED_PID = None, -1  # never reuse a forked parent's pool
    # A pool forked from inside a trial (an audit oracle's nested pool)
    # inherits the trial's paused collector; a worker starts with it on.
    gc.enable()
    from .spec import warm_imports

    warm_imports()
    cache: Optional[TrialCache] = None
    cache_file: Optional[Tuple[int, int]] = None
    while True:
        try:
            # Poll with a timeout so an orphaned worker (parent killed
            # without shutdown) notices re-parenting and exits.
            if not conn.poll(1.0):
                if os.getppid() == 1:
                    break
                continue
            frame = conn.recv_bytes()
        except (EOFError, OSError):
            break
        task = pickle.loads(frame)
        if task is None:  # shutdown sentinel
            break
        if task.cache_root is not None:
            cache, cache_file = _task_cache(cache, cache_file,
                                            task.cache_root)
        reply = _execute_batch(
            task, cache if task.cache_root is not None else None
        )
        try:
            data = pickle.dumps(reply, _PROTOCOL)
        except Exception as exc:
            # An unpicklable result/exception must not kill the worker.
            fallback = BatchReply(
                task.task_id,
                error=RuntimeError(
                    f"unpicklable batch reply: {type(exc).__name__}: {exc}"
                ),
                dequeued_at=reply.dequeued_at,
            )
            data = pickle.dumps(fallback, _PROTOCOL)
        try:
            conn.send_bytes(data)
        except (BrokenPipeError, OSError):
            break
    if cache is not None:
        cache.close()


# -- parent side -------------------------------------------------------------


class _Worker:
    __slots__ = ("wid", "process", "conn", "task")

    def __init__(self, wid: int, process, conn):
        self.wid = wid
        self.process = process
        self.conn = conn
        self.task: Optional[PoolTask] = None  # busy iff not None


class WorkerPool:
    """A persistent set of warm worker processes draining batched tasks.

    One pool serves many ``run_trials`` calls; only one call drives it
    at a time (the executor is synchronous), selected by
    :meth:`scoped`/:meth:`limit`.  A scoped :class:`DispatchStats` sees
    its own call's costs.  Workers are forked where the platform can
    fork (the default start method otherwise).
    """

    def __init__(self) -> None:
        import multiprocessing as mp
        # Force multiprocessing.util's atexit hook (join all non-daemon
        # children) to register BEFORE ours: atexit is LIFO, so our
        # shutdown then runs first and the workers are already gone when
        # the join-all hook walks them.  util is otherwise imported
        # lazily at the first Process.start() — *after* our register —
        # which deadlocks interpreter exit behind live workers.
        import multiprocessing.util  # noqa: F401

        self._ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else None
        )
        self._workers: Dict[int, _Worker] = {}
        self._pending: Deque[PoolTask] = deque()
        self._abandoned: Set[int] = set()
        self._scopes: List[DispatchStats] = []
        self._next_wid = 0
        self._next_task_id = 0
        self._limit: Optional[int] = None
        self.closed = False
        atexit.register(self.shutdown)

    # -- accounting ----------------------------------------------------------

    def _account(self, field: str, amount: int = 1) -> None:
        for scope in self._scopes:
            setattr(scope, field, getattr(scope, field) + amount)

    @contextmanager
    def scoped(self, stats: Optional[DispatchStats]):
        """Attribute this call's dispatch costs to ``stats`` as well."""
        if stats is not None:
            self._scopes.append(stats)
        try:
            yield self
        finally:
            if stats is not None:
                self._scopes.remove(stats)

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self, wid: Optional[int] = None) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main, args=(child_conn,),
            name=f"repro-pool-{wid if wid is not None else self._next_wid}",
            daemon=False,  # workers may nest their own pools (audit oracles)
        )
        process.start()
        child_conn.close()
        if wid is None:
            wid = self._next_wid
            self._next_wid += 1
        else:
            self._account("worker_recycles")
        worker = _Worker(wid, process, parent_conn)
        self._workers[wid] = worker
        self._account("worker_spawns")
        return worker

    def ensure(self, jobs: int) -> None:
        """Grow the pool to at least ``jobs`` workers (never shrinks)."""
        if self.closed:
            raise RuntimeError("worker pool is closed")
        if not self._workers and jobs > 0:
            self._account("pool_spawns")
        elif self._workers:
            self._account("pool_reuses")
        while len(self._workers) < jobs:
            self._spawn()

    def limit(self, jobs: Optional[int]) -> None:
        """Dispatch new batches to at most the first ``jobs`` slots."""
        self._limit = jobs

    def size(self) -> int:
        return len(self._workers)

    def shutdown(self) -> None:
        if self.closed:
            return
        self.closed = True
        atexit.unregister(self.shutdown)
        sentinel = pickle.dumps(None, _PROTOCOL)
        for worker in self._workers.values():
            try:
                worker.conn.send_bytes(sentinel)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers.values():
            worker.process.join(timeout=3.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            worker.conn.close()
        self._workers.clear()
        self._pending.clear()

    # -- dispatch ------------------------------------------------------------

    def make_task(self, indices, specs, **kwargs) -> PoolTask:
        task = PoolTask(
            task_id=self._next_task_id, indices=tuple(indices),
            specs=tuple(specs), submitted_at=time.time(), **kwargs,
        )
        self._next_task_id += 1
        return task

    def submit(self, task: PoolTask) -> None:
        self._pending.append(task)
        self._dispatch()

    def _active_wids(self) -> List[int]:
        wids = sorted(self._workers)
        return wids if self._limit is None else wids[:self._limit]

    def _send(self, worker: _Worker, task: PoolTask) -> None:
        data = pickle.dumps(task, _PROTOCOL)
        worker.task = task
        self._account("batches")
        self._account("trials", len(task.specs))
        self._account("pickle_bytes_out", len(data))
        try:
            worker.conn.send_bytes(data)
        except (BrokenPipeError, OSError):
            pass  # the death surfaces via the sentinel in wait()

    def _dispatch(self) -> None:
        if not self._pending:
            return
        # Recycle workers that died while idle, so an innocent batch is
        # never handed a corpse.
        for wid in self._active_wids():
            worker = self._workers[wid]
            if worker.task is None and not worker.process.is_alive():
                worker.conn.close()
                self._spawn(wid)
        held: List[PoolTask] = []
        while self._pending:
            task = self._pending.popleft()
            if task.pin is not None:
                worker = self._workers.get(task.pin)
                if worker is None:
                    worker = self._spawn(task.pin)
                if worker.task is None:
                    self._send(worker, task)
                else:
                    held.append(task)
                continue
            idle = [
                self._workers[wid] for wid in self._active_wids()
                if self._workers[wid].task is None
            ]
            if not idle:
                held.append(task)
                break
            self._send(idle[0], task)
        held.extend(self._pending)
        self._pending = deque(held)

    def abandon_all(self) -> None:
        """Forget queued and in-flight tasks (exception unwinding).

        In-flight batches still finish in their workers; their replies
        are discarded on arrival, so the pool is immediately reusable.
        """
        for task in self._pending:
            self._abandoned.add(task.task_id)
        self._pending.clear()
        for worker in self._workers.values():
            if worker.task is not None:
                self._abandoned.add(worker.task.task_id)

    def wait(self):
        """Block until one batch resolves.

        Returns ``("done", task, BatchReply)`` or ``("died", task, wid)``
        — precise blame: ``task`` is exactly what the dead worker was
        running, and the slot has already been recycled (a fresh worker
        sits at ``wid``, ready for pinned isolation re-runs).
        """
        from multiprocessing import connection

        while True:
            self._dispatch()
            busy = [w for w in self._workers.values() if w.task is not None]
            if not busy:
                if not self._pending:
                    raise RuntimeError("wait() with no outstanding task")
                continue
            handles = [w.conn for w in busy]
            handles += [w.process.sentinel for w in busy]
            ready = set(connection.wait(handles))
            for worker in busy:
                # A finished worker may have its reply buffered and its
                # sentinel fired (shutdown races); prefer the reply.
                if worker.conn in ready or worker.conn.poll():
                    task, outcome = worker.task, None
                    worker.task = None
                    try:
                        data = worker.conn.recv_bytes()
                    except (EOFError, OSError):
                        outcome = "died"
                    if outcome == "died":
                        self._recycle(worker)
                        if task.task_id in self._abandoned:
                            self._abandoned.discard(task.task_id)
                            continue
                        return ("died", task, worker.wid)
                    self._account("pickle_bytes_in", len(data))
                    reply = pickle.loads(data)
                    if task.task_id in self._abandoned:
                        self._abandoned.discard(task.task_id)
                        continue
                    return ("done", task, reply)
                if worker.process.sentinel in ready:
                    task = worker.task
                    worker.task = None
                    self._recycle(worker)
                    if task.task_id in self._abandoned:
                        self._abandoned.discard(task.task_id)
                        continue
                    return ("died", task, worker.wid)

    def _recycle(self, worker: _Worker) -> None:
        worker.process.join(timeout=1.0)
        worker.conn.close()
        self._spawn(worker.wid)


class InlinePool:
    """:class:`WorkerPool`'s task surface, run in the calling process.

    ``wait()`` runs the oldest submitted task through
    :func:`_execute_batch` with the caller's own ``cache`` object, so
    in-process results land in that object (its counters, its degraded
    read-only flag, its open connection) and the reply reports no
    stores to fold back.  There
    is no worker to lose: ``wait()`` never reports a death, and ``pin``
    is ignored.  ``execute`` runs one spec (default
    :func:`~repro.perf.spec.execute_trial`).
    """

    make_task = WorkerPool.make_task

    def __init__(self, cache=None, execute=None):
        self._cache = cache
        self._execute = execute
        self._pending: Deque[PoolTask] = deque()
        self._next_task_id = 0

    def submit(self, task: PoolTask) -> None:
        self._pending.append(task)

    def wait(self):
        task = self._pending.popleft()
        reply = _execute_batch(task, self._cache, self._execute)
        return "done", task, BatchReply(
            task.task_id, reply.items, reply.error, reply.dequeued_at
        )

    def abandon_all(self) -> None:
        self._pending.clear()

    @contextmanager
    def scoped(self, stats: Optional[DispatchStats]):
        yield self


def batch_lost(kind: str, payload) -> Optional[str]:
    """Why a ``wait()`` result carries no outcomes, or ``None``.

    A worker death and an aborted batch (``BatchReply.error``: an
    exception the per-spec guard did not catch, or an unpicklable reply)
    both lose every outcome in the batch, so callers settle them alike.
    An aborting ``KeyboardInterrupt`` is re-raised: an interrupt is never
    a trial failure.
    """
    if kind == "died":
        return "worker death (worker recycled in place)"
    error = payload.error
    if error is None:
        return None
    if isinstance(error, KeyboardInterrupt):
        raise error
    return f"batch aborted: {type(error).__name__}: {error}"


# -- module-level reuse handle ------------------------------------------------

_SHARED: Optional[WorkerPool] = None
_SHARED_PID: int = -1


def shared_pool() -> WorkerPool:
    """The process-wide pool every ``run_trials`` call shares.

    Created lazily on first use, re-created after a ``fork`` (a child
    must never drive its parent's pipes) or after :func:`reset_shared_pool`,
    and shut down at interpreter exit (every pool registers its own
    ``atexit`` shutdown).
    """
    global _SHARED, _SHARED_PID
    if _SHARED is None or _SHARED_PID != os.getpid() or _SHARED.closed:
        _SHARED = WorkerPool()
        _SHARED_PID = os.getpid()
    return _SHARED


def reset_shared_pool() -> None:
    """Shut down the shared pool (tests; or to force a cold spawn)."""
    global _SHARED
    if _SHARED is not None and _SHARED_PID == os.getpid():
        _SHARED.shutdown()
    _SHARED = None
