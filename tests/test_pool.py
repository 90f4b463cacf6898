"""Tests for the persistent worker pool and batched dispatch.

The contracts under test: one pool per process (``pool_spawns == 1``
across consecutive sweeps), batched messages and cache round trips
(``≤ ceil(trials / batch)``), input-order reassembly no matter the
completion order, queue-wait spans that measure *queueing* (not the
batch's own execution), and worker recycling — a dead slot is reforked
in place instead of tearing down the pool.
"""

import dataclasses
import gc
import pickle
import shutil
import signal
import sqlite3
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosConfig
from repro.obs import MetricsCollector, TrialCompleted
from repro.perf import (
    DispatchStats,
    ExtractionTrialSpec,
    QuarantineReport,
    SabotagedSpec,
    SetAgreementTrialSpec,
    TrialCache,
    TrialFailure,
    WorkerCrashError,
    WorkerPool,
    execute_trial,
    guarded_execute,
    reset_shared_pool,
    run_trials,
    shared_pool,
    spec_key,
)
from repro.perf.executor import _chunk_indices, _fold_reply
from repro.perf.pool import PoolTask, _execute_batch, _task_cache
from repro.runtime import Decide, Nop, ProtocolError, Simulation, System
from tests.helpers import cache_row, write_cache_row

SPECS = [
    SetAgreementTrialSpec(3, 1, seed=seed, stabilization_time=0)
    for seed in range(6)
]


def _crasher(seed: int) -> SabotagedSpec:
    return SabotagedSpec(_quick(seed), "crash")


def _quick(seed: int) -> SetAgreementTrialSpec:
    return SetAgreementTrialSpec(3, 2, seed, 0, max_steps=50_000,
                                 chaos=ChaosConfig(seed=seed, lying_prefix=5))


class TestChunkIndices:
    def test_empty_grid_means_no_chunks(self):
        assert _chunk_indices(0, jobs=4, chunk_size=None) == []
        assert _chunk_indices(0, jobs=1, chunk_size=3) == []

    def test_chunk_size_larger_than_n_is_one_chunk(self):
        chunks = _chunk_indices(5, jobs=2, chunk_size=100)
        assert chunks == [range(0, 5)]

    def test_chunk_size_one_is_all_singletons(self):
        chunks = _chunk_indices(4, jobs=2, chunk_size=1)
        assert chunks == [range(0, 1), range(1, 2), range(2, 3), range(3, 4)]

    def test_default_targets_two_chunks_per_worker(self):
        chunks = _chunk_indices(60, jobs=4, chunk_size=None)
        assert len(chunks) == 8
        assert [i for chunk in chunks for i in chunk] == list(range(60))

    def test_empty_pending_set_never_touches_the_pool(self):
        reset_shared_pool()
        dispatch = DispatchStats()
        assert run_trials([], jobs=4, dispatch=dispatch) == []
        assert dispatch.pool_spawns == 0
        assert dispatch.batches == 0


class TestPoolReuse:
    def test_one_pool_spawn_across_consecutive_sweeps(self):
        reset_shared_pool()
        first, second = DispatchStats(), DispatchStats()
        run_trials(SPECS, jobs=2, dispatch=first)
        run_trials(SPECS, jobs=2, dispatch=second)
        assert first.pool_spawns == 1
        assert first.worker_spawns == 2
        assert second.pool_spawns == 0
        assert second.pool_reuses >= 1
        assert second.worker_spawns == 0

    def test_reset_forces_a_cold_spawn(self):
        reset_shared_pool()
        run_trials(SPECS[:2], jobs=2)
        reset_shared_pool()
        again = DispatchStats()
        run_trials(SPECS[:2], jobs=2, dispatch=again)
        assert again.pool_spawns == 1

    def test_pool_grows_but_never_respawns(self):
        reset_shared_pool()
        grow = DispatchStats()
        run_trials(SPECS, jobs=2, dispatch=grow)
        assert grow.worker_spawns == 2
        more = DispatchStats()
        run_trials(SPECS, jobs=4, dispatch=more)
        assert more.pool_spawns == 0
        assert more.worker_spawns == 2  # only the two new slots
        assert shared_pool().size() == 4

    def test_batch_accounting_matches_chunking(self):
        reset_shared_pool()
        dispatch = DispatchStats()
        run_trials(SPECS, jobs=2, chunk_size=2, dispatch=dispatch)
        assert dispatch.batches == 3  # 6 trials / 2 per batch
        assert dispatch.trials == len(SPECS)
        assert dispatch.pickle_bytes_out > 0
        assert dispatch.pickle_bytes_in > 0
        per = dispatch.per_trial()
        assert per["messages"] == 1.0  # 2 msgs × 3 batches / 6 trials
        assert dispatch.dispatch_events() == 1 + 2 * 3


class TestCacheBatching:
    def test_cold_then_warm_uses_batched_round_trips(self, tmp_path):
        reset_shared_pool()
        cache = TrialCache(tmp_path / "cache")
        cold = DispatchStats()
        cold_results = run_trials(SPECS, jobs=2, chunk_size=3, cache=cache,
                                  dispatch=cold)
        # one get_many for the grid; one put_many per batch (2 batches)
        assert cold.cache_get_round_trips == 1
        assert cold.cache_put_round_trips == 2
        assert cold.cache_stores == len(SPECS)
        assert cache.misses == len(SPECS)
        warm = DispatchStats()
        warm_results = run_trials(SPECS, jobs=2, chunk_size=3, cache=cache,
                                  dispatch=warm)
        assert warm_results == cold_results
        assert warm.cache_get_round_trips == 1
        assert warm.cache_put_round_trips == 0
        assert warm.batches == 0  # fully warm grid never touches the pool
        assert cache.hits == len(SPECS)

    def test_serial_run_counts_trials_and_stores_once(self, tmp_path):
        cache = TrialCache(tmp_path / "cache")
        dispatch = DispatchStats()
        run_trials(SPECS, jobs=1, cache=cache, dispatch=dispatch)
        assert dispatch.trials == len(SPECS)
        assert dispatch.batches == 0
        assert dispatch.pickle_bytes_out == dispatch.pickle_bytes_in == 0
        # one put per trial, each counted once on the caller's cache
        assert cache.stores == dispatch.cache_stores == len(SPECS)
        assert dispatch.cache_put_round_trips == len(SPECS)

    def test_get_many_matches_individual_gets(self, tmp_path):
        alpha = TrialCache(tmp_path / "a")
        beta = TrialCache(tmp_path / "b")
        for cache in (alpha, beta):
            cache.put(SPECS[0], "r0")
            cache.put(SPECS[2], "r2")
        many = alpha.get_many(SPECS[:4])
        singles = [beta.get(spec) for spec in SPECS[:4]]
        assert many == singles == ["r0", None, "r2", None]
        assert (alpha.hits, alpha.misses) == (beta.hits, beta.misses)
        assert alpha.get_round_trips == 1
        assert beta.get_round_trips == 4

    def test_get_many_drops_corrupt_entries_like_get(self, tmp_path, caplog):
        cache = TrialCache(tmp_path / "cache")
        cache.put(SPECS[0], "good")
        write_cache_row(cache, SPECS[1], b"not a pickle")
        with caplog.at_level("WARNING", logger="repro.perf.cache"):
            results = cache.get_many(SPECS[:2])
        assert results == ["good", None]
        assert cache.corrupt == 1
        assert cache_row(cache, SPECS[1]) is None

    def test_put_many_equals_individual_puts(self, tmp_path):
        grouped = TrialCache(tmp_path / "grouped")
        grouped.put_many((spec, f"r{i}") for i, spec in enumerate(SPECS))
        assert grouped.stores == len(SPECS)
        assert grouped.put_round_trips == 1
        assert [grouped.get(spec) for spec in SPECS] == \
            [f"r{i}" for i in range(len(SPECS))]
        assert grouped.put_many([]) is None
        assert grouped.put_round_trips == 1  # empty batch: no disk visit

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_cache_writes_are_not_counted_as_stores(self, tmp_path,
                                                           jobs):
        root = tmp_path / "not-a-directory"
        root.write_text("a regular file where the cache root should be")
        cache = TrialCache(root)
        dispatch = DispatchStats()
        results = run_trials(SPECS[:4], jobs=jobs, cache=cache,
                             dispatch=dispatch)
        assert results == run_trials(SPECS[:4], jobs=1)
        assert cache.stores == dispatch.cache_stores == 0
        assert len(cache) == 0
        assert cache.degraded

    def test_batch_reply_carries_the_worker_cache_outcome(self, tmp_path):
        broken = tmp_path / "not-a-directory"
        broken.write_text("a regular file")
        task = PoolTask(task_id=0, indices=(0, 1), specs=tuple(SPECS[:2]),
                        cache_root=str(broken))
        failed = _execute_batch(task, TrialCache(broken))
        assert (failed.cache_stores, failed.cache_degraded) == (0, True)
        good = tmp_path / "good"
        task = dataclasses.replace(task, cache_root=str(good))
        stored = _execute_batch(task, TrialCache(good))
        assert (stored.cache_stores, stored.cache_degraded) == (2, False)
        parent = TrialCache(good)
        for reply in (stored, failed):
            _fold_reply(reply, parent)
        assert parent.stores == 2 and parent.put_round_trips == 2
        assert parent.degraded

    def test_tasks_sent_after_a_degraded_reply_name_no_cache(self, tmp_path,
                                                             monkeypatch):
        # Workers fork after the patch, so every worker commit fails; the
        # flaky spec's retry is submitted after the first reply degraded
        # the caller's cache, and must not ask a worker to write again.
        def disk_full(self, conn):
            raise sqlite3.OperationalError("database or disk is full")

        monkeypatch.setattr(TrialCache, "_commit", disk_full)
        roots = []

        class RecordingPool(WorkerPool):
            def submit(self, task):
                roots.append(task.cache_root)
                super().submit(task)

        flaky = SabotagedSpec(SPECS[0], f"raise-once:{tmp_path / 'flaked'}")
        specs = [flaky] + SPECS[1:4]
        cache = TrialCache(tmp_path / "cache")
        pool = RecordingPool()
        try:
            results = run_trials(specs, jobs=2, chunk_size=len(specs),
                                 retries=1, backoff=0.0, cache=cache,
                                 pool=pool)
        finally:
            pool.shutdown()
        assert results == run_trials(SPECS[:4], jobs=1)
        assert roots == [str(cache.root), None]
        assert cache.degraded and cache.stores == 0

    def test_farm_tasks_sent_after_a_degraded_reply_name_no_cache(
            self, tmp_path, monkeypatch):
        # The farm worker's counterpart: each claim of two specs goes out
        # as two tasks at once, and the first claim's replies degrade the
        # worker's cache, so the later claims must name no cache.
        from repro.farm import (
            FarmWorker,
            SQLiteFarmStore,
            collect_results,
            submit_campaign,
        )

        def disk_full(self, conn):
            raise sqlite3.OperationalError("database or disk is full")

        monkeypatch.setattr(TrialCache, "_commit", disk_full)
        roots = []

        class RecordingPool(WorkerPool):
            def submit(self, task):
                roots.append(task.cache_root)
                super().submit(task)

        store = SQLiteFarmStore(tmp_path / "farm.db")
        submit_campaign(store, SPECS, campaign="degraded")
        cache = TrialCache(tmp_path / "cache")
        pool = RecordingPool()
        try:
            FarmWorker(store, jobs=2, batch_size=2, cache=cache, pool=pool,
                       lease_ttl=10.0).drain()
        finally:
            pool.shutdown()
        results, _ = collect_results(store, "degraded")
        assert results == run_trials(SPECS, jobs=1)
        assert roots == [str(cache.root)] * 2 + [None] * 4
        assert cache.degraded and cache.stores == 0


class TestSharedCacheFile:
    """Pool workers share one cache file and notice it being replaced."""

    def test_concurrent_first_opens_store_every_entry(self, tmp_path):
        # Three workers (more than a 2-CPU host has cores), each handed
        # a task naming the same fresh root at once: their first opens
        # race to create the file and switch it to WAL.
        def out_of_time(signum, frame):
            raise TimeoutError("60 roots took longer than 120 s")

        previous = signal.signal(signal.SIGALRM, out_of_time)
        signal.alarm(120)
        pool = WorkerPool()
        try:
            pool.ensure(3)
            for index in range(60):
                root = tmp_path / f"root-{index}"
                for start in range(0, len(SPECS), 2):
                    pool.submit(pool.make_task(
                        indices=(start, start + 1),
                        specs=SPECS[start:start + 2], cache_root=str(root),
                    ))
                replies = [pool.wait() for _ in range(len(SPECS) // 2)]
                assert [kind for kind, _, _ in replies] == ["done"] * 3
                assert not any(reply.cache_degraded
                               for _, _, reply in replies)
                assert len(TrialCache(root)) == len(SPECS)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            pool.shutdown()

    def test_deleted_and_recreated_root_gets_the_new_entries(self,
                                                             tmp_path):
        root = tmp_path / "cache"
        pool = WorkerPool()
        try:
            run_trials(SPECS[:4], jobs=2, cache=TrialCache(root), pool=pool)
            shutil.rmtree(root)
            root.mkdir()
            cache = TrialCache(root)
            run_trials(SPECS[2:6], jobs=2, cache=cache, pool=pool)
            assert cache.misses == 4
        finally:
            pool.shutdown()
        fresh = TrialCache(root)
        assert len(fresh) == 4
        assert all(cache_row(fresh, spec) is not None for spec in SPECS[2:6])

    def test_a_worker_keeps_its_cache_while_the_file_stays(self, tmp_path):
        root = str(tmp_path / "cache")
        first, file_id = _task_cache(None, None, root)
        first.put(SPECS[0], "r0")  # creates the file
        kept, file_id = _task_cache(first, file_id, root)
        assert kept is not first  # the file did not exist at first sight
        assert _task_cache(kept, file_id, root) == (kept, file_id)
        kept.cache_degraded = 1
        fresh, same_id = _task_cache(kept, file_id, root)
        assert fresh is not kept and same_id == file_id
        assert fresh.get(SPECS[0]) == "r0"  # its open connection pins the file
        shutil.rmtree(root)
        TrialCache(root).put(SPECS[1], "r1")
        replaced, new_id = _task_cache(fresh, same_id, root)
        assert replaced is not fresh and new_id != same_id
        assert fresh._conn is None  # the old file's connection is closed
        assert replaced.get_many(SPECS[:2]) == [None, "r1"]
        replaced.close()

    def test_a_fork_closes_the_parent_connection(self, tmp_path):
        cache = TrialCache(tmp_path / "cache")
        cache.put(SPECS[0], "r0")
        assert cache._conn is not None
        pool = WorkerPool()
        try:
            pool.ensure(1)
            assert cache._conn is None  # SQLite forbids carrying it over
        finally:
            pool.shutdown()
        assert cache.get(SPECS[0]) == "r0"  # reopened on use


class TestOrderIndependence:
    @settings(max_examples=8, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 50), min_size=2, max_size=8),
        chunk=st.integers(1, 4),
    )
    def test_shuffled_completion_reassembles_input_order(self, seeds, chunk):
        """chunk_size=1 w/ jobs=3 maximizes completion-order jitter; the
        results and per-trial events must still land in input order."""
        specs = [
            SetAgreementTrialSpec(3, 1, seed=s, stabilization_time=0)
            for s in seeds
        ]
        serial = run_trials(specs, jobs=1)
        collector = MetricsCollector()
        completed = []
        collector.bus.subscribe(completed.append, (TrialCompleted,))
        parallel = run_trials(specs, jobs=3, chunk_size=chunk,
                              collector=collector)
        assert parallel == serial
        # events fire in completion order — one per trial, no dupes
        assert len(completed) == len(specs)
        assert sorted(e.key for e in completed) == \
            sorted(spec_key(s)[:12] for s in specs)

    @settings(max_examples=4, deadline=None)
    @given(seeds=st.lists(st.integers(0, 50), min_size=2, max_size=6))
    def test_resilient_path_reassembles_input_order_too(self, seeds):
        specs = [
            SetAgreementTrialSpec(3, 1, seed=s, stabilization_time=0)
            for s in seeds
        ]
        serial = run_trials(specs, jobs=1, retries=1, backoff=0.0)
        collector = MetricsCollector()
        completed = []
        collector.bus.subscribe(completed.append, (TrialCompleted,))
        parallel = run_trials(specs, jobs=3, chunk_size=1, retries=1,
                              backoff=0.0, collector=collector)
        assert parallel == serial
        assert len(completed) == len(specs)
        assert sorted(e.key for e in completed) == \
            sorted(spec_key(s)[:12] for s in specs)


class TestQueueWaitSemantics:
    def test_batch_trials_share_one_dequeue_stamp(self):
        """The satellite fix: trial k's queue_wait must not absorb trials
        1..k-1's execution.  Every trial in a batch reports the same
        submitted→dequeued wait (here ≈5s), not a cumulative one."""
        task = PoolTask(
            task_id=0, indices=(0, 1, 2), specs=tuple(SPECS[:3]),
            observed=True, submitted_at=time.time() - 5.0,
        )
        reply = _execute_batch(task)
        waits = [dict(telemetry.spans)["queue_wait"]
                 for _, telemetry in reply.items]
        assert all(5.0 <= w < 6.0 for w in waits)
        # identical stamp for the whole batch — the old per-chunk
        # submitted_at gave trial k an extra sum(exec of 0..k-1)
        assert max(waits) - min(waits) < 1e-9

    def test_reply_is_picklable_and_ordered(self):
        task = PoolTask(task_id=7, indices=(4, 5), specs=tuple(SPECS[4:6]),
                        observed=False, submitted_at=time.time())
        reply = pickle.loads(pickle.dumps(_execute_batch(task)))
        assert reply.task_id == 7
        assert len(reply.items) == 2
        assert reply.error is None
        serial = run_trials(SPECS[4:6], jobs=1)
        assert [outcome for outcome, _ in reply.items] == serial


def _decides_twice(spec, collector=None):
    """A trial whose run raises ProtocolError (a second Decide)."""

    def protocol(ctx, value):
        yield Decide(value)
        yield Decide(value)

    Simulation(System(2), protocol, inputs={0: 0, 1: 1}).run(max_steps=10)


def _runs_forever(spec, collector=None):
    """A trial that only the watchdog stops."""

    def protocol(ctx, value):
        while True:
            yield Nop()

    Simulation(System(2), protocol).run(max_steps=10**12)


class TestCollectorPause:
    """A trial runs with the cyclic collector paused, and leaves it in
    the state its caller had: on or off, after a trial that returns,
    raises or is stopped by the watchdog."""

    @pytest.fixture(params=[True, False],
                    ids=["collector-on", "collector-off"])
    def collector_on(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @staticmethod
    def _task(capture: bool, timeout=None) -> PoolTask:
        return PoolTask(task_id=0, indices=(0,), specs=(SPECS[0],),
                        capture=capture, timeout=timeout)

    def test_a_trial_that_returns(self, collector_on):
        seen = []

        def execute(spec, collector=None):
            seen.append(gc.isenabled())
            return execute_trial(spec, collector=collector)

        reply = _execute_batch(self._task(False), execute=execute)
        assert reply.error is None and seen == [False]
        assert gc.isenabled() is collector_on
        run_trials(SPECS[:2], jobs=1)
        assert gc.isenabled() is collector_on

    @pytest.mark.parametrize("capture", [False, True],
                             ids=["plain", "capture"])
    def test_a_trial_that_raises_a_protocol_error(self, collector_on,
                                                  capture):
        seen = []

        def execute(spec, collector=None):
            seen.append(gc.isenabled())
            _decides_twice(spec, collector)

        reply = _execute_batch(self._task(capture), execute=execute)
        if capture:
            ((outcome, _),) = reply.items
            assert outcome.kind == "error"
            assert "ProtocolError" in outcome.detail
        else:
            assert isinstance(reply.error, ProtocolError)
        assert seen == [False]
        assert gc.isenabled() is collector_on

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"),
                        reason="needs SIGALRM")
    def test_a_trial_the_watchdog_stops(self, collector_on):
        reply = _execute_batch(self._task(True, timeout=0.2),
                               execute=_runs_forever)
        ((outcome, _),) = reply.items
        assert isinstance(outcome, TrialFailure)
        assert outcome.kind == "timeout"
        assert gc.isenabled() is collector_on
        # guarded_execute's own watchdog stops a run inside Simulation.run,
        # whose pause is then the outermost one.
        outcome = guarded_execute(
            ExtractionTrialSpec("omega", 3, 0, max_steps=10**9), timeout=0.2)
        assert outcome.kind == "timeout"
        assert gc.isenabled() is collector_on


class TestWorkerRecycling:
    def test_crash_recycles_the_slot_not_the_pool(self):
        reset_shared_pool()
        quarantine = QuarantineReport()
        dispatch = DispatchStats()
        specs = [_quick(0), _crasher(1), _quick(2)]
        results = run_trials(specs, jobs=2, retries=0, backoff=0.0,
                             quarantine=quarantine, dispatch=dispatch)
        assert results[1] is None
        assert results[0] is not None and results[2] is not None
        assert [e.index for e in quarantine.entries] == [1]
        assert "worker death" in quarantine.entries[0].reason
        assert dispatch.worker_recycles >= 1
        assert dispatch.pool_spawns == 1  # never a second pool
        # the recycled pool keeps serving the next sweep
        after = DispatchStats()
        again = run_trials(SPECS, jobs=2, dispatch=after)
        assert all(r is not None for r in again)
        assert after.pool_spawns == 0

    def test_plain_path_surfaces_worker_death_as_crash_error(self):
        reset_shared_pool()
        with pytest.raises(WorkerCrashError):
            run_trials([_quick(0), _crasher(1)], jobs=2, chunk_size=1)
        # the pool survives the crash for the next caller
        assert run_trials(SPECS[:2], jobs=2) == run_trials(SPECS[:2], jobs=1)

    def test_crashed_multispec_batch_does_not_charge_innocents(self):
        reset_shared_pool()
        quarantine = QuarantineReport()
        specs = [_quick(0), _crasher(1), _quick(2), _quick(3)]
        results = run_trials(specs, jobs=2, chunk_size=4, retries=0,
                             backoff=0.0, quarantine=quarantine)
        # one batch of 4 died; innocents re-ran uncharged and survived
        assert [e.index for e in quarantine.entries] == [1]
        assert [r is None for r in results] == [False, True, False, False]


class TestDispatchStats:
    def test_per_trial_and_event_math(self):
        stats = DispatchStats(pool_spawns=1, batches=4, trials=8,
                              cache_get_round_trips=1,
                              cache_put_round_trips=4)
        assert stats.dispatch_events() == 1 + 8 + 5
        per = stats.per_trial()
        assert per["events_per_trial"] == pytest.approx(14 / 8)
        assert per["messages"] == 1.0
        assert per["pool_spawns"] == pytest.approx(1 / 8)

    def test_to_dict_round_trips_every_field(self):
        stats = DispatchStats(batches=2, trials=3)
        data = stats.to_dict()
        assert data["batches"] == 2 and data["trials"] == 3
        assert set(data) == {
            f.name for f in dataclasses.fields(DispatchStats)
        }
