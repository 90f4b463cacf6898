"""Tests for the persistent worker pool and batched dispatch.

The contracts under test: one pool per process (``pool_spawns == 1``
across consecutive sweeps), batched messages and cache round trips
(``≤ ceil(trials / batch)``), input-order reassembly no matter the
completion order, queue-wait spans that measure *queueing* (not the
batch's own execution), and worker recycling — a dead slot is reforked
in place instead of tearing down the pool.
"""

import dataclasses
import pickle
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosConfig
from repro.obs import MetricsCollector, TrialCompleted
from repro.perf import (
    DispatchStats,
    QuarantineReport,
    SabotagedSpec,
    SetAgreementTrialSpec,
    TrialCache,
    WorkerCrashError,
    reset_shared_pool,
    run_trials,
    shared_pool,
    spec_key,
)
from repro.perf.executor import _chunk_indices
from repro.perf.pool import PoolTask, _execute_batch

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
        victim = cache._path(spec_key(SPECS[1]))
        victim.parent.mkdir(parents=True, exist_ok=True)
        victim.write_bytes(b"not a pickle")
        with caplog.at_level("WARNING", logger="repro.perf.cache"):
            results = cache.get_many(SPECS[:2])
        assert results == ["good", None]
        assert cache.corrupt == 1
        assert not victim.exists()

    def test_put_many_equals_individual_puts(self, tmp_path):
        grouped = TrialCache(tmp_path / "grouped")
        grouped.put_many((spec, f"r{i}") for i, spec in enumerate(SPECS))
        assert grouped.stores == len(SPECS)
        assert grouped.put_round_trips == 1
        assert [grouped.get(spec) for spec in SPECS] == \
            [f"r{i}" for i in range(len(SPECS))]
        assert grouped.put_many([]) is None
        assert grouped.put_round_trips == 1  # empty batch: no disk visit


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
        reply = _execute_batch(task, caches={})
        waits = [dict(telemetry.spans)["queue_wait"]
                 for _, telemetry in reply.items]
        assert all(5.0 <= w < 6.0 for w in waits)
        # identical stamp for the whole batch — the old per-chunk
        # submitted_at gave trial k an extra sum(exec of 0..k-1)
        assert max(waits) - min(waits) < 1e-9

    def test_reply_is_picklable_and_ordered(self):
        task = PoolTask(task_id=7, indices=(4, 5), specs=tuple(SPECS[4:6]),
                        observed=False, submitted_at=time.time())
        reply = pickle.loads(pickle.dumps(_execute_batch(task, caches={})))
        assert reply.task_id == 7
        assert len(reply.items) == 2
        assert reply.error is None
        serial = run_trials(SPECS[4:6], jobs=1)
        assert [outcome for outcome, _ in reply.items] == serial


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
