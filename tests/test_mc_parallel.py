"""Sharded exploration: shard specs, dispatch through run_trials, caching."""

import pytest

from repro.mc import (
    CrashSweep,
    ExploreConfig,
    McInstance,
    check,
    execute_mc_shard,
    explore_instance,
    make_shard_spec,
    shard_prefixes,
)
from repro.obs import MetricsCollector
from repro.perf import (
    QuarantineReport,
    TrialCache,
    execute_trial,
    reset_shared_pool,
    resolve_jobs,
    shared_pool,
    spec_key,
)


class TestShardSpecs:
    def test_prefixes_cover_root_branching(self):
        prefixes = shard_prefixes(McInstance("fig1", n_processes=2),
                                  ExploreConfig(max_depth=14), depth=1)
        assert prefixes == [(0,), (1,)]

    def test_depth_two_prefixes(self):
        prefixes = shard_prefixes(McInstance("fig1", n_processes=2),
                                  ExploreConfig(max_depth=14), depth=2)
        assert sorted(prefixes) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_spec_key_is_stable_and_distinct(self):
        config = ExploreConfig(max_depth=14)
        a = make_shard_spec(McInstance("fig1", n_processes=2), config, (0,))
        b = make_shard_spec(McInstance("fig1", n_processes=2), config, (0,))
        c = make_shard_spec(McInstance("fig1", n_processes=2), config, (1,))
        assert spec_key(a) == spec_key(b)
        assert spec_key(a) != spec_key(c)

    def test_execute_trial_dispatches_mc_shards(self):
        spec = make_shard_spec(McInstance("converge", n_processes=2),
                               ExploreConfig(max_depth=20), ())
        result = execute_trial(spec)
        assert result.ok
        assert result.stats.complete_schedules > 0


class TestParallelParity:
    def test_same_verdict_and_violation_as_serial(self):
        instance = McInstance("naive-converge", n_processes=2)
        config = ExploreConfig(max_depth=20)
        serial = explore_instance(instance, config)
        parallel = check(instance, config, jobs=2)
        assert serial.ok == parallel.ok is False
        # Each shard reports its own first violation; the serial one must
        # be among them (shard (0,) finds exactly the serial witness).
        serial_keys = {(ce.schedule, ce.prop) for ce in
                       serial.counterexamples}
        parallel_keys = {(ce.schedule, ce.prop) for ce in
                         parallel.counterexamples}
        assert serial_keys <= parallel_keys
        assert all(ce.verify() for ce in parallel.counterexamples)

    def test_clean_instance_parity(self):
        instance = McInstance("converge", n_processes=2)
        config = ExploreConfig(max_depth=24)
        serial = explore_instance(instance, config)
        parallel = check(instance, config, jobs=2)
        assert serial.ok and parallel.ok
        # Shards cover the same tree; without cross-shard sleep sets the
        # parallel state count is an upper bound on the serial one.
        stats = parallel.total_stats()
        assert stats.states_visited >= serial.stats.states_visited
        assert stats.complete_schedules >= serial.stats.complete_schedules

    def test_swept_check_with_jobs(self):
        report = check(
            McInstance("fig1", n_processes=2, f=1),
            ExploreConfig(max_depth=12),
            sweep=CrashSweep(max_crashes=1, crash_times=(0,)),
            jobs=2,
        )
        assert report.instances_checked == 3
        assert report.ok


class TestConcurrentStats:
    """Shard stats fold with wall = max, not wall = sum — summing the
    overlapping walls of N workers reported throughput ≈ N× too low."""

    def test_merge_concurrent_takes_max_wall_and_sums_cpu(self):
        from repro.mc.explorer import ExploreStats

        a = ExploreStats(states_visited=100, wall_seconds=2.0,
                         cpu_seconds=2.0)
        b = ExploreStats(states_visited=300, wall_seconds=3.0,
                         cpu_seconds=3.0)
        a.merge_concurrent(b)
        assert a.states_visited == 400
        assert a.wall_seconds == 3.0  # max: the shards overlapped
        assert a.cpu_seconds == 5.0  # sum: compute cost is additive

    def test_serial_merge_still_sums_walls(self):
        from repro.mc.explorer import ExploreStats

        a = ExploreStats(wall_seconds=2.0, cpu_seconds=2.0)
        a.merge(ExploreStats(wall_seconds=3.0, cpu_seconds=3.0))
        assert a.wall_seconds == 5.0

    def test_merged_shard_throughput_not_divided_by_worker_count(self):
        """Regression pin: N equal shards that ran side by side must merge
        to the per-shard throughput, not 1/N of it."""
        import dataclasses as dc

        from repro.mc.explorer import ExploreStats
        from repro.mc.parallel import merge_shard_results

        instance = McInstance("fig1", n_processes=2)
        config = ExploreConfig(max_depth=14)
        shard = execute_trial(make_shard_spec(instance, config, (0,)))
        shards = [
            dc.replace(
                shard,
                stats=ExploreStats(states_visited=1000, wall_seconds=2.0,
                                   cpu_seconds=2.0),
            )
            for _ in range(4)
        ]
        merged = merge_shard_results(instance, config, shards)
        assert merged.stats.states_visited == 4000
        assert merged.stats.wall_seconds == 2.0
        assert merged.stats.states_per_second == 2000.0  # not 500
        assert merged.stats.cpu_seconds == 8.0

    def test_check_report_elapsed_overrides_wall(self):
        report = check(
            McInstance("fig1", n_processes=2),
            ExploreConfig(max_depth=12),
            jobs=2,
        )
        assert report.elapsed_seconds is not None
        assert report.total_stats().wall_seconds == report.elapsed_seconds


class TestCaching:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        instance = McInstance("converge", n_processes=2)
        config = ExploreConfig(max_depth=20)
        cache = TrialCache(tmp_path)
        first = check(instance, config, cache=cache)
        assert cache.misses > 0 and cache.hits == 0
        cache_again = TrialCache(tmp_path)
        second = check(instance, config, cache=cache_again)
        assert cache_again.hits > 0 and cache_again.misses == 0
        assert first.total_stats().states_visited == \
            second.total_stats().states_visited

    def test_cached_shard_result_replays(self, tmp_path):
        instance = McInstance("naive-converge", n_processes=2)
        config = ExploreConfig(max_depth=20)
        check(instance, config, cache=TrialCache(tmp_path))
        reloaded = check(instance, config, cache=TrialCache(tmp_path))
        assert not reloaded.ok
        # Counterexamples that crossed the pickle boundary still replay.
        assert all(ce.verify() for ce in reloaded.counterexamples)


class TestEveryJobsCount:
    """``check`` runs its shards through ``run_trials`` at every ``jobs``,
    so each of its parameters acts whatever the worker count."""

    INSTANCE = McInstance("fig1", n_processes=2)
    CONFIG = ExploreConfig(max_depth=10)

    @pytest.mark.parametrize("jobs", [0, 1, 2])
    def test_cache_collector_and_pool_act(self, tmp_path, jobs):
        reset_shared_pool()
        try:
            collector = MetricsCollector()
            cache = TrialCache(tmp_path)
            first = check(self.INSTANCE, self.CONFIG, sweep=CrashSweep(),
                          jobs=jobs, cache=cache, collector=collector,
                          retries=1)
            counters = collector.snapshot()["counters"]
            assert counters["trials_completed"] == {"mc_shard": 3}
            assert cache.stores == 3
            workers = 0 if jobs == 1 else resolve_jobs(jobs)
            assert shared_pool().size() == workers
            warm = TrialCache(tmp_path)
            second = check(self.INSTANCE, self.CONFIG, sweep=CrashSweep(),
                           jobs=jobs, cache=warm)
            assert (warm.hits, warm.misses) == (3, 0)
            assert second.total_stats().states_visited == \
                first.total_stats().states_visited
        finally:
            reset_shared_pool()

    def test_a_non_positive_batch_size_is_refused(self):
        with pytest.raises(ValueError, match="chunk_size must be positive"):
            check(self.INSTANCE, ExploreConfig(max_depth=8), batch_size=0)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_timeout_below_a_shards_run_quarantines_it(self, jobs):
        # One unsharded Fig. 2 exploration takes about 2 s; a 10 ms
        # watchdog stops every shard, in this process as in a worker.
        instance = McInstance("fig2", 3, f=1, stabilization_time=3)
        config = ExploreConfig(max_depth=18)
        quarantine = QuarantineReport()
        report = check(instance, config, jobs=jobs, trial_timeout=0.01,
                       quarantine=quarantine)
        shards = len(shard_prefixes(instance, config)) if jobs > 1 else 1
        assert len(quarantine) == shards
        assert all("exceeded" in entry.reason
                   for entry in quarantine.entries)
        [result] = report.results
        assert result.stats.truncated
        assert result.stats.states_visited == 0
