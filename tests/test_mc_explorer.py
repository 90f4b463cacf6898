"""The bounded explorer: reduction soundness, ablation bugs, sweeps."""

import tracemalloc

import pytest

from repro.analysis import minimize_schedule
from repro.mc import (
    CrashSweep,
    ExploreConfig,
    McInstance,
    check,
    explore_instance,
)
from repro.mc.instances import build_simulation, instance_properties


class TestPartialOrderReduction:
    def test_por_explores_strictly_fewer_states_same_verdict(self):
        """The acceptance metric: POR on < POR off on Fig. 1, n+1 = 2."""
        instance = McInstance("fig1", n_processes=2)
        on = explore_instance(instance, ExploreConfig(max_depth=14, por=True))
        off = explore_instance(instance, ExploreConfig(max_depth=14, por=False))
        assert on.ok and off.ok
        assert on.stats.states_visited < off.stats.states_visited
        assert on.reduction.ratio < 1.0
        assert on.reduction.slept > 0
        assert off.reduction.ratio == 1.0

    @pytest.mark.parametrize("por", [True, False])
    def test_planted_bug_found_regardless_of_por(self, por):
        """POR must not prune the ablation's C-Agreement violation."""
        instance = McInstance("naive-converge", n_processes=2)
        result = explore_instance(instance, ExploreConfig(max_depth=20,
                                                          por=por))
        assert not result.ok
        ce = result.counterexamples[0]
        assert ce.prop == "c-agreement(k=1)"
        assert ce.reason == (
            "a process committed yet 2 distinct values were picked "
            "('v0', 'v1') > k=1"
        )
        assert ce.verify()

    @pytest.mark.parametrize("por", [True, False])
    def test_sound_converge_passes_regardless_of_por(self, por):
        instance = McInstance("converge", n_processes=2)
        result = explore_instance(instance, ExploreConfig(max_depth=20,
                                                          por=por))
        assert result.ok
        assert result.stats.complete_schedules > 0

    @pytest.mark.parametrize("family", ["gladiators-only",
                                        "no-stability-flag"])
    @pytest.mark.parametrize("por", [True, False])
    def test_livelock_ablations_caught(self, family, por):
        """Depth exhaustion + require_progress flags the livelocks."""
        result = explore_instance(
            McInstance(family, n_processes=2),
            ExploreConfig(max_depth=16, require_progress=True, por=por),
        )
        assert not result.ok
        assert any(ce.kind == "no-termination"
                   for ce in result.counterexamples)

    def test_wait_free_protocol_survives_require_progress(self):
        """converge terminates on every branch — no spurious violations."""
        result = explore_instance(
            McInstance("converge", n_processes=2),
            ExploreConfig(max_depth=24, require_progress=True),
        )
        assert result.ok
        assert result.stats.depth_exhausted == 0


class TestDeduplication:
    def test_dedup_prunes_converging_branches(self):
        instance = McInstance("fig1", n_processes=2)
        merged = explore_instance(
            instance, ExploreConfig(max_depth=14, por=False, dedup=True))
        full = explore_instance(
            instance, ExploreConfig(max_depth=14, por=False, dedup=False))
        assert merged.ok and full.ok
        assert merged.stats.pruned_visited > 0
        assert merged.stats.states_visited < full.stats.states_visited


class TestStrategies:
    def test_dfs_shrinks_the_planted_bug(self):
        """DFS + ``minimize_schedule`` finds a shortest witness: 6 steps,
        the length of a breadth-first search's first violation."""
        instance = McInstance("naive-converge", n_processes=2)
        result = explore_instance(
            instance, ExploreConfig(max_depth=20, shrink=False)
        )
        assert not result.ok
        ce = result.counterexamples[0]
        assert ce.prop == "c-agreement(k=1)"
        [adapter] = [p for p in instance_properties(instance)
                     if p.name == ce.prop]
        shrunk = minimize_schedule(
            lambda: build_simulation(instance), list(ce.schedule),
            lambda sim: adapter.check_run(sim) is not None,
        )
        assert len(shrunk) <= 6
        assert type(ce).from_schedule(instance, shrunk, [adapter]).verify()

    def test_max_states_truncates(self):
        result = explore_instance(
            McInstance("fig1", n_processes=2),
            ExploreConfig(max_depth=14, max_states=50),
        )
        assert result.stats.truncated
        assert result.stats.states_visited <= 51


class TestCrashSweep:
    def test_one_check_covers_schedules_and_crash_patterns(self):
        report = check(
            McInstance("fig1", n_processes=2, f=1),
            ExploreConfig(max_depth=12),
            sweep=CrashSweep(max_crashes=1, crash_times=(0, 2)),
        )
        # base + 2 victims x 2 crash times
        assert report.instances_checked == 5
        assert report.ok
        crashes = {result.instance.crashes for result in report.results}
        assert () in crashes and len(crashes) == 5

    def test_report_metrics_registry(self):
        from repro.obs import MetricsRegistry

        report = check(McInstance("converge", n_processes=2),
                       ExploreConfig(max_depth=20))
        registry = MetricsRegistry()
        report.record_metrics(registry)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["mc_states"]["visited"] > 0
        assert "mc_reduction_ratio" in snapshot["gauges"]


class TestExtraction:
    def test_bounded_horizon_extraction_holds_range_condition(self):
        result = explore_instance(
            McInstance("extraction", n_processes=2, f=1),
            ExploreConfig(max_depth=8),
        )
        assert result.ok
        assert result.stats.depth_exhausted > 0  # never terminates
        assert result.stats.complete_schedules == 0


class TestStatePartitionPinned:
    """Exploration totals recorded before the canonical byte encoder
    replaced the JSON fragments.  Digest values may change with the
    encoding; which states merge, and so every count below, may not."""

    CASES = [
        # instance, depth, sweep,
        # (states_visited, restores, pruned_visited, explored, enabled)
        (McInstance("fig1", n_processes=2), 14, CrashSweep(1, (0, 2)),
         (512, 88, 2, 507, 770)),
        (McInstance("extraction", n_processes=2), 12, CrashSweep(1, (0, 3)),
         (224, 29, 6, 219, 284)),
        (McInstance("fig2", n_processes=3, f=1, stabilization_time=3), 12,
         CrashSweep(1, (0,)), (9207, 3667, 193, 9203, 15896)),
        (McInstance("converge", n_processes=3), 12, None,
         (5141, 2199, 0, 5140, 8823)),
        # n+1 = 4: the only case whose sleep sets span four processes.
        (McInstance("fig1", n_processes=4), 12, None,
         (115494, 61260, 128, 115493, 216932)),
    ]

    @pytest.mark.parametrize(
        "instance, depth, sweep, totals", CASES,
        ids=["fig1", "extraction", "fig2", "converge", "fig1-n4"],
    )
    def test_totals_unchanged(self, instance, depth, sweep, totals):
        report = check(instance, ExploreConfig(max_depth=depth), sweep=sweep)
        stats, reduction = report.total_stats(), report.total_reduction()
        assert report.ok
        assert (
            stats.states_visited, stats.restores, stats.pruned_visited,
            reduction.explored, reduction.enabled,
        ) == totals


class TestVisitedStateCost:
    def test_bytes_per_visited_state(self):
        """A visited state keeps its fingerprint key and a dict slot; its
        ``(depth, sleep)`` entry is shared, not built per state."""
        instance = McInstance("fig2", n_processes=3, f=1, stabilization_time=3)
        sweep = CrashSweep(1, (0,))
        # Warm up first, so that lazy imports are not traced.
        check(instance, ExploreConfig(max_depth=4), sweep=sweep)
        tracemalloc.start()
        try:
            report = check(instance, ExploreConfig(max_depth=12), sweep=sweep)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_state = peak / report.total_stats().states_visited
        assert per_state < 160, per_state
