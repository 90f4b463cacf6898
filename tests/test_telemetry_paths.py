"""Trial telemetry reaches the collector alike on every sweep path.

A trial's counters and gauges reach the parent registry from its
result's ``metrics`` snapshot, its spans and raw histogram samples from
its telemetry payload, and the harness counters from the resilience
events.  A local sweep and a store-backed one must report all three the
same way; a warm cache hit has its snapshot but no raw samples.
"""

import pytest

from repro.analysis.sweeps import chaos_grid
from repro.farm import SQLiteFarmStore
from repro.obs import EventBus, MetricsCollector, TrialCompleted
from repro.perf import (
    SabotagedSpec,
    SetAgreementTrialSpec,
    TrialCache,
    run_trials,
    spec_key,
)

SPECS = [
    SetAgreementTrialSpec(3, 1, seed=seed, stabilization_time=0)
    for seed in range(4)
]

#: ABD k-converge under message chaos: the trials that observe
#: ``message_latency`` samples.
CONVERGE = chaos_grid(["abd-converge"], [3], [0, 1], drop_rates=[0.0, 0.3])


@pytest.fixture(params=["local", "store"])
def store(request, tmp_path):
    """``None`` (a local run) or a fresh farm store."""
    if request.param == "local":
        yield None
        return
    store = SQLiteFarmStore(tmp_path / "farm.db")
    yield store
    store.close()


class TestResilienceEvents:
    def test_retries_and_quarantines_reach_the_collector(
            self, store, tmp_path):
        flaky = SabotagedSpec(SPECS[2], f"raise-once:{tmp_path / 'flaked'}")
        broken = SabotagedSpec(SPECS[3], "raise")
        collector = MetricsCollector()
        results = run_trials(SPECS[:2] + [flaky, broken], retries=1,
                             backoff=0.0, collector=collector, store=store)
        assert results[3] is None
        counters = collector.snapshot()["counters"]
        assert counters["trial_retries"] == {
            spec_key(flaky)[:12]: 1, spec_key(broken)[:12]: 1,
        }
        assert counters["trial_quarantines"] == {spec_key(broken)[:12]: 1}
        assert counters["trials_completed"] == {"set_agreement": 3}
        # claim events are labelled by host and pid: not a trial metric
        assert counters["farm_trials_claimed"] == {}

    def test_a_separate_bus_leaves_the_summaries_with_the_collector(
            self, store):
        collector, bus, seen = MetricsCollector(), EventBus(), []
        bus.subscribe(seen.append)
        run_trials(SPECS, collector=collector, bus=bus, store=store)
        snapshot = collector.snapshot()
        assert snapshot["counters"]["trials_completed"] == {
            "set_agreement": len(SPECS)
        }
        for span in ("queue_wait", "execute"):
            histogram = snapshot["histograms"][f"span_{span}_seconds"]
            assert histogram["count"] == len(SPECS)
        assert not [e for e in seen if isinstance(e, TrialCompleted)]


def _latency(**kwargs):
    collector = MetricsCollector()
    run_trials(CONVERGE, collector=collector, **kwargs)
    return collector.snapshot()["histograms"]["message_latency"]


class TestRawSamples:
    def test_message_latency_merges_alike_on_every_path(self, tmp_path):
        serial = _latency(jobs=1)
        assert serial["count"] > 0
        assert _latency(jobs=2) == serial
        assert _latency(jobs=2, store=str(tmp_path / "farm.db")) == serial

    def test_a_warm_cache_hit_adds_no_samples(self, tmp_path):
        """The documented limit: a cached result holds only summaries."""
        cache = TrialCache(tmp_path / "cache")
        assert _latency(cache=cache)["count"] > 0
        assert _latency(cache=cache) == {"count": 0}
