"""Engine hot-path microbenchmarks.

Times ``Simulation`` steps/sec across the three instrumentation levels
(no bus, idle bus, live metrics collector) on the synthetic lockstep
workload of :func:`repro.obs.profile.profile_engine`, and asserts the
allocation contract behind the numbers: with no bus attached the engine
constructs **zero** event objects — the ``bus.active`` gate sits before
every event constructor, not just before ``publish`` — and a live
collector's bus, which no per-step event reaches, gets none built.
"""

import pytest

from repro.obs import EventBus, MetricsCollector
from repro.obs.profile import _hotpath_workload
from repro.runtime import RoundRobinScheduler

STEPS = 30_000


def _run(bus, steps=STEPS):
    sim = _hotpath_workload(4, bus)
    sim.run(max_steps=steps, scheduler=RoundRobinScheduler())
    assert sim.time == steps
    return sim


@pytest.mark.parametrize(
    "label,make_bus",
    [
        ("no_bus", lambda: None),
        ("idle_bus", EventBus),
        ("live_collector", lambda: MetricsCollector().bus),
    ],
)
def test_engine_steps_per_sec(benchmark, label, make_bus):
    """Steps/sec per instrumentation level (compare across the three)."""
    benchmark(_run, make_bus())


class _EventCounter:
    """Counting stub: wraps event constructors, forwarding to the real
    class so subscribers still see properly typed events."""

    def __init__(self):
        self.count = 0

    def wrap(self, cls):
        def construct(*args, **kwargs):
            self.count += 1
            return cls(*args, **kwargs)

        return construct


#: Every event name the engine or memory layer can construct on this
#: workload (no network, no scheduler observer).
_SIM_EVENTS = (
    "StepTaken", "FDQueried", "Decided", "EmitChanged",
    "ProcessCrashed", "ProtocolViolated",
)


def _patch_event_constructors(monkeypatch, counter):
    import repro.memory.base as memory_module
    import repro.runtime.simulation as simulation_module

    for name in _SIM_EVENTS:
        monkeypatch.setattr(
            simulation_module, name,
            counter.wrap(getattr(simulation_module, name)),
        )
    monkeypatch.setattr(
        memory_module, "MemoryOp", counter.wrap(memory_module.MemoryOp)
    )


def test_no_bus_path_allocates_no_event_objects(monkeypatch):
    """The no-bus fast path must never construct an event object."""
    counter = _EventCounter()
    _patch_event_constructors(monkeypatch, counter)
    _run(None, steps=5_000)
    assert counter.count == 0


def test_idle_bus_path_allocates_no_event_objects(monkeypatch):
    """A bus with no subscribers is inactive: still zero allocations."""
    counter = _EventCounter()
    _patch_event_constructors(monkeypatch, counter)
    _run(EventBus(), steps=5_000)
    assert counter.count == 0


def test_streaming_bus_constructs_events(monkeypatch):
    """Sanity check on the stub: with a catch-all subscriber (what an
    event stream attaches) the same workload does construct events (one
    step event per step, plus memory ops etc.)."""
    counter = _EventCounter()
    _patch_event_constructors(monkeypatch, counter)
    bus = EventBus()
    bus.subscribe(lambda event: None)
    _run(bus, steps=5_000)
    assert counter.count >= 5_000


def test_live_collector_builds_no_per_step_events(monkeypatch):
    """A collector counts steps from the trace, so on this workload its
    bus gets only the output events: one emit per six steps."""
    counter = _EventCounter()
    _patch_event_constructors(monkeypatch, counter)
    _run(MetricsCollector().bus, steps=5_000)
    assert 0 < counter.count <= 5_000 // 6 + 1


def test_profile_engine_reports_all_three_levels():
    from repro.obs import profile_engine

    profile = profile_engine(n_processes=3, repeats=1, max_steps=20_000)
    assert profile.baseline_sps > 0
    assert profile.idle_bus_sps > 0
    assert profile.metrics_sps > 0
    # the idle bus must stay close to the raw engine; the live collector
    # is allowed to cost real work
    assert profile.metrics_sps <= profile.baseline_sps * 1.5


# ---------------------------------------------------------------------------
# Fingerprint and backtracking: the per-state costs behind BENCH_mc's
# states/sec.  The DFS pays one digest per visited state and one
# backtrack per exhausted frame, so these two microbenchmarks are the
# engine-level decomposition of the exploration throughput numbers.
# ---------------------------------------------------------------------------

from repro.mc import (  # noqa: E402  (benchmark file: groups read top-down)
    ExploreConfig,
    McInstance,
    build_simulation,
    explore_instance,
    resolve_instance,
)
from repro.mc.checkpoint import SimulationJournal
from repro.mc.fingerprint import fingerprint

#: Extraction emulations never return, so the walk keeps all processes
#: live for its whole length and every step pays the digest.
_FP_INSTANCE = McInstance("extraction", n_processes=2)
_FP_STEPS = 200


def _walk(with_journal):
    sim = build_simulation(resolve_instance(_FP_INSTANCE))
    journal = SimulationJournal(sim) if with_journal else None
    digests = []
    for t in range(_FP_STEPS):
        eligible = sim.eligible()
        if not eligible:
            break
        sim.step(eligible[t % len(eligible)])
        digests.append(journal.digest() if journal else fingerprint(sim))
    return sim, digests


def test_fingerprint_full_walk(benchmark):
    """From-scratch fingerprint per step — the pre-incremental cost."""
    sim, digests = benchmark(_walk, False)
    assert len(digests) == _FP_STEPS


def test_fingerprint_incremental(benchmark):
    """Chained digest per step; must stay byte-identical to full walks."""
    sim, digests = benchmark(_walk, True)
    assert len(digests) == _FP_STEPS
    assert digests[-1] == fingerprint(sim)


_BT_INSTANCE = McInstance("fig1", n_processes=2)
_BT_CONFIG = dict(max_depth=14, por=True)


@pytest.mark.parametrize("checkpoint", [True, False],
                         ids=["restore", "replay"])
def test_backtracking_strategy(benchmark, checkpoint):
    """The same DFS backtracking by checkpoint restore vs full replay."""
    result = benchmark(
        explore_instance, _BT_INSTANCE,
        ExploreConfig(checkpoint=checkpoint, **_BT_CONFIG),
    )
    assert result.ok
    if checkpoint:
        assert result.stats.restores > 0
        assert result.stats.replays == 0
    else:
        assert result.stats.restores == 0
        assert result.stats.replays > 0


def test_default_dfs_replay_steps_are_zero():
    """The acceptance pin: out of the box, backtracking never replays a
    single step — ``replay_steps`` stays at exactly zero."""
    result = explore_instance(_BT_INSTANCE, ExploreConfig(**_BT_CONFIG))
    assert result.ok
    assert result.stats.restores > 0
    assert result.stats.replays == 0
    assert result.stats.replay_steps == 0
