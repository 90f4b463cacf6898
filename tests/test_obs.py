"""Tests for the observability layer: event bus, metrics, profiler, exporters.

The load-bearing property throughout: the trace is the one source of truth
for what a run did — the collector counts the engine's steps from it, and
the bus is a live view of the same run for whoever streams it.
"""

import io
import json
import random

import pytest

from repro import cli
from repro.detectors import UpsilonSpec
from repro.failures import FailurePattern
from repro.obs import (
    EventBus,
    JsonlEventSink,
    MetricsCollector,
    MetricsRegistry,
    RunProfiler,
    RunReport,
    profile_engine,
)
from repro.obs.events import (
    Decided,
    FDQueried,
    MemoryOp,
    MessageDelivered,
    MessageSent,
    ProcessCrashed,
    SchedulerDecision,
    StepTaken,
    combined,
)
from repro.obs.export import event_to_dict, load_events
from repro.perf import (
    ExtractionTrialSpec,
    SetAgreementTrialSpec,
    execute_trial,
)
from repro.core import make_upsilon_set_agreement
from repro.runtime.ops import SHARED_OBJECT_OPS
from repro.runtime import (
    Decide,
    Emit,
    Nop,
    ObservedScheduler,
    QueryFD,
    RandomScheduler,
    Read,
    RoundRobinScheduler,
    Simulation,
    System,
    Write,
)


def _fig1_sim(n=3, seed=5, crash=None, bus=None):
    system = System(n)
    spec = UpsilonSpec(system)
    rng = random.Random(seed)
    pattern = (
        FailurePattern.crash_at(system, crash)
        if crash else FailurePattern.failure_free(system)
    )
    history = spec.sample_history(pattern, rng, stabilization_time=40)
    return Simulation(
        system, make_upsilon_set_agreement(),
        inputs={p: f"v{p}" for p in system.pids},
        pattern=pattern, history=history, bus=bus,
    )


class TestEventBus:
    def test_idle_bus_is_inactive(self):
        bus = EventBus()
        assert not bus.active
        assert bus.subscriber_count() == 0

    def test_typed_subscription_filters(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, kinds=[Decided])
        bus.publish(Decided(3, 0, "v"))
        bus.publish(FDQueried(4, 1, "d"))
        assert seen == [Decided(3, 0, "v")]

    def test_catch_all_sees_everything(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.publish(Decided(3, 0, "v"))
        bus.publish(FDQueried(4, 1, "d"))
        assert len(seen) == 2

    def test_typed_then_catch_all_order(self):
        bus = EventBus()
        order = []
        bus.subscribe(lambda e: order.append("typed"), kinds=[Decided])
        bus.subscribe(lambda e: order.append("all"))
        bus.publish(Decided(0, 0, "v"))
        assert order == ["typed", "all"]

    def test_unsubscribe_restores_fast_path(self):
        bus = EventBus()
        handler = bus.subscribe(lambda e: None, kinds=[Decided, FDQueried])
        assert bus.active
        bus.unsubscribe(handler)
        assert not bus.active
        assert bus.subscriber_count() == 0

    def test_combined_fans_out(self):
        a, b = [], []
        handler = combined(a.append, b.append)
        handler(Decided(0, 0, "v"))
        assert a == b == [Decided(0, 0, "v")]


class TestMetricsPrimitives:
    def test_counter_labels_and_total(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops")
        counter.inc("read")
        counter.inc("read", amount=2)
        counter.inc("write")
        assert counter.value("read") == 3
        assert counter.total() == 4
        assert counter.value("missing") == 0

    def test_gauge(self):
        gauge = MetricsRegistry().gauge("t")
        assert gauge.value() is None
        gauge.set(17.0)
        gauge.set(9.0, label=2)
        assert gauge.value() == 17.0
        assert gauge.value(2) == 9.0

    def test_histogram_summary(self):
        hist = MetricsRegistry().histogram("lat")
        for v in (1, 2, 3, 4):
            hist.observe(v)
        summary = hist.summary()
        assert summary.count == 4
        assert summary.mean == 2.5

    def test_registry_reuses_and_rejects_type_conflicts(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_snapshot_is_json(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(("tuple", 1))
        registry.gauge("g").set(2.5)
        registry.histogram("h").observe(4)
        registry.histogram("empty")
        body = json.loads(registry.to_json())
        assert body["counters"]["c"] == {"('tuple', 1)": 1}
        assert body["gauges"]["g"] == {"": 2.5}
        assert body["histograms"]["h"]["count"] == 1
        assert body["histograms"]["empty"] == {"count": 0}

    def test_render_has_totals_row(self):
        registry = MetricsRegistry()
        registry.counter("steps").inc(0, amount=5)
        text = registry.render()
        assert "steps" in text
        assert "(total)" in text
        assert MetricsRegistry().render() == "(no metrics recorded)"


class _SimKeepingCollector(MetricsCollector):
    """A collector that keeps the simulation a driver hands to
    :meth:`record_run`, so a test can read the trial's trace."""

    def record_run(self, sim):
        self.sim = sim
        super().record_run(sim)


class TestCollectorAgainstTrace:
    """The collector's counters must match the trace's own queries."""

    def _run(self, crash=None):
        collector = MetricsCollector()
        sim = _fig1_sim(crash=crash, bus=collector.bus)
        sim.run_until(Simulation.all_correct_decided, 200_000,
                      RandomScheduler(11))
        collector.record_run(sim)
        return collector, sim

    def test_step_and_fd_counts(self):
        collector, sim = self._run()
        steps = collector.registry.get("steps_total")
        assert steps.total() == len(sim.trace)
        for pid, count in sim.trace.step_counts().items():
            assert steps.value(pid) == count
        assert (collector.registry.get("fd_queries").total()
                == len(sim.trace.fd_queries()))

    def test_decisions_and_times(self):
        collector, sim = self._run()
        decision_time = collector.registry.get("decision_time")
        assert decision_time.items() == sim.trace.decision_times()
        assert (collector.registry.get("decisions").total()
                == len(sim.trace.decisions()))

    def test_emit_semantics_match_trace(self):
        """On a Fig. 3 run whose outputs change (Ω, n+1=3, seed 0 changes
        them 7, 9 and 11 times), churn and settle times match the trace."""
        collector = _SimKeepingCollector()
        execute_trial(ExtractionTrialSpec("omega", 3, 0), collector=collector)
        trace = collector.sim.trace
        churn = collector.registry.get("emit_changes")
        settled = collector.registry.get("emit_stabilization_time")
        changed = 0
        for pid in trace.participants():
            assert churn.value(pid) == trace.emit_change_count(pid)
            assert settled.value(pid) == trace.emit_stabilization_time(pid)
            changed += trace.emit_change_count(pid) > 0
        assert changed >= 1

    def test_crashes_counted(self):
        collector, sim = self._run(crash={0: 15})
        assert collector.registry.get("crashes").value(0) == 1
        snapshot = collector.snapshot()
        assert snapshot["counters"]["crashes"] == {"0": 1}

    def test_render_smoke(self):
        collector, _ = self._run()
        text = collector.render()
        assert "steps_total" in text
        assert "fd_queries" in text


class TestPerStepEventGate:
    """``StepTaken``, ``FDQueried`` and ``MemoryOp`` are built only for a
    subscriber of their type or of every event."""

    def test_no_event_is_built_when_nobody_listens(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError(f"built a {type(self).__name__}")

        for kind in (StepTaken, FDQueried, MemoryOp):
            monkeypatch.setattr(kind, "__init__", refuse)
        for spec in (SetAgreementTrialSpec(3, 2, 0, 100),
                     ExtractionTrialSpec("omega", 3, 0, max_steps=2_000)):
            result = execute_trial(spec)
            assert sum(result.metrics["counters"]["steps_total"].values()) \
                == result.total_steps

    def test_catch_all_still_gets_every_per_step_event(self):
        collector = _SimKeepingCollector()
        seen = []
        collector.bus.subscribe(seen.append)
        execute_trial(ExtractionTrialSpec("omega", 3, 0, max_steps=2_000),
                      collector=collector)
        steps = collector.sim.trace.steps

        def count(kind):
            return sum(type(event) is kind for event in seen)

        assert count(StepTaken) == len(steps)
        assert count(FDQueried) == sum(
            isinstance(s.op, QueryFD) for s in steps) > 0
        assert count(MemoryOp) == sum(
            isinstance(s.op, SHARED_OBJECT_OPS) for s in steps) > 0


class TestMemoryAndNetworkEvents:
    def test_memory_op_kinds(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, kinds=[MemoryOp])
        system = System(2)

        def proto(ctx, _):
            yield Write(("R", ctx.pid), 1)
            yield Read(("R", ctx.pid))
            yield Nop()

        sim = Simulation(system, proto,
                         inputs={p: None for p in system.pids}, bus=bus)
        sim.run(max_steps=10, scheduler=RoundRobinScheduler())
        kinds = [e.kind for e in seen if e.pid == 0]
        assert kinds == ["Write", "Read"]
        assert seen[0].key == ("R", 0)

    def test_network_send_deliver_latency(self):
        from repro.messaging import Network

        bus = EventBus()
        sent, delivered = [], []
        bus.subscribe(sent.append, kinds=[MessageSent])
        bus.subscribe(delivered.append, kinds=[MessageDelivered])
        network = Network(System(2), max_delay=0)
        network.bus = bus
        network.send(0, 1, "hello", now=3)
        network.deliver(1, now=7)
        assert sent[0].sender == 0 and sent[0].dest == 1
        assert delivered[0].latency == 7 - 3

    def test_scheduler_decisions_published(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, kinds=[SchedulerDecision])
        sim = _fig1_sim(bus=bus)
        scheduler = ObservedScheduler(RoundRobinScheduler(), bus)
        sim.run(max_steps=6, scheduler=scheduler)
        assert len(seen) == 6
        assert all(e.eligible_count == 3 for e in seen)

    def test_crash_event_published_once(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, kinds=[ProcessCrashed])
        sim = _fig1_sim(crash={0: 4}, bus=bus)
        sim.run(max_steps=40, scheduler=RoundRobinScheduler())
        assert [e.pid for e in seen] == [0]


class TestExport:
    def test_event_to_dict_inlines_ops(self):
        body = event_to_dict(StepTaken(7, 1, Write("R", frozenset({2})), None))
        assert body["event"] == "StepTaken"
        assert body["op"]["op"] == "write"
        json.dumps(body)  # JSON-safe as-is

    def test_sink_streams_and_unsubscribes(self):
        bus = EventBus()
        buffer = io.StringIO()
        with JsonlEventSink(buffer, bus=bus, kinds=[Decided]) as sink:
            bus.publish(Decided(3, 0, "v"))
            bus.publish(FDQueried(3, 0, "d"))  # filtered out
            assert sink.lines == 1
        assert not bus.active  # close() detached the sink
        buffer.seek(0)
        events = load_events(buffer)
        assert events == [{"event": "Decided", "time": 3, "pid": 0,
                           "value": "v"}]

    def test_sink_on_full_run(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        bus = EventBus()
        sink = JsonlEventSink(path, bus=bus)
        sim = _fig1_sim(bus=bus)
        sim.run_until(Simulation.all_correct_decided, 200_000,
                      RandomScheduler(2))
        sink.close()
        events = load_events(path)
        assert sink.lines == len(events)
        steps = [e for e in events if e["event"] == "StepTaken"]
        assert len(steps) == len(sim.trace)
        decided = [e for e in events if e["event"] == "Decided"]
        assert {e["pid"]: e["value"] for e in decided} == sim.decisions()

    def test_run_report_roundtrip(self, tmp_path):
        collector = MetricsCollector()
        sim = _fig1_sim(bus=collector.bus)
        profiler = RunProfiler()
        with profiler.phase("whole run", sim):
            sim.run_until(Simulation.all_correct_decided, 200_000,
                          RandomScheduler(3))
        report = RunReport.of(sim, collector.registry, profiler, seed=3)
        path = str(tmp_path / "report.json")
        report.write(path)
        loaded = RunReport.load(path)
        assert loaded.meta["seed"] == 3
        assert loaded.meta["total_steps"] == sim.time
        assert loaded.metrics == collector.snapshot()
        assert loaded.profile[0]["steps"] == sim.time
        assert loaded.trace.decisions() == sim.trace.decisions()


class TestRunProfiler:
    def test_phases_aggregate_by_name(self):
        profiler = RunProfiler()
        with profiler.phase("a"):
            pass
        with profiler.phase("a"):
            pass
        with profiler.phase("b"):
            pass
        totals = profiler.totals()
        assert list(totals) == ["a", "b"]
        assert len(profiler.records) == 3

    def test_phase_counts_sim_steps(self):
        sim = _fig1_sim()
        profiler = RunProfiler()
        with profiler.phase("first steps", sim):
            sim.run(max_steps=5, scheduler=RoundRobinScheduler())
        assert profiler.records[0].steps == 5
        assert profiler.records[0].wall_seconds >= 0
        assert "first steps" in profiler.render()

    def test_render_empty(self):
        assert RunProfiler().render() == "(no phases recorded)"


class TestProfileEngine:
    def test_smoke(self):
        profile = profile_engine(n_processes=2, repeats=1, max_steps=600)
        assert profile.total_steps == 600
        assert profile.baseline_sps > 0
        assert profile.idle_bus_sps > 0
        assert profile.metrics_sps > 0
        body = profile.to_dict()
        json.dumps(body)
        assert "overhead" in profile.render()


class TestCli:
    def test_stats_fig1(self, capsys):
        assert cli.main(["stats", "fig1", "--processes", "4",
                         "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "steps_total" in out
        assert "OK" in out

    def test_stats_extract_with_events(self, tmp_path, capsys):
        path = str(tmp_path / "run.jsonl")
        assert cli.main(["stats", "extract", "--detector", "omega",
                         "--processes", "3", "--events", path]) == 0
        events = load_events(path)
        assert events, "event stream must not be empty"
        assert capsys.readouterr().out

    def test_stats_json(self, capsys):
        assert cli.main(["stats", "fig1", "--processes", "3",
                         "--json"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert "counters" in body["metrics"]

    def test_profile_json(self, capsys):
        assert cli.main(["profile", "--processes", "2", "--repeats", "1",
                         "--max-steps", "600", "--json"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["total_steps"] == 600
