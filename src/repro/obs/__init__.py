"""Run-level observability: event bus, metrics registry, profiler, exporters.

The simulation engine is instrumented at every layer — scheduler, engine,
shared memory, network — but pays (almost) nothing when nobody listens:

* :mod:`repro.obs.events` — typed events and the :class:`EventBus`.  The
  engine publishes only when ``bus.active`` is true, so un-instrumented
  runs keep their hot path, and builds the per-step events only for a
  subscriber of their type or of every event (``bus.wants``).
* :mod:`repro.obs.metrics` — counters, gauges and histograms in a
  :class:`MetricsRegistry`, plus the :class:`MetricsCollector` that fills
  it with the run-level quantities the paper cares about: the step mix,
  FD-query mix, emit churn and stabilization times from the trace
  (:meth:`MetricsCollector.record_run`), the rest from the event bus.
* :mod:`repro.obs.telemetry` — the cross-process relay: workers ship a
  :class:`TrialTelemetry` payload (spans, raw histogram samples) beside
  each result, and the parent's :class:`TelemetryRelay` merges every
  trial in input order, its counters and gauges from the result's
  ``metrics`` snapshot, so ``--jobs 4`` reports the same counters as
  ``--jobs 1``.
* :mod:`repro.obs.profile` — wall-clock/step profiling of protocol phases
  and of the engine hot path itself (``python -m repro profile``).
* :mod:`repro.obs.export` — JSONL event streaming (composes with
  :mod:`repro.analysis.trace_io`, invertible via :func:`event_from_dict`)
  and the :class:`RunReport` bundle.
* :mod:`repro.obs.campaign` — the append-only JSONL ledger of every run
  (:class:`CampaignLedger`); :mod:`repro.obs.report` renders it as a
  static HTML perf-trajectory page and :mod:`repro.obs.dash` serves a
  live stdlib-only dashboard over the event stream.
* :mod:`repro.obs.prom` — Prometheus text exposition of a registry.

Quickstart::

    from repro.obs import EventBus, MetricsCollector

    collector = MetricsCollector()          # owns a bus + registry
    sim = Simulation(..., bus=collector.bus)
    sim.run(10_000)
    collector.record_run(sim)               # engine counters, from the trace
    print(collector.registry.render())
"""

from .campaign import CampaignLedger, CampaignRecord, default_ledger_path
from .dash import CampaignDash
from .events import (
    AuditDivergence,
    ChaosInjected,
    Decided,
    EmitChanged,
    Event,
    EventBus,
    FDQueried,
    MemoryOp,
    MessageDelayed,
    MessageDelivered,
    MessageDropped,
    MessageDuplicated,
    MessageSent,
    ProcessCrashed,
    ProtocolViolated,
    SchedulerDecision,
    StepTaken,
    TrialCompleted,
    TrialQuarantined,
    TrialRetried,
    TrialSpanRecorded,
    TrialTimedOut,
    event_types,
)
from .export import JsonlEventSink, RunReport, event_from_dict, event_to_dict
from .metrics import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsCollector,
    MetricsRegistry,
)
from .profile import EngineProfile, PhaseRecord, RunProfiler, profile_engine
from .prom import render_prometheus
from .report import render_report_html
from .telemetry import TelemetryRelay, TrialTelemetry

__all__ = [
    "AuditDivergence",
    "CampaignDash",
    "CampaignLedger",
    "CampaignRecord",
    "ChaosInjected",
    "CounterMetric",
    "Decided",
    "EmitChanged",
    "EngineProfile",
    "Event",
    "EventBus",
    "FDQueried",
    "GaugeMetric",
    "HistogramMetric",
    "JsonlEventSink",
    "MemoryOp",
    "MessageDelayed",
    "MessageDelivered",
    "MessageDropped",
    "MessageDuplicated",
    "MessageSent",
    "MetricsCollector",
    "MetricsRegistry",
    "PhaseRecord",
    "ProcessCrashed",
    "ProtocolViolated",
    "RunProfiler",
    "RunReport",
    "SchedulerDecision",
    "StepTaken",
    "TelemetryRelay",
    "TrialCompleted",
    "TrialQuarantined",
    "TrialRetried",
    "TrialSpanRecorded",
    "TrialTelemetry",
    "TrialTimedOut",
    "default_ledger_path",
    "event_from_dict",
    "event_to_dict",
    "event_types",
    "profile_engine",
    "render_prometheus",
    "render_report_html",
]
