"""Metrics registry: counters, gauges, histograms — and the collector.

The registry is deliberately tiny (labels are plain hashables, a histogram
keeps its raw sample) because runs are finite and analysis happens after
the fact; :meth:`MetricsRegistry.snapshot` serializes everything to plain
JSON types and :meth:`MetricsRegistry.render` tabulates it on top of
:class:`repro.analysis.stats.Summary`.

:class:`MetricsCollector` fills a registry with the run-level quantities
the paper's experiments report.  Step counts per pid, the FD-query and
memory-op mix, decisions, emit churn, stabilization times and crashes are
read from the recorded run by :meth:`MetricsCollector.record_run`; the
typed events of :mod:`repro.obs.events` supply what a trace does not
hold — message latency, chaos injections and the harness counters.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import compress, repeat
from operator import attrgetter
from typing import Any, Dict, Hashable, List, Optional, Union

from .events import (
    AuditDivergence,
    ChaosInjected,
    EventBus,
    FarmLeaseExpired,
    FarmTrialClaimed,
    InfraFaultInjected,
    MessageDelayed,
    MessageDelivered,
    MessageDropped,
    MessageDuplicated,
    MessageSent,
    ProtocolViolated,
    SchedulerDecision,
    TrialCompleted,
    TrialQuarantined,
    TrialRetried,
    TrialSpanRecorded,
    TrialTimedOut,
)

#: Trial-span phases get one histogram each (histograms are unlabeled);
#: the metric name is ``span_<phase>_seconds``.
SPAN_METRIC_PREFIX = "span_"

#: The default label for unlabelled observations.
_NO_LABEL = ""

_PID = attrgetter("pid")
_OP = attrgetter("op")

Label = Hashable


class CounterMetric:
    """A monotonically increasing count, optionally split by label."""

    __slots__ = ("name", "help", "_values")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._values: Dict[Label, int] = {}

    def inc(self, label: Label = _NO_LABEL, amount: int = 1) -> None:
        self._values[label] = self._values.get(label, 0) + amount

    def value(self, label: Label = _NO_LABEL) -> int:
        return self._values.get(label, 0)

    def total(self) -> int:
        return sum(self._values.values())

    def items(self) -> Dict[Label, int]:
        return dict(self._values)


class GaugeMetric:
    """A point-in-time value, optionally split by label."""

    __slots__ = ("name", "help", "_values")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._values: Dict[Label, float] = {}

    def set(self, value: float, label: Label = _NO_LABEL) -> None:
        self._values[label] = value

    def value(self, label: Label = _NO_LABEL) -> Optional[float]:
        return self._values.get(label)

    def items(self) -> Dict[Label, float]:
        return dict(self._values)


class HistogramMetric:
    """A sample of observations; summarized at snapshot time."""

    __slots__ = ("name", "help", "_values")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._values: List[float] = []

    def observe(self, value: float) -> None:
        self._values.append(float(value))

    def __len__(self) -> int:
        return len(self._values)

    def values(self) -> List[float]:
        return list(self._values)

    def summary(self):
        """A :class:`repro.analysis.stats.Summary` of the sample."""
        from ..analysis.stats import summarize  # deferred: avoids cycles

        return summarize(self._values)


Metric = Union[CounterMetric, GaugeMetric, HistogramMetric]


def _label_key(label: Label) -> str:
    return label if isinstance(label, str) else repr(label)


class MetricsRegistry:
    """A named collection of metrics with JSON snapshot and text render."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, name: str, cls, help: str) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> CounterMetric:
        return self._get_or_create(name, CounterMetric, help)

    def gauge(self, name: str, help: str = "") -> GaugeMetric:
        return self._get_or_create(name, GaugeMetric, help)

    def histogram(self, name: str, help: str = "") -> HistogramMetric:
        return self._get_or_create(name, HistogramMetric, help)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def __iter__(self):
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    # -- serialization -----------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Everything as plain JSON types (labels become strings)."""
        counters: Dict[str, Any] = {}
        gauges: Dict[str, Any] = {}
        histograms: Dict[str, Any] = {}
        for metric in sorted(self._metrics.values(), key=lambda m: m.name):
            # Reading ``_values`` in place (never mutated here) skips the
            # ``items()`` defensive copy; most metrics of a typical run
            # are empty and cost only the branch.
            if isinstance(metric, CounterMetric):
                values = metric._values
                counters[metric.name] = {} if not values else {
                    _label_key(k): v for k, v in sorted(
                        values.items(), key=lambda kv: _label_key(kv[0])
                    )
                }
            elif isinstance(metric, GaugeMetric):
                values = metric._values
                gauges[metric.name] = {} if not values else {
                    _label_key(k): v for k, v in sorted(
                        values.items(), key=lambda kv: _label_key(kv[0])
                    )
                }
            else:
                if len(metric):
                    s = metric.summary()
                    histograms[metric.name] = {
                        "count": s.count, "mean": s.mean, "median": s.median,
                        "p50": s.p50, "p95": s.p95, "p99": s.p99,
                        "min": s.minimum, "max": s.maximum,
                    }
                else:
                    histograms[metric.name] = {"count": 0}
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """An aligned text table over the snapshot."""
        rows: List[str] = []
        header = f"{'metric':<28} {'label':<22} {'value':>12}"
        rule = "-" * len(header)
        for metric in sorted(self._metrics.values(), key=lambda m: m.name):
            if isinstance(metric, CounterMetric):
                items = metric.items()
                for label in sorted(items, key=_label_key):
                    rows.append(
                        f"{metric.name:<28} {_label_key(label):<22} "
                        f"{items[label]:>12}"
                    )
                rows.append(
                    f"{metric.name:<28} {'(total)':<22} "
                    f"{metric.total():>12}"
                )
            elif isinstance(metric, GaugeMetric):
                items = metric.items()
                for label in sorted(items, key=_label_key):
                    value = items[label]
                    text = f"{value:g}" if isinstance(value, float) else str(value)
                    rows.append(
                        f"{metric.name:<28} {_label_key(label):<22} {text:>12}"
                    )
            else:
                if len(metric):
                    rows.append(metric.summary().row(metric.name))
                else:
                    rows.append(f"{metric.name:<34} n=0")
        if not rows:
            return "(no metrics recorded)"
        return "\n".join([header, rule] + rows)


class MetricsCollector:
    """The standard collector: run-level metrics from the trace and the bus.

    Pass ``collector.bus`` to :class:`~repro.runtime.simulation.Simulation`,
    call :meth:`record_run` once the run is over, then read
    ``collector.registry`` (or :meth:`snapshot`).  The engine counters
    come from the recorded run; the bus subscriptions cover the facts a
    trace does not hold — network, chaos, scheduler-decision,
    protocol-violation and harness events.
    """

    #: Counter (name, help, attribute) triples; ``__init__`` builds them
    #: straight into its empty registry, since sweeps construct one
    #: collector per trial.
    _METRIC_SPECS = (
        ("steps_total", "atomic steps per process", "_steps"),
        ("fd_queries", "detector queries per process", "_fd"),
        ("memory_ops", "shared-object operation mix", "_mem"),
        ("messages_sent", "messages entering the network", "_sent"),
        ("messages_delivered", "messages drained", "_delivered"),
        ("crashes", "pattern-induced crashes", "_crashes"),
        ("decisions", "decide outputs per process", "_decisions"),
        ("emits", "emit outputs per process", "_emits"),
        ("emit_changes",
         "emit-value changes after the first emit", "_churn"),
        ("protocol_violations", "contract breaches", "_violations"),
        ("scheduler_choices",
         "ObservedScheduler picks per process", "_sched"),
        ("chaos_injections",
         "active chaos knobs / perturbations by kind", "_chaos"),
        ("messages_dropped", "chaos-discarded message copies", "_dropped"),
        ("messages_duplicated",
         "chaos-added message copies", "_duplicated"),
        ("messages_delayed", "chaos reorder-jittered messages", "_delayed"),
        ("trial_retries", "harness re-runs of failed trials", "_retries"),
        ("trial_quarantines",
         "trials given up on after retries", "_quarantines"),
        ("trial_timeouts", "trials cut short by the watchdog", "_timeouts"),
        ("infra_faults_injected",
         "infra chaos injections by component:kind", "_infra_faults"),
        ("audit_divergences",
         "equivalence breaks found by the differential audit, "
         "by oracle pair", "_audit"),
        ("farm_trials_claimed",
         "farm store leases granted, by worker", "_farm_claims"),
        ("farm_leases_expired",
         "dead-worker leases reaped, by holder", "_farm_expiries"),
        ("trials_completed", "finished trials by spec kind",
         "_trials_completed"),
        ("trials_cached",
         "trials served from the disk cache, by kind", "_trials_cached"),
        ("trial_violations",
         "completed trials whose verdict failed", "_trial_violations"),
    )

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.bus = EventBus()
        m = self.registry._metrics
        for name, help_, attr in self._METRIC_SPECS:
            metric = m[name] = CounterMetric(name, help_)
            setattr(self, attr, metric)
        self._latency = m["message_latency"] = HistogramMetric(
            "message_latency", "delivery − send time")
        self._decision_time = m["decision_time"] = GaugeMetric(
            "decision_time", "step of first decide")
        self._stab = m["emit_stabilization_time"] = GaugeMetric(
            "emit_stabilization_time", "time of the last emit-value change")
        self.bus.subscribe_map({
            MessageSent: self._on_sent,
            MessageDelivered: self._on_delivered,
            ProtocolViolated: self._on_violation,
            SchedulerDecision: self._on_sched,
            ChaosInjected: self._on_chaos,
            MessageDropped: self._on_dropped,
            MessageDuplicated: self._on_duplicated,
            MessageDelayed: self._on_delayed,
            TrialRetried: self._on_retry,
            TrialQuarantined: self._on_quarantine,
            TrialTimedOut: self._on_timeout,
            InfraFaultInjected: self._on_infra_fault,
            AuditDivergence: self._on_audit,
            FarmTrialClaimed: self._on_farm_claim,
            FarmLeaseExpired: self._on_farm_expiry,
            TrialSpanRecorded: self._on_span,
            TrialCompleted: self._on_trial_completed,
        })

    # -- the recorded run --------------------------------------------------

    def record_run(self, sim) -> None:
        """Count what ``sim``'s trace and final process states record.

        The steps give steps and detector queries per process and the
        shared-object operation mix.  The outputs give decisions and
        their times, emits, emit changes after the first emit, and the
        time of each process's last change (as
        :meth:`~repro.runtime.trace.Trace.emit_change_count` and
        :meth:`~repro.runtime.trace.Trace.emit_stabilization_time`
        compute them).  The runtimes give the crashed processes.  Call
        it once per run, after the run.
        """
        from ..runtime.ops import SHARED_OBJECT_OPS, QueryFD
        from ..runtime.process import ProcessStatus

        trace = sim.trace
        # Per-step columns, counted in C: a long trial has tens of
        # thousands of steps but only a handful of pids and op types.
        pids = list(map(_PID, trace.steps))
        op_types = list(map(type, map(_OP, trace.steps)))
        for pid, count in Counter(pids).items():
            self._steps.inc(pid, count)
        for op_type, count in Counter(op_types).items():
            if issubclass(op_type, SHARED_OBJECT_OPS):
                self._mem.inc(op_type.__name__, count)
        queries = compress(pids, map(issubclass, op_types, repeat(QueryFD)))
        for pid, count in Counter(queries).items():
            self._fd.inc(pid, count)
        last_emit: Dict[Any, Any] = {}
        for record in trace.outputs:
            pid = record.pid
            if record.kind == "decide":
                self._decisions.inc(pid)
                self._decision_time.set(record.time, pid)
                continue
            self._emits.inc(pid)
            if pid not in last_emit or last_emit[pid] != record.value:
                if pid in last_emit:
                    self._churn.inc(pid)
                self._stab.set(record.time, pid)
            last_emit[pid] = record.value
        for pid, runtime in sim.runtimes.items():
            if runtime.status is ProcessStatus.CRASHED:
                self._crashes.inc(pid)

    # -- handlers ----------------------------------------------------------

    def _on_sent(self, event: MessageSent) -> None:
        self._sent.inc(event.sender)

    def _on_delivered(self, event: MessageDelivered) -> None:
        self._delivered.inc(event.dest)
        self._latency.observe(event.latency)

    def _on_violation(self, event: ProtocolViolated) -> None:
        self._violations.inc(event.pid)

    def _on_sched(self, event: SchedulerDecision) -> None:
        self._sched.inc(event.pid)

    def _on_chaos(self, event: ChaosInjected) -> None:
        self._chaos.inc(event.kind)

    def _on_dropped(self, event: MessageDropped) -> None:
        self._dropped.inc(event.sender)

    def _on_duplicated(self, event: MessageDuplicated) -> None:
        self._duplicated.inc(event.sender)

    def _on_delayed(self, event: MessageDelayed) -> None:
        self._delayed.inc(event.sender)

    def _on_retry(self, event: TrialRetried) -> None:
        self._retries.inc(event.key[:12])

    def _on_quarantine(self, event: TrialQuarantined) -> None:
        self._quarantines.inc(event.key[:12])

    def _on_timeout(self, event: TrialTimedOut) -> None:
        self._timeouts.inc(event.key[:12])

    def _on_infra_fault(self, event: InfraFaultInjected) -> None:
        self._infra_faults.inc(f"{event.component}:{event.kind}")

    def _on_audit(self, event: AuditDivergence) -> None:
        self._audit.inc(event.pair)

    def _on_farm_claim(self, event: FarmTrialClaimed) -> None:
        self._farm_claims.inc(event.worker)

    def _on_farm_expiry(self, event: FarmLeaseExpired) -> None:
        self._farm_expiries.inc(event.worker or "?")

    def _on_span(self, event: TrialSpanRecorded) -> None:
        self.registry.histogram(
            f"{SPAN_METRIC_PREFIX}{event.span}_seconds",
            "trial wall-clock phase (telemetry relay)",
        ).observe(event.seconds)

    def _on_trial_completed(self, event: TrialCompleted) -> None:
        if event.cached:
            self._trials_cached.inc(event.kind)
        else:
            self._trials_completed.inc(event.kind)
        if not event.ok:
            self._trial_violations.inc(event.kind)

    # -- results -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        return self.registry.snapshot()

    def render(self) -> str:
        return self.registry.render()
