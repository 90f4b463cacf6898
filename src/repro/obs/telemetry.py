"""Cross-process telemetry: per-trial payloads shipped back from workers.

Worker subprocesses in :mod:`repro.perf.executor` run each trial with a
private :class:`~repro.obs.metrics.MetricsCollector` — their events die
at the process boundary.  This module is the relay.  A trial's counters
and gauges already travel in its result's ``metrics`` snapshot; what the
result lacks travels *alongside* it in a picklable :class:`TrialTelemetry`
value: the trial's wall-clock spans, its raw histogram samples and the
facts its summary events publish.  The parent merges every trial into
its own registry **in input order** and re-publishes harness-level
summary events (:class:`~repro.obs.events.TrialSpanRecorded`,
:class:`~repro.obs.events.TrialCompleted`) on its bus.

Input-order merging is what makes telemetry deterministic: a ``--jobs 4``
sweep reports the same trial-level counters, gauges and histograms as
``--jobs 1`` on the same grid, regardless of completion order.  The only
non-deterministic metrics are the ``span_*_seconds`` histograms — they
measure the harness itself (queue wait, cache lookup, execute, retry
backoff), not the trials.

Raw histogram samples are shipped because a snapshot keeps only their
summaries, which cannot be re-merged; merged quantiles are then exact.
A result served from the :class:`~repro.perf.cache.TrialCache` did not
run, so its payload carries no samples: its counters and gauges merge
exactly, its histograms not at all.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

from .events import EventBus, TrialCompleted, TrialSpanRecorded
from .metrics import HistogramMetric, MetricsRegistry

#: Short prefix of a spec key used to label telemetry (matches the
#: ``TrialRetried``/``TrialQuarantined`` convention of key[:12]).
KEY_PREFIX = 12


@dataclasses.dataclass(frozen=True)
class TrialTelemetry:
    """Picklable observability payload of one finished trial.

    It holds what the trial's result does not: ``spans``, the
    ``(phase, seconds)`` wall-clock pairs measured around the trial;
    ``histograms``, the **raw samples** of its histograms; and the
    fields its :class:`~repro.obs.events.TrialCompleted` event
    publishes.  Its counters and gauges are the result's ``metrics``
    snapshot.
    """

    key: str
    kind: str
    spans: Tuple[Tuple[str, float], ...] = ()
    histograms: Dict[str, Tuple[float, ...]] = dataclasses.field(
        default_factory=dict)
    ok: bool = True
    cached: bool = False
    seconds: float = 0.0
    stabilization: int = -1
    latency: int = -1

    def merge_into(self, registry: MetricsRegistry, result: Any) -> None:
        """Fold this trial into a parent registry.

        Counters add and gauges overwrite per label, from ``result``'s
        ``metrics`` snapshot; histograms extend with the raw samples.
        Callers must merge trials in input order for gauge determinism
        (the relay does).
        """
        snapshot = getattr(result, "metrics", None) or {}
        for name, values in snapshot.get("counters", {}).items():
            if values:
                counter = registry.counter(name)
                for label, amount in values.items():
                    counter.inc(label, amount)
        for name, values in snapshot.get("gauges", {}).items():
            if values:
                gauge = registry.gauge(name)
                for label, value in values.items():
                    gauge.set(value, label)
        for name, samples in self.histograms.items():
            histogram = registry.histogram(name)
            for sample in samples:
                histogram.observe(sample)

    def publish(self, bus: Optional[EventBus]) -> None:
        """Re-publish this trial's summary events on the parent bus."""
        if bus is None or not bus.active:
            return
        for span, seconds in self.spans:
            bus.publish(TrialSpanRecorded(-1, span, seconds, self.key))
        bus.publish(TrialCompleted(
            -1, key=self.key, kind=self.kind, seconds=self.seconds,
            ok=self.ok, cached=self.cached,
            stabilization=self.stabilization, latency=self.latency,
        ))


def result_verdict(result: Any) -> bool:
    """A trial result's own pass/fail verdict: its ``ok`` (a field of
    set-agreement results, a property of extraction, converge and audit
    results); results with no verdict (mc shards report through
    counterexamples) count as passed."""
    return bool(getattr(result, "ok", True))


def result_curve_point(result: Any) -> Tuple[int, int]:
    """``(stabilization, latency)`` of a result, ``-1`` when absent.

    Latency is the last-decision step for decision protocols and the
    output settle time for extraction runs — the two y-axes of the
    dashboard's latency-vs-stabilization curves.
    """
    stabilization = getattr(result, "stabilization_time", None)
    latency = getattr(result, "last_decision_time", None)
    if latency is None:
        latency = getattr(result, "output_settle_time", None)
    return (
        int(stabilization) if stabilization is not None else -1,
        int(latency) if latency is not None else -1,
    )


def trial_telemetry(
    spec: Any,
    result: Any,
    key: str,
    spans: Tuple[Tuple[str, float], ...],
    registry: Optional[MetricsRegistry] = None,
    seconds: float = 0.0,
) -> TrialTelemetry:
    """The payload of one trial: ``spans`` measured around it, the raw
    samples of ``registry``, the registry it ran under, and its verdict
    and curve point.  A cache hit ran under no registry, so its payload
    is marked ``cached`` and carries no samples."""
    stabilization, latency = result_curve_point(result)
    return TrialTelemetry(
        key=key[:KEY_PREFIX], kind=getattr(spec, "kind", type(spec).__name__),
        spans=spans,
        histograms={} if registry is None else {
            metric.name: tuple(metric.values()) for metric in registry
            if isinstance(metric, HistogramMetric) and len(metric)
        },
        ok=result_verdict(result), cached=registry is None, seconds=seconds,
        stabilization=stabilization, latency=latency,
    )


class TelemetryRelay:
    """Parent-side accumulator: payloads in, merged registry + events out.

    The executor records each trial's payload under its input index as it
    completes (publishing its summary events immediately, so a live
    dashboard sees progress), then calls :meth:`finish` once with the
    results to merge every trial deterministically in input order.
    """

    def __init__(self, registry: MetricsRegistry,
                 bus: Optional[EventBus] = None):
        self.registry = registry
        self.bus = bus
        self._payloads: Dict[int, TrialTelemetry] = {}

    def record(self, index: int, telemetry: Optional[TrialTelemetry]) -> None:
        if telemetry is None:
            return
        self._payloads[index] = telemetry
        telemetry.publish(self.bus)

    def span(self, span: str, seconds: float, key: str = "") -> None:
        """Record a harness-level span (e.g. one cache lookup) directly."""
        if self.bus is not None and self.bus.active:
            self.bus.publish(TrialSpanRecorded(-1, span, seconds, key))

    def finish(self, results: List[Any]) -> int:
        """Merge every recorded trial, in input order, with its result
        ``results[index]``; returns the count."""
        for index in sorted(self._payloads):
            self._payloads[index].merge_into(self.registry, results[index])
        merged = len(self._payloads)
        self._payloads.clear()
        return merged
