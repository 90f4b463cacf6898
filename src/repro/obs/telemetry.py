"""Cross-process telemetry: per-trial payloads shipped back from workers.

Worker subprocesses in :mod:`repro.perf.executor` run each trial with a
private :class:`~repro.obs.metrics.MetricsCollector` — their events die
at the process boundary.  This module is the relay: the worker folds its
local registry (plus the trial's wall-clock spans) into a picklable
:class:`TrialTelemetry` value that travels back *alongside* the result,
and the parent merges every payload into its own registry **in input
order** and re-publishes harness-level summary events
(:class:`~repro.obs.events.TrialSpanRecorded`,
:class:`~repro.obs.events.TrialCompleted`) on its bus.

Input-order merging is what makes telemetry deterministic: a ``--jobs 4``
sweep reports the same trial-level counters, gauges and histograms as
``--jobs 1`` on the same grid, regardless of completion order.  The only
non-deterministic metrics are the ``span_*_seconds`` histograms — they
measure the harness itself (queue wait, cache lookup, execute, retry
backoff), not the trials.

Raw histogram samples are shipped (not summaries) so merged quantiles are
exact.  Results served from the :class:`~repro.perf.cache.TrialCache`
carry no live registry; their telemetry is rebuilt from the cached
result's ``metrics`` snapshot — counters and gauges merge exactly, cached
histogram *summaries* cannot be re-merged and are skipped.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Tuple

from .events import EventBus, TrialCompleted, TrialSpanRecorded
from .metrics import MetricsRegistry, _label_key

#: Short prefix of a spec key used to label telemetry (matches the
#: ``TrialRetried``/``TrialQuarantined`` convention of key[:12]).
KEY_PREFIX = 12


@dataclasses.dataclass(frozen=True)
class TrialTelemetry:
    """Picklable observability payload of one finished trial.

    ``counters`` / ``gauges`` use the snapshot representation of
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` (labels already
    stringified), ``histograms`` carry **raw samples**.  ``spans`` are
    ``(phase, seconds)`` wall-clock pairs measured around the trial.
    """

    key: str
    kind: str
    spans: Tuple[Tuple[str, float], ...] = ()
    counters: Dict[str, Dict[str, int]] = dataclasses.field(
        default_factory=dict)
    gauges: Dict[str, Dict[str, float]] = dataclasses.field(
        default_factory=dict)
    histograms: Dict[str, Tuple[float, ...]] = dataclasses.field(
        default_factory=dict)
    ok: bool = True
    cached: bool = False
    seconds: float = 0.0
    stabilization: int = -1
    latency: int = -1

    # -- capture -----------------------------------------------------------

    @classmethod
    def from_registry(
        cls,
        key: str,
        kind: str,
        registry: MetricsRegistry,
        *,
        spans: Tuple[Tuple[str, float], ...] = (),
        ok: bool = True,
        seconds: float = 0.0,
        stabilization: int = -1,
        latency: int = -1,
    ) -> "TrialTelemetry":
        """Snapshot a worker-local registry into a shippable payload."""
        from .metrics import CounterMetric, GaugeMetric, HistogramMetric

        counters: Dict[str, Dict[str, int]] = {}
        gauges: Dict[str, Dict[str, float]] = {}
        histograms: Dict[str, Tuple[float, ...]] = {}
        for metric in registry:
            if isinstance(metric, CounterMetric):
                items = metric.items()
                if items:
                    counters[metric.name] = {
                        _label_key(k): v for k, v in items.items()
                    }
            elif isinstance(metric, GaugeMetric):
                items = metric.items()
                if items:
                    gauges[metric.name] = {
                        _label_key(k): v for k, v in items.items()
                    }
            elif isinstance(metric, HistogramMetric) and len(metric):
                histograms[metric.name] = tuple(metric.values())
        return cls(
            key=key[:KEY_PREFIX], kind=kind, spans=tuple(spans),
            counters=counters, gauges=gauges, histograms=histograms,
            ok=ok, cached=False, seconds=seconds,
            stabilization=stabilization, latency=latency,
        )

    # -- relay (parent side) -----------------------------------------------

    def merge_into(self, registry: MetricsRegistry) -> None:
        """Fold this trial's metric deltas into a parent registry.

        Counters add, histograms extend with the raw samples, gauges
        overwrite per label — callers must merge payloads in input order
        for gauge determinism (the executor does).
        """
        for name, values in self.counters.items():
            counter = registry.counter(name)
            for label, amount in values.items():
                counter.inc(label, amount)
        for name, values in self.gauges.items():
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


def capture_telemetry(
    spec: Any,
    result: Any,
    registry: MetricsRegistry,
    *,
    key: str = "",
    spans: Tuple[Tuple[str, float], ...] = (),
    seconds: float = 0.0,
) -> TrialTelemetry:
    """Worker-side capture: registry + result facts → one payload."""
    stabilization, latency = result_curve_point(result)
    return TrialTelemetry.from_registry(
        key, getattr(spec, "kind", type(spec).__name__), registry,
        spans=spans, ok=result_verdict(result), seconds=seconds,
        stabilization=stabilization, latency=latency,
    )


def cache_hit_telemetry(spec: Any, result: Any, key: str,
                        seconds: float) -> TrialTelemetry:
    """A cache hit's payload, rebuilt from the cached result's stored
    ``metrics`` snapshot (no live registry exists), with its share of
    the lookup as one ``cache_lookup`` span.  Histogram summaries are
    not re-mergeable and are dropped."""
    snapshot = getattr(result, "metrics", None) or {}
    stabilization, latency = result_curve_point(result)
    return TrialTelemetry(
        key=key[:KEY_PREFIX], kind=getattr(spec, "kind", type(spec).__name__),
        spans=(("cache_lookup", seconds),),
        counters={
            name: dict(values)
            for name, values in snapshot.get("counters", {}).items()
            if values
        },
        gauges={
            name: dict(values)
            for name, values in snapshot.get("gauges", {}).items()
            if values
        },
        ok=result_verdict(result), cached=True,
        stabilization=stabilization, latency=latency,
    )


class TelemetryRelay:
    """Parent-side accumulator: payloads in, merged registry + events out.

    The executor records each trial's payload under its input index as it
    completes (publishing its summary events immediately, so a live
    dashboard sees progress), then calls :meth:`finish` once to merge all
    registries deterministically in input order.
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

    def finish(self) -> int:
        """Merge every recorded payload, in input order; returns count."""
        merged = 0
        for index in sorted(self._payloads):
            self._payloads[index].merge_into(self.registry)
            merged += 1
        self._payloads.clear()
        return merged
