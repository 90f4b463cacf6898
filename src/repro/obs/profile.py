"""Run profiling: protocol phases and the engine hot path.

Two instruments live here:

* :class:`RunProfiler` — wall-clock + step-budget accounting per named
  protocol phase, via the :meth:`RunProfiler.phase` context manager.
  Phases nest freely and repeated phases aggregate, so a driver can wrap
  "pre-stabilization", "round 3", "post-decide" however it likes.
* :func:`profile_engine` — times the engine itself on a deterministic
  synthetic workload (a lockstep loop over every hot operation kind:
  register writes/reads, snapshot updates/scans, detector queries,
  emits) in three configurations — no bus, idle bus, live metrics
  collector (its end-of-run ``record_run`` pass included) — and reports
  steps/sec with overhead percentages.  This is
  the regression instrument behind ``python -m repro profile``: the idle
  bus must stay within a few percent of the raw engine.

All engine imports are deferred into function bodies so this module can
be imported from anywhere (including the engine's own layers) without
cycles.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Any, Dict, List, Optional


@dataclasses.dataclass
class PhaseRecord:
    """One timed phase: wall seconds and engine steps consumed."""

    name: str
    wall_seconds: float
    steps: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "wall_seconds": self.wall_seconds,
            "steps": self.steps,
        }


class RunProfiler:
    """Accumulates :class:`PhaseRecord` entries around driver code."""

    def __init__(self) -> None:
        self.records: List[PhaseRecord] = []

    @contextlib.contextmanager
    def phase(self, name: str, sim: Optional[Any] = None):
        """Time a block; with a simulation, also count its steps."""
        start_steps = sim.time if sim is not None else 0
        start_wall = time.perf_counter()
        try:
            yield self
        finally:
            wall = time.perf_counter() - start_wall
            steps = (sim.time - start_steps) if sim is not None else 0
            self.records.append(PhaseRecord(name, wall, steps))

    def totals(self) -> Dict[str, PhaseRecord]:
        """Aggregate repeated phases by name (insertion order kept)."""
        out: Dict[str, PhaseRecord] = {}
        for record in self.records:
            agg = out.get(record.name)
            if agg is None:
                out[record.name] = PhaseRecord(
                    record.name, record.wall_seconds, record.steps
                )
            else:
                agg.wall_seconds += record.wall_seconds
                agg.steps += record.steps
        return out

    def snapshot(self) -> List[Dict[str, Any]]:
        return [record.to_dict() for record in self.records]

    def render(self) -> str:
        totals = self.totals()
        if not totals:
            return "(no phases recorded)"
        header = f"{'phase':<28} {'wall (s)':>10} {'steps':>10} {'steps/s':>12}"
        rows = [header, "-" * len(header)]
        for record in totals.values():
            rate = (
                f"{record.steps / record.wall_seconds:>12.0f}"
                if record.wall_seconds > 0 and record.steps
                else f"{'—':>12}"
            )
            rows.append(
                f"{record.name:<28} {record.wall_seconds:>10.4f} "
                f"{record.steps:>10} {rate}"
            )
        return "\n".join(rows)


@dataclasses.dataclass
class EngineProfile:
    """Hot-path comparison: raw engine vs idle bus vs live collector."""

    n_processes: int
    repeats: int
    total_steps: int
    baseline_sps: float
    idle_bus_sps: float
    metrics_sps: float
    #: Per-configuration steps/sec of every repeat (not just the best) —
    #: the sample behind the p50/p95/p99 rows of ``repro profile``.
    samples: Dict[str, List[float]] = dataclasses.field(default_factory=dict)

    @property
    def idle_overhead_pct(self) -> float:
        """Idle-bus slowdown versus the raw engine, in percent."""
        return 100.0 * (1.0 - self.idle_bus_sps / self.baseline_sps)

    @property
    def metrics_overhead_pct(self) -> float:
        """Live-collector slowdown versus the raw engine, in percent."""
        return 100.0 * (1.0 - self.metrics_sps / self.baseline_sps)

    def quantiles(self) -> Dict[str, Dict[str, float]]:
        """p50/p95/p99 steps/sec per configuration over the repeats."""
        from ..analysis.stats import summarize

        out: Dict[str, Dict[str, float]] = {}
        for name, values in self.samples.items():
            if values:
                summary = summarize(values)
                out[name] = {
                    "p50": summary.p50, "p95": summary.p95,
                    "p99": summary.p99,
                }
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_processes": self.n_processes,
            "repeats": self.repeats,
            "total_steps": self.total_steps,
            "baseline_steps_per_sec": self.baseline_sps,
            "idle_bus_steps_per_sec": self.idle_bus_sps,
            "metrics_steps_per_sec": self.metrics_sps,
            "idle_overhead_pct": self.idle_overhead_pct,
            "metrics_overhead_pct": self.metrics_overhead_pct,
            "steps_per_sec_quantiles": self.quantiles(),
        }

    def render(self) -> str:
        header = (f"{'configuration':<28} {'steps/sec':>12} {'overhead':>10}"
                  f" {'p50':>10} {'p95':>10} {'p99':>10}")
        quantiles = self.quantiles()

        def tail(name: str) -> str:
            q = quantiles.get(name)
            if not q:
                return f" {'—':>10} {'—':>10} {'—':>10}"
            return (f" {q['p50']:>10.0f} {q['p95']:>10.0f} "
                    f"{q['p99']:>10.0f}")

        return "\n".join([
            header,
            "-" * len(header),
            f"{'engine, no bus':<28} {self.baseline_sps:>12.0f} {'—':>10}"
            + tail("baseline"),
            f"{'bus attached, idle':<28} {self.idle_bus_sps:>12.0f} "
            f"{self.idle_overhead_pct:>9.1f}%" + tail("idle_bus"),
            f"{'metrics collector live':<28} {self.metrics_sps:>12.0f} "
            f"{self.metrics_overhead_pct:>9.1f}%" + tail("metrics"),
        ])


def _hotpath_workload(n_processes: int, bus):
    """A deterministic spin over every hot operation kind, never deciding.

    Lockstep round-robin over registers, snapshots, detector queries and
    emits: the run consumes exactly its step budget, so identical budgets
    across instrumentation levels compare identical work.
    """
    from ..detectors.base import ConstantHistory
    from ..runtime.ops import (
        Emit,
        QueryFD,
        Read,
        SnapshotScan,
        SnapshotUpdate,
        Write,
    )
    from ..runtime.process import System
    from ..runtime.simulation import Simulation

    system = System(n_processes)

    def spin(ctx, _value):
        pid = ctx.pid
        neighbour = (pid + 1) % n_processes
        r = 0
        while True:
            yield Write(("w", pid), r)
            yield Read(("w", neighbour))
            yield SnapshotUpdate("S", pid, r)
            yield SnapshotScan("S")
            yield QueryFD()
            yield Emit(r % 2)
            r += 1

    return Simulation(
        system,
        spin,
        inputs={p: None for p in system.pids},
        history=ConstantHistory(frozenset({0})),
        bus=bus,
    )


def _timed_steps_per_sec(
    n_processes: int, max_steps: int, bus, collector=None
) -> tuple:
    """Steps taken and steps/sec of one workload run; with a
    ``collector`` its :meth:`~repro.obs.metrics.MetricsCollector.record_run`
    pass is timed with the run, as a trial pays it."""
    from ..runtime.scheduler import RoundRobinScheduler

    sim = _hotpath_workload(n_processes, bus)
    start = time.perf_counter()
    sim.run(max_steps=max_steps, scheduler=RoundRobinScheduler())
    if collector is not None:
        collector.record_run(sim)
    wall = time.perf_counter() - start
    return sim.time, sim.time / wall if wall > 0 else float("inf")


def profile_engine(
    n_processes: int = 4,
    repeats: int = 5,
    max_steps: int = 150_000,
) -> EngineProfile:
    """Time identical synthetic workloads across instrumentation levels.

    The three configurations are interleaved round-robin — each repeat
    times baseline, idle bus and live collector back to back — so that
    slow drift in the host (frequency scaling, co-tenants) lands on every
    configuration alike instead of on whole blocks.  Per configuration
    the best (max) steps/sec over ``repeats`` rounds is kept — the
    microbenchmark convention that discards scheduler jitter and GC
    pauses rather than averaging them in.
    """
    from .events import EventBus
    from .metrics import MetricsCollector

    def live() -> tuple:
        collector = MetricsCollector()
        return collector.bus, collector

    factories = (lambda: (None,), lambda: (EventBus(),), live)
    names = ("baseline", "idle_bus", "metrics")
    best = [0.0, 0.0, 0.0]
    samples: Dict[str, List[float]] = {name: [] for name in names}
    baseline_steps = 0
    # one warm-up run so allocator/caches are comparable, then measure
    _timed_steps_per_sec(n_processes, max_steps, None)
    for _ in range(repeats):
        for index, factory in enumerate(factories):
            steps, sps = _timed_steps_per_sec(
                n_processes, max_steps, *factory()
            )
            best[index] = max(best[index], sps)
            samples[names[index]].append(sps)
            if index == 0:
                baseline_steps += steps
    return EngineProfile(
        n_processes=n_processes,
        repeats=repeats,
        total_steps=baseline_steps,
        baseline_sps=best[0],
        idle_bus_sps=best[1],
        metrics_sps=best[2],
        samples=samples,
    )
