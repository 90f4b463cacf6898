"""Experiment drivers: parameterized trials behind every bench and table.

Each ``run_*_trial`` function executes one seeded run and returns a flat
result dataclass; the benchmark harness and EXPERIMENTS.md generator sweep
them over seeds and parameters.  There is one driver per protocol — Fig.
1/2 set agreement, Fig. 3 extraction, and k-converge over ABD registers —
and every verdict goes through the :mod:`repro.mc.properties` adapters
plus an explicit termination check.

Chaos is a parameter of the same drivers.  The paper's detectors are
*eventual* (Sect. 3.2) and run requirement 5 constrains only the limit of
a schedule, so a lying detector prefix, a bounded unfair burst or an
ABD-safe message fault is just another legal history, schedule or network
for the same trial.  With ``chaos=None`` no injector is installed; with a
:class:`~repro.chaos.config.ChaosConfig` the injectors wrap the driver's
own history, scheduler and network — even at zero severity, where they
must change nothing (the ``chaos-zero`` audit pair checks that).
"""

from __future__ import annotations

import dataclasses
import random
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from ..core.extraction import make_extraction_protocol, stable_emulated_output
from ..core.f_resilient import make_upsilon_f_set_agreement
from ..core.samples import PhiMap, ShiftedPhiMap
from ..core.set_agreement import make_upsilon_set_agreement
from ..detectors.base import DetectorSpec, History, StableHistory
from ..detectors.omega_k import omega_n
from ..detectors.upsilon import UpsilonFSpec, UpsilonSpec
from ..failures.environment import Environment
from ..failures.pattern import FailurePattern
from ..mc.properties import (
    AgreementProperty,
    ConvergeAgreementProperty,
    ConvergeValidityProperty,
    PropertyAdapter,
    UpsilonOutputProperty,
    ValidityProperty,
)
from ..obs.metrics import MetricsCollector
from ..runtime.process import System
from ..runtime.scheduler import RandomScheduler, RoundRobinScheduler, Scheduler
from ..runtime.simulation import Simulation

if TYPE_CHECKING:
    from ..chaos.config import ChaosConfig


_ROUND_TAGS = frozenset(
    {"nconv", "fconv", "Dr", "Stable", "gconv", "gfconv", "A"}
)


def _rounds_in(key: Any):
    # Module-level, not a closure: a recursive closure is a reference
    # cycle, left behind by every trial for the cyclic collector.
    if isinstance(key, tuple):
        if len(key) >= 2 and key[0] in _ROUND_TAGS and isinstance(key[1], int):
            yield key[1]
        for part in key:
            yield from _rounds_in(part)


def max_round_reached(sim: Simulation) -> int:
    """Highest protocol round with any footprint in shared memory.

    Protocol register/snapshot keys embed the round number as the second
    component of tuples headed by a known tag; we walk the memory keys.
    """
    best = 0
    for key in sim.memory.keys():
        for r in _rounds_in(key):
            best = max(best, r)
    return best


def _chaos_scheduler(
    scheduler: Scheduler, chaos: Optional["ChaosConfig"], bus
) -> Scheduler:
    """``scheduler`` itself, or — under chaos — wrapped in a
    :class:`~repro.chaos.scheduler.ChaosScheduler` after the active
    knobs are announced on ``bus``."""
    if chaos is None:
        return scheduler
    from ..chaos.config import announce
    from ..chaos.scheduler import ChaosScheduler

    announce(bus, chaos)
    return ChaosScheduler(scheduler, chaos, bus=bus)


def _lying(
    spec: DetectorSpec,
    pattern: FailurePattern,
    history: History,
    chaos: Optional["ChaosConfig"],
) -> History:
    """``history`` itself, or — under chaos — behind its lying prefix."""
    if chaos is None:
        return history
    from ..chaos.detectors import chaotic_history

    return chaotic_history(spec, pattern, chaos, history)


def _decision_verdict(
    sim: Simulation, adapters: Sequence[PropertyAdapter]
) -> List[str]:
    """Safety through ``adapters``, then termination checked explicitly:
    the adapters' termination property is vacuous on a run that stopped
    at its step budget, and a stalled run is exactly what must not pass."""
    violations = [
        f"{adapter.name}: {reason}"
        for adapter in adapters
        if (reason := adapter.check_run(sim))
    ]
    if not sim.all_correct_decided():
        violations.append(
            f"termination: correct processes undecided after "
            f"{sim.time} steps"
        )
    return violations


@dataclasses.dataclass
class SetAgreementResult:
    """Outcome of one set-agreement run."""

    n_processes: int
    f: int
    seed: int
    stabilization_time: int
    faulty: int
    total_steps: int
    last_decision_time: int
    distinct_decisions: int
    rounds: int
    ok: bool
    violations: str
    metrics: Optional[Dict[str, Any]] = dataclasses.field(
        default=None, repr=False, compare=False
    )


def run_set_agreement_trial(
    system: System,
    f: int,
    seed: int,
    stabilization_time: int,
    use_fig2: Optional[bool] = None,
    register_based: bool = False,
    max_steps: int = 2_000_000,
    stable_value: Any = None,
    history: Optional[History] = None,
    pattern: Optional[FailurePattern] = None,
    adversarial: bool = False,
    collector: Optional[MetricsCollector] = None,
    chaos: Optional["ChaosConfig"] = None,
) -> SetAgreementResult:
    """One seeded Fig. 1 / Fig. 2 run, checked against f-set agreement.

    ``use_fig2`` defaults to "Fig. 2 iff f < n"; Fig. 1 is the wait-free
    special case.

    ``adversarial`` selects the worst-case regime the paper's termination
    argument actually fights: a failure-free pattern, a *lockstep*
    (round-robin) schedule, and pre-stabilization noise pinned to the
    correct set — the one value Υ may show only transiently.  Progress is
    then impossible before stabilization, so the decision latency tracks
    the stabilization time (cf. benches E11/F1).

    Every trial is observed: a fresh
    :class:`~repro.obs.metrics.MetricsCollector` is wired unless one is
    passed, and the result carries its ``metrics`` snapshot.

    ``chaos`` puts a lying prefix in front of the history and wraps the
    scheduler (see the module docstring)."""
    env = Environment(system, f)
    rng = random.Random(f"sa:{system.n_processes}:{f}:{seed}")
    if pattern is None:
        if adversarial:
            pattern = FailurePattern.failure_free(system)
        else:
            pattern = env.random_pattern(
                rng, max_crash_time=stabilization_time or 60
            )
    if use_fig2 is None:
        use_fig2 = f < system.n
    if use_fig2:
        spec: DetectorSpec = UpsilonFSpec(env)
        protocol = make_upsilon_f_set_agreement(f, register_based=register_based)
    else:
        spec = UpsilonSpec(system)
        protocol = make_upsilon_set_agreement(register_based=register_based)
    if history is None:
        if adversarial:
            legal = [
                v
                for v in spec.legal_stable_values(pattern)
                if stable_value is None or v == frozenset(stable_value)
            ]
            history = StableHistory(
                legal[0],
                stabilization_time,
                noise=(lambda p, t: pattern.correct) if stabilization_time else None,
            )
        else:
            history = spec.sample_history(
                pattern,
                rng,
                stabilization_time=stabilization_time,
                stable_value=stable_value,
            )
    history = _lying(spec, pattern, history, chaos)
    inputs = {p: f"v{p}" for p in system.pids}
    if collector is None:
        collector = MetricsCollector()
    bus = collector.bus
    sim = Simulation(
        system, protocol, inputs=inputs, pattern=pattern, history=history,
        bus=bus,
    )
    scheduler = RoundRobinScheduler() if adversarial else RandomScheduler(seed)
    sim.run(
        max_steps=max_steps,
        scheduler=_chaos_scheduler(scheduler, chaos, bus),
        stop_when=Simulation.all_correct_decided,
    )
    collector.record_run(sim)
    violations = _decision_verdict(
        sim, (AgreementProperty(f), ValidityProperty(inputs))
    )
    times = sim.trace.decision_times()
    return SetAgreementResult(
        n_processes=system.n_processes,
        f=f,
        seed=seed,
        stabilization_time=stabilization_time,
        faulty=len(pattern.faulty),
        total_steps=sim.time,
        last_decision_time=max(times.values()) if times else -1,
        distinct_decisions=len(sim.trace.decided_values()),
        rounds=max_round_reached(sim),
        ok=not violations,
        violations="; ".join(violations),
        metrics=collector.snapshot(),
    )


@dataclasses.dataclass
class ExtractionResult:
    """Outcome of one Fig. 3 extraction run.

    ``legal`` holds when the correct processes agreed on one stable
    output, that output is a legal Υf value for the pattern, and every
    emit of the run stayed in Υf's range."""

    detector: str
    f: int
    seed: int
    stabilization_time: int
    total_steps: int
    stabilized: bool
    output: Optional[frozenset]
    legal: bool
    output_settle_time: int
    metrics: Optional[Dict[str, Any]] = dataclasses.field(
        default=None, repr=False, compare=False
    )

    @property
    def ok(self) -> bool:
        return self.stabilized and self.legal


def run_extraction_trial(
    spec: DetectorSpec,
    env: Environment,
    seed: int,
    stabilization_time: int = 60,
    max_steps: int = 40_000,
    shift: int = 0,
    pattern: Optional[FailurePattern] = None,
    collector: Optional[MetricsCollector] = None,
    chaos: Optional["ChaosConfig"] = None,
) -> ExtractionResult:
    """One seeded Fig. 3 run extracting Υf from ``spec``.

    ``chaos`` puts a lying prefix in front of the source detector's
    history and wraps the scheduler (see the module docstring)."""
    rng = random.Random(f"ex:{spec.name}:{env.f}:{seed}")
    if pattern is None:
        pattern = env.random_pattern(rng, max_crash_time=stabilization_time or 50)
    history = spec.sample_history(
        pattern, rng, stabilization_time=stabilization_time
    )
    history = _lying(spec, pattern, history, chaos)
    phi = PhiMap(spec, env)
    if shift:
        phi = ShiftedPhiMap(phi, shift)
    if collector is None:
        collector = MetricsCollector()
    bus = collector.bus
    sim = Simulation(
        env.system,
        make_extraction_protocol(phi),
        inputs={},
        pattern=pattern,
        history=history,
        bus=bus,
    )
    sim.run(
        max_steps=max_steps,
        scheduler=_chaos_scheduler(RandomScheduler(seed + 1), chaos, bus),
    )
    collector.record_run(sim)
    outputs = stable_emulated_output(sim, pattern)
    if outputs is None:
        return ExtractionResult(
            spec.name, env.f, seed, stabilization_time, sim.time,
            stabilized=False, output=None, legal=False, output_settle_time=-1,
            metrics=collector.snapshot(),
        )
    values = {frozenset(v) for v in outputs.values()}
    agreed = len(values) == 1
    output = next(iter(values)) if agreed else None
    legal = (
        agreed
        and UpsilonFSpec(env).is_legal_stable_value(pattern, output)
        and UpsilonOutputProperty(env.system.pid_set, env.min_correct)
        .check_run(sim) is None
    )
    settle = max(
        sim.trace.emit_stabilization_time(pid) or 0 for pid in pattern.correct
    )
    return ExtractionResult(
        spec.name, env.f, seed, stabilization_time, sim.time,
        stabilized=agreed, output=output, legal=legal,
        output_settle_time=settle,
        metrics=collector.snapshot(),
    )


@dataclasses.dataclass
class ConvergeResult:
    """Outcome of one k-converge run over ABD-emulated registers."""

    n_processes: int
    f: int
    seed: int
    faulty: int
    total_steps: int
    last_decision_time: int
    violations: str
    metrics: Optional[Dict[str, Any]] = dataclasses.field(
        default=None, repr=False, compare=False
    )

    @property
    def ok(self) -> bool:
        return not self.violations


def run_converge_trial(
    system: System,
    seed: int,
    f: Optional[int] = None,
    max_steps: int = 400_000,
    collector: Optional[MetricsCollector] = None,
    chaos: Optional["ChaosConfig"] = None,
) -> ConvergeResult:
    """One seeded k-converge run over ABD-emulated registers (E13).

    Message passing emulates the registers only while a majority is
    correct, so ``f`` is clamped to ``⌊n/2⌋`` (also its default) and the
    quorum is ``n + 1 − f``.  ``k = max(1, f)`` and the inputs use at most
    ``k`` distinct values, so every process commits.  ``chaos`` wraps the
    scheduler and swaps the reliable network for a
    :class:`~repro.chaos.network.FaultyNetwork`."""
    from ..core.converge import ConvergeInstance
    from ..messaging.abd import AbdRegisters, abd_snapshot_api
    from ..messaging.network import Network
    from ..runtime.ops import Decide

    n_procs = system.n_processes
    majority_safe = (n_procs - 1) // 2
    f = majority_safe if f is None else max(0, min(f, majority_safe))
    quorum = n_procs - f
    rng = random.Random(f"cv:{n_procs}:{f}:{seed}")
    if f:
        pattern = Environment(system, f).random_pattern(rng, max_crash_time=60)
    else:
        pattern = FailurePattern.failure_free(system)
    k = max(1, f)
    inputs = {p: f"v{p % k}" for p in system.pids}

    def protocol(ctx, value):
        abd = AbdRegisters(ctx, quorum=quorum)
        instance = ConvergeInstance(
            ("abd", "conv"), k, n_procs,
            snapshot_factory=lambda name, cells: abd_snapshot_api(
                abd, name, cells
            ),
        )
        picked, committed = yield from instance.converge(ctx, value)
        yield Decide((picked, committed))
        yield from abd.serve()

    if chaos is None:
        network = Network(system, seed=seed + 101, max_delay=3)
    else:
        from ..chaos.network import FaultyNetwork

        network = FaultyNetwork(
            system, seed=seed + 101, max_delay=3, chaos=chaos,
            quorum=quorum, protected=pattern.correct,
        )
    if collector is None:
        collector = MetricsCollector()
    bus = collector.bus
    sim = Simulation(
        system, protocol, inputs=inputs, pattern=pattern, network=network,
        bus=bus,
    )
    sim.run(
        max_steps=max_steps,
        scheduler=_chaos_scheduler(RandomScheduler(seed), chaos, bus),
        stop_when=Simulation.all_correct_decided,
    )
    collector.record_run(sim)
    violations = _decision_verdict(
        sim, (ConvergeAgreementProperty(k), ConvergeValidityProperty(inputs))
    )
    times = sim.trace.decision_times()
    return ConvergeResult(
        n_processes=n_procs,
        f=f,
        seed=seed,
        faulty=len(pattern.faulty),
        total_steps=sim.time,
        last_decision_time=max(times.values()) if times else -1,
        violations="; ".join(violations),
        metrics=collector.snapshot(),
    )


@dataclasses.dataclass
class LatencyComparison:
    """Decision latency of Υ-based vs Ωn-reduced set agreement (E11)."""

    n_processes: int
    seed: int
    stabilization_time: int
    upsilon_steps: int
    omega_n_steps: int
    metrics: Optional[Dict[str, Any]] = dataclasses.field(
        default=None, repr=False, compare=False
    )


def run_latency_comparison(
    system: System,
    seed: int,
    stabilization_time: int,
    max_steps: int = 2_000_000,
) -> LatencyComparison:
    """Same pattern/seed: Fig. 1 under a direct Υ history vs Fig. 1 under
    Υ emulated from an Ωn history by the complement reduction.

    The Ωn side composes detector → reduction → protocol statically: the
    complement of a legal Ωn history *is* a legal Υ history, so we feed
    Fig. 1 the transformed history — the run is step-for-step what the
    online reduction converges to.
    """
    rng = random.Random(f"lat:{system.n_processes}:{seed}")
    env = Environment.wait_free(system)
    pattern = env.random_pattern(rng, max_crash_time=stabilization_time or 60)

    upsilon_spec = UpsilonSpec(system)
    direct = run_set_agreement_trial(
        system,
        system.n,
        seed,
        stabilization_time,
        pattern=pattern,
        history=upsilon_spec.sample_history(
            pattern, rng, stabilization_time=stabilization_time
        ),
        max_steps=max_steps,
    )

    omega_spec = omega_n(system)
    omega_history = omega_spec.sample_history(
        pattern, rng, stabilization_time=stabilization_time
    )
    complemented = ComplementHistory(system, omega_history)
    via_omega = run_set_agreement_trial(
        system,
        system.n,
        seed,
        stabilization_time,
        pattern=pattern,
        history=complemented,
        max_steps=max_steps,
    )
    return LatencyComparison(
        n_processes=system.n_processes,
        seed=seed,
        stabilization_time=stabilization_time,
        upsilon_steps=direct.last_decision_time,
        omega_n_steps=via_omega.last_decision_time,
        metrics={"upsilon": direct.metrics, "omega_n": via_omega.metrics},
    )


class ComplementHistory(History):
    """The Ωk → Υ^{n+1−k} reduction applied pointwise to a history.

    Also accepts Ω (= Ω1) histories, whose values are single pids.
    """

    def __init__(self, system: System, inner: History):
        self.system = system
        self.inner = inner

    def value(self, pid: int, t: int) -> frozenset:
        leaders = self.inner.value(pid, t)
        if isinstance(leaders, int):
            leaders = (leaders,)
        return self.system.complement(leaders)


class EmittedHistory(History):
    """A history replayed from a recorded emit timeline.

    Turns the ``D-output`` variable of a finished reduction run into a
    failure-detector history for a *subsequent* run: ``H(p, t)`` is the
    value ``p`` last emitted at or before ``t`` (``default`` before the
    first emit, and the final value after the recording ends).  Composing
    ``EmittedHistory`` over a Fig. 3 run with the Fig. 1 protocol realizes
    the paper's chain "any stable non-trivial D ⇒ Υ ⇒ set agreement"
    end-to-end.
    """

    def __init__(self, sim: Simulation, default):
        self.default = default
        self._timelines: Dict[int, list] = {}
        for pid in sim.system.pids:
            self._timelines[pid] = [
                (r.time, r.value) for r in sim.trace.emits(pid)
            ]

    def value(self, pid: int, t: int):
        timeline = self._timelines.get(pid, [])
        current = self.default
        for when, value in timeline:
            if when > t:
                break
            current = value
        return current
