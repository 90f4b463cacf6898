"""repro — a reproduction of *On the weakest failure detector ever*.

Guerraoui, Herlihy, Kuznetsov, Lynch, Newport (PODC 2007; Distributed
Computing 21:353–366, 2009).

The library is a faithful executable model of the paper's asynchronous
shared-memory system:

* :mod:`repro.runtime` — atomic-step simulation kernel (processes are
  generators; one yield = one step), schedulers (including adversarial
  ones), traces;
* :mod:`repro.memory` — registers, atomic snapshots (primitive and the
  Afek-et-al. register construction), typed consensus objects;
* :mod:`repro.failures` — failure patterns and environments ``E_f``;
* :mod:`repro.detectors` — the failure-detector framework and the
  detectors Υ, Υf, Ω, Ωk, ◇P, anti-Ω, dummies;
* :mod:`repro.core` — the paper's contribution: the Fig. 1/Fig. 2
  set-agreement protocols, the Fig. 3 extraction of Υf from any stable
  non-trivial detector, the constructive reductions of Sect. 4/5.3, the
  Theorem 1/5 adversaries, and the Corollary 4 consensus algorithms;
* :mod:`repro.tasks` — k-set-agreement/consensus specifications checked
  on traces;
* :mod:`repro.analysis` — experiment drivers behind the benchmarks;
* :mod:`repro.obs` — run-level observability: the engine's event bus,
  metrics registry, run profiler and JSONL/report exporters;
* :mod:`repro.perf` — the parallel sweep executor (process-pool fan-out
  over picklable trial specs, resilient: watchdog, retries, quarantine,
  checkpoint journal) and the disk-backed trial result cache;
* :mod:`repro.mc` — systematic model checking: bounded exhaustive
  exploration with state fingerprinting, sleep-set partial-order
  reduction, crash-pattern sweeping, and replayable counterexamples;
* :mod:`repro.chaos` — spec-conformant fault injection: lying-prefix
  detector histories, a faulty network under the ABD safety envelope,
  and a fairness-bounded chaos scheduler, installed by the ordinary trial
  drivers when a spec carries ``chaos=ChaosConfig(...)``.

Quickstart::

    from repro import (System, FailurePattern, UpsilonSpec,
                       make_upsilon_set_agreement, run_protocol,
                       SetAgreementSpec)
    import random

    system = System(4)                      # n + 1 = 4 processes, n = 3
    pattern = FailurePattern.crash_at(system, {0: 25})
    upsilon = UpsilonSpec(system)
    history = upsilon.sample_history(pattern, random.Random(7),
                                     stabilization_time=100)
    inputs = {p: f"value-{p}" for p in system.pids}
    sim = run_protocol(system, make_upsilon_set_agreement(), inputs,
                       pattern=pattern, history=history)
    SetAgreementSpec(system.n).check(sim, inputs).raise_if_failed()
    print(sim.decisions())
"""

from .analysis import (
    run_converge_trial,
    run_extraction_trial,
    run_latency_comparison,
    run_set_agreement_trial,
    summarize,
)
from .core import (
    ConvergeInstance,
    DetectorHierarchy,
    EventuallySynchronousScheduler,
    GrowingDelayScheduler,
    PhiMap,
    ShiftedPhiMap,
    TrivialDetectorError,
    k_converge,
    locally_stable_outputs,
    make_boosted_consensus,
    make_extraction_protocol,
    make_local_extraction_protocol,
    make_omega_consensus,
    make_omega_k_to_upsilon_f,
    make_omega_to_upsilon,
    make_upsilon1_to_omega,
    make_upsilon_f_set_agreement,
    make_upsilon_set_agreement,
    make_timeout_upsilon,
    make_upsilon_to_omega_two_processes,
    run_theorem1_adversary,
    run_theorem5_adversary,
    stable_emulated_output,
    with_fd_transform,
)
from .audit import (
    AuditReport,
    AuditTrialSpec,
    Divergence,
    plan_audit,
    run_audit,
)
from .chaos import ChaosConfig, FaultyNetwork, LyingHistory
from .messaging import AbdRegisters, Network, abd_snapshot_api
from .detectors import (
    AntiOmegaSpec,
    ConstantHistory,
    DummySpec,
    EventuallyPerfectSpec,
    OmegaKSpec,
    OmegaSpec,
    StableHistory,
    UpsilonFSpec,
    UpsilonSpec,
    omega_n,
)
from .failures import Environment, FailurePattern
from .mc import (
    CheckReport,
    Counterexample,
    CrashSweep,
    ExploreConfig,
    Explorer,
    McInstance,
    check,
    explore_instance,
)
from .memory import Memory, RegisterSnapshotAPI
from .obs import (
    EventBus,
    JsonlEventSink,
    MetricsCollector,
    MetricsRegistry,
    RunProfiler,
    RunReport,
    profile_engine,
)
from .perf import (
    CheckpointJournal,
    ConvergeTrialSpec,
    ExtractionTrialSpec,
    QuarantineReport,
    SetAgreementTrialSpec,
    TrialCache,
    execute_trial,
    run_trials,
    spec_key,
)
from .runtime import (
    BOT,
    NON_PARTICIPANT,
    NonTerminationError,
    ObservedScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    ScriptedScheduler,
    Simulation,
    System,
    run_protocol,
)
from .tasks import ConsensusSpec, SetAgreementSpec

__version__ = "1.0.0"

__all__ = [
    "AntiOmegaSpec",
    "AuditReport",
    "AuditTrialSpec",
    "BOT",
    "ChaosConfig",
    "ConvergeTrialSpec",
    "CheckReport",
    "CheckpointJournal",
    "ConsensusSpec",
    "ConstantHistory",
    "Counterexample",
    "ConvergeInstance",
    "CrashSweep",
    "ExploreConfig",
    "Explorer",
    "McInstance",
    "DetectorHierarchy",
    "Divergence",
    "AbdRegisters",
    "EventuallySynchronousScheduler",
    "ExtractionTrialSpec",
    "GrowingDelayScheduler",
    "DummySpec",
    "Environment",
    "EventBus",
    "EventuallyPerfectSpec",
    "FailurePattern",
    "FaultyNetwork",
    "JsonlEventSink",
    "LyingHistory",
    "Memory",
    "MetricsCollector",
    "MetricsRegistry",
    "Network",
    "NON_PARTICIPANT",
    "NonTerminationError",
    "ObservedScheduler",
    "OmegaKSpec",
    "OmegaSpec",
    "PhiMap",
    "QuarantineReport",
    "RandomScheduler",
    "RegisterSnapshotAPI",
    "RoundRobinScheduler",
    "RunProfiler",
    "RunReport",
    "ScriptedScheduler",
    "SetAgreementSpec",
    "SetAgreementTrialSpec",
    "ShiftedPhiMap",
    "Simulation",
    "StableHistory",
    "System",
    "TrialCache",
    "TrivialDetectorError",
    "UpsilonFSpec",
    "UpsilonSpec",
    "k_converge",
    "locally_stable_outputs",
    "make_boosted_consensus",
    "make_extraction_protocol",
    "make_local_extraction_protocol",
    "make_omega_consensus",
    "make_omega_k_to_upsilon_f",
    "make_omega_to_upsilon",
    "make_upsilon1_to_omega",
    "make_upsilon_f_set_agreement",
    "make_upsilon_set_agreement",
    "make_timeout_upsilon",
    "make_upsilon_to_omega_two_processes",
    "omega_n",
    "profile_engine",
    "execute_trial",
    "run_converge_trial",
    "run_extraction_trial",
    "run_latency_comparison",
    "run_protocol",
    "run_set_agreement_trial",
    "plan_audit",
    "run_audit",
    "run_theorem1_adversary",
    "run_trials",
    "spec_key",
    "run_theorem5_adversary",
    "stable_emulated_output",
    "summarize",
    "abd_snapshot_api",
    "check",
    "explore_instance",
    "with_fd_transform",
]
