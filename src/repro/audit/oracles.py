"""Oracle pairs: the same logical trial, run two ways, must agree.

Each oracle names one equivalence claim the engine makes implicitly and
turns it into an executable check:

=================  =========================================================
pair               claim
=================  =========================================================
``serial-parallel``  ``run_trials(jobs=1)`` and ``jobs=2`` return identical
                     ordered results for the same spec grid.
``cache``            a cache miss (computed), a cache hit (deserialized),
                     and a direct ``execute_trial`` all yield equal results.
``substrate``        k-converge over atomic shared memory and over
                     ABD-emulated registers satisfy the same output
                     contract, and the ABD run itself is deterministic.
``replay``           a live run under ``RandomScheduler`` and a
                     ``run_script`` replay of its recorded schedule
                     produce the same trace and state fingerprint.
``chaos-zero``       a trial spec with ``chaos=ChaosConfig(seed=s)`` (every
                     injector installed, every knob at zero) equals its
                     ``chaos=None`` twin, result and step for step — for
                     set agreement, extraction and ABD k-converge.
``faulty-infra``     a farm campaign drained under infrastructure chaos
                     (lock storms, a torn-process kill, cache ENOSPC)
                     settles every trial exactly once, byte-identical to
                     a pristine serial run of the same grid.
=================  =========================================================

Every oracle derives its case parameters from
``random.Random(f"audit:{pair}:{seed}:{case}")`` alone, so a case is
reproducible from ``(pair, seed, case)`` — exactly the fields of a
picklable :class:`~repro.audit.runner.AuditTrialSpec`.

``sabotage`` hooks exist to prove the oracles can fail: ``"cache"``
poisons one stored cache entry with a well-formed pickle of a wrong
result, ``"abd-ack"`` corrupts the first ABD read acknowledgement on
the wire, and ``"infra-dup"`` doctors the drained farm store with a
duplicate ``done`` row.  Each must flip a clean audit into a divergence
report.
"""

from __future__ import annotations

import dataclasses
import random
import tempfile
from typing import Any, Dict, List, Optional, Tuple

from .diff import (
    Divergence,
    diff_result_fields,
    first_trace_divergence,
    shrink_replay_schedule,
)

#: Comparisons one case of each oracle performs (budget accounting).
PAIRS_PER_CASE = {
    "serial-parallel": 8,
    "cache": 8,
    "substrate": 2,
    "replay": 1,
    "chaos-zero": 3,
    "faulty-infra": 3,
}

ORACLE_PAIRS = tuple(sorted(PAIRS_PER_CASE))


@dataclasses.dataclass
class CaseOutcome:
    """What one oracle case produced: comparisons done, breaks found."""

    trials: int
    divergences: List[Divergence] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


def _case_rng(pair: str, seed: int, case: int) -> random.Random:
    return random.Random(f"audit:{pair}:{seed}:{case}")


def run_case(
    pair: str, case: int, seed: int, sabotage: str = ""
) -> CaseOutcome:
    """Execute one fuzzed case of the named oracle pair."""
    try:
        oracle = _ORACLES[pair]
    except KeyError:
        known = ", ".join(ORACLE_PAIRS)
        raise ValueError(f"unknown oracle pair {pair!r} (known: {known})")
    return oracle(case, seed, sabotage)


# -- serial vs parallel -------------------------------------------------------


#: (detector, f) combinations from which Υf extraction is possible at
#: n = 3 — weaker entries (anti_omega, dummy; Ω_2 in E_1) are f-trivial
#: there and make the extraction runner raise, not a fair audit subject.
_EXTRACTABLE_COMBOS = (
    ("diamond_p", None), ("diamond_p", 1), ("diamond_p", 2),
    ("omega", None), ("omega", 1), ("omega", 2),
    ("omega_n", None), ("omega_n", 2),
)


def _fuzz_spec_grid(rng: random.Random, count: int) -> List[Any]:
    """A deterministic grid of cheap mixed-kind trial specs."""
    from ..perf.spec import ExtractionTrialSpec, SetAgreementTrialSpec
    specs: List[Any] = []
    for _ in range(count):
        if rng.random() < 0.5:
            n = rng.choice((3, 4))
            specs.append(
                SetAgreementTrialSpec(
                    n_processes=n,
                    f=rng.choice((1, n - 1)),
                    seed=rng.randrange(1_000_000),
                    stabilization_time=rng.choice((0, 8, 25)),
                    adversarial=rng.random() < 0.25,
                    max_steps=200_000,
                )
            )
        else:
            detector, f = rng.choice(_EXTRACTABLE_COMBOS)
            specs.append(
                ExtractionTrialSpec(
                    detector=detector,
                    n_processes=3,
                    seed=rng.randrange(1_000_000),
                    f=f,
                    stabilization_time=rng.choice((20, 40)),
                    max_steps=40_000,
                )
            )
    return specs


def _serial_parallel(case: int, seed: int, sabotage: str) -> CaseOutcome:
    from ..perf.executor import run_trials

    rng = _case_rng("serial-parallel", seed, case)
    specs = _fuzz_spec_grid(rng, PAIRS_PER_CASE["serial-parallel"])
    serial = run_trials(specs, jobs=1)
    parallel = run_trials(specs, jobs=2)
    outcome = CaseOutcome(trials=len(specs))
    for index, (spec, a, b) in enumerate(zip(specs, serial, parallel)):
        if a != b:
            outcome.divergences.append(
                Divergence(
                    pair="serial-parallel",
                    case=case,
                    seed=seed,
                    kind="result",
                    detail=(
                        f"spec #{index} differs between jobs=1 and jobs=2"
                    ),
                    spec=dict(
                        dataclasses.asdict(spec), kind=spec.kind
                    ),
                    fields=diff_result_fields(a, b),
                )
            )
    return outcome


# -- cold vs warm vs disabled cache ------------------------------------------


def _cache(case: int, seed: int, sabotage: str) -> CaseOutcome:
    from ..perf.cache import TrialCache
    from ..perf.executor import run_trials
    from ..perf.spec import execute_trial

    rng = _case_rng("cache", seed, case)
    specs = _fuzz_spec_grid(rng, 4)
    baseline = [execute_trial(spec) for spec in specs]  # cache disabled
    outcome = CaseOutcome(trials=PAIRS_PER_CASE["cache"])
    with tempfile.TemporaryDirectory(prefix="repro-audit-cache-") as root:
        cache = TrialCache(root)
        cold = run_trials(specs, jobs=1, cache=cache)
        if sabotage == "cache":
            # A well-formed pickle of a *wrong* result: the cache layer
            # cannot reject it as corrupt, only the audit can catch it.
            poisoned = dataclasses.replace(
                baseline[0], total_steps=baseline[0].total_steps + 1
            )
            cache.put(specs[0], poisoned)
        warm = run_trials(specs, jobs=1, cache=cache)
        cache.close()
    for label, results in (("cold", cold), ("warm", warm)):
        for index, (spec, expected, got) in enumerate(
            zip(specs, baseline, results)
        ):
            if expected != got:
                outcome.divergences.append(
                    Divergence(
                        pair="cache",
                        case=case,
                        seed=seed,
                        kind="result",
                        detail=(
                            f"spec #{index}: {label}-cache result differs "
                            f"from direct execution"
                        ),
                        spec=dict(
                            dataclasses.asdict(spec), kind=spec.kind
                        ),
                        fields=diff_result_fields(expected, got),
                    )
                )
    return outcome


# -- shared memory vs ABD-emulated registers ---------------------------------


def _is_phase1_cell(key) -> bool:
    """Is ``key`` a snapshot cell of a converge phase-1 object (``cvA``)?"""
    return (
        isinstance(key, tuple)
        and len(key) == 3
        and key[1] == "snapcell"
        and isinstance(key[0], tuple)
        and bool(key[0])
        and key[0][-1] == "cvA"
    )


class _AckCorruptingNetwork:
    """Subclass factory: forge ABD read-acks for phase-1 cells.

    Every ``abd-read-ack`` for a ``cvA`` snapshot cell is rewritten to
    report the same forged cell — a huge tag (so the lie wins every
    quorum max) carrying a value outside the input set (so C-Validity
    must notice).  Scans then see only the lie, it becomes the smallest
    ok-proposal set, and the pick violates validity deterministically.
    """

    @staticmethod
    def build(network_cls):
        class Corrupting(network_cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._ack_corrupted = False

            def send(self, sender, dest, payload, now, extra_delay=0):
                if (
                    isinstance(payload, tuple)
                    and len(payload) == 5
                    and payload[0] == "abd-read-ack"
                    and _is_phase1_cell(payload[2])
                ):
                    self._ack_corrupted = True
                    # (seq, value) is the register-snapshot cell format;
                    # a constant huge seq keeps scans from retrying.
                    payload = (
                        payload[0],
                        payload[1],
                        payload[2],
                        (10**6, 0),
                        (10**6, "!corrupted"),
                    )
                super().send(sender, dest, payload, now, extra_delay)

        return Corrupting


#: The schedule-independent projection of a converge run's contract —
#: the only keys comparable across substrates.  ``distinct_picked`` and
#: ``all_committed`` are legitimate observations of *one* run but depend
#: on the interleaving, which necessarily differs between a
#: native-register run and the ABD emulation (C-Agreement only bounds
#: distinct picks when some process commits; both 1 and 2 distinct
#: picks are legal outcomes of the same k=2 instance).
_CONTRACT_INVARIANTS = ("decided", "clean")


def _converge_contract(
    sim, k: int, inputs: Dict[int, str]
) -> Tuple[Dict[str, Any], List[str]]:
    """The output contract both substrates must satisfy, plus breaches.

    Only the :data:`_CONTRACT_INVARIANTS` keys of the returned dict are
    cross-substrate comparable; the rest are per-run diagnostics."""
    from ..mc.properties import (
        ConvergeAgreementProperty,
        ConvergeValidityProperty,
    )

    violations: List[str] = []
    for adapter in (
        ConvergeAgreementProperty(k),
        ConvergeValidityProperty(inputs),
    ):
        reason = adapter.check_run(sim)
        if reason:
            violations.append(f"{adapter.name}: {reason}")
    decided = sim.all_correct_decided()
    if not decided:
        violations.append(f"termination: undecided after {sim.time} steps")
    decisions = sim.decisions()
    picked = sorted({repr(v[0]) for v in decisions.values()})
    committed = sorted({bool(v[1]) for v in decisions.values()})
    contract = {
        "decided": decided,
        "distinct_picked": len(picked),
        "all_committed": committed == [True],
        "clean": not violations,
    }
    return contract, violations


def _run_converge_shared(n: int, k: int, inputs, pattern, seed: int):
    from ..core.converge import ConvergeInstance
    from ..runtime.ops import Decide
    from ..runtime.process import System
    from ..runtime.scheduler import RandomScheduler
    from ..runtime.simulation import Simulation

    system = System(n)

    def protocol(ctx, value):
        instance = ConvergeInstance(("audit", "conv"), k, n)
        picked, committed = yield from instance.converge(ctx, value)
        yield Decide((picked, committed))

    sim = Simulation(system, protocol, inputs=inputs, pattern=pattern)
    sim.run(
        max_steps=200_000,
        scheduler=RandomScheduler(seed),
        stop_when=Simulation.all_correct_decided,
    )
    return sim


def _run_converge_abd(
    n: int, k: int, quorum: int, inputs, pattern, seed: int,
    corrupt_ack: bool = False,
):
    from ..core.converge import ConvergeInstance
    from ..messaging.abd import AbdRegisters, abd_snapshot_api
    from ..messaging.network import Network
    from ..runtime.ops import Decide
    from ..runtime.process import System
    from ..runtime.scheduler import RandomScheduler
    from ..runtime.simulation import Simulation

    system = System(n)
    network_cls = Network
    if corrupt_ack:
        network_cls = _AckCorruptingNetwork.build(Network)
    network = network_cls(system, seed=seed + 101, max_delay=3)

    def protocol(ctx, value):
        abd = AbdRegisters(ctx, quorum=quorum)
        instance = ConvergeInstance(
            ("audit", "conv"), k, n,
            snapshot_factory=lambda name, cells: abd_snapshot_api(
                abd, name, cells
            ),
        )
        picked, committed = yield from instance.converge(ctx, value)
        yield Decide((picked, committed))
        yield from abd.serve()

    sim = Simulation(
        system, protocol, inputs=inputs, pattern=pattern, network=network
    )
    sim.run(
        max_steps=400_000,
        scheduler=RandomScheduler(seed),
        stop_when=Simulation.all_correct_decided,
    )
    return sim


def _substrate(case: int, seed: int, sabotage: str) -> CaseOutcome:
    from ..failures.environment import Environment
    from ..failures.pattern import FailurePattern
    from ..runtime.process import System

    rng = _case_rng("substrate", seed, case)
    n = rng.choice((3, 4, 5))
    f_eff = (n - 1) // 2
    quorum = n - f_eff
    k = max(1, f_eff)
    inputs = {p: f"v{p % k}" for p in System(n).pids}
    run_seed = rng.randrange(1_000_000)
    if f_eff > 0 and rng.random() < 0.5:
        pattern = Environment(System(n), f_eff).random_pattern(
            rng, max_crash_time=60
        )
    else:
        pattern = FailurePattern.failure_free(System(n))

    shared = _run_converge_shared(n, k, inputs, pattern, run_seed)
    abd = _run_converge_abd(
        n, k, quorum, inputs, pattern, run_seed,
        corrupt_ack=(sabotage == "abd-ack"),
    )
    shared_contract, shared_violations = _converge_contract(
        shared, k, inputs
    )
    abd_contract, abd_violations = _converge_contract(abd, k, inputs)

    outcome = CaseOutcome(trials=PAIRS_PER_CASE["substrate"])
    shared_inv = {key: shared_contract[key] for key in _CONTRACT_INVARIANTS}
    abd_inv = {key: abd_contract[key] for key in _CONTRACT_INVARIANTS}
    if shared_inv != abd_inv or shared_violations or abd_violations:
        details = "; ".join(shared_violations + abd_violations) or (
            "contract projections differ"
        )
        outcome.divergences.append(
            Divergence(
                pair="substrate",
                case=case,
                seed=seed,
                kind="contract",
                detail=(
                    f"converge n={n} k={k}: shared memory vs ABD — {details}"
                ),
                spec={
                    "n_processes": n, "k": k, "quorum": quorum,
                    "seed": run_seed,
                    "crashes": sorted(
                        (p, t) for p, t in pattern.crashes.items()
                    ) if getattr(pattern, "crashes", None) else [],
                },
                fields=[
                    [key, repr(shared_contract.get(key)),
                     repr(abd_contract.get(key))]
                    for key in sorted(
                        set(shared_contract) | set(abd_contract)
                    )
                    if shared_contract.get(key) != abd_contract.get(key)
                ],
            )
        )

    # Second comparison: the ABD path must be deterministic in its seed.
    abd_again = _run_converge_abd(
        n, k, quorum, inputs, pattern, run_seed,
        corrupt_ack=(sabotage == "abd-ack"),
    )
    if (
        abd.decisions() != abd_again.decisions()
        or abd.time != abd_again.time
    ):
        outcome.divergences.append(
            Divergence(
                pair="substrate",
                case=case,
                seed=seed,
                kind="result",
                detail=(
                    f"ABD converge n={n} seed={run_seed} is not "
                    f"deterministic across identical runs"
                ),
                fields=[
                    ["decisions", repr(abd.decisions()),
                     repr(abd_again.decisions())],
                    ["total_steps", repr(abd.time), repr(abd_again.time)],
                ],
            )
        )
    return outcome


# -- live run vs recorded-schedule replay ------------------------------------

_REPLAY_FAMILIES = ("fig1", "fig2", "converge")


def _replay(case: int, seed: int, sabotage: str) -> CaseOutcome:
    from ..analysis.trace_io import trace_to_dict
    from ..mc.fingerprint import fingerprint
    from ..mc.instances import McInstance, build_simulation, resolve_instance
    from ..runtime.scheduler import RandomScheduler

    rng = _case_rng("replay", seed, case)
    protocol = rng.choice(_REPLAY_FAMILIES)
    n = rng.choice((2, 3))
    crashes: Tuple[Tuple[int, int], ...] = ()
    if n > 2 and rng.random() < 0.4:
        crashes = ((rng.randrange(n), rng.choice((0, 2, 5))),)
    instance = resolve_instance(
        McInstance(
            protocol=protocol,
            n_processes=n,
            f=1 if protocol in ("fig2", "converge") else None,
            crashes=crashes,
            stabilization_time=rng.choice((0, 3)),
            noise_seed=rng.randrange(1_000),
        )
    )
    run_seed = rng.randrange(1_000_000)

    live = build_simulation(instance)
    live.run(max_steps=200, scheduler=RandomScheduler(run_seed))
    schedule = [step.pid for step in live.trace.steps]

    replayed = build_simulation(instance)
    replayed.run_script(schedule)

    outcome = CaseOutcome(trials=PAIRS_PER_CASE["replay"])
    trace_diff = first_trace_divergence(live.trace, replayed.trace)
    fp_live, fp_replay = fingerprint(live), fingerprint(replayed)
    if trace_diff is not None or fp_live != fp_replay:
        kind = "trace" if trace_diff is not None else "fingerprint"
        divergence = Divergence(
            pair="replay",
            case=case,
            seed=seed,
            kind=kind,
            detail=(
                f"{instance.describe()} seed={run_seed}: live run and "
                f"schedule replay disagree"
            ),
            fingerprint_a=fp_live,
            fingerprint_b=fp_replay,
            instance=instance.to_dict(),
            schedule=schedule,
        )
        if trace_diff is not None:
            divergence.first_step = trace_diff[0]
            divergence.step_a = trace_diff[1]
            divergence.step_b = trace_diff[2]
        divergence.shrunk_schedule = shrink_replay_schedule(
            instance.to_dict(), schedule
        )
        outcome.divergences.append(divergence)
    return outcome


# -- zero-severity chaos vs no chaos ------------------------------------------


class _StepLog:
    """Records every ``StepTaken`` a run publishes; quacks like a trace
    for :func:`~repro.audit.diff.first_trace_divergence`."""

    def __init__(self, bus) -> None:
        from ..obs.events import StepTaken

        self.steps: List[Any] = []
        bus.subscribe(self.steps.append, (StepTaken,))


def _chaos_zero(case: int, seed: int, sabotage: str) -> CaseOutcome:
    from ..analysis.sweeps import protocol_spec
    from ..chaos.config import ChaosConfig
    from ..obs.metrics import MetricsCollector
    from ..perf.spec import execute_trial

    rng = _case_rng("chaos-zero", seed, case)
    n_processes = rng.choice((3, 4))
    trial_seed = rng.randrange(1_000_000)
    plain_specs = [
        protocol_spec(rng.choice(("fig1", "fig2")), n_processes, trial_seed,
                      max_steps=60_000),
        protocol_spec("extraction", n_processes, trial_seed,
                      detector=rng.choice(("omega", "omega_n", "diamond_p")),
                      max_steps=20_000),
        protocol_spec("abd-converge", n_processes, trial_seed),
    ]
    outcome = CaseOutcome(trials=PAIRS_PER_CASE["chaos-zero"])
    for plain in plain_specs:
        chaotic = dataclasses.replace(plain, chaos=ChaosConfig(seed=trial_seed))
        runs = []
        for spec in (chaotic, plain):
            collector = MetricsCollector()
            log = _StepLog(collector.bus)
            runs.append((execute_trial(spec, collector=collector), log))
        (result_a, log_a), (result_b, log_b) = runs
        where = (f"{plain.kind} n={n_processes} seed={trial_seed}: "
                 f"zero-severity chaos vs no chaos")
        spec_dict = dict(dataclasses.asdict(chaotic), kind=chaotic.kind)
        if result_a != result_b:
            outcome.divergences.append(Divergence(
                pair="chaos-zero", case=case, seed=seed, kind="result",
                detail=f"{where}: results differ", spec=spec_dict,
                fields=diff_result_fields(result_a, result_b),
            ))
        trace_diff = first_trace_divergence(log_a, log_b)
        if trace_diff is not None:
            outcome.divergences.append(Divergence(
                pair="chaos-zero", case=case, seed=seed, kind="trace",
                detail=f"{where}: traces differ step for step",
                spec=spec_dict, first_step=trace_diff[0],
                step_a=trace_diff[1], step_b=trace_diff[2],
            ))
    return outcome


# -- faulty infrastructure vs pristine serial --------------------------------


def _faulty_infra(case: int, seed: int, sabotage: str) -> CaseOutcome:
    """One crash-consistency run of the farm under an infra fault plan.

    The checker drains a small seeded grid through a fault-injected
    worker (lock storms on every guarded store op, a torn-process kill
    at a seeded barrier, cache ENOSPC) plus a pristine finisher, then
    asserts the store's exactly-once invariants against a serial
    baseline.  Every violated invariant surfaces as one ``"contract"``
    divergence.  ``sabotage="infra-dup"`` duplicates a ``done`` row in
    the drained store — the self-test proving the oracle can fail.
    """
    from ..chaos.infra import CrashConsistencyChecker
    from ..perf.spec import SetAgreementTrialSpec

    rng = _case_rng("faulty-infra", seed, case)
    count = PAIRS_PER_CASE["faulty-infra"]
    specs = [
        SetAgreementTrialSpec(
            n_processes=3,
            f=1,
            seed=rng.randrange(1_000_000),
            stabilization_time=rng.choice((0, 8)),
            max_steps=200_000,
        )
        for _ in range(count)
    ]
    checker = CrashConsistencyChecker(
        specs,
        runs=1,
        seed=rng.randrange(1_000_000),
        severity=rng.choice(("light", "max")),
        sabotage="duplicate-done" if sabotage == "infra-dup" else "",
    )
    report = checker.run()
    outcome = CaseOutcome(trials=count)
    for violation in report.violations:
        outcome.divergences.append(
            Divergence(
                pair="faulty-infra",
                case=case,
                seed=seed,
                kind="contract",
                detail=(
                    f"{violation.kind}"
                    + (f" at position {violation.position}"
                       if violation.position >= 0 else "")
                    + f": {violation.detail}"
                ),
                spec={
                    "kind": "faulty-infra",
                    "severity": report.severity,
                    "checker_seed": report.seed,
                    "trials": report.trials_per_run,
                },
            )
        )
    return outcome


_ORACLES = {
    "serial-parallel": _serial_parallel,
    "cache": _cache,
    "substrate": _substrate,
    "replay": _replay,
    "chaos-zero": _chaos_zero,
    "faulty-infra": _faulty_infra,
}
