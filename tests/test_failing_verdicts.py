"""Failing verdicts are pinned, word for word.

``test_trial_digest.py`` pins passing trials; these pin what the verdict
path reports when a run fails: the ``violations`` text of trials starved
of steps, the properties a :class:`~repro.tasks.Verdict` names on broken
hand-built runs, and the failure kinds the stress campaign gives an
ablated protocol.  Except where a test says otherwise, the values were
recorded before the decision tasks moved onto the shared property
adapters, and must not move.
"""

import pytest

from repro.analysis.stress import run_campaign
from repro.core.ablations import (
    NaiveConvergeInstance,
    make_gladiators_only_set_agreement,
)
from repro.detectors import UpsilonFSpec, UpsilonSpec
from repro.failures import FailurePattern
from repro.perf import ConvergeTrialSpec, SetAgreementTrialSpec, execute_trial
from repro.runtime import Decide, Nop, RandomScheduler, Simulation, System
from repro.tasks import ConsensusSpec, SetAgreementSpec

STARVED = [
    (ConvergeTrialSpec(3, 0, max_steps=40),
     "ConvergeResult(n_processes=3, f=1, seed=0, faulty=1, total_steps=40, "
     "last_decision_time=-1, violations='termination: correct processes "
     "undecided after 40 steps')"),
    (ConvergeTrialSpec(5, 2, max_steps=120),
     "ConvergeResult(n_processes=5, f=2, seed=2, faulty=1, total_steps=120, "
     "last_decision_time=-1, violations='termination: correct processes "
     "undecided after 120 steps')"),
    (SetAgreementTrialSpec(3, 2, 0, 0, max_steps=12),
     "SetAgreementResult(n_processes=3, f=2, seed=0, stabilization_time=0, "
     "faulty=0, total_steps=12, last_decision_time=7, distinct_decisions=1, "
     "rounds=1, ok=False, violations='termination: correct processes "
     "undecided after 12 steps')"),
    (SetAgreementTrialSpec(4, 3, 1, 100, max_steps=60),
     "SetAgreementResult(n_processes=4, f=3, seed=1, stabilization_time=100, "
     "faulty=1, total_steps=60, last_decision_time=57, distinct_decisions=1, "
     "rounds=2, ok=False, violations='termination: correct processes "
     "undecided after 60 steps')"),
    (SetAgreementTrialSpec(4, 1, 2, 0, max_steps=80),
     "SetAgreementResult(n_processes=4, f=1, seed=2, stabilization_time=0, "
     "faulty=0, total_steps=80, last_decision_time=-1, distinct_decisions=0, "
     "rounds=2, ok=False, violations='termination: correct processes "
     "undecided after 80 steps')"),
    (SetAgreementTrialSpec(3, 2, 3, 300, adversarial=True, max_steps=200),
     "SetAgreementResult(n_processes=3, f=2, seed=3, stabilization_time=300, "
     "faulty=0, total_steps=200, last_decision_time=-1, "
     "distinct_decisions=0, rounds=1, ok=False, violations='termination: "
     "correct processes undecided after 200 steps')"),
]


@pytest.mark.parametrize("spec,expected", STARVED)
def test_starved_trial_results_are_pinned(spec, expected):
    result = execute_trial(spec)
    assert not result.ok
    assert repr(result) == expected


def _decide(value):
    def protocol(ctx, _):
        yield Decide(value)

    return protocol


def _decide_own(ctx, value):
    yield Decide(value)


def _never_decide(ctx, _):
    while True:
        yield Nop()


def _run(protocols, inputs, pattern=None, steps=1000):
    sim = Simulation(System(3), protocols, inputs=inputs, pattern=pattern)
    sim.run(max_steps=steps, scheduler=RandomScheduler(1),
            stop_when=Simulation.all_correct_decided)
    return sim


OWN = {p: f"v{p}" for p in range(3)}
SAME = {p: "v" for p in range(3)}

#: (spec, protocols, inputs, crashes, steps, props, props with
#: termination waived) — each broken property is named once.
BROKEN_RUNS = {
    "too-many-values": (
        SetAgreementSpec(2), _decide_own, OWN, None, 1000,
        ["Agreement"], ["Agreement"]),
    "consensus": (
        ConsensusSpec(), _decide_own, OWN, None, 1000,
        ["Agreement"], ["Agreement"]),
    "one-undecided": (
        SetAgreementSpec(3),
        {0: _decide("v"), 1: _decide("v"), 2: _never_decide}, SAME,
        None, 200, ["Termination"], []),
    "every-property": (
        SetAgreementSpec(1),
        {0: _decide("x"), 1: _decide_own, 2: _never_decide}, OWN,
        None, 100, ["Agreement", "Termination", "Validity"],
        ["Agreement", "Validity"]),
    "faulty-inventor": (
        SetAgreementSpec(3),
        {0: _decide("x"), 1: _decide_own, 2: _decide_own}, OWN,
        {2: 0}, 1000, ["Validity"], ["Validity"]),
}


@pytest.mark.parametrize("name", sorted(BROKEN_RUNS))
def test_verdict_props_and_count_on_broken_runs(name):
    spec, protocols, inputs, crashes, steps, props, waived = \
        BROKEN_RUNS[name]
    pattern = FailurePattern.crash_at(System(3), crashes) if crashes \
        else None
    sim = _run(protocols, inputs, pattern, steps)
    verdict = spec.check(sim, inputs)
    assert sorted(v.prop for v in verdict.violations) == props
    assert sorted(
        v.prop for v in spec.check(
            sim, inputs, require_termination=False).violations
    ) == waived


@pytest.mark.parametrize("protocols,inputs,steps,prop", [
    (_decide("invented"), OWN, 1000, "Validity"),
    ({0: _decide("v"), 1: _never_decide, 2: _never_decide}, SAME, 100,
     "Termination"),
])
def test_a_property_broken_by_several_processes_is_named_once(
    protocols, inputs, steps, prop
):
    # The per-process checkers this replaced named it once per offending
    # process (three Validity entries, two Termination entries).
    sim = _run(protocols, inputs, steps=steps)
    verdict = SetAgreementSpec(3).check(sim, inputs)
    assert [v.prop for v in verdict.violations] == [prop]


def _detector(system, env):
    return UpsilonFSpec(env) if env.f < system.n else UpsilonSpec(system)


def test_campaign_failure_kinds_on_ablated_protocols():
    liveness = run_campaign(
        lambda system, f: make_gladiators_only_set_agreement(),
        lambda system, f: SetAgreementSpec(f), _detector, trials=6, seed=3,
        wait_free_only=True, system_sizes=(3,), max_steps=20_000,
    )
    assert [(f.config.trial, f.kind, f.detail) for f in liveness.failures] \
        == [(5, "no-termination", "budget 20000 exhausted at t=20000")]

    def naive_decider(system, f):
        def protocol(ctx, value):
            instance = NaiveConvergeInstance("c", 1, ctx.system.n_processes)
            picked, _committed = yield from instance.converge(ctx, value)
            yield Decide(picked)

        return protocol

    safety = run_campaign(
        naive_decider, lambda system, f: SetAgreementSpec(1), _detector,
        trials=12, seed=4, wait_free_only=True, system_sizes=(3, 4),
        max_steps=50_000,
    )
    assert [(f.config.trial, f.kind) for f in safety.failures] == [
        (trial, "violation") for trial in (0, 2, 3, 4, 6, 7, 8, 9, 10)
    ]
    assert all(f.detail.startswith("Agreement: ") for f in safety.failures)
