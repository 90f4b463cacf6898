"""Regression tests for bugs found by the differential audit fuzzer.

Each class pins one shrunken counterexample the audit surfaced, so the
underlying bug stays fixed.  Found with::

    python -m repro audit --budget 2000 --seed 7

Bug 1 (replay oracle): ``Simulation.run_script`` never applied due
crashes.  ``Simulation.run`` applies the failure pattern through
``eligible()`` on every iteration, so a crashed bystander's runtime is
marked ``CRASHED`` during a scheduled run — but a ``run_script`` replay
of the recorded schedule left the same runtime ``RUNNING`` forever.
Traces matched, yet ``repro.mc.fingerprint`` (which hashes runtime
status) disagreed, so live runs and replayed counterexamples of any
crashy instance had different state fingerprints.  The audit shrank the
failure to a single step: ``fig1`` with ``p2`` crashed at t=0 and the
one-step schedule ``[0]``.

Bug 2 (substrate oracle, auditor-side): the cross-substrate contract
comparison demanded equality of ``distinct_picked`` and
``all_committed`` — but those are *observations of one interleaving*,
not invariants.  A native-register run and the ABD emulation of the
same converge instance necessarily interleave differently, and with
k=2 both one and two distinct picks are legal (C-Agreement only bounds
distinct picks when some process commits).  Seed 7 case 58 (n=5, k=2,
failure-free) picked 2 distinct values over shared memory and 1 over
ABD — a false positive.  The oracle now compares only the
schedule-independent projection (``decided`` and ``clean``).
"""

import pytest

from repro.audit import run_case
from repro.audit.diff import replay_disagrees, shrink_replay_schedule
from repro.mc.fingerprint import fingerprint
from repro.mc.instances import McInstance, build_simulation, resolve_instance
from repro.runtime.scheduler import ScriptedScheduler
from repro.runtime.simulation import Simulation
from tests.mc_reference import canonical_state


def _buggy_run_script(self, script):
    # Pre-fix behaviour: bare steps, no crash application.
    for pid in script:
        self.step(pid)


class TestRunScriptAppliesCrashes:
    """The shrunken counterexample: one step, one crashed bystander."""

    INSTANCE = McInstance(
        "fig1", n_processes=3, crashes=((2, 0),),
        stable_value=frozenset({0}),
    )

    def test_replay_marks_crashed_bystander(self):
        sim = build_simulation(self.INSTANCE)
        sim.run_script([0])
        assert canonical_state(sim)["p"]["2"]["st"] == "CRASHED"

    def test_live_and_replay_fingerprints_agree(self):
        live = build_simulation(self.INSTANCE)
        live.run(max_steps=1, scheduler=ScriptedScheduler([0]))
        replayed = build_simulation(self.INSTANCE)
        replayed.run_script([0])
        assert fingerprint(live) == fingerprint(replayed)

    def test_trailing_due_crash_is_applied(self):
        # p2 crashes at t=2; a two-step script ends exactly at t=2 —
        # the crash is due but no further step observes it.
        instance = McInstance(
            "fig1", n_processes=3, crashes=((2, 2),),
            stable_value=frozenset({0}),
        )
        sim = build_simulation(instance)
        sim.run_script([0, 1])
        assert canonical_state(sim)["p"]["2"]["st"] == "CRASHED"

    def test_predicate_reproduces_on_buggy_engine(self, monkeypatch):
        monkeypatch.setattr(Simulation, "run_script", _buggy_run_script)
        sim = build_simulation(self.INSTANCE)
        sim.step(0)
        sim.audit_instance = self.INSTANCE
        assert replay_disagrees(sim)

    def test_shrinker_minimizes_on_buggy_engine(self, monkeypatch):
        monkeypatch.setattr(Simulation, "run_script", _buggy_run_script)
        shrunk = shrink_replay_schedule(self.INSTANCE.to_dict(), [0, 0, 1, 0])
        assert shrunk == [0]


class TestOriginalFuzzCases:
    """The two audit cases (seed 7) that first exposed the bug."""

    @pytest.mark.parametrize("case", [7, 11])
    def test_replay_oracle_clean(self, case):
        outcome = run_case("replay", case, 7)
        assert outcome.ok, [d.describe() for d in outcome.divergences]


class TestSubstrateContractProjection:
    """Bug 2: the substrate oracle must not compare schedule-dependent
    observations across substrates."""

    def test_seed7_case58_is_not_a_divergence(self):
        # The original false positive: distinct_picked 2 (shared) vs 1
        # (ABD) on a failure-free n=5 k=2 instance — both legal.
        outcome = run_case("substrate", 58, 7)
        assert outcome.ok, [d.describe() for d in outcome.divergences]

    def test_invariant_projection_is_what_gets_compared(self):
        from repro.audit.oracles import _CONTRACT_INVARIANTS

        assert "distinct_picked" not in _CONTRACT_INVARIANTS
        assert "all_committed" not in _CONTRACT_INVARIANTS
        assert set(_CONTRACT_INVARIANTS) == {"decided", "clean"}

    def test_real_contract_breaks_still_surface(self):
        # The abd-ack sabotage breaks C-Validity — a genuine invariant —
        # and must keep tripping the weakened comparison.
        outcome = run_case("substrate", 0, 7, sabotage="abd-ack")
        assert not outcome.ok
        assert any(d.kind == "contract" for d in outcome.divergences)

    @pytest.mark.parametrize(
        "crashes", [((2, 0),), ((2, 5),)]
    )
    def test_crashy_fig1_replays_faithfully(self, crashes):
        from repro.runtime.scheduler import RandomScheduler

        instance = resolve_instance(
            McInstance("fig1", n_processes=3, crashes=crashes)
        )
        live = build_simulation(instance)
        live.run(max_steps=200, scheduler=RandomScheduler(468686))
        schedule = [step.pid for step in live.trace.steps]
        replayed = build_simulation(instance)
        replayed.run_script(schedule)
        assert fingerprint(live) == fingerprint(replayed)
