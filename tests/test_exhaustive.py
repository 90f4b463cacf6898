"""Exhaustive model checking on small instances.

Random and property-based schedules sample the interleaving space; these
tests *enumerate* it through :class:`repro.mc.Explorer`.  For two-process
protocols the full schedule tree is small enough to check every
interleaving (``dedup=False, por=False`` keeps the historical complete-
schedule counts as anchors); crash times are additionally swept
exhaustively for three processes.
"""

import pytest

from repro.core import ConvergeInstance, make_upsilon_set_agreement
from repro.detectors import ConstantHistory
from repro.failures import FailurePattern
from repro.mc import CallbackProperty, ExploreConfig, Explorer
from repro.memory import check_immediacy, make_immediate_api
from repro.runtime import Decide, RoundRobinScheduler, Simulation, System
from repro.tasks import ConvergeSpec, SetAgreementSpec

#: Full-tree enumeration: no pruning of any kind, so the complete-schedule
#: count is exactly the number of interleavings.
_FULL_TREE = dict(dedup=False, por=False, first_violation=False)


def explore_all_schedules(make_sim, check, max_depth=64):
    """Enumerate every maximal schedule, calling ``check`` on each run.

    Returns the number of complete schedules.  Depth exhaustion fails the
    test — these instances are wait-free, so every branch must terminate
    within the bound.
    """
    explorer = Explorer(
        make_sim,
        [CallbackProperty(check)],
        ExploreConfig(max_depth=max_depth, **_FULL_TREE),
    )
    result = explorer.explore()
    assert result.stats.depth_exhausted == 0, (
        f"schedule exceeded depth {max_depth}: protocol not wait-free "
        "on this instance?"
    )
    assert result.ok, result.violations[0]
    return result.stats.complete_schedules


class TestConvergeExhaustive:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("inputs", [
        {0: "a", 1: "b"},
        {0: "same", 1: "same"},
    ])
    def test_all_two_process_interleavings(self, k, inputs):
        system = System(2)

        def protocol(ctx, value):
            instance = ConvergeInstance("x", k, system.n_processes)
            result = yield from instance.converge(ctx, value)
            yield Decide(result)

        def check(sim):
            decisions = sim.decisions()
            picks = {p for (p, _) in decisions.values()}
            commits = [c for (_, c) in decisions.values()]
            assert picks <= set(inputs.values())           # C-Validity
            if any(commits):
                assert len(picks) <= k                     # C-Agreement
            if len(set(inputs.values())) <= k:
                assert all(commits)                        # Convergence

        def make_sim():
            return Simulation(system, protocol, inputs=inputs)

        # 2 processes × 5 steps each → C(10, 5) = 252 interleavings.
        count = explore_all_schedules(make_sim, check)
        assert count == 252

    def test_dedup_explores_fewer_states_same_verdict(self):
        """Fingerprint sharing covers the same tree with far fewer runs."""
        system = System(2)
        inputs = {0: "a", 1: "b"}

        def protocol(ctx, value):
            instance = ConvergeInstance("x", 1, system.n_processes)
            result = yield from instance.converge(ctx, value)
            yield Decide(result)

        def make_sim():
            return Simulation(system, protocol, inputs=inputs)

        properties = ConvergeSpec(1).properties(inputs)
        full = Explorer(make_sim, properties,
                        ExploreConfig(max_depth=64, **_FULL_TREE)).explore()
        merged = Explorer(make_sim, properties,
                          ExploreConfig(max_depth=64)).explore()
        assert full.ok and merged.ok
        assert merged.stats.states_visited < full.stats.states_visited


class TestImmediateSnapshotExhaustive:
    def test_all_two_process_interleavings(self):
        system = System(2)

        def protocol(ctx, value):
            api = make_immediate_api("obj", system.n_processes, True)
            view = yield from api.write_and_scan(ctx.pid, value)
            yield Decide(view)

        def check(sim):
            views = {p: r.decision for p, r in sim.runtimes.items()}
            assert check_immediacy(views) == []

        def make_sim():
            return Simulation(system, protocol,
                              inputs={0: "a", 1: "b"})

        count = explore_all_schedules(make_sim, check, max_depth=40)
        assert count > 100  # the level algorithm has data-dependent length


class TestCrashTimeSweep:
    """Every crash time for every victim, under lockstep (Fig. 1)."""

    def test_fig1_single_crash_sweep(self):
        system = System(3)
        inputs = {p: f"v{p}" for p in system.pids}
        checked = 0
        for victim in system.pids:
            for crash_time in range(0, 42, 1):
                pattern = FailurePattern.crash_at(system, {victim: crash_time})
                # A constant legal Υ value for *this* pattern.
                stable = frozenset({victim})  # contains a faulty process,
                # so it can never equal the correct set.
                sim = Simulation(
                    system, make_upsilon_set_agreement(), inputs=inputs,
                    pattern=pattern, history=ConstantHistory(stable),
                )
                sim.run(max_steps=50_000, scheduler=RoundRobinScheduler(),
                        stop_when=Simulation.all_correct_decided)
                assert sim.all_correct_decided(), (
                    f"victim {victim} at t={crash_time} blocked the run"
                )
                SetAgreementSpec(system.n).check(sim, inputs).raise_if_failed()
                checked += 1
        assert checked == 3 * 42

    def test_fig1_two_crash_grid(self):
        """Two victims, a coarse grid of crash-time pairs."""
        system = System(3)
        inputs = {p: f"v{p}" for p in system.pids}
        for t0 in range(0, 30, 6):
            for t1 in range(0, 30, 6):
                pattern = FailurePattern.crash_at(system, {0: t0, 1: t1})
                sim = Simulation(
                    system, make_upsilon_set_agreement(), inputs=inputs,
                    pattern=pattern,
                    history=ConstantHistory(frozenset({0, 1})),
                )
                sim.run(max_steps=50_000, scheduler=RoundRobinScheduler(),
                        stop_when=Simulation.all_correct_decided)
                assert sim.all_correct_decided()
                SetAgreementSpec(system.n).check(sim, inputs).raise_if_failed()
