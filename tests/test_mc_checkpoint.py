"""Checkpointed backtracking: restore-vs-replay equivalence.

The journal's claim is strong — restoring a checkpoint leaves the
simulation in *exactly* the state a fresh replay of the same schedule
prefix would build, and the incremental digest after any further steps
matches the from-scratch :func:`~repro.mc.fingerprint.fingerprint`.
These tests pin that claim property-style over the shipped protocol
families, with and without crashes, plus the explorer-level parity
(checkpointing is a cost knob, never a verdict knob).
"""

import gc
import random
import weakref

import pytest

from repro.mc import ExploreConfig, Explorer, McInstance, \
    PropertyAdapter, build_simulation, explore_instance, resolve_instance
from repro.mc.checkpoint import SimulationJournal
from repro.mc.fingerprint import FingerprintError, fingerprint
from repro.runtime import Simulation, System
from repro.runtime.ops import Nop, Read, Write
from repro.runtime.process import ProcessStatus
from tests.mc_reference import canonical_fingerprint


def _fresh(instance):
    return build_simulation(resolve_instance(instance))


def _replay_oracle(instance, schedule):
    """A from-scratch simulation run over ``schedule`` — the ground truth
    a checkpoint restore must be indistinguishable from."""
    sim = _fresh(instance)
    sim.run_script(schedule)
    return sim


def _assert_states_equal(sim, oracle):
    assert {p: r.status for p, r in sim.runtimes.items()} == \
        {p: r.status for p, r in oracle.runtimes.items()}
    assert sim.time == oracle.time
    assert sim.eligible() == oracle.eligible()
    assert fingerprint(sim) == fingerprint(oracle)
    assert canonical_fingerprint(sim) == canonical_fingerprint(oracle)


FAMILIES = [
    McInstance("fig1", n_processes=2),
    McInstance("fig2", n_processes=3, f=1),
    McInstance("extraction", n_processes=2),
    McInstance("fig1", n_processes=3, f=1, crashes=((1, 4),)),
    McInstance("converge", n_processes=2, crashes=((0, 3),)),
]


class TestRestoreEqualsReplay:
    """LIFO checkpoint/restore walks land on replay-identical states."""

    @pytest.mark.parametrize("instance", FAMILIES,
                             ids=lambda i: i.describe())
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_walk_with_backtracking(self, instance, seed):
        rng = random.Random(seed)
        sim = _fresh(instance)
        journal = SimulationJournal(sim)
        schedule = []
        stack = []  # (schedule length, checkpoint) — LIFO, like DFS frames
        for _ in range(60):
            roll = rng.random()
            if roll < 0.2:
                stack.append((len(schedule), journal.checkpoint()))
                continue
            if roll < 0.35 and stack:
                depth, cp = stack.pop()
                journal.restore(cp)
                del schedule[depth:]
                oracle = _replay_oracle(instance, schedule)
                _assert_states_equal(sim, oracle)
                assert journal.digest() == fingerprint(oracle)
                continue
            eligible = sim.eligible()
            if not eligible:
                break
            sim.step(eligible[rng.randrange(len(eligible))])
            schedule.append(sim.trace.steps[-1].pid)
            assert journal.digest() == fingerprint(sim)

    def test_restore_then_branch_differently(self):
        """After a restore, stepping a *different* branch than the one the
        generators originally took must still match the replay oracle —
        the detached-generator rematerialization path."""
        instance = McInstance("fig1", n_processes=2)
        sim = _fresh(instance)
        journal = SimulationJournal(sim)
        cp = journal.checkpoint()
        sim.run_script([0, 0, 1, 0])
        journal.restore(cp)
        sim.run_script([1, 1, 0, 1])
        oracle = _replay_oracle(instance, [1, 1, 0, 1])
        _assert_states_equal(sim, oracle)

    def test_crash_revival(self):
        """Restoring to before a crash revives the process: it steps again
        and its steps match a replayed run."""
        instance = McInstance("fig1", n_processes=3, f=1, crashes=((1, 2),))
        sim = _fresh(instance)
        journal = SimulationJournal(sim)
        cp = journal.checkpoint()
        sim.run_script([0, 2, 0, 2])  # t passes 2: pid 1 crashes
        assert sim.runtimes[1].status is ProcessStatus.CRASHED
        journal.restore(cp)
        assert sim.runtimes[1].status is ProcessStatus.RUNNING
        assert 1 in sim.eligible()
        sim.run_script([1, 0])
        oracle = _replay_oracle(instance, [1, 0])
        _assert_states_equal(sim, oracle)

    def test_memo_serves_revisits_without_generator_replay(self):
        """Re-walking the exact path after a restore is served from the
        per-process history memo — no generator is rebuilt."""
        instance = McInstance("converge", n_processes=2)
        sim = _fresh(instance)
        journal = SimulationJournal(sim)
        cp = journal.checkpoint()
        sim.run_script([0, 1, 0, 1])
        journal.restore(cp)
        before = journal.gen_replays
        sim.run_script([0, 1, 0, 1])  # same observations → memo hits
        assert journal.gen_replays == before
        assert journal.digest() == fingerprint(sim)

    def test_journal_refuses_message_passing_runs(self):
        instance = resolve_instance(McInstance("fig1", n_processes=2))
        sim = build_simulation(instance)
        sim.network = object()  # any non-None network
        with pytest.raises(ValueError):
            SimulationJournal(sim)


class TestExplorerCheckpointing:
    """The DFS explorer backtracks by restore, not replay."""

    def test_dfs_replays_are_zero(self):
        result = explore_instance(
            McInstance("fig1", n_processes=2),
            ExploreConfig(max_depth=12),
        )
        assert result.stats.restores > 0
        assert result.stats.replays == 0
        assert result.stats.replay_steps == 0

    @pytest.mark.parametrize("instance", [
        McInstance("fig1", n_processes=2),
        McInstance("naive-converge", n_processes=2),
        McInstance("fig1", n_processes=3, f=1, crashes=((0, 2),)),
    ], ids=lambda i: i.describe())
    def test_checkpoint_is_a_pure_cost_knob(self, instance):
        """Identical verdicts, counterexamples, and state counts with
        checkpointing on and off."""
        on = explore_instance(instance, ExploreConfig(max_depth=14))
        off = explore_instance(
            instance, ExploreConfig(max_depth=14, checkpoint=False)
        )
        assert on.ok == off.ok
        assert on.stats.states_visited == off.stats.states_visited
        assert on.stats.complete_schedules == off.stats.complete_schedules
        assert [ce.schedule for ce in on.counterexamples] == \
            [ce.schedule for ce in off.counterexamples]
        assert off.stats.restores == 0
        assert on.stats.replays == 0

    def test_a_finished_exploration_keeps_no_run_alive(self):
        """The simulation, its journal and the fingerprint caches are
        garbage once the exploration returns, even while the explorer
        object lives on."""
        runs = []

        class Watch(PropertyAdapter):
            def on_step(self, sim, record):
                if not runs:
                    runs.append(weakref.ref(sim))

        instance = resolve_instance(McInstance("fig1", n_processes=2))
        explorer = Explorer(lambda: build_simulation(instance), [Watch()],
                            ExploreConfig(max_depth=10))
        assert explorer.explore().ok
        gc.collect()
        assert runs[0]() is None


class Tick(Nop):
    """A step the canonical encoder does not know (a ``Nop`` subclass)."""


class Slot:
    """A memory key outside the encoder's domain."""

    def __init__(self, pid):
        self.pid = pid

    def __eq__(self, other):
        return isinstance(other, Slot) and other.pid == self.pid

    def __hash__(self):
        return hash(("slot", self.pid))


def _ticking_sim():
    def protocol(ctx, value):
        for round_ in range(3):
            yield Write(("r", ctx.pid), round_)
            yield Tick()
            yield Read(("r", 1 - ctx.pid))

    return Simulation(System(2), protocol)


def _slot_sim():
    def protocol(ctx, value):
        for round_ in range(3):
            yield Write(("r", ctx.pid), round_)
            yield Read(("r", 1 - ctx.pid))
            yield Write(Slot(ctx.pid), round_)

    return Simulation(System(2), protocol)


class TestUnencodableSteps:
    """An unencodable step turns deduplication off on both backtracking
    paths; it is never reported as an error."""

    @pytest.mark.parametrize("make_sim", [_ticking_sim, _slot_sim],
                             ids=["operation", "memory-key"])
    @pytest.mark.parametrize("checkpoint", [True, False])
    def test_unencodable_step_degrades_to_exploring_without_merging(
        self, checkpoint, make_sim
    ):
        config = ExploreConfig(max_depth=12, checkpoint=checkpoint)
        result = Explorer(make_sim, [], config).explore()
        reference = Explorer(make_sim, [], ExploreConfig(
            max_depth=12, dedup=False, checkpoint=False,
        )).explore()
        assert result.violations == [] == reference.violations
        assert result.stats.states_visited == \
            reference.stats.states_visited

    def test_journal_memo_skips_unencodable_histories(self):
        sim = _ticking_sim()
        journal = SimulationJournal(sim)
        cp = journal.checkpoint()
        sim.run_script([0, 0, 1])
        with pytest.raises(FingerprintError, match="Tick"):
            journal.digest()
        journal.restore(cp)
        assert journal.digest() == fingerprint(sim)
        sim.run_script([0, 0, 1])  # past the Tick, p0's memo misses
        assert journal.gen_replays == 1
        fresh = _ticking_sim()
        fresh.run_script([0, 0, 1])
        assert [(s.pid, s.op, s.response) for s in sim.trace.steps] == \
            [(s.pid, s.op, s.response) for s in fresh.trace.steps]
