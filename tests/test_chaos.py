"""Tests for the chaos layer: lying histories, faulty network, scheduler.

The central claim under test: every injector stays *inside* the paper's
model (finite lying prefix, ABD-safe message faults, bounded unfairness),
so the protocols must keep their properties even at maximum severity.
Chaotic trials are the ordinary trial specs with a ``chaos`` field, run by
the ordinary drivers.
"""

import dataclasses
import pickle
import random

import pytest

from repro.analysis import PROTOCOLS, protocol_spec
from repro.chaos import (
    ChaosConfig,
    ChaosScheduler,
    FaultyNetwork,
    LyingHistory,
    chaotic_history,
    injection_counts,
    quorum_critical,
    worst_lie,
)
from repro.detectors import UpsilonSpec, detector_names, make_detector
from repro.failures import Environment
from repro.messaging.network import Network
from repro.perf import (
    ConvergeTrialSpec,
    SabotagedSpec,
    SetAgreementTrialSpec,
    execute_trial,
    spec_key,
)
from repro.runtime import RandomScheduler, System


def _pattern(system, rng, f=None):
    env = (
        Environment.wait_free(system) if f is None
        else Environment(system, f)
    )
    return env, env.random_pattern(rng, max_crash_time=40)


class TestChaosConfig:
    def test_rejects_out_of_range_rates(self):
        with pytest.raises(ValueError):
            ChaosConfig(drop_rate=1.5)
        with pytest.raises(ValueError):
            ChaosConfig(duplicate_rate=-0.1)
        with pytest.raises(ValueError):
            ChaosConfig(lying_prefix=-1)

    def test_scheduler_knobs_must_respect_fairness_bound(self):
        with pytest.raises(ValueError):
            ChaosConfig(burst_length=64, fairness_bound=64)
        with pytest.raises(ValueError):
            ChaosConfig(starvation_window=10, fairness_bound=10)

    def test_any_active_and_round_trip(self):
        assert not ChaosConfig().any_active
        chaos = ChaosConfig.max_severity(seed=5)
        assert chaos.any_active
        assert ChaosConfig.from_dict(chaos.to_dict()) == chaos


class TestLyingHistory:
    def test_lies_then_delegates(self):
        system = System(4)
        rng = random.Random(0)
        _, pattern = _pattern(system, rng)
        spec = UpsilonSpec(system)
        chaos = ChaosConfig(seed=3, lying_prefix=25)
        history = chaotic_history(
            spec, pattern, chaos, spec.sample_history(pattern, rng)
        )
        assert isinstance(history, LyingHistory)
        pool = set(spec.noise_pool(pattern))
        for pid in system.pids:
            for t in range(25):
                assert history.value(pid, t) in pool
            for t in range(25, 60):
                assert history.value(pid, t) == history.inner.value(pid, t)
        assert history.stable_value == history.inner.stable_value
        assert "lying" in history.describe()

    def test_zero_prefix_is_exactly_sample_history(self):
        # The wrapper stays installed at zero severity, and delegates
        # every query to the sampled history it wraps.
        system = System(3)
        rng = random.Random(1)
        _, pattern = _pattern(system, rng)
        spec = UpsilonSpec(system)
        inner = spec.sample_history(pattern, rng, stabilization_time=30)
        history = chaotic_history(spec, pattern, ChaosConfig(), inner)
        assert isinstance(history, LyingHistory)
        for pid in system.pids:
            for t in range(60):
                assert history.value(pid, t) == inner.value(pid, t)

    def test_worst_lie_for_upsilon_is_the_correct_set(self):
        system = System(4)
        rng = random.Random(2)
        _, pattern = _pattern(system, rng)
        spec = UpsilonSpec(system)
        assert worst_lie(spec, pattern) == frozenset(pattern.correct)

    @pytest.mark.parametrize(
        "name", [n for n in detector_names() if n != "dummy"]
    )
    def test_composes_over_registry_detectors(self, name):
        # The lie only ever draws from the detector's own noise pool and
        # the post-prefix part is a legal stable history, so the composed
        # history is in D(F) for every registry detector.
        system = System(4)
        rng = random.Random(7)
        env = Environment(system, 2)
        spec = make_detector(name, env)
        pattern = env.random_pattern(rng, max_crash_time=40)
        chaos = ChaosConfig(seed=1, lying_prefix=30)
        history = chaotic_history(
            spec, pattern, chaos, spec.sample_history(pattern, rng)
        )
        pool = set(spec.noise_pool(pattern))
        worst = worst_lie(spec, pattern)
        allowed = pool | ({worst} if worst is not None else set())
        for pid in system.pids:
            for t in range(30):
                assert history.value(pid, t) in allowed
        # Replays identically (same contract as StableHistory noise).
        assert [history.value(0, t) for t in range(30)] == [
            history.value(0, t) for t in range(30)
        ]


class TestFaultyNetworkEnvelope:
    def test_quorum_critical_classification(self):
        assert quorum_critical(("abd-read", 1, 2))
        assert quorum_critical(("abd-write-ack", 0))
        assert not quorum_critical(("gossip", 1))
        assert not quorum_critical("abd-read")
        assert not quorum_critical(())

    def test_acks_are_never_dropped_or_duplicated(self):
        system = System(5)
        chaos = ChaosConfig(seed=0, drop_rate=1.0, duplicate_rate=1.0)
        net = FaultyNetwork(system, chaos=chaos)
        for i in range(50):
            net.send(0, 1, ("abd-read-ack", i), now=i)
        assert net.sent_count == 50          # every ack went through
        assert net.pending(1) == 50          # exactly one copy each
        assert net.dropped_count == 0
        assert net.duplicated_count == 0

    def test_noncritical_unicasts_fault_freely(self):
        system = System(5)
        chaos = ChaosConfig(seed=0, drop_rate=1.0)
        net = FaultyNetwork(system, chaos=chaos)
        for i in range(50):
            net.send(0, 1, ("gossip", i), now=i)
        assert net.pending(1) == 0
        assert net.dropped_count == 50

    def test_critical_broadcast_keeps_a_quorum(self):
        system = System(5)
        n = system.n_processes
        quorum = 3
        chaos = ChaosConfig(seed=0, drop_rate=1.0)
        net = FaultyNetwork(system, chaos=chaos, quorum=quorum)
        for i in range(20):
            net.broadcast(0, ("abd-write", i, "v"), now=i)
            delivered = sum(net.pending(dest) for dest in system.pids)
            # At drop_rate=1.0 the budget is spent exactly: per broadcast,
            # `quorum` copies survive out of n.
            assert delivered == (i + 1) * quorum
        assert net.dropped_count == 20 * (n - quorum)

    def test_crashed_destinations_do_not_eat_the_budget(self):
        system = System(5)
        quorum = 3
        protected = frozenset({0, 1, 2})    # the correct set
        chaos = ChaosConfig(seed=0, drop_rate=1.0)
        net = FaultyNetwork(
            system, chaos=chaos, quorum=quorum, protected=protected
        )
        net.broadcast(0, ("abd-read", 0), now=0)
        # All 3 protected copies must survive (budget = 3 - 3 = 0); the
        # 2 unprotected copies are always droppable.
        assert sum(net.pending(dest) for dest in protected) == 3
        assert net.dropped_count == 2

    def test_zero_severity_matches_pristine_network(self):
        system = System(4)
        plain = Network(system, seed=9, max_delay=3)
        chaotic = FaultyNetwork(
            system, seed=9, max_delay=3, chaos=ChaosConfig()
        )
        rng = random.Random(4)
        for i in range(60):
            sender = rng.randrange(4)
            dest = rng.randrange(4)
            plain.send(sender, dest, ("m", i), now=i)
            chaotic.send(sender, dest, ("m", i), now=i)
        for dest in system.pids:
            assert plain.deliver(dest, 100) == chaotic.deliver(dest, 100)

    def test_duplicates_add_extra_copies(self):
        system = System(3)
        chaos = ChaosConfig(seed=0, duplicate_rate=1.0)
        net = FaultyNetwork(system, chaos=chaos)
        for i in range(20):
            net.send(0, 1, ("gossip", i), now=i)
        assert net.duplicated_count == 20
        assert net.pending(1) == 40          # original + one copy each


class TestChaosScheduler:
    def test_fairness_bound_holds_under_max_mischief(self):
        chaos = ChaosConfig(
            seed=1, burst_length=12, starvation_window=12, fairness_bound=24
        )
        scheduler = ChaosScheduler(RandomScheduler(0), chaos)
        eligible = [0, 1, 2, 3]
        waits = {p: 0 for p in eligible}
        for t in range(5_000):
            pid = scheduler.choose(t, eligible)
            assert pid in eligible
            for p in eligible:
                waits[p] = 0 if p == pid else waits[p] + 1
                assert waits[p] <= chaos.fairness_bound
        assert scheduler.bursts_started > 0
        assert scheduler.starvations_started > 0

    def test_zero_knobs_delegate_to_inner(self):
        chaos = ChaosConfig(seed=1)
        inner = RandomScheduler(5)
        reference = RandomScheduler(5)
        scheduler = ChaosScheduler(inner, chaos)
        eligible = [0, 1, 2]
        for t in range(500):
            assert scheduler.choose(t, eligible) == reference.choose(
                t, eligible
            )
        assert scheduler.bursts_started == 0
        assert scheduler.starvations_started == 0


class TestChaosTrials:
    def test_spec_is_picklable_and_validates(self):
        spec = protocol_spec(
            "fig1", 3, 0, chaos=ChaosConfig(seed=0, lying_prefix=10)
        )
        assert pickle.loads(pickle.dumps(spec)) == spec
        with pytest.raises(ValueError):
            protocol_spec("nope", 3, 0)

    def test_spec_from_chaos_round_trips_the_knobs(self):
        chaos = ChaosConfig.max_severity(seed=4)
        spec = protocol_spec("fig2", 4, 4, chaos=chaos)
        assert spec.chaos == chaos
        assert pickle.loads(pickle.dumps(spec)).chaos == chaos
        plain = dataclasses.replace(spec, chaos=None)
        assert spec_key(spec) != spec_key(plain)
        assert spec_key(spec) != spec_key(
            dataclasses.replace(spec, chaos=ChaosConfig(seed=4))
        )

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_properties_survive_max_severity(self, protocol):
        # The acceptance bar: with every injector at its harshest, the
        # paper's protocols still satisfy k-agreement, validity, and
        # termination — chaos stays inside the model by construction.
        spec = protocol_spec(
            protocol, 4, 3, chaos=ChaosConfig.max_severity(seed=3),
            max_steps=400_000,
        )
        result = execute_trial(spec)
        assert result.ok, result

    def test_abd_converge_reports_network_faults(self):
        spec = ConvergeTrialSpec(5, 1, chaos=ChaosConfig(
            seed=1, lying_prefix=20, drop_rate=0.4, reorder_rate=0.4,
        ))
        result = execute_trial(spec)
        assert result.ok, result.violations
        counts = injection_counts(result.metrics)
        assert counts["messages_dropped"] > 0
        assert counts["messages_delayed"] > 0

    def test_trials_are_deterministic(self):
        spec = SetAgreementTrialSpec(4, 2, 6, 0, chaos=ChaosConfig(
            seed=6, lying_prefix=40,
            burst_length=8, starvation_window=8, fairness_bound=32,
        ))
        assert execute_trial(spec) == execute_trial(spec)

    def test_chaos_events_reach_the_collector(self):
        from repro.obs import MetricsCollector

        collector = MetricsCollector()
        spec = ConvergeTrialSpec(4, 2, chaos=ChaosConfig(
            seed=2, drop_rate=0.5, reorder_rate=0.5, burst_length=8,
        ))
        result = execute_trial(spec, collector=collector)
        assert result.ok, result.violations
        injections = collector.snapshot()["counters"]["chaos_injections"]
        # One announcement per active knob, then one event per burst.
        assert {k: injections[k] for k in
                ("drop_rate", "reorder_rate", "burst_length")} == \
            {"drop_rate": 1, "reorder_rate": 1, "burst_length": 1}
        counts = injection_counts(result.metrics)
        assert counts["bursts"] == injections.get("burst", 0) > 0
        assert counts["messages_dropped"] > 0

    def test_sabotage_modes(self, tmp_path):
        spec = protocol_spec("fig1", 3, 0)
        with pytest.raises(RuntimeError):
            execute_trial(SabotagedSpec(spec, "raise"))
        with pytest.raises(ValueError):
            SabotagedSpec(spec, "explode")
        marker = tmp_path / "flake.marker"
        flaky = SabotagedSpec(spec, f"raise-once:{marker}")
        with pytest.raises(RuntimeError):
            execute_trial(flaky)           # first attempt flakes…
        assert execute_trial(flaky).ok     # …second succeeds


class TestChaosGrid:
    def test_grid_shape_and_validation(self):
        from repro.analysis import EmptySweepError, chaos_grid

        specs = chaos_grid(
            ["fig1", "fig2"], [3, 4], [0, 1],
            lying_prefixes=[0, 30], drop_rates=[0.0],
        )
        assert len(specs) == 2 * 2 * 2 * 2
        assert all(isinstance(s, SetAgreementTrialSpec) for s in specs)
        assert all(s.chaos.seed == s.seed for s in specs)
        assert {s.chaos.lying_prefix for s in specs} == {0, 30}
        with pytest.raises(EmptySweepError):
            chaos_grid(["not-a-protocol"], [3], [0])
        with pytest.raises(EmptySweepError):
            chaos_grid(["fig1"], [3], [])
        with pytest.raises(ValueError):
            chaos_grid(["fig1"], [3], [0], drop_rates=[2.0])

    def test_sweep_chaos_runs_the_grid(self):
        from repro.analysis import chaos_grid, to_csv
        from repro.perf import run_trials

        results = run_trials(chaos_grid(
            ["fig1"], [3], [0, 1], lying_prefixes=[15],
            drop_rates=[0.0], max_steps=50_000,
        ))
        assert len(results) == 2
        assert all(r.ok for r in results)
        header = to_csv(results).splitlines()[0]
        assert header.startswith("n_processes,f,seed,stabilization_time")

    def test_chaos_specs_flow_through_executor_and_cache(self, tmp_path):
        from repro.perf import TrialCache, run_trials

        cache = TrialCache(tmp_path / "cache")
        specs = [
            protocol_spec("fig1", 3, s,
                          chaos=ChaosConfig(seed=s, lying_prefix=10))
            for s in range(3)
        ]
        first = run_trials(specs, cache=cache)
        again = run_trials(specs, cache=cache)
        assert first == again
        assert cache.hits == 3

    def test_mixed_kind_csv_is_refused(self, tmp_path, capsys):
        from repro.cli import main

        csv = tmp_path / "mixed.csv"
        code = main([
            "sweep", "chaos", "--protocols", "fig1,abd-converge",
            "--sizes", "3", "--seeds", "0", "--lying-prefixes", "0",
            "--drop-rates", "0.0", "--no-cache", "--csv", str(csv),
        ])
        assert code == 2
        assert "mixes" in capsys.readouterr().err
        assert not csv.exists()


def test_chaos_spec_replace_keeps_spec_frozen():
    spec = protocol_spec("fig1", 3, 0, chaos=ChaosConfig())
    sabotaged = SabotagedSpec(spec, "crash")
    assert sabotaged.kind == spec.kind
    assert spec_key(sabotaged) != spec_key(spec)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.seed = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        sabotaged.mode = "raise"
