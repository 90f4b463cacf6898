"""Tests for Fig. 3 — extracting Υf from stable non-trivial detectors
(Theorem 10).

Each run checks the emulated ``Υf-output`` variable: after the source
detector's history stabilizes, all correct processes must converge to the
same set, of size at least ``n + 1 − f``, that is not the correct set.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import run_extraction_trial
from repro.core import (
    PhiMap,
    ShiftedPhiMap,
    make_extraction_protocol,
    stable_emulated_output,
)
from repro.detectors import (
    EventuallyPerfectSpec,
    OmegaKSpec,
    OmegaSpec,
    StableHistory,
    UpsilonFSpec,
    UpsilonSpec,
    omega_n,
)
from repro.failures import Environment, FailurePattern
from repro.mc import UpsilonOutputProperty
from repro.runtime import Emit, RandomScheduler, Simulation, System


def run_extraction(spec, env, pattern, history, seed=0, shift=0, steps=35_000):
    phi = PhiMap(spec, env)
    if shift:
        phi = ShiftedPhiMap(phi, shift)
    sim = Simulation(
        env.system, make_extraction_protocol(phi), inputs={},
        pattern=pattern, history=history,
    )
    sim.run(max_steps=steps, scheduler=RandomScheduler(seed))
    return sim


def assert_upsilon_f_extracted(sim, env, pattern):
    outputs = stable_emulated_output(sim, pattern)
    assert outputs is not None, "emulated output did not stabilize"
    values = {frozenset(v) for v in outputs.values()}
    assert len(values) == 1, f"correct processes disagree: {outputs}"
    (output,) = values
    upsilon = UpsilonFSpec(env)
    assert upsilon.is_legal_stable_value(pattern, output), (
        f"extracted {sorted(output)} illegal for correct="
        f"{sorted(pattern.correct)}"
    )
    return output


class TestExtractionFromOmega:
    @pytest.mark.parametrize("seed", range(5))
    def test_wait_free(self, system4, seed):
        env = Environment.wait_free(system4)
        spec = OmegaSpec(system4)
        rng = random.Random(seed)
        pattern = FailurePattern.random(system4, rng, max_crash_time=40)
        history = spec.sample_history(pattern, rng, stabilization_time=60)
        sim = run_extraction(spec, env, pattern, history, seed=seed)
        output = assert_upsilon_f_extracted(sim, env, pattern)
        # ϕΩ avoids the stable leader, so the leader is never in the output.
        assert history.stable_value not in output


class TestExtractionFromOmegaN:
    @pytest.mark.parametrize("seed", range(4))
    def test_output_is_complement(self, system4, seed):
        env = Environment.wait_free(system4)
        spec = omega_n(system4)
        rng = random.Random(seed)
        pattern = FailurePattern.random(system4, rng, max_crash_time=40)
        history = spec.sample_history(pattern, rng, stabilization_time=50)
        sim = run_extraction(spec, env, pattern, history, seed=seed)
        output = assert_upsilon_f_extracted(sim, env, pattern)
        assert output == system4.pid_set - history.stable_value


class TestExtractionFromUpsilonIsIdentity:
    def test_identity(self, system4):
        env = Environment.wait_free(system4)
        spec = UpsilonSpec(system4)
        pattern = FailurePattern.crash_at(system4, {1: 10})
        history = StableHistory(frozenset({0, 1}), stabilization_time=30)
        sim = run_extraction(spec, env, pattern, history, seed=2)
        output = assert_upsilon_f_extracted(sim, env, pattern)
        assert output == frozenset({0, 1})


class TestExtractionFromEventuallyPerfect:
    @pytest.mark.parametrize("seed", range(4))
    def test_wait_free(self, system4, seed):
        env = Environment.wait_free(system4)
        spec = EventuallyPerfectSpec(system4)
        rng = random.Random(seed + 100)
        pattern = FailurePattern.random(system4, rng, max_crash_time=40)
        history = spec.sample_history(pattern, rng, stabilization_time=60)
        sim = run_extraction(spec, env, pattern, history, seed=seed)
        assert_upsilon_f_extracted(sim, env, pattern)


class TestFResilientEnvironments:
    @pytest.mark.parametrize("f", [1, 2])
    def test_omega_f_sources(self, system4, f):
        env = Environment(system4, f)
        spec = OmegaKSpec(system4, f)
        rng = random.Random(f * 17)
        pattern = env.random_pattern(rng, max_crash_time=30)
        history = spec.sample_history(pattern, rng, stabilization_time=40)
        sim = run_extraction(spec, env, pattern, history, seed=f)
        output = assert_upsilon_f_extracted(sim, env, pattern)
        assert len(output) >= env.min_correct


class TestBatchObservationPath:
    """w(σ) > 0 exercises the line-15 batch wait of Fig. 3."""

    @pytest.mark.parametrize("shift", [1, 3])
    def test_failure_free_completes_batches(self, system3, shift):
        env = Environment.wait_free(system3)
        spec = OmegaSpec(system3)
        pattern = FailurePattern.failure_free(system3)
        history = StableHistory(0, stabilization_time=20)
        sim = run_extraction(
            spec, env, pattern, history, seed=shift, shift=shift, steps=50_000
        )
        output = assert_upsilon_f_extracted(sim, env, pattern)
        assert 0 not in output

    def test_crash_stalls_batches_output_pi(self, system3):
        """With a crashed process, batches never complete; the emulated
        output stays Π — legal, since Π is not the correct set (case (1)
        of the Theorem 10 proof)."""
        env = Environment.wait_free(system3)
        spec = OmegaSpec(system3)
        pattern = FailurePattern.crash_at(system3, {2: 25})
        history = StableHistory(0, stabilization_time=0)
        sim = run_extraction(
            spec, env, pattern, history, seed=9, shift=2, steps=40_000
        )
        output = assert_upsilon_f_extracted(sim, env, pattern)
        assert output == system3.pid_set

    def test_peer_done_flag_frees_blocked_observers(self, system3):
        """A process that completed its batches before a crash publishes
        B[i]; late observers adopt S through it rather than Π."""
        env = Environment.wait_free(system3)
        spec = OmegaSpec(system3)
        # Crash late: batches complete first (stabilization at 0).
        pattern = FailurePattern.crash_at(system3, {2: 3_000})
        history = StableHistory(0, stabilization_time=0)
        sim = run_extraction(
            spec, env, pattern, history, seed=10, shift=1, steps=40_000
        )
        outputs = stable_emulated_output(sim, pattern)
        assert outputs is not None
        values = {frozenset(v) for v in outputs.values()}
        assert len(values) == 1


class TestRunnerTrialAPI:
    def test_trial_result_fields(self, system4):
        env = Environment.wait_free(system4)
        result = run_extraction_trial(OmegaSpec(system4), env, seed=1)
        assert result.stabilized and result.legal
        assert result.detector == "Ω"
        assert result.output_settle_time >= 0

    def test_trial_handles_shift(self, system3):
        env = Environment.wait_free(system3)
        result = run_extraction_trial(
            OmegaSpec(system3), env, seed=2, shift=1, max_steps=60_000
        )
        assert result.stabilized and result.legal


@given(
    n_procs=st.integers(3, 4),
    seed=st.integers(0, 50_000),
    detector=st.sampled_from(["omega", "omega_n", "diamond_p", "upsilon"]),
)
@settings(max_examples=20, deadline=None)
def test_extraction_hypothesis(n_procs, seed, detector):
    system = System(n_procs)
    env = Environment.wait_free(system)
    spec = {
        "omega": OmegaSpec(system),
        "omega_n": omega_n(system),
        "diamond_p": EventuallyPerfectSpec(system),
        "upsilon": UpsilonSpec(system),
    }[detector]
    rng = random.Random(seed)
    pattern = FailurePattern.random(system, rng, max_crash_time=30)
    history = spec.sample_history(pattern, rng, stabilization_time=40)
    sim = run_extraction(spec, env, pattern, history, seed=seed, steps=45_000)
    assert_upsilon_f_extracted(sim, env, pattern)


@dataclasses.dataclass(frozen=True)
class TaggedEmit(Emit):
    """An ``Emit`` subclass; the engine records it as an emit output."""

    tag: str = "tagged"


class TestUpsilonOutputProperty:
    """The Υf range check sees every emit output the engine records."""

    @staticmethod
    def _emitting(op):
        def protocol(ctx, _input):
            yield op

        sim = Simulation(System(2), protocol, inputs={})
        sim.run(max_steps=10, scheduler=RandomScheduler(0))
        return sim

    def test_an_emit_subclass_is_checked(self):
        sim = self._emitting(TaggedEmit(frozenset()))
        assert [(o.kind, o.value) for o in sim.trace.outputs] == \
            [("emit", frozenset())] * 2
        prop = UpsilonOutputProperty(sim.system.pid_set)
        assert prop.check_run(sim) == "emitted the empty set"
        assert prop.on_step(sim, sim.trace.steps[0]) == \
            "emitted the empty set"

    def test_a_legal_output_passes(self):
        sim = self._emitting(TaggedEmit(frozenset({0, 1})))
        prop = UpsilonOutputProperty(sim.system.pid_set, min_size=2)
        assert prop.check_run(sim) is None
        assert prop.on_step(sim, sim.trace.steps[0]) is None
