"""State fingerprinting: determinism, merging, time sensitivity, and the
canonical encoder's domain."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.mc import (
    ExploreConfig,
    Explorer,
    McInstance,
    PropertyAdapter,
    build_simulation,
    resolve_instance,
)
from repro.mc.checkpoint import SimulationJournal
from repro.mc.fingerprint import (
    Encoder,
    FingerprintError,
    fingerprint,
    pending_crashes,
    time_sensitive,
)
from repro.runtime import Simulation, System
from repro.runtime.ops import BOT, Decide, Read, Write
from tests.mc_reference import canonical_fingerprint, canonical_state

SRC = Path(__file__).resolve().parents[1] / "src"


def _sim(instance):
    return build_simulation(resolve_instance(instance))


def _deciding(inputs):
    """Two processes that each decide their input (no shared memory)."""

    def protocol(ctx, value):
        yield Decide(value)

    sim = Simulation(System(2), protocol, inputs=inputs)
    sim.run_script([0, 1])
    return sim


class Payload:
    """A value outside the encoder's domain, with a constant ``repr``."""

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return "Payload"


class TestDeterminism:
    def test_same_schedule_same_fingerprint(self):
        instance = McInstance("converge", n_processes=2)
        a, b = _sim(instance), _sim(instance)
        for sim in (a, b):
            sim.run_script([0, 1, 0, 1])
        assert fingerprint(a) == fingerprint(b)

    def test_fingerprint_ignores_object_identity(self):
        instance = McInstance("fig1", n_processes=2)
        digests = set()
        for _ in range(3):
            sim = _sim(instance)
            sim.run_script([0, 1])
            digests.add(fingerprint(sim))
        assert len(digests) == 1

    def test_fingerprint_survives_process_boundary(self):
        """Two interpreters with different string-hash seeds (so frozensets
        of strings iterate in different orders) compute the same digest."""
        script = (
            "from repro.mc import McInstance, build_simulation, "
            "fingerprint, resolve_instance\n"
            "sim = build_simulation(resolve_instance("
            "McInstance('fig2', n_processes=3, f=1)))\n"
            "sim.run_script([0, 1, 2, 0, 1, 2, 0, 1, 1, 2, 0, 2])\n"
            "print(fingerprint(sim))\n"
        )
        digests = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(SRC), env.get("PYTHONPATH")])
            )
            out = subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True,
            ).stdout.strip()
            digests.add(out)
        assert len(digests) == 1
        assert len(digests.pop()) == 32

    def test_different_states_differ(self):
        instance = McInstance("converge", n_processes=2)
        a, b = _sim(instance), _sim(instance)
        a.run_script([0, 1])
        b.run_script([0, 0])
        assert fingerprint(a) != fingerprint(b)


class TestMerging:
    def test_commuting_steps_merge(self):
        """Two orders of independent first steps reach the same state."""
        instance = McInstance("converge", n_processes=2)
        a, b = _sim(instance), _sim(instance)
        a.run_script([0, 1])  # p0's update, then p1's update
        b.run_script([1, 0])  # the opposite order
        assert canonical_state(a) == canonical_state(b)
        assert fingerprint(a) == fingerprint(b)


class TestTimeSensitivity:
    def test_insensitive_without_crashes_or_noise(self):
        sim = _sim(McInstance("fig1", n_processes=2))
        assert not time_sensitive(sim)
        assert "t" not in canonical_state(sim)

    def test_pending_crash_is_sensitive_until_it_fires(self):
        instance = McInstance("fig1", n_processes=2, f=1, crashes=((0, 2),))
        sim = _sim(instance)
        assert pending_crashes(sim) == [(0, 2)]
        assert time_sensitive(sim)
        assert canonical_state(sim)["t"] == 0
        sim.run_script([1, 1])  # t reaches 2: the crash is due, not pending
        assert pending_crashes(sim) == []
        assert not time_sensitive(sim)

    def test_unstabilized_history_is_sensitive(self):
        instance = McInstance("fig1", n_processes=2, stabilization_time=6,
                              noise_seed=1)
        sim = _sim(instance)
        assert time_sensitive(sim)
        for _ in range(3):
            sim.run_script([0, 1])
        assert sim.time >= 6
        assert not time_sensitive(sim)


class TestEncoding:
    def test_unknown_object_type_raises(self):
        class Exotic:
            def describe(self):
                return "exotic"

        with pytest.raises(FingerprintError, match="exotic"):
            Encoder().shared_object("key", Exotic())

    def test_values_outside_the_domain_raise(self):
        encoder = Encoder()
        for value in (Payload(1), ("x", Payload(1)), [1], {1: 2}, b"raw",
                      {1}, frozenset({("x", Payload(1))})):
            with pytest.raises(FingerprintError):
                encoder.value(value)

    def test_unencodable_payload_raises_instead_of_merging(self):
        """Payloads with equal ``repr`` but different contents must not
        hash alike: the fingerprint refuses them."""
        def protocol(ctx, value):
            yield Write("k", value)

        for payload in (Payload(1), Payload(2)):
            sim = Simulation(System(2), protocol,
                             inputs={0: payload, 1: None})
            sim.run_script([0])
            with pytest.raises(FingerprintError, match="Payload"):
                fingerprint(sim)

    def test_structure_is_unambiguous(self):
        encoder = Encoder()
        values = [
            ("ab",), ("a", "b"), ((1,), 2), (1, (2,)), (), ((),), "",
            frozenset(), frozenset({1, 2}), (1, 2), None, BOT, "None",
            1, True, 1.0, 0, False, 0.0, -0.0, "1", (("a",),),
        ]
        encoded = [encoder.value(v) for v in values]
        assert len(set(encoded)) == len(values)

    def test_frozensets_encode_in_sorted_order(self):
        words = [f"w{i}" for i in range(40)]
        forward = frozenset(words)
        backward = frozenset(reversed(words))
        assert Encoder().value(forward) == Encoder().value(backward)


class TestFragmentCacheSoundness:
    """Remembered encodings must be *type-faithful*: Python deems
    ``True == 1`` and ``0.0 == -0.0``, but they encode differently, so an
    equality-keyed memo would merge states the exhaustive checker must
    keep apart.  Each case encodes every variant with one encoder."""

    def test_bool_and_int_payloads_stay_distinct(self):
        encoder = Encoder()
        frags = {
            encoder.step(Write("k", payload), response)
            for payload, response in [
                (True, None), (1, None), (1.0, None), (False, None),
                (0, None), (0.0, None), (-0.0, None),
            ]
        }
        assert len(frags) == 7

    def test_bool_and_int_responses_stay_distinct(self):
        encoder = Encoder()
        assert encoder.step(Read("k"), True) != encoder.step(Read("k"), 1)
        assert encoder.step(Read("k"), 0.0) != encoder.step(Read("k"), -0.0)

    @pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)],
                             ids=["zero-first", "minus-zero-first"])
    def test_signed_zero_inputs_get_different_fingerprints(self, first,
                                                           second):
        """Runs that differ only in a 0.0 versus -0.0 decision get
        different digests, whichever is fingerprinted first."""
        digests = [fingerprint(_deciding({0: v, 1: 1}))
                   for v in (first, second)]
        assert digests[0] != digests[1]


class _StateRecorder(PropertyAdapter):
    """Records the digest and the reference hash of every state entered."""

    name = "recorder"

    def __init__(self):
        self.states = []

    def record(self, sim):
        self.states.append((fingerprint(sim), canonical_fingerprint(sim)))

    def on_step(self, sim, record):
        sim.eligible()  # apply due crashes, as the explorer does on entry
        self.record(sim)
        return None


class TestIncrementalDifferential:
    """Fuzzed oracle: the incrementally maintained digest must be
    byte-identical to the from-scratch walk at every reachable state, and
    partition-equivalent to the whole-state JSON reference."""

    INSTANCES = [
        McInstance("fig1", n_processes=2),
        McInstance("fig2", n_processes=3, f=1),
        McInstance("extraction", n_processes=2),
        McInstance("fig1", n_processes=3, f=1, crashes=((1, 4),)),
        McInstance("extraction", n_processes=2, crashes=((0, 5),)),
    ]

    @pytest.mark.parametrize("instance", INSTANCES,
                             ids=lambda i: i.describe())
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_incremental_equals_full_walk(self, instance, seed):
        rng = random.Random(seed)
        live = _sim(instance)
        twin = _sim(instance)
        journal = SimulationJournal(live)
        for _ in range(50):
            eligible = live.eligible()
            if not eligible:
                break
            pid = eligible[rng.randrange(len(eligible))]
            # run_script on both sims so due bystander crashes are applied
            # at the same point — bare step() defers them to the next
            # eligible() call, which would skew the comparison below.
            live.run_script([pid])
            twin.run_script([pid])
            assert journal.digest() == fingerprint(live) == fingerprint(twin)

    @pytest.mark.parametrize("instance, depth", [
        (McInstance("fig1", n_processes=2), 12),
        (McInstance("fig2", n_processes=3, f=1), 10),
        (McInstance("extraction", n_processes=2), 14),
        (McInstance("fig2", n_processes=3, f=1, stabilization_time=3,
                    crashes=((0, 2),)), 12),
    ], ids=lambda v: v.describe() if isinstance(v, McInstance) else str(v))
    def test_partition_equivalence_with_canonical_oracle(self, instance,
                                                         depth):
        """Over every state an exhaustive exploration enters, digests are
        equal exactly when the JSON reference states are.  Reduction is
        off so that many states are reached along several paths."""
        instance = resolve_instance(instance)
        recorder = _StateRecorder()
        root = build_simulation(instance)
        root.eligible()
        recorder.record(root)
        result = Explorer(
            lambda: build_simulation(instance), [recorder],
            ExploreConfig(max_depth=depth, por=False),
        ).explore()
        assert result.ok and result.exhaustive
        assert len(recorder.states) == result.stats.states_visited
        assert result.stats.pruned_visited > 0
        by_digest, by_reference = {}, {}
        for digest, reference in recorder.states:
            assert by_digest.setdefault(digest, reference) == reference
            assert by_reference.setdefault(reference, digest) == digest
