"""Unit tests for schedulers and script builders."""

import random
from collections import Counter

import pytest

from repro.runtime import (
    FunctionScheduler,
    PriorityScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    SchedulerError,
    ScriptedScheduler,
    WeightedRandomScheduler,
    one_step_each,
    repeat_block,
    round_robin_forever,
    solo,
)


class TestRoundRobin:
    def test_cycles_in_order(self):
        s = RoundRobinScheduler()
        picks = [s.choose(t, [0, 1, 2]) for t in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_skips_ineligible(self):
        s = RoundRobinScheduler()
        picks = [s.choose(t, [0, 2]) for t in range(4)]
        assert picks == [0, 2, 0, 2]

    def test_start_offset(self):
        s = RoundRobinScheduler(start=2)
        assert s.choose(0, [0, 1, 2]) == 2

    def test_empty_eligible(self):
        with pytest.raises(SchedulerError):
            RoundRobinScheduler().choose(0, [])


class TestRandom:
    def test_deterministic_given_seed(self):
        a = [RandomScheduler(4).choose(t, [0, 1, 2]) for t in range(20)]
        b = [RandomScheduler(4).choose(t, [0, 1, 2]) for t in range(20)]
        assert a == b

    def test_fair_in_aggregate(self):
        s = RandomScheduler(1)
        counts = Counter(s.choose(t, [0, 1, 2]) for t in range(3000))
        assert all(counts[p] > 700 for p in (0, 1, 2))

    def test_empty_eligible(self):
        with pytest.raises(SchedulerError):
            RandomScheduler().choose(0, [])

    @pytest.mark.parametrize("length", range(1, 7))
    def test_picks_what_random_choice_picks(self, length):
        # Every seeded schedule rests on this: ``choose`` consumes the
        # generator exactly as ``Random.choice`` does.
        eligible = list(range(10, 10 + length))
        for seed in range(50):
            scheduler, rng = RandomScheduler(seed), random.Random(seed)
            picks = [scheduler.choose(t, eligible) for t in range(20)]
            assert picks == [rng.choice(eligible) for _ in range(20)]

    def test_stream_stays_aligned_across_lengths(self):
        scheduler, rng = RandomScheduler(7), random.Random(7)
        for t in range(600):
            eligible = list(range(t % 6 + 1))
            assert scheduler.choose(t, eligible) == rng.choice(eligible)


class TestWeighted:
    def test_bias(self):
        s = WeightedRandomScheduler([10.0, 1.0], seed=2)
        counts = Counter(s.choose(t, [0, 1]) for t in range(2000))
        assert counts[0] > counts[1] * 3

    def test_positive_weights_required(self):
        with pytest.raises(SchedulerError):
            WeightedRandomScheduler([1.0, 0.0])

    def test_weights_indexed_by_pid(self):
        s = WeightedRandomScheduler([1.0, 1.0, 100.0], seed=0)
        counts = Counter(s.choose(t, [1, 2]) for t in range(500))
        assert counts[2] > counts[1]


class TestScripted:
    def test_follows_script(self):
        s = ScriptedScheduler([2, 0, 1])
        assert [s.choose(t, [0, 1, 2]) for t in range(3)] == [2, 0, 1]

    def test_exhausted_without_fallback(self):
        s = ScriptedScheduler([0])
        s.choose(0, [0])
        with pytest.raises(SchedulerError, match="exhausted"):
            s.choose(1, [0])

    def test_fallback(self):
        s = ScriptedScheduler([1], fallback=RoundRobinScheduler())
        assert s.choose(0, [0, 1]) == 1
        assert s.choose(1, [0, 1]) == 0

    def test_ineligible_scripted_pid_raises(self):
        s = ScriptedScheduler([2])
        with pytest.raises(SchedulerError, match="not eligible"):
            s.choose(0, [0, 1])

    def test_skip_ineligible(self):
        s = ScriptedScheduler([2, 0], skip_ineligible=True)
        assert s.choose(0, [0, 1]) == 0

    def test_infinite_script(self):
        s = ScriptedScheduler(round_robin_forever([0, 1]))
        assert [s.choose(t, [0, 1]) for t in range(4)] == [0, 1, 0, 1]


class TestFunctionScheduler:
    def test_delegates(self):
        s = FunctionScheduler(lambda t, eligible: eligible[-1])
        assert s.choose(0, [0, 1, 2]) == 2

    def test_ineligible_choice_raises(self):
        s = FunctionScheduler(lambda t, eligible: 99)
        with pytest.raises(SchedulerError):
            s.choose(0, [0, 1])


class TestPriorityScheduler:
    def test_prefers_high_priority(self):
        s = PriorityScheduler([2, 0, 1])
        assert s.choose(0, [0, 1, 2]) == 2
        assert s.choose(1, [0, 1]) == 0

    def test_unranked_pids_last(self):
        s = PriorityScheduler([1])
        assert s.choose(0, [0, 1]) == 1

    def test_empty(self):
        with pytest.raises(SchedulerError):
            PriorityScheduler([0]).choose(0, [])


class TestScriptBuilders:
    def test_solo(self):
        assert solo(3, 4) == [3, 3, 3, 3]

    def test_one_step_each(self):
        assert one_step_each([2, 0, 1]) == [2, 0, 1]

    def test_repeat_block(self):
        assert repeat_block([0, 1], 3) == [0, 1, 0, 1, 0, 1]
