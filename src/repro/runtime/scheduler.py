"""Schedulers — the asynchrony adversary.

A scheduler decides which eligible process takes the next atomic step.  The
model places only one constraint on schedules (run requirement 5 of
Sect. 3.3): every correct process takes infinitely many steps.  Within a
finite simulation, :class:`RandomScheduler` is fair with probability 1,
:class:`RoundRobinScheduler` is fair deterministically, and the scripted /
priority schedulers implement the *unfair prefixes* that the adversarial
constructions of Theorems 1 and 5 rely on ("only p takes steps for a
while", "every process takes exactly one step, then only Q runs").
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Iterable, Iterator, List, Optional, Sequence

from ..obs.events import EventBus, SchedulerDecision
from .errors import SchedulerError


class Scheduler:
    """Chooses the next process to step among the eligible ones."""

    def choose(self, t: int, eligible: Sequence[int]) -> int:
        raise NotImplementedError


class RoundRobinScheduler(Scheduler):
    """Cycle through pids in order, skipping ineligible ones."""

    def __init__(self, start: int = 0):
        self._next = start

    def choose(self, t: int, eligible: Sequence[int]) -> int:
        if not eligible:
            raise SchedulerError("no eligible process")
        eligible_set = set(eligible)
        limit = max(eligible_set) + 1
        for _ in range(limit + 1):
            pid = self._next % limit
            self._next = pid + 1
            if pid in eligible_set:
                return pid
        raise SchedulerError("round-robin failed to find an eligible pid")


class RandomScheduler(Scheduler):
    """Uniformly random among eligible processes — fair a.s."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        self._getrandbits = self._rng.getrandbits

    def choose(self, t: int, eligible: Sequence[int]) -> int:
        # ``Random.choice(seq)`` is ``seq[self._randbelow(len(seq))]``, and
        # ``_randbelow(n)`` draws ``n.bit_length()`` bits until the draw is
        # below ``n``.  The same draws made here, without the two frames,
        # leave every seeded schedule unchanged (pinned by the tests).
        n = len(eligible)
        if not n:
            raise SchedulerError("no eligible process")
        getrandbits = self._getrandbits
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return eligible[r]


class WeightedRandomScheduler(Scheduler):
    """Random with per-process weights — models processes of very
    different speeds while staying fair (all weights positive)."""

    def __init__(self, weights: Sequence[float], seed: int = 0):
        if any(w <= 0 for w in weights):
            raise SchedulerError("weights must be positive for fairness")
        self._weights = list(weights)
        self._rng = random.Random(seed)

    def choose(self, t: int, eligible: Sequence[int]) -> int:
        if not eligible:
            raise SchedulerError("no eligible process")
        weights = [self._weights[p] for p in eligible]
        return self._rng.choices(eligible, weights=weights, k=1)[0]


class ScriptedScheduler(Scheduler):
    """Follow an explicit pid script, then fall back to another scheduler.

    The script is consumed lazily, so it may be an infinite generator.
    A scripted pid that is not eligible raises: adversarial constructions
    must be consistent with the failure pattern they claim.
    """

    def __init__(
        self,
        script: Iterable[int],
        fallback: Optional[Scheduler] = None,
        skip_ineligible: bool = False,
    ):
        self._script: Iterator[int] = iter(script)
        self._fallback = fallback
        self._skip_ineligible = skip_ineligible
        self._exhausted = False

    def choose(self, t: int, eligible: Sequence[int]) -> int:
        eligible_set = set(eligible)
        while not self._exhausted:
            try:
                pid = next(self._script)
            except StopIteration:
                self._exhausted = True
                break
            if pid in eligible_set:
                return pid
            if self._skip_ineligible:
                continue
            raise SchedulerError(
                f"scripted pid {pid} not eligible at t={t} "
                f"(eligible: {sorted(eligible_set)})"
            )
        if self._fallback is None:
            raise SchedulerError(f"script exhausted at t={t} with no fallback")
        return self._fallback.choose(t, eligible)


class ObservedScheduler(Scheduler):
    """Wrap any scheduler, publishing each pick to an event bus.

    The published :class:`~repro.obs.events.SchedulerDecision` carries the
    chosen pid and the eligible-set size — enough to audit fairness (every
    correct process keeps getting picked) from the event stream alone.
    """

    def __init__(self, inner: Scheduler, bus: EventBus):
        self._inner = inner
        self._bus = bus

    def choose(self, t: int, eligible: Sequence[int]) -> int:
        pid = self._inner.choose(t, eligible)
        bus = self._bus
        if bus.active:
            bus.publish(SchedulerDecision(t, pid, len(eligible)))
        return pid


class FunctionScheduler(Scheduler):
    """Adapter for ad-hoc scheduling policies: ``fn(t, eligible) -> pid``."""

    def __init__(self, fn: Callable[[int, Sequence[int]], int]):
        self._fn = fn

    def choose(self, t: int, eligible: Sequence[int]) -> int:
        pid = self._fn(t, eligible)
        if pid not in eligible:
            raise SchedulerError(f"policy chose ineligible pid {pid} at t={t}")
        return pid


class PriorityScheduler(Scheduler):
    """Always step the highest-priority eligible process.

    With priorities favouring a subset Q this produces "only Q runs, the
    rest are arbitrarily slow" schedules — unfair prefixes used in the
    impossibility experiments (fairness must be restored by swapping the
    scheduler before the run is interpreted as complete).
    """

    def __init__(self, priority_order: Sequence[int]):
        self._rank = {pid: i for i, pid in enumerate(priority_order)}

    def choose(self, t: int, eligible: Sequence[int]) -> int:
        if not eligible:
            raise SchedulerError("no eligible process")
        return min(eligible, key=lambda p: self._rank.get(p, len(self._rank)))


class FairnessGuard:
    """Bounded-unfairness accounting for perturbing schedulers.

    Run requirement 5 constrains only the limit (every correct process
    takes infinitely many steps); a *finite* adversarial scheduler keeps
    itself honest by bounding how long any eligible process may wait.
    Call :meth:`overdue` before choosing — a non-``None`` return is a pid
    that must be scheduled now — and :meth:`note` after every choice.
    """

    def __init__(self, bound: int):
        if bound < 1:
            raise SchedulerError(f"fairness bound must be >= 1, got {bound}")
        self.bound = bound
        self._waits: dict[int, int] = {}

    def overdue(self, eligible: Sequence[int]) -> Optional[int]:
        """The most-starved eligible pid at or past the bound, if any."""
        worst: Optional[int] = None
        worst_wait = 0
        for pid in eligible:
            wait = self._waits.get(pid, 0)
            if wait >= self.bound and wait > worst_wait:
                worst, worst_wait = pid, wait
        return worst

    def note(self, chosen: int, eligible: Sequence[int]) -> None:
        """Record one scheduling decision."""
        for pid in eligible:
            self._waits[pid] = self._waits.get(pid, 0) + 1
        self._waits[chosen] = 0

    def max_wait(self) -> int:
        return max(self._waits.values(), default=0)


# ----------------------------------------------------------------------
# Script builders for the adversarial constructions.
# ----------------------------------------------------------------------


def solo(pid: int, steps: int) -> List[int]:
    """``pid`` takes ``steps`` consecutive steps (Theorem 1's R1 blocks)."""
    return [pid] * steps


def one_step_each(order: Sequence[int]) -> List[int]:
    """Every process in ``order`` takes exactly one step (Theorem 1's
    "every process takes exactly one step after R1")."""
    return list(order)


def repeat_block(block: Sequence[int], times: int) -> List[int]:
    """Concatenate ``times`` copies of a block."""
    return list(block) * times


def round_robin_forever(pids: Sequence[int]) -> Iterator[int]:
    """An infinite fair script over ``pids``."""
    return itertools.cycle(pids)
