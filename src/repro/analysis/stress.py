"""Stress campaigns and schedule minimization.

:func:`run_campaign` fuzzes a protocol family against its task spec across
randomized configurations — system sizes, crash patterns, detector noise,
scheduler families — and reports every violation with enough information
to replay it.  The ablation tests use it in anger: the campaign must find
the planted bugs in the broken variants and stay silent on the real ones.

:func:`minimize_schedule` shrinks a failing explicit schedule by greedy
chunk deletion (delta debugging), keeping the failure predicate true —
handy for turning a 400-step counterexample into a dozen steps a human
can read.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, List, Sequence

from ..detectors.base import DetectorSpec
from ..failures.environment import Environment
from ..runtime.process import Protocol, System
from ..runtime.scheduler import (
    RandomScheduler,
    RoundRobinScheduler,
    Scheduler,
    WeightedRandomScheduler,
)
from ..runtime.simulation import Simulation
from ..tasks.base import TaskSpec


@dataclasses.dataclass(frozen=True)
class CampaignConfig:
    """One fuzzed configuration (fully determined by the campaign seed)."""

    trial: int
    n_processes: int
    f: int
    seed: int
    stabilization_time: int
    scheduler_kind: str
    crashes: tuple  # ((pid, time), ...)

    def describe(self) -> str:
        crashes = ", ".join(f"p{p}@{t}" for p, t in self.crashes) or "none"
        return (
            f"trial {self.trial}: n+1={self.n_processes} f={self.f} "
            f"seed={self.seed} stab={self.stabilization_time} "
            f"sched={self.scheduler_kind} crashes=[{crashes}]"
        )


@dataclasses.dataclass
class CampaignFailure:
    """One violation found by the campaign, with its reproducer."""

    config: CampaignConfig
    kind: str       # "violation" | "no-termination" | "exception"
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail} @ {self.config.describe()}"


@dataclasses.dataclass
class CampaignReport:
    """Outcome of a campaign."""

    trials: int
    failures: List[CampaignFailure]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "clean" if self.ok else f"{len(self.failures)} failure(s)"
        return f"{self.trials} trials, {status}"


def _make_scheduler(kind: str, seed: int, n_processes: int) -> Scheduler:
    if kind == "random":
        return RandomScheduler(seed)
    if kind == "round-robin":
        return RoundRobinScheduler()
    if kind == "weighted":
        rng = random.Random(seed)
        weights = [rng.uniform(0.05, 1.0) for _ in range(n_processes)]
        return WeightedRandomScheduler(weights, seed=seed)
    raise ValueError(f"unknown scheduler kind {kind!r}")


def run_campaign(
    protocol_factory: Callable[[System, int], Protocol],
    task_factory: Callable[[System, int], TaskSpec],
    detector_factory: Callable[[System, Environment], DetectorSpec],
    trials: int = 50,
    seed: int = 0,
    system_sizes: Sequence[int] = (3, 4, 5),
    max_steps: int = 400_000,
    wait_free_only: bool = False,
) -> CampaignReport:
    """Fuzz ``protocol_factory(system, f)`` against ``task_factory``.

    Each trial draws a configuration from the campaign RNG, samples a
    legal detector history, runs to the step budget, and checks the task
    spec.  A Termination breach (the budget ran out first) is reported
    as ``"no-termination"``, any other breach as ``"violation"``, and a
    protocol exception as ``"exception"``.
    """
    campaign_rng = random.Random(seed)
    failures: List[CampaignFailure] = []
    for trial in range(trials):
        n_processes = campaign_rng.choice(list(system_sizes))
        system = System(n_processes)
        f = system.n if wait_free_only else campaign_rng.randint(1, system.n)
        env = Environment(system, f)
        trial_seed = campaign_rng.randrange(2**30)
        stabilization = campaign_rng.choice([0, 20, 100, 300])
        scheduler_kind = campaign_rng.choice(
            ["random", "round-robin", "weighted"]
        )
        rng = random.Random(trial_seed)
        pattern = env.random_pattern(rng, max_crash_time=stabilization or 50)
        config = CampaignConfig(
            trial, n_processes, f, trial_seed, stabilization,
            scheduler_kind, tuple(sorted(pattern.crash_times.items())),
        )
        detector = detector_factory(system, env)
        history = detector.sample_history(
            pattern, rng, stabilization_time=stabilization
        )
        inputs = {p: f"v{p}" for p in system.pids}
        sim = Simulation(
            system, protocol_factory(system, f), inputs=inputs,
            pattern=pattern, history=history,
        )
        scheduler = _make_scheduler(scheduler_kind, trial_seed, n_processes)
        try:
            sim.run(max_steps=max_steps, scheduler=scheduler,
                    stop_when=Simulation.all_correct_decided)
        except Exception as exc:  # protocol bug surfaced as an exception
            failures.append(CampaignFailure(config, "exception", repr(exc)))
            continue
        verdict = task_factory(system, f).check(sim, inputs)
        if any(v.prop == "Termination" for v in verdict.violations):
            failures.append(CampaignFailure(
                config, "no-termination",
                f"budget {max_steps} exhausted at t={sim.time}"))
        elif not verdict.ok:
            failures.append(CampaignFailure(
                config, "violation",
                "; ".join(str(v) for v in verdict.violations)))
    return CampaignReport(trials=trials, failures=failures)


def minimize_schedule(
    make_sim: Callable[[], Simulation],
    schedule: Sequence[int],
    failure_predicate: Callable[[Simulation], bool],
) -> List[int]:
    """Delta-debug an explicit failing schedule.

    Repeatedly removes chunks (halving chunk size down to single steps)
    while the replayed run still satisfies ``failure_predicate``.

    Invariants:

    * The result is a **subsequence** of ``schedule`` (steps are only
      deleted, never reordered or added).
    * The result **still reproduces**: replaying it satisfies
      ``failure_predicate``.
    * The result is **1-minimal**: deleting any single remaining step
      stops it from reproducing.
    * A replay that raises (e.g. stepping a finished process after a
      deletion) and a predicate that raises both count as *not
      reproducing* — candidates are discarded, never propagated.
    * The result is **never empty** unless ``schedule`` was empty; an
      empty input is returned unchanged iff the predicate holds on the
      freshly built simulation (else ``ValueError``).

    Raises ``ValueError`` when the input schedule itself does not
    reproduce the failure.
    """

    def reproduces(candidate: Sequence[int]) -> bool:
        sim = make_sim()
        try:
            for pid in candidate:
                sim.step(pid)
            return bool(failure_predicate(sim))
        except Exception:
            return False

    current = list(schedule)
    if not reproduces(current):
        raise ValueError("the given schedule does not reproduce the failure")
    chunk = max(1, len(current) // 2)
    while True:
        index = 0
        removed_any = False
        while index < len(current):
            candidate = current[:index] + current[index + chunk:]
            if candidate and reproduces(candidate):
                current = candidate
                removed_any = True
            else:
                index += chunk
        if chunk == 1:
            if not removed_any:
                break  # 1-minimal: no single step can be dropped
        else:
            chunk = max(1, chunk // 2)
    return current
