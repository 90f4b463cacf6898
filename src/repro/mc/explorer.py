"""Bounded explicit-state exploration of scheduling nondeterminism.

The explorer walks the tree of scheduling choices of a deterministic
simulation factory.  Three mechanisms replace the old tests' blind
re-execution of every schedule from scratch:

* **Prefix-sharing replay** — descending into a child costs one
  ``Simulation.step``; only backtracking to an earlier branch rebuilds
  the simulation and replays the shared prefix (generators cannot be
  cloned).  The stats record counts both (``replays``, ``replay_steps``).
* **Visited-state deduplication** — states are keyed by their
  :func:`repro.mc.fingerprint.fingerprint`; a branch is pruned when the
  same state was already expanded no deeper and with a sleep set that is
  a subset of the revisit's (the covering condition that keeps sleep
  sets + caching sound).
* **Sleep-set partial-order reduction**
  (:mod:`repro.mc.reduction`) in time-insensitive states.

Properties are observed through :mod:`repro.tasks.properties` hooks.  A
depth-bounded exploration of a non-terminating protocol is a *bounded
horizon* check: branches cut at the bound are counted in
``stats.depth_exhausted`` and are violations only when the configuration
demands progress (``require_progress``), so Fig. 1's unfair infinite
branches (a solo gladiator spinning forever) don't count as bugs while
the livelock ablations — which cannot terminate on *any* branch — do.

:func:`check` is the subsystem's front door: one call covers schedules ×
crash subsets × crash times (via
:func:`repro.mc.instances.sweep_instances`) and returns a
:class:`CheckReport` whose counterexamples replay deterministically.
"""

from __future__ import annotations

import dataclasses
import time as _time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import MetricsRegistry
from ..runtime.errors import ReproError
from ..runtime.simulation import Simulation
from ..tasks.properties import PropertyAdapter
from .checkpoint import SimulationJournal
from .counterexample import Counterexample
from .fingerprint import FingerprintError, fingerprint
from .instances import (
    CrashSweep,
    McInstance,
    build_simulation,
    instance_properties,
    resolve_instance,
    sweep_instances,
)
from .reduction import ReductionStats, SleepSetReducer


@dataclasses.dataclass(frozen=True)
class ExploreConfig:
    """Exploration bounds and knobs (picklable, JSON-able)."""

    max_depth: int = 40
    por: bool = True
    dedup: bool = True
    first_violation: bool = True
    #: Treat depth-bound exhaustion as a "no-termination" violation.
    require_progress: bool = False
    max_states: Optional[int] = None
    #: Auto-shrink counterexamples via ``minimize_schedule``.
    shrink: bool = True
    #: Backtrack by restoring checkpoints (:mod:`repro.mc.checkpoint`)
    #: instead of rebuilding + replaying the schedule prefix;
    #: auto-disabled for message-passing runs.  Identical verdicts and
    #: state counts either way — this is purely a cost knob, kept
    #: switchable so the differential tests can pin the equivalence.
    checkpoint: bool = True

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class ExploreStats:
    """What the exploration did (and how exhaustive it was)."""

    #: State entries: root + every successful step into a state,
    #: including entries immediately pruned by the visited set.
    states_visited: int = 0
    #: States actually expanded or evaluated as leaves (post-pruning).
    states_distinct: int = 0
    pruned_visited: int = 0
    transitions_explored: int = 0
    complete_schedules: int = 0
    depth_exhausted: int = 0
    replays: int = 0
    replay_steps: int = 0
    #: Checkpoint-restore backtracking (replaces replays when enabled).
    restores: int = 0
    #: Generator rematerializations after a restore detached one (the
    #: honest residue of "replay-free": each counts a memo miss).
    gen_replays: int = 0
    gen_replay_steps: int = 0
    max_depth: int = 0
    truncated: bool = False
    wall_seconds: float = 0.0
    #: Compute time summed across shards.  For a serial exploration this
    #: equals ``wall_seconds``; after :meth:`merge_concurrent` the two
    #: diverge — ``wall_seconds`` stays elapsed time, ``cpu_seconds``
    #: keeps the total work.
    cpu_seconds: float = 0.0

    @property
    def states_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.states_visited / self.wall_seconds

    def merge(self, other: "ExploreStats") -> None:
        """Fold in stats from work that ran *serially* after this work
        (wall times add).  For shards that ran side by side use
        :meth:`merge_concurrent` — summing concurrent walls divides the
        reported throughput by the shard count."""
        self.states_visited += other.states_visited
        self.states_distinct += other.states_distinct
        self.pruned_visited += other.pruned_visited
        self.transitions_explored += other.transitions_explored
        self.complete_schedules += other.complete_schedules
        self.depth_exhausted += other.depth_exhausted
        self.replays += other.replays
        self.replay_steps += other.replay_steps
        self.restores += other.restores
        self.gen_replays += other.gen_replays
        self.gen_replay_steps += other.gen_replay_steps
        self.max_depth = max(self.max_depth, other.max_depth)
        self.truncated = self.truncated or other.truncated
        self.wall_seconds += other.wall_seconds
        self.cpu_seconds += other.cpu_seconds

    def merge_concurrent(self, other: "ExploreStats") -> None:
        """Fold in stats from work that ran *concurrently* with this work:
        wall time is the max (a lower bound on true elapsed — callers
        with a measured elapsed time should overwrite ``wall_seconds``
        with it), compute time still sums."""
        wall = max(self.wall_seconds, other.wall_seconds)
        self.merge(other)
        self.wall_seconds = wall

    def to_dict(self) -> Dict[str, Any]:
        body = dataclasses.asdict(self)
        body["states_per_second"] = self.states_per_second
        return body


@dataclasses.dataclass(frozen=True)
class RawViolation:
    """A violation as the explorer saw it (pre-bundling)."""

    kind: str  # "error" | "property" | "no-termination"
    prop: Optional[str]
    reason: str
    schedule: Tuple[int, ...]
    step: int


@dataclasses.dataclass
class ExploreResult:
    stats: ExploreStats
    reduction: ReductionStats
    violations: List[RawViolation]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def exhaustive(self) -> bool:
        """Did the exploration cover every behaviour within the bounds?"""
        return not self.stats.truncated


class _Frame:
    __slots__ = (
        "depth", "candidates", "index", "sleep", "executed", "por", "cp",
    )

    def __init__(self, depth, candidates, sleep, por):
        self.depth = depth
        self.candidates = candidates
        self.index = 0
        self.sleep = sleep  # pid bitmask
        self.executed = 0  # pid bitmask of siblings explored (POR only)
        self.por = por
        self.cp = None  # checkpoint token (checkpointed DFS only)


class Explorer:
    """One bounded exploration of ``make_sim()``'s scheduling tree.

    Parameters
    ----------
    make_sim:
        Zero-argument factory; must build behaviourally identical
        simulations on every call (the replay soundness requirement).
    properties:
        :class:`~repro.tasks.properties.PropertyAdapter` observers.
    config:
        Exploration bounds.
    prefix:
        A schedule to replay (with property checks) before exploring —
        the sharding hook behind :class:`~repro.mc.parallel.McShardSpec`.
    """

    def __init__(
        self,
        make_sim: Callable[[], Simulation],
        properties: Sequence[PropertyAdapter] = (),
        config: Optional[ExploreConfig] = None,
        prefix: Sequence[int] = (),
    ):
        self._make_sim = make_sim
        self._properties = list(properties)
        self.config = config if config is not None else ExploreConfig()
        self._prefix = tuple(prefix)
        self.stats = ExploreStats()
        self._reducer = SleepSetReducer(enabled=self.config.por)
        self.violations: List[RawViolation] = []
        self._stop = False
        self._dedup = self.config.dedup
        self._journal: Optional[SimulationJournal] = None
        #: One shared ``(depth, sleep)`` tuple per distinct pair (at most
        #: ``(max_depth + 1)·2^(n+1)``), so a visited state costs only its
        #: key and its dict slot.
        self._entries: Dict[Tuple[int, int], Tuple[int, int]] = {}

    # -- plumbing ------------------------------------------------------------

    def _replay(self, schedule: Sequence[int]) -> Simulation:
        sim = self._make_sim()
        for pid in schedule:
            sim.step(pid)
        self.stats.replays += 1
        self.stats.replay_steps += len(schedule)
        return sim

    def _record_violation(self, kind, prop, reason, schedule) -> None:
        self.violations.append(
            RawViolation(kind, prop, reason, tuple(schedule), len(schedule))
        )
        if self.config.first_violation:
            self._stop = True

    def _check_step(self, sim, record, schedule) -> bool:
        found = False
        for prop in self._properties:
            reason = prop.on_step(sim, record)
            if reason:
                self._record_violation("property", prop.name, reason, schedule)
                found = True
        return found

    def _leaf(self, sim, schedule, terminal: bool) -> None:
        if terminal:
            self.stats.complete_schedules += 1
            for prop in self._properties:
                reason = prop.at_terminal(sim)
                if reason:
                    self._record_violation(
                        "property", prop.name, reason, schedule
                    )
        else:
            self.stats.depth_exhausted += 1
            for prop in self._properties:
                reason = prop.at_horizon(sim)
                if reason:
                    self._record_violation(
                        "property", prop.name, reason, schedule
                    )
            if self.config.require_progress:
                self._record_violation(
                    "no-termination",
                    None,
                    f"no termination within depth bound "
                    f"{self.config.max_depth}",
                    schedule,
                )

    def _run_prefix(self, sim: Simulation, schedule: List[int]) -> bool:
        """Replay the shard prefix with property checks.  False = abort."""
        for pid in self._prefix:
            try:
                record = sim.step(pid)
            except ReproError as exc:
                self.stats.transitions_explored += 1
                self._record_violation(
                    "error", None, str(exc), schedule + [pid]
                )
                return False
            schedule.append(pid)
            self.stats.transitions_explored += 1
            self._check_step(sim, record, schedule)
            if self._stop:
                return False
        return True

    # -- entry ---------------------------------------------------------------

    def explore(self) -> ExploreResult:
        started = _time.perf_counter()
        self._dfs()
        self.stats.wall_seconds = _time.perf_counter() - started
        self.stats.cpu_seconds = self.stats.wall_seconds
        return ExploreResult(
            self.stats, self._reducer.stats, list(self.violations)
        )

    def _fingerprint(self, sim) -> Optional[str]:
        """The current state's fingerprint — incremental when a journal is
        attached, from-scratch otherwise.  An unencodable state disables
        deduplication for the rest of this exploration (soundness over
        speed: exploring without merging is always correct) and returns
        ``None``."""
        try:
            if self._journal is not None:
                return self._journal.digest()
            return fingerprint(sim)
        except FingerprintError:
            self._dedup = False
            return None

    # -- DFS -----------------------------------------------------------------

    def _enter(self, sim, schedule, sleep, visited) -> Optional[_Frame]:
        config = self.config
        stats = self.stats
        depth = len(schedule)
        stats.states_visited += 1
        if depth > stats.max_depth:
            stats.max_depth = depth
        if (
            config.max_states is not None
            and stats.states_visited > config.max_states
        ):
            stats.truncated = True
            self._stop = True
            return None
        eligible = sim.eligible()
        if not eligible:
            stats.states_distinct += 1
            self._leaf(sim, schedule, terminal=True)
            return None
        if depth >= config.max_depth:
            stats.states_distinct += 1
            self._leaf(sim, schedule, terminal=False)
            return None
        por = self._reducer.applicable(sim)
        if not por:
            sleep = 0  # a full expansion covers any sleep set
        if self._dedup:
            fp = self._fingerprint(sim)
            if fp is not None:
                seen = visited.get(fp)
                if seen is not None:
                    entries = seen if type(seen) is list else (seen,)
                    for seen_depth, seen_sleep in entries:
                        if seen_depth <= depth and not seen_sleep & ~sleep:
                            stats.pruned_visited += 1
                            return None
                entry = (depth, sleep)
                entry = self._entries.setdefault(entry, entry)
                if seen is None:
                    visited[fp] = entry
                elif type(seen) is list:
                    seen.append(entry)
                else:
                    visited[fp] = [seen, entry]
        stats.states_distinct += 1
        reduction = self._reducer.stats
        reduction.enabled += len(eligible)
        if por:
            candidates = [p for p in eligible if not sleep >> p & 1]
            reduction.slept += len(eligible) - len(candidates)
        else:
            candidates = eligible
            if self.config.por:
                reduction.sensitive_states += 1
        reduction.explored += len(candidates)
        return _Frame(depth, candidates, sleep, por)

    def _dfs(self) -> None:
        sim = self._make_sim()
        self._dedup = self.config.dedup and sim.network is None
        journal: Optional[SimulationJournal] = None
        if self.config.checkpoint and sim.network is None:
            journal = SimulationJournal(sim)
        self._journal = journal
        try:
            self._dfs_loop(sim, journal)
        finally:
            if journal is not None:
                self.stats.restores += journal.restores
                self.stats.gen_replays += journal.gen_replays
                self.stats.gen_replay_steps += journal.gen_replay_steps
                self._journal = None

    def _dfs_loop(
        self, sim: Simulation, journal: Optional[SimulationJournal]
    ) -> None:
        schedule: List[int] = []
        if not self._run_prefix(sim, schedule):
            return
        # fingerprint -> its one (depth, sleep) entry, or a list of them
        # once the state came back uncovered.
        visited: Dict[str, Any] = {}
        frames: List[_Frame] = []
        root = self._enter(sim, schedule, 0, visited)
        if root is not None:
            if journal is not None:
                root.cp = journal.checkpoint()
            frames.append(root)
        dirty = False
        while frames and not self._stop:
            frame = frames[-1]
            if frame.index >= len(frame.candidates):
                frames.pop()
                continue
            pid = frame.candidates[frame.index]
            frame.index += 1
            if dirty or len(schedule) != frame.depth:
                # Backtrack: restore the frame's checkpoint (O(processes)
                # + undo of the abandoned branch's deltas), or rebuild
                # and replay the prefix when checkpointing is off.
                if journal is not None:
                    journal.restore(frame.cp)
                else:
                    sim = self._replay(schedule[: frame.depth])
                del schedule[frame.depth:]
                dirty = False
            try:
                record = sim.step(pid)
            except ReproError as exc:
                self.stats.transitions_explored += 1
                self._record_violation(
                    "error", None, str(exc), schedule + [pid]
                )
                dirty = True  # the failed step may have mutated memory
                continue
            schedule.append(pid)
            self.stats.transitions_explored += 1
            if self._check_step(sim, record, schedule):
                continue  # don't descend below a violating step
            child_sleep = 0
            if frame.por:
                child_sleep = self._reducer.child_sleep(
                    sim, record.op, frame.sleep | frame.executed
                )
                frame.executed |= 1 << pid
            child = self._enter(sim, schedule, child_sleep, visited)
            if child is not None:
                if journal is not None:
                    child.cp = journal.checkpoint()
                frames.append(child)


# -- instance-level checking --------------------------------------------------


@dataclasses.dataclass
class CheckResult:
    """One instance's exploration outcome (picklable, JSON-able)."""

    instance: McInstance
    config: ExploreConfig
    stats: ExploreStats
    reduction: ReductionStats
    counterexamples: List[Counterexample]

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> Dict[str, Any]:
        return {
            "instance": self.instance.to_dict(),
            "config": self.config.to_dict(),
            "stats": self.stats.to_dict(),
            "reduction": self.reduction.to_dict(),
            "ok": self.ok,
            "counterexamples": [
                ce.to_dict() for ce in self.counterexamples
            ],
        }


@dataclasses.dataclass
class CheckReport:
    """Aggregate over a (possibly swept) :func:`check` call."""

    results: List[CheckResult]
    #: Measured wall time of the whole call.  ``total_stats`` uses it in
    #: place of the shard walls, so parallel throughput is states over
    #: *elapsed* time, not over total cpu time.
    elapsed_seconds: float

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def counterexamples(self) -> List[Counterexample]:
        return [ce for r in self.results for ce in r.counterexamples]

    @property
    def instances_checked(self) -> int:
        return len(self.results)

    def total_stats(self) -> ExploreStats:
        total = ExploreStats()
        for result in self.results:
            total.merge_concurrent(result.stats)
        total.wall_seconds = self.elapsed_seconds
        return total

    def total_reduction(self) -> ReductionStats:
        total = ReductionStats()
        for result in self.results:
            total.merge(result.reduction)
        return total

    def record_metrics(self, registry: MetricsRegistry) -> None:
        """Publish the exploration statistics as obs metrics."""
        stats = self.total_stats()
        reduction = self.total_reduction()
        states = registry.counter("mc_states", "model-checker state counts")
        states.inc("visited", stats.states_visited)
        states.inc("distinct", stats.states_distinct)
        states.inc("pruned_visited", stats.pruned_visited)
        transitions = registry.counter(
            "mc_transitions", "scheduler choices during exploration"
        )
        transitions.inc("explored", stats.transitions_explored)
        transitions.inc("enabled", reduction.enabled)
        transitions.inc("slept", reduction.slept)
        leaves = registry.counter("mc_leaves", "exploration leaves")
        leaves.inc("complete", stats.complete_schedules)
        leaves.inc("depth_exhausted", stats.depth_exhausted)
        registry.counter(
            "mc_counterexamples", "violations found"
        ).inc(amount=len(self.counterexamples))
        registry.gauge("mc_max_depth", "deepest explored state").set(
            stats.max_depth
        )
        registry.gauge("mc_wall_seconds", "exploration wall time").set(
            stats.wall_seconds
        )
        registry.gauge(
            "mc_reduction_ratio", "explored / enabled transitions"
        ).set(reduction.ratio)
        registry.gauge(
            "mc_states_per_second", "visited states per wall second"
        ).set(stats.states_per_second)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "instances_checked": self.instances_checked,
            "elapsed_seconds": self.elapsed_seconds,
            "stats": self.total_stats().to_dict(),
            "reduction": self.total_reduction().to_dict(),
            "results": [result.to_dict() for result in self.results],
        }


def explore_instance(
    instance: McInstance,
    config: Optional[ExploreConfig] = None,
    prefix: Sequence[int] = (),
) -> CheckResult:
    """Explore one instance and bundle its violations as counterexamples."""
    instance = resolve_instance(instance)
    config = config if config is not None else ExploreConfig()
    explorer = Explorer(
        lambda: build_simulation(instance),
        instance_properties(instance),
        config,
        prefix=prefix,
    )
    result = explorer.explore()
    counterexamples = []
    for violation in result.violations:
        bundle = Counterexample.from_violation(instance, violation)
        if config.shrink and bundle.kind in ("property", "error"):
            bundle = bundle.shrink()
        counterexamples.append(bundle)
    return CheckResult(
        instance, config, result.stats, result.reduction, counterexamples
    )


def check(
    instance: McInstance,
    config: Optional[ExploreConfig] = None,
    sweep: Optional[CrashSweep] = None,
    jobs: Optional[int] = 1,
    cache=None,
    *,
    batch_size: Optional[int] = None,
    retries: int = 0,
    trial_timeout: Optional[float] = None,
    quarantine=None,
    collector=None,
) -> CheckReport:
    """Model-check an instance — schedules × crash subsets × crash times.

    The work runs as :class:`~repro.mc.parallel.McShardSpec` trials
    through :func:`repro.perf.run_trials`, so ``jobs`` (``0``/``None``:
    one worker per CPU; ``1``: in this process), ``cache``,
    ``batch_size`` (``run_trials``' ``chunk_size``), ``retries``,
    ``trial_timeout``, ``quarantine`` and ``collector`` mean what they
    mean there.  With ``sweep``, each failure pattern of
    :func:`~repro.mc.instances.sweep_instances` is one shard, explored
    in full; a quarantined pattern is left out of the report.  A lone
    instance is one shard, or one per root branch when more than one
    worker runs; a quarantined branch marks the merged stats truncated.
    """
    # Deferred: repro.mc.parallel imports this module, and repro.perf
    # stays unimported until a check runs.
    from ..perf.executor import resolve_jobs, run_trials
    from .parallel import make_shard_spec, merge_shard_results, shard_prefixes

    config = config if config is not None else ExploreConfig()
    started = _time.perf_counter()
    if sweep is not None:
        specs = [make_shard_spec(swept, config)
                 for swept in sweep_instances(instance, sweep)]
    else:
        prefixes = shard_prefixes(instance, config) \
            if resolve_jobs(jobs) > 1 else [()]
        specs = [make_shard_spec(instance, config, prefix)
                 for prefix in prefixes]
    results = run_trials(
        specs, jobs=jobs, cache=cache, chunk_size=batch_size,
        retries=retries, trial_timeout=trial_timeout,
        quarantine=quarantine, collector=collector,
    )
    if sweep is None:
        results = [merge_shard_results(instance, config, results)]
    return CheckReport(
        [result for result in results if result is not None],
        elapsed_seconds=_time.perf_counter() - started,
    )
