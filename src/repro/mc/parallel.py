"""Model-checking shards — the trial specs that :func:`~repro.mc.check` runs.

A model-checking *shard* is an instance plus a schedule prefix: the
worker replays the prefix and exhaustively explores the subtree below
it.  Sharding the root branching factor (one shard per length-``d``
prefix) makes the shards independent, so they run through
:func:`repro.perf.executor.run_trials` like any trial, in this process
or over its worker pool, and land in the same content-addressed
:class:`~repro.perf.cache.TrialCache` as bench trials
(:class:`McShardSpec` carries the instance and config as canonical JSON
strings precisely so ``spec_key`` hashes them unchanged).

Two deliberate approximations versus an unsharded run:

* Sibling shards don't share sleep sets or visited-state tables, so a
  sharded exploration may visit *more* states than an unsharded one —
  verdicts and counterexamples are identical, the stats are an upper
  bound.
* Each shard re-checks its prefix, so a violation inside a shared prefix
  is reported by every shard below it; :func:`merge_shard_results`
  deduplicates counterexamples by (schedule, kind, prop, reason).
"""

from __future__ import annotations

import dataclasses
import json
from typing import List, Optional, Sequence, Tuple

from ..runtime.errors import ReproError
from .explorer import CheckResult, ExploreConfig, explore_instance
from .instances import McInstance, build_simulation, resolve_instance


@dataclasses.dataclass(frozen=True)
class McShardSpec:
    """One shard of a model-checking run (picklable, cache-keyable).

    The instance and configuration travel as canonical JSON strings so
    that :func:`repro.perf.spec.spec_key` — which hashes the sorted JSON
    of ``dataclasses.asdict(spec)`` — keys shards with zero changes to
    the perf layer.
    """

    instance_json: str
    config_json: str
    prefix: Tuple[int, ...] = ()

    kind = "mc_shard"

    def instance(self) -> McInstance:
        return McInstance.from_dict(json.loads(self.instance_json))

    def config(self) -> ExploreConfig:
        return ExploreConfig(**json.loads(self.config_json))


def make_shard_spec(
    instance: McInstance,
    config: ExploreConfig,
    prefix: Sequence[int] = (),
) -> McShardSpec:
    instance = resolve_instance(instance)
    return McShardSpec(
        instance_json=json.dumps(
            instance.to_dict(), sort_keys=True, separators=(",", ":")
        ),
        config_json=json.dumps(
            config.to_dict(), sort_keys=True, separators=(",", ":")
        ),
        prefix=tuple(prefix),
    )


def execute_mc_shard(spec: McShardSpec) -> CheckResult:
    """Worker entry point (dispatched from ``perf.spec.execute_trial``)."""
    return explore_instance(
        spec.instance(), spec.config(), prefix=spec.prefix
    )


def shard_prefixes(
    instance: McInstance,
    config: ExploreConfig,
    depth: int = 1,
) -> List[Tuple[int, ...]]:
    """All schedule prefixes of length ``depth`` (shorter when a branch
    terminates or errors first — those stay as leaf shards)."""
    instance = resolve_instance(instance)
    depth = min(depth, config.max_depth)
    frontier: List[Tuple[int, ...]] = [()]
    for _ in range(depth):
        next_frontier: List[Tuple[int, ...]] = []
        for prefix in frontier:
            sim = build_simulation(instance)
            try:
                sim.run_script(prefix)
            except ReproError:
                next_frontier.append(prefix)  # error leaf: keep as shard
                continue
            eligible = sim.eligible()
            if not eligible:
                next_frontier.append(prefix)  # terminal leaf
            else:
                next_frontier.extend(prefix + (pid,) for pid in eligible)
        frontier = next_frontier
    return frontier


def merge_shard_results(
    instance: McInstance,
    config: ExploreConfig,
    shards: Sequence[Optional[CheckResult]],
) -> CheckResult:
    """Combine shard results into one instance-level :class:`CheckResult`.

    ``None`` shards (quarantined by a resilient executor) are skipped and
    mark the merged stats *truncated*: the verdict is still sound for the
    subtrees that ran, but the exploration no longer covers everything.

    Shards ran side by side, so their stats fold via
    :meth:`~repro.mc.explorer.ExploreStats.merge_concurrent`: compute
    time (``cpu_seconds``) sums, wall time takes the max — summing the
    overlapping shard walls understated the reported throughput by
    roughly the worker count.  :func:`~repro.mc.explorer.check` also
    records the measured elapsed time of the whole fan-out, dispatch
    included, as its report's ``elapsed_seconds``.
    """
    merged = CheckResult(
        instance=resolve_instance(instance),
        config=config,
        stats=None,  # type: ignore[arg-type]  # filled below
        reduction=None,  # type: ignore[arg-type]
        counterexamples=[],
    )
    from .explorer import ExploreStats
    from .reduction import ReductionStats

    stats = ExploreStats()
    reduction = ReductionStats()
    seen = set()
    for shard in shards:
        if shard is None:
            stats.truncated = True
            continue
        stats.merge_concurrent(shard.stats)
        reduction.merge(shard.reduction)
        for ce in shard.counterexamples:
            key = (ce.schedule, ce.kind, ce.prop, ce.reason)
            if key in seen:
                continue  # same prefix violation, reported by a sibling
            seen.add(key)
            merged.counterexamples.append(ce)
    merged.stats = stats
    merged.reduction = reduction
    return merged
