"""Per-layer metrics of the traced run (``--trace 1``).

Each workload's traced pass records spans (see ``tracing.py``); the
functions in :data:`LAYERS` turn them into the layer metrics named in
``BENCHMARK.json`` and add probes for costs a pass never isolates:

* ``runtime``/``memory``/``detectors``/``obs``: the Fig. 3 extraction
  recipe run bare, with an idle bus and with a live collector, plus timed
  replays of its recorded scheduler choices, memory operations and
  detector queries (each replay must reproduce the recorded responses);
* ``mc``: the full-walk reference fingerprint and ``build_simulation``;
* ``perf``: ``put_many``, the watchdog and a one-spec pool round trip;
* ``farm``: single and batched claims, and heartbeats.

Every time is a median (or a mean over one pass's spans, where a span is
one call), and every number is taken with tracing on; a problem found on
the way is appended to ``problems``.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Any, Callable, Dict, List

from repro.core.extraction import make_extraction_protocol
from repro.core.samples import PhiMap
from repro.detectors.registry import make_detector
from repro.failures.environment import Environment
from repro.farm import SQLiteFarmStore
from repro.mc import build_simulation, fingerprint, resolve_instance
from repro.mc.checkpoint import SimulationJournal
from repro.mc.instances import sweep_instances
from repro.memory.base import Memory
from repro.obs import EventBus, MetricsCollector
from repro.perf import (
    ResiliencePolicy,
    TrialFailure,
    execute_trial,
    guarded_execute,
    run_trials,
    spec_key,
)
from repro.runtime.process import System
from repro.runtime.scheduler import RandomScheduler
from repro.runtime.simulation import Simulation

from tracing import (
    RecordingHistory,
    RecordingMemory,
    RecordingScheduler,
    TimedTrialCache,
    Tracer,
)
from workloads import JOBS, TRIAL_TIMEOUT

Metrics = Dict[str, float]
clock = time.perf_counter


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def timed(fn: Callable[[], Any]) -> float:
    started = clock()
    fn()
    return clock() - started


def median_time(fn: Callable[[], Any], repeats: int) -> float:
    return statistics.median(timed(fn) for _ in range(repeats))


# -- runtime, memory, detectors, obs: the extraction recipe -------------------


def extraction_recipe(seed: int):
    """The inputs of one Fig. 3 trial (omega, n+1=3), as its driver builds
    them, so the engine can be run without the trial driver around it."""
    system = System(3)
    env = Environment.wait_free(system)
    spec = make_detector("omega", env)
    rng = random.Random(f"ex:{spec.name}:{env.f}:{seed}")
    pattern = env.random_pattern(rng, max_crash_time=60)
    history = spec.sample_history(pattern, rng, stabilization_time=60)
    protocol = make_extraction_protocol(PhiMap(spec, env))

    def build(history=history, **kwargs) -> Simulation:
        return Simulation(system, protocol, inputs={}, pattern=pattern,
                          history=history, **kwargs)

    return system, history, build


def engine_ladder(seed: int, smoke: bool, problems: List[str]) -> Metrics:
    """µs per engine step: the bare step, what an idle bus and a live
    collector add, and the scheduler, memory and detector share of it."""
    steps = 4_000 if smoke else 40_000
    repeats = 2 if smoke else 3
    system, history, build = extraction_recipe(seed)

    def step_us(bus=None) -> float:
        sim = build(bus=bus)
        seconds = timed(lambda: sim.run(
            max_steps=steps, scheduler=RandomScheduler(seed + 1)
        ))
        return seconds / sim.time * 1e6

    memory = RecordingMemory(system)
    queries = RecordingHistory(history)
    choices = RecordingScheduler(RandomScheduler(seed + 1))
    recorded = build(history=queries, memory=memory)
    recorded.run(max_steps=steps, scheduler=choices)
    bare = build()
    bare.run(max_steps=steps, scheduler=RandomScheduler(seed + 1))
    if [(s.pid, s.response) for s in recorded.trace.steps] != \
            [(s.pid, s.response) for s in bare.trace.steps]:
        problems.append("recording engine objects changed the run")
    n = recorded.time

    def replay(calls, run, expect) -> float:
        started = clock()
        out = run(calls)
        seconds = clock() - started
        if out != [call[-1] for call in calls]:
            problems.append(f"{expect} replay diverged from the recording")
        return seconds / n * 1e6

    def scheduler(calls):
        choose = RandomScheduler(seed + 1).choose
        return [choose(t, eligible) for t, eligible, _ in calls]

    def execute(calls):
        run = Memory(system).execute
        return [run(op, pid) for op, pid, _ in calls]

    def value(calls):
        lookup = history.value
        return [lookup(pid, t) for pid, t, _ in calls]

    samples: Dict[str, List[float]] = {
        k: [] for k in ("bare", "idle", "live", "sched", "mem", "fd")
    }
    for _ in range(repeats):  # interleaved, so host drift hits all alike
        samples["bare"].append(step_us())
        samples["idle"].append(step_us(EventBus()))
        samples["live"].append(step_us(MetricsCollector().bus))
        samples["sched"].append(replay(choices.calls, scheduler, "scheduler"))
        samples["mem"].append(replay(memory.calls, execute, "memory"))
        samples["fd"].append(replay(queries.calls, value, "detector"))
    m = {key: statistics.median(values) for key, values in samples.items()}
    return {
        "runtime.step_us": m["bare"],
        "runtime.scheduler_us": m["sched"],
        "memory.execute_us": m["mem"],
        "detectors.value_us": m["fd"],
        "runtime.self_us": m["bare"] - m["sched"] - m["mem"] - m["fd"],
        "obs.idle_bus_us": m["idle"] - m["bare"],
        "obs.collector_us": m["live"] - m["bare"],
    }


def collector_probe(specs, smoke: bool) -> Metrics:
    """``MetricsCollector()`` construction and ``snapshot()`` cost."""
    count = 100 if smoke else 500
    new_s = median_time(
        lambda: [MetricsCollector() for _ in range(count)], 5
    ) / count
    collector = MetricsCollector()
    execute_trial(specs[-1], collector=collector)
    snapshot_s = median_time(
        lambda: [collector.snapshot() for _ in range(count // 4)], 5
    ) / (count // 4)
    return {
        "obs.collector_new_us": new_s * 1e6,
        "obs.snapshot_us": snapshot_s * 1e6,
    }


# -- one function per workload ------------------------------------------------


def sa_layers(wl, tracer: Tracer, traced, problems) -> Metrics:
    spans = tracer.durations("analysis.trial")
    out = {
        "analysis.sa_trial_ms_p50": percentile(spans, 50) * 1e3,
        "analysis.sa_trial_ms_p99": percentile(spans, 99) * 1e3,
        "analysis.sa_steps_per_trial": statistics.median(
            r.total_steps for r in traced.info["results"]
        ),
    }
    out.update(collector_probe(wl.specs, wl.smoke))
    return out


def extract_layers(wl, tracer: Tracer, traced, problems) -> Metrics:
    out = {
        "analysis.extract_trial_ms_p50":
            percentile(tracer.durations("analysis.trial"), 50) * 1e3,
    }
    out.update(engine_ladder(wl.seed, wl.smoke, problems))
    return out


def mc_layers(wl, tracer: Tracer, traced, problems) -> Metrics:
    report = traced.info["report"]
    stats = report.total_stats()
    instances = [resolve_instance(i)
                 for i in sweep_instances(wl.instance, wl.sweep)]
    walks, builds = (10, 10) if wl.smoke else (100, 50)
    build_s = median_time(lambda: build_simulation(instances[0]), builds)
    rng = random.Random(f"fingerprint:{wl.seed}")
    full: List[float] = []
    for walk in range(walks):
        sim = build_simulation(instances[walk % len(instances)])
        journal = SimulationJournal(sim)
        for _ in range(wl.config.max_depth):
            eligible = sim.eligible()
            if not eligible:
                break
            sim.step(rng.choice(eligible))
            started = clock()
            digest = fingerprint(sim)
            full.append(clock() - started)
            if digest != journal.digest():
                problems.append("full-walk and incremental fingerprints differ")
    return {
        "mc.states_visited": stats.states_visited,
        "mc.restores": stats.restores,
        "mc.gen_replays": stats.gen_replays,
        "mc.gen_replay_steps": stats.gen_replay_steps,
        "mc.reduction_ratio": report.total_reduction().ratio,
        "mc.states_per_s": stats.states_visited / traced.seconds,
        "mc.journal_step_us": tracer.mean("mc.journal_step") * 1e6,
        "mc.digest_us": tracer.mean("mc.digest") * 1e6,
        "mc.checkpoint_us": tracer.mean("mc.checkpoint") * 1e6,
        "mc.restore_us": tracer.mean("mc.restore") * 1e6,
        "mc.fingerprint_full_us": statistics.median(full) * 1e6,
        "mc.build_sim_ms": build_s * 1e3,
    }


def perf_layers(wl, tracer: Tracer, traced, problems) -> Metrics:
    cache, dispatch = traced.info["cache"], traced.info["dispatch"]
    hit_ratio = cache.hits / (cache.hits + cache.misses)
    if hit_ratio != 0.5:
        problems.append(f"cache hit ratio {hit_ratio}, expected 0.5")
    computed = list(zip(wl.specs, wl.reference))[1::2][:500]
    TimedTrialCache(wl.workdir / "put-probe", tracer).put_many(computed)

    # Watchdog: the same spec with and without it, alternating order.
    sample = wl.specs if wl.smoke else wl.specs[::15]
    extra: List[float] = []
    for index, spec in enumerate(sample):
        if index % 2:
            guarded = timed(lambda: guarded_execute(spec, TRIAL_TIMEOUT))
            plain = timed(lambda: execute_trial(spec))
        else:
            plain = timed(lambda: execute_trial(spec))
            guarded = timed(lambda: guarded_execute(spec, TRIAL_TIMEOUT))
        extra.append(guarded - plain)
    outcome = guarded_execute(sample[0], TRIAL_TIMEOUT)
    if isinstance(outcome, TrialFailure):
        problems.append(f"watchdog probe failed: {outcome.detail}")

    # One spec through the warm pool (retries=1 routes it to a worker).
    spec, repeats = wl.specs[1], (10 if wl.smoke else 50)
    local = median_time(lambda: execute_trial(spec), repeats)
    pooled = median_time(lambda: run_trials(
        [spec], jobs=JOBS, retries=1, trial_timeout=TRIAL_TIMEOUT,
        pool=wl.pool,
    ), repeats)
    return {
        "perf.cache_get_many_us_per_trial":
            tracer.total("perf.cache_get_many") / len(wl.specs) * 1e6,
        "perf.cache_put_many_us_per_trial":
            tracer.total("perf.cache_put_many") / len(computed) * 1e6,
        "perf.cache_hit_ratio": hit_ratio,
        "perf.pool_roundtrip_ms": (pooled - local) * 1e3,
        "perf.pickle_bytes_per_trial":
            (dispatch.pickle_bytes_out + dispatch.pickle_bytes_in)
            / cache.misses,
        "perf.watchdog_us": statistics.median(extra) * 1e6,
        "perf.journal_record_us": tracer.mean("perf.journal_record") * 1e6,
    }


def farm_layers(wl, tracer: Tracer, traced, problems) -> Metrics:
    n = len(wl.specs)
    rows = min(n, 256)
    store = SQLiteFarmStore(wl.workdir / "probe.db")
    policy = ResiliencePolicy()
    entries = [(i, spec_key(spec), spec, False, None, None)
               for i, spec in enumerate(wl.specs[:rows])]

    def drain(campaign: str, limit: int) -> float:
        """Seconds per trial spent claiming, ``limit`` rows per claim."""
        store.create_campaign(campaign, "probe", rows)
        store.enqueue(campaign, entries)
        claiming = 0.0
        while True:
            started = clock()
            leases, _ = store.claim_batch("probe", limit, 30.0, policy,
                                          campaign=campaign)
            if not leases:
                break
            claiming += clock() - started
            for lease in leases:
                store.complete(lease.token, wl.reference[lease.position])
        return claiming / rows

    try:
        claim_s = drain("claim-1", 1)
        batch_s = drain("claim-32", 32)
        store.create_campaign("beat", "probe", rows)
        store.enqueue("beat", entries)
        leases, _ = store.claim_batch("probe", 32, 30.0, policy,
                                      campaign="beat")
        tokens = [lease.token for lease in leases]
        beat_s = median_time(lambda: store.heartbeat(tokens, 30.0),
                             10 if wl.smoke else 100)
        if store.heartbeat(tokens, 30.0) != len(tokens):
            problems.append("heartbeat did not refresh every live lease")
    finally:
        store.close()
    submit = tracer.total("farm.create_campaign") + tracer.total("farm.enqueue")
    return {
        "farm.submit_us_per_trial": submit / n * 1e6,
        "farm.claim_us_per_trial": claim_s * 1e6,
        "farm.claim_batch_us_per_trial": batch_s * 1e6,
        "farm.complete_us": tracer.mean("farm.complete") * 1e6,
        "farm.heartbeat_us": beat_s * 1e6,
        "farm.collect_us_per_trial":
            tracer.total("farm.campaign_rows") / n * 1e6,
    }


#: Layer metrics per workload, computed from that workload's traced pass.
LAYERS = {
    "sa-serial": sa_layers,
    "extract-serial": extract_layers,
    "mc-fig2": mc_layers,
    "sa-resilient": perf_layers,
    "sa-farm": farm_layers,
}


def derived(metrics: Metrics) -> Metrics:
    """Metrics that combine layers measured on different workloads."""
    per_step_ms = (metrics["runtime.step_us"]
                   + metrics["obs.collector_us"]) / 1e3
    return {
        "analysis.sa_fixed_ms": metrics["analysis.sa_trial_ms_p50"]
        - metrics["analysis.sa_steps_per_trial"] * per_step_ms,
    }
