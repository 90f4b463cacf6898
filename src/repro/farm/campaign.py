"""Submit, collect, and run campaigns against a farm store.

The submit/collect pair is the farm's determinism contract: a grid goes
in with its **input positions** as row keys, workers drain it in
whatever order the leases fall, and :func:`collect_results` reassembles
results *by position* — so a campaign drained by two machines is
byte-identical to a serial :func:`~repro.perf.executor.run_trials` of
the same grid, down to the telemetry counters (each row's result and
its stored :class:`~repro.obs.telemetry.TrialTelemetry` payload are
merged in position order through the same
:class:`~repro.obs.telemetry.TelemetryRelay` the executor uses).

The :class:`~repro.perf.cache.TrialCache` is the shared result tier:
submit prefilters the whole grid with one
:meth:`~repro.perf.cache.TrialCache.get_many` and enqueues hits as
already-done rows, so workers only ever see true misses; workers write
their results back with :meth:`~repro.perf.cache.TrialCache.put_many`
(one transaction into the cache's ``results.db`` per claimed batch), so
the *next* campaign's submit sees them as hits.  A result is thus
stored twice, as the store row's ``result`` and as a cache row.

:func:`run_store_backed` is the ``run_trials(store=...)`` backend: it
submits, drains with an in-process :class:`~repro.farm.worker.FarmWorker`
(sharing the load with any external ``repro worker`` processes pointed
at the same store), and collects.
"""

from __future__ import annotations

import time
import uuid
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..perf.cache import TrialCache
from ..perf.resilience import QuarantineReport, ResiliencePolicy
from ..perf.spec import ENGINE_VERSION, spec_key
from .store import FarmStore, open_store
from .worker import FarmWorker


def default_campaign_name() -> str:
    """A fresh, collision-proof campaign name."""
    return f"run-{int(time.time())}-{uuid.uuid4().hex[:8]}"


def submit_campaign(
    store: Union[FarmStore, str],
    specs: Sequence[Any],
    *,
    campaign: Optional[str] = None,
    kind: str = "grid",
    cache: Optional[TrialCache] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Enqueue a grid as one campaign; returns a submit summary.

    With a cache, the grid is prefiltered in one ``get_many`` round
    trip: hits are enqueued as completed rows (``cached`` flag set, with
    the same cache-hit telemetry payload as the executor's), so only
    misses cost worker time.
    """
    from ..obs.telemetry import trial_telemetry

    store = open_store(store)
    campaign = campaign or default_campaign_name()
    specs = list(specs)
    keys = [spec_key(spec) for spec in specs]

    hits: List[Optional[Any]] = [None] * len(specs)
    per_hit = 0.0
    if cache is not None and specs:
        lookup_start = time.perf_counter()
        hits = cache.get_many(specs, keys)
        per_hit = (time.perf_counter() - lookup_start) / max(1, len(specs))

    entries = []
    cache_hits = 0
    for position, (spec, key, hit) in enumerate(zip(specs, keys, hits)):
        if hit is None:
            entries.append((position, key, spec, False, None, None))
            continue
        cache_hits += 1
        entries.append((position, key, spec, True, hit, trial_telemetry(
            spec, hit, key, (("cache_lookup", per_hit),))))

    full_meta = {"engine_version": ENGINE_VERSION}
    full_meta.update(meta or {})
    store.create_campaign(campaign, kind, len(specs), full_meta)
    store.enqueue(campaign, entries)
    return {
        "campaign": campaign,
        "store": store.url,
        "kind": kind,
        "trials": len(specs),
        "cache_hits": cache_hits,
        "pending": len(specs) - cache_hits,
    }


class CampaignIncompleteError(RuntimeError):
    """Collect was asked for results of a campaign still in flight."""


def collect_results(
    store: Union[FarmStore, str],
    campaign: str,
    *,
    collector=None,
    quarantine: Optional[QuarantineReport] = None,
    strict: bool = True,
) -> Tuple[List[Any], Dict[str, int]]:
    """Reassemble a campaign's results in input (position) order.

    Quarantined rows yield ``None`` in their slots and an entry in
    ``quarantine`` — the same partial-results contract as the resilient
    executor.  With ``strict`` (the default) a campaign that still has
    pending/leased/failed rows raises :class:`CampaignIncompleteError`;
    pass ``strict=False`` to snapshot whatever is finished so far.

    With a ``collector``, every finished row's result and telemetry
    payload are merged into its registry in position order via the
    executor's own :class:`~repro.obs.telemetry.TelemetryRelay`, and its
    summary events published on ``collector.bus`` — a farm campaign then
    reports the same trial-level counters as a ``--jobs 1`` sweep.
    """
    store = open_store(store)
    rows = store.campaign_rows(campaign)
    info = {"trials": len(rows), "completed": 0, "cached": 0,
            "quarantined": 0, "unfinished": 0}

    relay = None
    if collector is not None:
        from ..obs.telemetry import TelemetryRelay

        relay = TelemetryRelay(collector.registry, collector.bus)

    results: List[Any] = [None] * len(rows)
    for row in rows:
        position = row["position"]
        if row["state"] == "done":
            results[position] = row["result"]
            info["completed"] += 1
            if row["cached"]:
                info["cached"] += 1
            if relay is not None and row["telemetry"] is not None:
                relay.record(position, row["telemetry"])
        elif row["state"] == "quarantined":
            info["quarantined"] += 1
            if quarantine is not None:
                quarantine.add(position, row["key"], row["spec"],
                               row["attempts"], row["failure"] or "")
        else:
            info["unfinished"] += 1
    if info["unfinished"] and strict:
        raise CampaignIncompleteError(
            f"campaign {campaign!r} still has {info['unfinished']} "
            f"unfinished trial(s); drain it (repro worker --store "
            f"{store.url}) or collect with strict=False"
        )
    if relay is not None:
        relay.finish(results)
    return results, info


def run_store_backed(
    specs: Sequence[Any],
    store: Union[FarmStore, str],
    *,
    jobs: Optional[int] = 1,
    cache: Optional[TrialCache] = None,
    policy: Optional[ResiliencePolicy] = None,
    quarantine: Optional[QuarantineReport] = None,
    bus=None,
    collector=None,
    dispatch=None,
    pool=None,
) -> List[Any]:
    """The ``run_trials(store=...)`` backend: submit → drain → collect.

    The in-process worker drains alongside any external workers pointed
    at the same store — ``run_trials`` with a shared store URL *is* the
    "submit and help out" mode.  Results come back in input order; the
    contract (quarantined slots ``None``, telemetry merged into
    ``collector``) matches the local resilient executor exactly.  With
    no ``bus``, the worker's ``TrialRetried``, ``TrialQuarantined``,
    ``TrialTimedOut`` and ``retry_backoff`` ``TrialSpanRecorded``
    events reach ``collector.bus``, as a local run's do; its claim and
    reap events, labelled by host and pid, do not.
    Above one job the worker runs on ``pool`` (default: the shared
    pool), and its pool work is metered into ``dispatch`` as
    ``run_trials`` meters its own.
    """
    from ..obs.events import (
        EventBus,
        TrialQuarantined,
        TrialRetried,
        TrialSpanRecorded,
        TrialTimedOut,
    )
    from ..perf.executor import resolve_jobs
    from ..perf.pool import shared_pool

    opened = not isinstance(store, FarmStore)
    store = open_store(store)
    policy = policy or ResiliencePolicy()
    quarantine = quarantine if quarantine is not None else QuarantineReport()
    jobs = resolve_jobs(jobs)
    if jobs > 1 and pool is None:
        pool = shared_pool()
    if bus is None and collector is not None:
        bus = EventBus()
        bus.subscribe(collector.bus.publish,
                      (TrialRetried, TrialQuarantined, TrialTimedOut,
                       TrialSpanRecorded))
    try:
        submitted = submit_campaign(store, specs, cache=cache)
        worker = FarmWorker(
            store, jobs=jobs, policy=policy, cache=cache,
            campaign=submitted["campaign"], bus=bus, pool=pool,
        )
        with pool.scoped(dispatch) if jobs > 1 else nullcontext():
            worker.drain()
        results, _ = collect_results(
            store, submitted["campaign"], collector=collector,
            quarantine=quarantine,
        )
        if dispatch is not None:
            # Above one job the pool counts the trials it was sent.
            dispatch.trials += submitted["cache_hits"] if jobs > 1 \
                else len(results)
        return results
    finally:
        if opened:
            store.close()
