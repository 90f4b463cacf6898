#!/usr/bin/env python3
"""Record farm-throughput timings as the ``BENCH_farm.json`` artifact.

Runs one set-agreement grid (500 trials by default) three ways:

1. serial ``run_trials`` in-process   (the no-farm baseline)
2. farm store drained by 1 ``repro worker`` subprocess
3. a fresh farm store drained by 2 concurrent ``repro worker``
   subprocesses

and asserts the determinism contract along the way: both farm drains
reassemble to a CSV byte-identical to the serial one.  The claim path
is metered separately — a dedicated store is drained one
``claim_batch(limit=1)`` + ``complete`` round trip at a time with no
trial execution, giving the pure SQLite transaction overhead per trial.

``farm_overhead_vs_resilient`` compares the two resilient-execution
paths on the same grid, both in-process with a fresh cache:
``run_trials(store=<fresh store>)`` over ``run_trials(retries=1,
trial_timeout=10, journal=<fresh journal>)``, interleaved, best of 3
each.  1.0 means a store drain costs what the journal path costs.

``farm_speedup_2v1`` is honest about the host: two workers on a 1-CPU
container cannot speed up compute (``parallel_meaningful`` goes false),
they can only overlap the queue's idle time.

The artifact lands in ``benchmarks/artifacts/BENCH_farm.json``
(``--output`` to override), where ``benchmarks/report.py`` folds it
into the campaign ledger for ``repro report`` like every other
``BENCH_*.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_farm.py --trials 500
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
import tempfile
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.analysis.sweeps import set_agreement_grid, to_csv  # noqa: E402
from repro.farm import (  # noqa: E402
    SQLiteFarmStore,
    collect_results,
    submit_campaign,
)
from repro.obs.campaign import (  # noqa: E402
    SCHEMA_VERSION as ARTIFACT_SCHEMA_VERSION,
)
from repro.perf import (  # noqa: E402
    ENGINE_VERSION,
    ResiliencePolicy,
    TrialCache,
    run_trials,
)

DEFAULT_OUTPUT = pathlib.Path(__file__).parent / "artifacts" / "BENCH_farm.json"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _grid(trials: int):
    # seeds × 2 stabilization times at n+1 = 3: cheap enough that the
    # claim/lease machinery, not the simulator, dominates.
    seeds = list(range((trials + 1) // 2))
    return set_agreement_grid(
        system_sizes=[3], seeds=seeds, stabilization_times=[0, 40],
    )[:trials]


def _timed(label: str, fn):
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    print(f"  {label:<28} {wall:>8.2f}s")
    return result, wall


def _drain_with_workers(store_path: pathlib.Path, specs, n_workers: int):
    """Submit the grid, drain it with N worker subprocesses, collect."""
    store = SQLiteFarmStore(store_path)
    submitted = submit_campaign(store, specs, campaign="bench")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--store", store.url, "--no-cache",
             "--lease-ttl", "30", "--worker-id", f"bench-w{i}"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        for i in range(n_workers)
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=600)
        if proc.returncode != 0:
            raise AssertionError(
                f"worker exited {proc.returncode}: {err.decode()[-500:]}"
            )
    counts = store.counts()
    if counts["pending"] or counts["leased"] or counts["failed"]:
        raise AssertionError(f"store not drained: {counts}")
    results, _ = collect_results(store, submitted["campaign"])
    store.close()
    return results


def _claim_overhead(store_path: pathlib.Path, rounds: int) -> float:
    """Seconds per claim+complete transaction pair, no trial execution."""
    store = SQLiteFarmStore(store_path)
    specs = _grid(rounds)
    store.create_campaign("claims", "bench", len(specs), {})
    from repro.perf import spec_key

    store.enqueue("claims", [
        (i, spec_key(spec), spec, False, None, None)
        for i, spec in enumerate(specs)
    ])
    policy = ResiliencePolicy()
    start = time.perf_counter()
    claimed = 0
    while True:
        leases, _ = store.claim_batch("meter", 1, 30.0, policy)
        if not leases:
            break
        store.complete(leases[0].token, None, None)
        claimed += 1
    wall = time.perf_counter() - start
    store.close()
    if claimed != rounds:
        raise AssertionError(f"claim meter drained {claimed}/{rounds}")
    return wall / rounds


def _overhead_vs_resilient(workdir: pathlib.Path, specs, serial_csv: str,
                           repeats: int = 3) -> tuple:
    """Best in-process store drain and best resilient run, seconds.

    Rounds alternate which path goes first; every run starts from a
    fresh store or journal and a fresh cache.
    """
    def store_run(work: pathlib.Path):
        return run_trials(specs, store=str(work / "store.db"),
                          cache=TrialCache(work / "cache"))

    def resilient_run(work: pathlib.Path):
        return run_trials(specs, retries=1, trial_timeout=10,
                          journal=str(work / "journal.jsonl"),
                          cache=TrialCache(work / "cache"))

    best = {"store": float("inf"), "resilient": float("inf")}
    runs = (("store", store_run), ("resilient", resilient_run))
    for round_ in range(repeats):
        for name, run in runs if round_ % 2 == 0 else runs[::-1]:
            start = time.perf_counter()
            results = run(workdir / f"{name}-{round_}")
            best[name] = min(best[name], time.perf_counter() - start)
            if to_csv(results) != serial_csv:
                raise AssertionError(f"{name} CSV differs from serial CSV")
    return best["store"], best["resilient"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=500)
    parser.add_argument("--claim-rounds", type=int, default=200,
                        help="claim+complete pairs for the overhead meter")
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT))
    args = parser.parse_args(argv)

    specs = _grid(args.trials)
    n = len(specs)
    cpu = os.cpu_count() or 1
    print(f"farm bench: {n} trials, host cpus={cpu}")

    serial, serial_s = _timed(
        "serial run_trials (jobs=1)", lambda: run_trials(specs, jobs=1)
    )
    serial_csv = to_csv(serial)

    with tempfile.TemporaryDirectory(prefix="repro-bench-farm-") as tmp:
        tmp_path = pathlib.Path(tmp)
        farm1, farm1_s = _timed(
            "farm, 1 worker process",
            lambda: _drain_with_workers(tmp_path / "one.db", specs, 1),
        )
        farm2, farm2_s = _timed(
            "farm, 2 worker processes",
            lambda: _drain_with_workers(tmp_path / "two.db", specs, 2),
        )
        if to_csv(farm1) != serial_csv or to_csv(farm2) != serial_csv:
            raise AssertionError("farm CSV differs from serial CSV")
        claim_s = _claim_overhead(tmp_path / "claims.db", args.claim_rounds)
        print(f"  claim+complete round trip   {claim_s * 1000:>8.2f}ms/trial")
        store_s, resilient_s = _overhead_vs_resilient(
            tmp_path, specs, serial_csv
        )
        print(f"  in-process store drain      {store_s:>8.2f}s (best of 3)")
        print(f"  resilient run_trials        {resilient_s:>8.2f}s (best of 3)")

    payload = {
        "engine_version": ENGINE_VERSION,
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "trials": n,
        "workers": 2,
        "effective_jobs": min(2, cpu),
        "parallel_meaningful": 2 <= cpu,
        "host": {
            "cpu_count": cpu,
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "serial_seconds": round(serial_s, 3),
        "farm_1worker_seconds": round(farm1_s, 3),
        "farm_2worker_seconds": round(farm2_s, 3),
        "trials_per_second_serial": round(n / serial_s, 1),
        "trials_per_second_1worker": round(n / farm1_s, 1),
        "trials_per_second_2workers": round(n / farm2_s, 1),
        "farm_speedup_2v1": round(farm1_s / farm2_s, 2),
        "farm_overhead_vs_serial": round(farm1_s / serial_s, 2),
        "claim_overhead_ms_per_trial": round(claim_s * 1000, 3),
        "store_drain_seconds": round(store_s, 3),
        "resilient_seconds": round(resilient_s, 3),
        "farm_overhead_vs_resilient": round(store_s / resilient_s, 2),
        "csv_identical": True,
    }
    output = pathlib.Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"farm: 2 workers {payload['farm_speedup_2v1']}x vs 1, "
          f"claim tax {payload['claim_overhead_ms_per_trial']}ms/trial, "
          f"store drain {payload['farm_overhead_vs_resilient']}x the "
          f"resilient path, artifact -> {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
