"""Chaos — decision latency and termination rate under injected faults.

Sweeps the two dominant chaos axes — the detector's lying prefix (Fig. 1
set agreement) and the network drop rate (k-converge over ABD registers)
— and records per-cell decision latency, termination rate, and fault
counts as ``benchmarks/artifacts/BENCH_chaos.json``.  The assertions
re-check the chaos layer's core claim on every measured run: the
injectors stay inside the paper's model, so safety and termination hold
at every severity; only *latency* may degrade.
"""

import json
import pathlib
import statistics

from repro.analysis import protocol_spec
from repro.chaos import ChaosConfig, injection_counts
from repro.obs.campaign import SCHEMA_VERSION as ARTIFACT_SCHEMA_VERSION
from repro.perf import ENGINE_VERSION, execute_trial

ARTIFACTS = pathlib.Path(__file__).parent / "artifacts"

N_PROCESSES = 4
SEEDS = range(3)
LYING_PREFIXES = (0, 60, 150)
DROP_RATES = (0.0, 0.4, 0.8)
MAX_STEPS = 400_000

_RESULTS: dict = {}


def _trial(protocol, seed, **knobs):
    """One chaotic trial: the protocol's ordinary spec plus a chaos field."""
    return execute_trial(protocol_spec(
        protocol, N_PROCESSES, seed, chaos=ChaosConfig(seed=seed, **knobs),
        max_steps=MAX_STEPS,
    ))


def _cell(results):
    decided = [r for r in results if "termination" not in r.violations]
    return {
        "trials": len(results),
        "termination_rate": len(decided) / len(results),
        "mean_decision_latency": (
            round(statistics.mean(r.last_decision_time for r in decided), 1)
            if decided else None
        ),
        "mean_total_steps": round(
            statistics.mean(r.total_steps for r in results), 1
        ),
        "mean_dropped": round(statistics.mean(
            injection_counts(r.metrics)["messages_dropped"] for r in results
        ), 1),
    }


def test_chaos_lying_prefix_grid():
    """Fig. 1 under growing lying prefixes: latency delta, never a
    safety or termination loss."""
    grid = {}
    for lying in LYING_PREFIXES:
        results = [_trial("fig1", seed, lying_prefix=lying) for seed in SEEDS]
        assert all(r.ok for r in results), [r.violations for r in results]
        grid[str(lying)] = _cell(results)
    baseline = grid[str(LYING_PREFIXES[0])]["mean_decision_latency"]
    for lying in LYING_PREFIXES:
        cell = grid[str(lying)]
        assert cell["termination_rate"] == 1.0
        cell["latency_delta_vs_clean"] = round(
            cell["mean_decision_latency"] - baseline, 1
        )
    _RESULTS["lying_prefix"] = {"protocol": "fig1", "cells": grid}


def test_chaos_drop_rate_grid():
    """k-converge over ABD under message drops: the safety envelope
    keeps the emulation atomic and live at every drop rate."""
    grid = {}
    for drop in DROP_RATES:
        results = [
            _trial("abd-converge", seed, drop_rate=drop, reorder_rate=drop / 2)
            for seed in SEEDS
        ]
        assert all(r.ok for r in results), [r.violations for r in results]
        grid[f"{drop:g}"] = _cell(results)
    baseline = grid["0"]["mean_decision_latency"]
    for drop in DROP_RATES:
        cell = grid[f"{drop:g}"]
        assert cell["termination_rate"] == 1.0
        cell["latency_delta_vs_clean"] = round(
            cell["mean_decision_latency"] - baseline, 1
        )
    assert grid[f"{DROP_RATES[-1]:g}"]["mean_dropped"] > 0
    _RESULTS["drop_rate"] = {"protocol": "abd-converge", "cells": grid}


def test_chaos_max_severity_throughput(benchmark):
    """Wall time of one maximum-severity Fig. 2 trial (every injector at
    its harshest legal setting)."""

    chaos = ChaosConfig.max_severity(seed=1)

    def run():
        result = execute_trial(protocol_spec(
            "fig2", N_PROCESSES, 1, chaos=chaos, max_steps=MAX_STEPS,
        ))
        assert result.ok, result.violations
        return result

    result = benchmark(run)
    counts = injection_counts(result.metrics)
    _RESULTS["max_severity_fig2"] = {
        "chaos": chaos.to_dict(),
        "total_steps": result.total_steps,
        "last_decision_time": result.last_decision_time,
        "bursts": counts["bursts"],
        "starvations": counts["starvations"],
    }


def test_write_chaos_artifact():
    """Persist the collected measurements (runs last in file order)."""
    assert "lying_prefix" in _RESULTS and "drop_rate" in _RESULTS
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    artifact = ARTIFACTS / "BENCH_chaos.json"
    artifact.write_text(
        json.dumps(
            {
                "experiment": "chaos",
                "engine": ENGINE_VERSION,
                "engine_version": ENGINE_VERSION,
                "schema_version": ARTIFACT_SCHEMA_VERSION,
                "n_processes": N_PROCESSES,
                "seeds": len(list(SEEDS)),
                "max_steps": MAX_STEPS,
                **_RESULTS,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
