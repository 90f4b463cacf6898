"""MC — systematic model checking: reduction ratio and throughput.

Explores a fixed Fig. 1 instance (n+1 = 2, depth 14) four ways — POR
on/off and serial/parallel — and records state counts, prune ratios,
states/sec, and wall times as ``benchmarks/artifacts/BENCH_mc.json``.
The assertions re-check the subsystem's core claims on every measured
run: partial-order reduction visits strictly fewer states than full
exploration while reaching the same verdict, and the planted
naive-converge bug is found either way.
"""

import json
import pathlib

import pytest

from repro.mc import (
    ExploreConfig,
    McInstance,
    check,
    explore_instance,
)
from repro.obs.campaign import SCHEMA_VERSION as ARTIFACT_SCHEMA_VERSION
from repro.perf import ENGINE_VERSION

ARTIFACTS = pathlib.Path(__file__).parent / "artifacts"

#: The fixed instance every measurement uses.
INSTANCE = McInstance("fig1", n_processes=2)
DEPTH = 14

_RESULTS: dict = {}


def _explore(por: bool):
    result = explore_instance(
        INSTANCE, ExploreConfig(max_depth=DEPTH, por=por)
    )
    assert result.ok
    return result


@pytest.mark.parametrize("por", [True, False], ids=["por_on", "por_off"])
def test_mc_exploration_throughput(benchmark, por):
    """States/sec of the bounded DFS, with and without reduction."""
    result = benchmark(_explore, por)
    key = "por_on" if por else "por_off"
    _RESULTS[key] = {
        "states_visited": result.stats.states_visited,
        "states_distinct": result.stats.states_distinct,
        "pruned_visited": result.stats.pruned_visited,
        "complete_schedules": result.stats.complete_schedules,
        "transitions_explored": result.stats.transitions_explored,
        "states_per_second": round(result.stats.states_per_second),
        "wall_seconds": result.stats.wall_seconds,
        "reduction": result.reduction.to_dict(),
    }


def test_mc_por_strictly_reduces():
    """The acceptance claim: POR on < POR off, same verdict."""
    on, off = _explore(True), _explore(False)
    assert on.stats.states_visited < off.stats.states_visited
    assert on.reduction.ratio < 1.0
    _RESULTS.setdefault("por_on", {})["states_visited"] = \
        on.stats.states_visited
    _RESULTS["por_ratio"] = {
        "visited_on": on.stats.states_visited,
        "visited_off": off.stats.states_visited,
        "reduction_ratio": on.reduction.ratio,
        "slept": on.reduction.slept,
    }


def test_mc_serial_vs_parallel(benchmark):
    """Wall time of the perf-pool fan-out on the same fixed instance."""
    config = ExploreConfig(max_depth=DEPTH)

    def run():
        report = check(INSTANCE, config, jobs=2)
        assert report.ok
        return report.total_stats()

    stats = benchmark(run)
    serial = _explore(True)
    _RESULTS["parallel_jobs2"] = {
        "states_visited": stats.states_visited,
        "complete_schedules": stats.complete_schedules,
        # shards don't share sleep/visited tables: upper bound on serial
        "serial_states_visited": serial.stats.states_visited,
    }


def test_mc_finds_planted_bug_both_ways(benchmark):
    """The ablation check the reduction must not break."""
    instance = McInstance("naive-converge", n_processes=2)

    def run():
        found = {}
        for por in (True, False):
            result = explore_instance(
                instance, ExploreConfig(max_depth=20, por=por)
            )
            assert not result.ok
            found[por] = result.counterexamples[0]
        assert found[True].prop == found[False].prop == "c-agreement(k=1)"
        return found

    benchmark(run)


def test_write_mc_artifact():
    """Persist the collected measurements (runs last in file order)."""
    assert "por_on" in _RESULTS and "por_off" in _RESULTS
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    artifact = ARTIFACTS / "BENCH_mc.json"
    artifact.write_text(
        json.dumps(
            {
                "experiment": "mc",
                "engine": ENGINE_VERSION,
                "engine_version": ENGINE_VERSION,
                "schema_version": ARTIFACT_SCHEMA_VERSION,
                "instance": INSTANCE.to_dict(),
                "max_depth": DEPTH,
                **_RESULTS,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
