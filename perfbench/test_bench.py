"""Smoke tests of the benchmark itself (not collected by the tier-1 suite).

    python -m pytest perfbench/test_bench.py

Runs every workload at its tiny ``--smoke`` size, checks the output
against ``BENCHMARK.json``, and checks that the correctness checker and
``--compare`` flag what they should.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def assert_metrics(result: dict, wanted: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_end_to_end_metric(workload):
    done = bench("--workload", workload, "--seed", "1", "--seconds", "0.2",
                 "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr
    assert_metrics(last_json(done.stdout), SPEC["end_to_end"])
    assert "fail_frac 0 " in done.stdout


def test_trace_prints_every_per_layer_metric():
    done = bench("--workload", "mc-fig2", "--seed", "1", "--seconds", "0.2",
                 "--trace", "1", "--smoke")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert_metrics(result, SPEC["per_layer"])
    assert result["metrics"]["perf.cache_hit_ratio"]["value"] == 0.5


def test_checker_flags_a_corrupted_result_list():
    from repro.perf import run_trials
    from workloads import judge_sweep, sa_grid

    reference = run_trials(sa_grid(0, smoke=True), jobs=1)
    corrupted = list(reference)
    corrupted[3] = dataclasses.replace(corrupted[3], ok=False)
    corrupted[5] = None
    failed, problems = judge_sweep(corrupted, reference)
    assert failed == 2 and problems
    report = {"attempted": len(corrupted), "failed": failed,
              "problems": problems}
    result = run.summarize(report, {"pass_s": 1.0}, SPEC["end_to_end"][:1])
    assert result["failed"] / result["attempted"] > 0
    assert not result["correct"]
    assert run.exit_status([result]) == 1

    swapped = list(reference)
    swapped[0] = dataclasses.replace(swapped[0], rounds=swapped[0].rounds + 1)
    assert judge_sweep(swapped, reference) == (
        0, ["results differ from the serial reference"]
    )


def test_compare_flags_a_regression(tmp_path):
    def run_set(path: Path, pass_s: float) -> str:
        runs = [
            {"workload": "sa-serial", "seed": seed, "trace": 0, "result": {
                "metrics": {
                    "pass_s": {"value": pass_s + seed * 1e-3, "unit": "s"},
                    "setup_s": {"value": 0.5, "unit": "s"},
                    "peak_rss_mb": {"value": 100.0, "unit": "MB"},
                }}}
            for seed in range(10)
        ]
        path.write_text(json.dumps({"runs": runs}), encoding="utf-8")
        return str(path)

    base = run_set(tmp_path / "a.json", 2.0)
    same = run_set(tmp_path / "b.json", 2.01)
    slower = run_set(tmp_path / "c.json", 3.0)
    assert bench("--compare", base, same).returncode == 0
    regressed = bench("--compare", base, slower)
    assert regressed.returncode == 1
    assert "REGRESSION" in regressed.stdout


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "sa-serial", "--seed", "0", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
