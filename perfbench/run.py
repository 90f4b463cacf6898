#!/usr/bin/env python3
"""Benchmark of the repro package: five workloads, end to end and per layer.

Run from the root of a checkout; the program is imported from its
``src/``.  Workload, metric and bound definitions live in the root
``BENCHMARK.json``.

    python3 perfbench/run.py                       # all five workloads, seed 0
    python3 perfbench/run.py --workload sa-serial --seed 3 --seconds 12
    python3 perfbench/run.py --workload mc-fig2 --trace 1   # per-layer run
    python3 perfbench/run.py --runs 10 --out a.json         # seeds 0..9
    python3 perfbench/run.py --compare a.json b.json

Every workload runs in fresh child interpreters (``child.py``), one at a
time: two that only set up, then one that sets up and measures, so
``setup_s`` is the median of three fresh starts.  The last line printed
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when every output checked correct.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Fresh interpreter starts behind ``setup_s``.
SETUP_STARTS = 3
#: Wall-clock budget of one workload run, children included.
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """A child failed to produce a report."""


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill a child's whole process group (its pool workers too) and wait
    until no process of the group is left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def spawn(role: str, args, deadline: float) -> dict:
    """Run one child to completion; its last stdout line is its report."""
    t0 = time.monotonic()
    command = [
        sys.executable, str(CHILD), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--t0", repr(t0),
    ] + (["--smoke"] if args.smoke else [])
    proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        _stop_group(proc)
        raise BenchError(f"{role} child of {args.workload} ran out of time")
    except BaseException:
        _stop_group(proc)
        raise
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{role} child of {args.workload} exited {proc.returncode}"
        )
    return json.loads(lines[-1])


def measure(spec: dict, args) -> dict:
    """One run of ``args.workload``: the record ``--out`` keeps."""
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.trace:
        report = spawn("trace", args, deadline)
        values = report["metrics"]
        samples: Dict[str, List[float]] = {}
        wanted = spec["per_layer"]
    else:
        setups = [spawn("setup", args, deadline)["setup_s"]
                  for _ in range(SETUP_STARTS - 1)]
        report = spawn("measure", args, deadline)
        setups.append(report["setup_s"])
        samples = {"pass_s": report["passes"], "setup_s": setups}
        values = {
            "pass_s": statistics.median(report["passes"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"{args.workload} did not measure {missing}")
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "result": summarize(report, values, wanted),
        "report": report, "samples": samples,
    }


def summarize(report: dict, values: Dict[str, float],
              wanted: List[dict]) -> dict:
    """The JSON result line: correct only when no trial failed and no
    check found a problem."""
    return {
        "correct": report["failed"] == 0 and not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }


def exit_status(results: List[dict]) -> int:
    return 0 if all(result["correct"] for result in results) else 1


def print_record(spec: dict, record: dict) -> None:
    """The human-readable part of one run's output."""
    result, report = record["result"], record["report"]
    print(f"== {record['workload']}  seed={record['seed']}  "
          f"trace={int(record['trace'])}")
    metrics = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    for m in metrics:
        value = result["metrics"][m["name"]]["value"]
        line = f"  {m['name']:<34} {value:>14.6g} {m['unit']:<6}"
        values = record["samples"].get(m["name"])
        if values:
            q1, q2, q3 = quartiles(values)
            line += (f"  median of {len(values)}, IQR {q3 - q1:.4g} "
                     f"({(q3 - q1) / q2:.1%})")
        if "bound" in m:
            line += f"  [{m['better']} is better, bound {m['bound']:.0%}]"
        print(line)
    if record["trace"]:
        print("  spans (total / self ms, count):")
        for group, rows in report["spans"].items():
            for name, row in rows.items():
                if not row["count"]:
                    continue
                print(f"    {group:<15} {name:<28} "
                      f"{row['total_s'] * 1e3:>10.1f} "
                      f"{row['self_s'] * 1e3:>10.1f} {row['count']:>8}")
    else:
        pass_s = result["metrics"]["pass_s"]["value"]
        print(f"  {report['per_pass']} {report['unit']} per pass: "
              f"{report['per_pass'] / pass_s:.6g} {report['unit']}/s; "
              f"warm-up pass {report['warmup_s']:.4g} s; "
              f"jobs={report['jobs']} on {report['cpu_count']} CPUs, "
              f"parallel_meaningful={report['jobs'] <= report['cpu_count']}")
    print(f"  fail_frac {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']})")
    for problem in report["problems"]:
        print(f"  PROBLEM: {problem}")


def compare(spec: dict, first: str, second: str) -> int:
    """Median and IQR per workload x end-to-end metric of two run sets.

    A pair is flagged REGRESSION when the second median is worse than the
    first by more than the metric's bound, and SPREAD when either set's
    IQR exceeds the bound (``setup_s`` is exempt from SPREAD).
    """
    sets = [json.loads(Path(p).read_text(encoding="utf-8"))["runs"]
            for p in (first, second)]
    flagged = 0
    print(f"{'workload':<15} {'metric':<12} {'median A':>11} {'IQR A':>7} "
          f"{'median B':>11} {'IQR B':>7} {'change':>8} {'bound':>6}")
    for workload in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            name = m["name"]
            columns = [
                [r["result"]["metrics"][name]["value"] for r in runs
                 if r["workload"] == workload and not r["trace"]]
                for runs in sets
            ]
            if not all(columns):
                continue
            (a1, a2, a3), (b1, b2, b3) = (quartiles(c) for c in columns)
            change = (b2 - a2) / a2
            worse = change if m["better"] == "lower" else -change
            spreads = ((a3 - a1) / a2, (b3 - b1) / b2)
            flags = []
            if worse > m["bound"]:
                flags.append("REGRESSION")
            if name != "setup_s" and max(spreads) > m["bound"]:
                flags.append("SPREAD")
            flagged += bool(flags)
            print(f"{workload:<15} {name:<12} {a2:>11.5g} {spreads[0]:>7.1%} "
                  f"{b2:>11.5g} {spreads[1]:>7.1%} {change:>+8.1%} "
                  f"{m['bound']:>6.0%} {' '.join(flags)}")
    print(f"{flagged} pair(s) outside their bound" if flagged
          else "every pair within its bound")
    return 1 if flagged else 0


def main(argv: Optional[List[str]] = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT} holds no src/repro to benchmark",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="timed seconds per run, after the warm-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the per-layer run instead")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for a quick check that it works")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds --seed upwards")
    parser.add_argument("--out", help="write the runs to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out files and exit")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(spec, *args.compare)

    records = []
    first_seed = args.seed
    for workload in [args.workload] if args.workload else names:
        for seed in range(first_seed, first_seed + args.runs):
            args.workload, args.seed = workload, seed
            try:
                record = measure(spec, args)
            except BenchError as exc:
                print(f"perfbench: {exc}", file=sys.stderr)
                return 1
            records.append(record)
            print_record(spec, record)
            print(json.dumps(record["result"]), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"runs": [{k: r[k] for k in ("workload", "seed", "trace",
                                         "result")} for r in records]},
            indent=1,
        ) + "\n", encoding="utf-8")
    return exit_status([record["result"] for record in records])


if __name__ == "__main__":
    sys.exit(main())
