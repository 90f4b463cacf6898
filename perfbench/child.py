"""One fresh interpreter of the benchmark; started by ``run.py`` only.

Roles:

* ``setup``   -- set the workload up, report the time since ``--t0``
  (taken by the parent just before starting this process), and exit;
* ``measure`` -- set up, prepare, one untimed warm-up pass, then timed
  passes until ``--seconds`` have passed (at least three);
* ``trace``   -- every workload's traced pass plus the layer probes;
  ``--workload`` also gets an untraced pass first, for
  ``trace_overhead_frac``.

The last line of standard output is the role's JSON report.  Scratch
files live in ``.bench_tmp/`` of the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_tmp"
#: Fewest timed passes a measuring run reports, however short --seconds.
MIN_PASSES = 3


def _load_program() -> None:
    """Put the checkout's ``src/`` first on the path; refuse any other
    ``repro`` (an installed copy must not stand in for the checkout)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}")


def _log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def _peak_rss_mb() -> float:
    """This process's peak resident set (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def role_setup(args, workdir: Path) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    workload.setup()
    setup_s = time.monotonic() - args.t0
    workload.close()
    return {"setup_s": setup_s}


def role_measure(args, workdir: Path) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    workload.setup()
    setup_s = time.monotonic() - args.t0
    try:
        workload.prepare()
        warmup = workload.run_pass()
        warmup.info.clear()  # drop each pass's results once judged
        _log(f"{args.workload}: warm-up pass {warmup.seconds:.3f}s")
        timed = []
        deadline = time.perf_counter() + args.seconds
        while len(timed) < MIN_PASSES or time.perf_counter() < deadline:
            timed.append(workload.run_pass())
            timed[-1].info.clear()
    finally:
        workload.close()
    outcomes = [warmup, *timed]
    return {
        "setup_s": setup_s,
        "warmup_s": warmup.seconds,
        "passes": [outcome.seconds for outcome in timed],
        "per_pass": warmup.attempted,
        "unit": workload.unit,
        "jobs": workload.jobs,
        "cpu_count": os.cpu_count() or 1,
        "attempted": sum(outcome.attempted for outcome in outcomes),
        "failed": sum(outcome.failed for outcome in outcomes),
        "problems": sorted({p for o in outcomes for p in o.problems}),
        "peak_rss_mb": _peak_rss_mb(),
    }


def role_trace(args, workdir: Path) -> dict:
    from layers import LAYERS, derived
    from tracing import Tracer, write_spans
    from workloads import WORKLOADS

    metrics: dict = {}
    tracers: dict = {}
    outcomes = []
    problems: list = []
    reference = None
    for name, cls in WORKLOADS.items():
        workload = cls(args.seed, args.smoke, workdir / name)
        workload.workdir.mkdir()
        workload.setup()
        try:
            workload.prepare(reference)
            if name == args.workload:
                untraced = workload.run_pass()
                outcomes.append(untraced)
            tracer = tracers[name] = Tracer()
            traced = workload.run_pass(tracer)
            outcomes.append(traced)
            if name == "sa-serial":
                reference = traced.info["results"]
            metrics.update(LAYERS[name](workload, tracer, traced, problems))
            if name == args.workload:
                metrics["trace_overhead_frac"] = \
                    traced.seconds / untraced.seconds - 1
            _log(f"{name}: traced pass {traced.seconds:.3f}s")
        finally:
            workload.close()
    metrics.update(derived(metrics))
    write_spans(WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.json.gz",
                tracers)
    return {
        "metrics": metrics,
        "spans": {name: t.summary() for name, t in tracers.items()},
        "attempted": sum(outcome.attempted for outcome in outcomes),
        "failed": sum(outcome.failed for outcome in outcomes),
        "problems": sorted(
            set(problems) | {p for o in outcomes for p in o.problems}
        ),
    }


ROLES = {"setup": role_setup, "measure": role_measure, "trace": role_trace}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=sorted(ROLES), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--t0", type=float, required=True,
                        help="parent's time.monotonic() before the spawn")
    args = parser.parse_args(argv)
    _load_program()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=WORK_ROOT))
    try:
        report = ROLES[args.role](args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
