"""The benchmark's five workloads.

Every workload is a closed batch at a fixed input size: one pass runs the
whole grid (or model-checking instance) to a checked verdict, and the next
pass starts only when it has finished.  ``--seed`` only offsets the trial
seeds (for ``mc-fig2``: the detector noise seed), so the work per pass
stays the same size.

A workload's life in one process:

* ``setup`` -- what a user pays before the first trial: the imports this
  module makes, building the grid or instance, ``environment_salt()``,
  the pool fork (``sa-resilient``) and the store open (``sa-farm``);
* ``prepare`` -- the benchmark's own inputs, outside every timer: the
  serial reference results and the pre-filled cache and journal;
* ``run_pass`` -- one timed pass, checked before it returns.  With a
  tracer the pass also records the spans the traced run reports.
"""

from __future__ import annotations

import contextlib
import dataclasses
import shutil
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.runner import ExtractionResult
from repro.analysis.sweeps import extraction_grid, set_agreement_grid, to_csv
from repro.farm import SQLiteFarmStore
from repro.mc import CrashSweep, ExploreConfig, McInstance, check
from repro.mc.checkpoint import SimulationJournal
from repro.perf import (
    CheckpointJournal,
    DispatchStats,
    TrialCache,
    WorkerPool,
    run_trials,
    spec_key,
)
from repro.perf import executor as executor_module
from repro.perf.spec import environment_salt
from repro.runtime.simulation import Simulation

from tracing import TimedJournal, TimedStore, TimedTrialCache, Tracer

#: Worker processes of ``sa-resilient``; the host rule is jobs <= nproc.
JOBS = 2
#: Per-trial watchdog budget of ``sa-resilient``, far above any trial.
TRIAL_TIMEOUT = 10.0


def sa_grid(seed: int, smoke: bool):
    """Fig. 1/2 grid: sizes 3,4,5 x stabilization 0,100,300 x 500 seeds."""
    sizes, stabs, count = ((3,), (0, 100), 5) if smoke else \
        ((3, 4, 5), (0, 100, 300), 500)
    base = seed * count
    return set_agreement_grid(sizes, range(base, base + count), stabs)


def extract_grid(seed: int, smoke: bool):
    """Fig. 3 grid: omega, omega_n, diamond_p x sizes 3,4 x 3 seeds.

    18 trials of ~150 ms keep a pass above 2 s while a 12 s run still
    gets five timed passes and the traced run stays under 30 s.
    """
    detectors, sizes, count = (("omega",), (3,), 1) if smoke else \
        (("omega", "omega_n", "diamond_p"), (3, 4), 3)
    base = seed * count
    return extraction_grid(detectors, sizes, range(base, base + count))


def trial_ok(result: Any) -> bool:
    """A trial passes when its slot is filled and its verdict holds."""
    if result is None:
        return False
    if isinstance(result, ExtractionResult):
        return result.legal
    return result.ok


def judge_sweep(results: List[Any],
                reference: Optional[List[Any]]) -> Tuple[int, List[str]]:
    """Failed trials and problems of one sweep pass.

    A failed trial is a ``None`` slot, ``ok=False`` or ``legal=False``.
    When nothing failed, the results must equal the reference results.
    Result equality compares every column ``to_csv`` exports (the metrics
    snapshot is neither compared nor exported), so equal lists export
    byte-identical CSVs, at a fraction of the cost of exporting both.
    """
    failed = sum(1 for result in results if not trial_ok(result))
    problems = []
    if failed:
        problems.append(f"{failed} of {len(results)} trials failed")
    elif reference is not None and results != reference:
        problems.append("results differ from the serial reference")
    return failed, problems


def traced(tracer: Optional[Tracer], workload: str, hooks=()):
    """What a pass runs inside: nothing when untraced, else a span
    ``<workload>.pass`` with ``hooks`` patched for the pass's length."""
    if tracer is None:
        return contextlib.nullcontext()
    return _traced(tracer, workload, hooks)


@contextlib.contextmanager
def _traced(tracer: Tracer, workload: str, hooks):
    with tracer.span(f"{workload}.pass"), tracer.patch(hooks):
        yield


@dataclasses.dataclass
class PassResult:
    seconds: float
    attempted: int
    failed: int
    problems: List[str]
    #: What the traced run derives its layer metrics from.
    info: Dict[str, Any] = dataclasses.field(default_factory=dict)


class Workload:
    name = ""
    #: What one pass attempts, for the human-readable report.
    unit = "trials"
    #: Worker processes the workload runs trials on (1: in-process).
    jobs = 1

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.passes = 0

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, reference: Optional[List[Any]] = None) -> None:
        """Build untimed inputs; ``reference`` is the serial result list
        of :func:`sa_grid` when the caller already has it."""

    def run_pass(self, tracer: Optional[Tracer] = None) -> PassResult:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def _pass_dir(self) -> Path:
        path = self.workdir / f"pass-{self.passes}"
        self.passes += 1
        return path


class Sweep(Workload):
    """A workload whose pass returns one result per trial spec."""

    #: The results every pass must equal; the first good pass of a
    #: serial sweep, or the serial run a parallel or farm pass replaces.
    reference: Optional[List[Any]] = None
    #: False until one pass's CSV was compared byte for byte with the
    #: reference's (done once per run, for a reference made in prepare).
    csv_checked = True

    def _judge(self, seconds: float, results: List[Any],
               info: Optional[Dict[str, Any]] = None) -> PassResult:
        failed, problems = judge_sweep(results, self.reference)
        if not (failed or problems or self.csv_checked):
            self.csv_checked = True
            if to_csv(results) != to_csv(self.reference):
                problems.append("CSV differs from the serial reference")
        if self.reference is None and not failed:
            self.reference = _without_metrics(results)
        return PassResult(seconds, len(results), failed, problems,
                          {"results": results, **(info or {})})

    def _set_reference(self, reference: List[Any]) -> None:
        self.reference = _without_metrics(reference)
        self.csv_checked = False


def _without_metrics(results: List[Any]) -> List[Any]:
    """Copies without the per-trial metrics snapshot, which equality and
    the CSV ignore; keeping the snapshots would inflate ``peak_rss_mb``
    with the benchmark's own bookkeeping."""
    return [dataclasses.replace(result, metrics=None) for result in results]


class SerialSweep(Sweep):
    """``run_trials(jobs=1)`` over a grid; every pass repeats the first."""

    def setup(self) -> None:
        environment_salt()
        self.specs = self.grid(self.seed, self.smoke)

    def run_pass(self, tracer: Optional[Tracer] = None) -> PassResult:
        hooks = [(executor_module, "execute_trial", "analysis.trial")]
        started = time.perf_counter()
        with traced(tracer, self.name, hooks):
            results = run_trials(self.specs, jobs=1)
        return self._judge(time.perf_counter() - started, results)


class SaSerial(SerialSweep):
    name = "sa-serial"
    grid = staticmethod(sa_grid)


class ExtractSerial(SerialSweep):
    name = "extract-serial"
    grid = staticmethod(extract_grid)


#: Engine calls timed during a traced ``mc-fig2`` pass.
MC_HOOKS = (
    (Simulation, "step", "mc.journal_step"),
    (SimulationJournal, "digest", "mc.digest"),
    (SimulationJournal, "checkpoint", "mc.checkpoint"),
    (SimulationJournal, "restore", "mc.restore"),
)


class McFig2(Workload):
    """Exhaustive ``check`` of Fig. 2 at n+1=3, f=1 over every crash pattern."""

    name = "mc-fig2"
    unit = "crash patterns"

    def setup(self) -> None:
        self.instance = McInstance(
            "fig2", 3, f=1, stabilization_time=3, noise_seed=self.seed
        )
        self.config = ExploreConfig(max_depth=8 if self.smoke else 18)
        self.sweep = CrashSweep()
        self.states: Optional[int] = None

    def run_pass(self, tracer: Optional[Tracer] = None) -> PassResult:
        started = time.perf_counter()
        with traced(tracer, self.name, MC_HOOKS):
            report = check(self.instance, self.config, sweep=self.sweep)
        seconds = time.perf_counter() - started
        failed = sum(
            1 for result in report.results
            if not result.ok or result.stats.truncated
        )
        problems = []
        if failed:
            problems.append(
                f"{failed} of {len(report.results)} crash patterns "
                f"violated a property or were truncated"
            )
        visited = report.total_stats().states_visited
        if self.states is None:
            self.states = visited
        elif visited != self.states:
            problems.append(
                f"states_visited changed between passes: "
                f"{self.states} then {visited}"
            )
        return PassResult(seconds, len(report.results), failed, problems,
                          {"report": report})


class SaResilient(Sweep):
    """The set-agreement grid resumed through the resilient executor.

    Half the grid (every other spec) is already in the cache and the
    journal, as after an interrupted sweep; each pass gets a fresh copy
    of both, made outside the timer.
    """

    name = "sa-resilient"
    jobs = JOBS

    def setup(self) -> None:
        environment_salt()
        self.specs = sa_grid(self.seed, self.smoke)
        self.pool = WorkerPool()
        self.pool.ensure(JOBS)

    def prepare(self, reference: Optional[List[Any]] = None) -> None:
        if reference is None:
            reference = run_trials(self.specs, jobs=1)
        self._set_reference(reference)
        self.template = self.workdir / "template"
        done = list(zip(self.specs, reference))[::2]
        TrialCache(self.template / "cache").put_many(done)
        with CheckpointJournal(self.template / "journal.jsonl") as journal:
            for spec, _ in done:
                journal.record_done(spec_key(spec))
        self.cached = len(done)

    def run_pass(self, tracer: Optional[Tracer] = None) -> PassResult:
        pass_dir = self._pass_dir()
        shutil.copytree(self.template, pass_dir)
        dispatch = DispatchStats()
        journal_path = pass_dir / "journal.jsonl"
        cache = TrialCache(pass_dir / "cache") if tracer is None \
            else TimedTrialCache(pass_dir / "cache", tracer)
        started = time.perf_counter()
        with traced(tracer, self.name):
            # Opened (loading the done keys) and closed inside the timer,
            # as run_trials does with a journal path.
            journal = CheckpointJournal(journal_path) if tracer is None \
                else TimedJournal(journal_path, tracer)
            with journal:
                results = run_trials(
                    self.specs, jobs=JOBS, retries=1,
                    trial_timeout=TRIAL_TIMEOUT, cache=cache,
                    journal=journal, pool=self.pool, dispatch=dispatch,
                )
        seconds = time.perf_counter() - started
        shutil.rmtree(pass_dir)
        outcome = self._judge(seconds, results,
                              {"cache": cache, "dispatch": dispatch})
        expected = (self.cached, len(self.specs) - self.cached)
        if (cache.hits, cache.misses) != expected:
            outcome.problems.append(
                f"cache hits/misses {cache.hits}/{cache.misses}, "
                f"expected {expected[0]}/{expected[1]}"
            )
        return outcome

    def close(self) -> None:
        self.pool.shutdown()


class SaFarm(Sweep):
    """A slice of the set-agreement grid drained through a fresh store."""

    name = "sa-farm"

    def setup(self) -> None:
        environment_salt()
        grid = sa_grid(self.seed, self.smoke)
        self.specs = grid[: len(grid) * 2 // 5]  # 1,800 of 4,500
        self.store = self._open_store()

    def _open_store(self) -> Tuple[SQLiteFarmStore, Path]:
        pass_dir = self._pass_dir()
        return SQLiteFarmStore(pass_dir / "store.db"), pass_dir

    def prepare(self, reference: Optional[List[Any]] = None) -> None:
        if reference is None:
            reference = run_trials(self.specs, jobs=1)
        self._set_reference(reference[: len(self.specs)])

    def run_pass(self, tracer: Optional[Tracer] = None) -> PassResult:
        store, pass_dir = self.store or self._open_store()
        self.store = None
        cache = TrialCache(pass_dir / "cache")
        try:
            started = time.perf_counter()
            with traced(tracer, self.name):
                results = run_trials(
                    self.specs, jobs=1, cache=cache,
                    store=store if tracer is None else TimedStore(store, tracer),
                )
            seconds = time.perf_counter() - started
        finally:
            store.close()
        shutil.rmtree(pass_dir)
        return self._judge(seconds, results)

    def close(self) -> None:
        if self.store is not None:
            store, pass_dir = self.store
            store.close()
            shutil.rmtree(pass_dir)


#: Every workload, in the order the benchmark runs them.
WORKLOADS = {
    cls.name: cls
    for cls in (SaSerial, ExtractSerial, McFig2, SaResilient, SaFarm)
}
