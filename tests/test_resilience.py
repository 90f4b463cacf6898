"""Tests for the resilient executor: watchdog, retries, quarantine, journal.

The worker-death path is exercised for real: a sabotaged spec calls
``os._exit`` inside the pool worker, the executor requeues the poisoned
batch, isolates the culprit, and quarantines it — while every surviving
result keeps its deterministic input-order slot.  The ``...OnAStore``
classes run the lost-batch cases through a farm store too, which must
charge and quarantine exactly what the local path does.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.chaos import ChaosConfig
from repro.farm import SQLiteFarmStore
from repro.obs import MetricsCollector
from repro.perf import (
    CheckpointJournal,
    QuarantineReport,
    SabotagedSpec,
    SetAgreementTrialSpec,
    TrialCache,
    TrialFailure,
    WorkerPool,
    guarded_execute,
    run_trials,
    spec_key,
)
from repro.perf import executor as executor_module
from repro.perf import spec as spec_module
from repro.runtime import (
    NonTerminationError,
    RandomScheduler,
    Simulation,
    SimulationLimitError,
    System,
)
from tests.helpers import cache_row, write_cache_row

_HAS_SIGALRM = hasattr(signal, "SIGALRM")


def _quick_spec(seed: int, sabotage: str = ""):
    spec = SetAgreementTrialSpec(
        3, 2, seed, 0, max_steps=50_000,
        chaos=ChaosConfig(seed=seed, lying_prefix=5),
    )
    return SabotagedSpec(spec, sabotage) if sabotage else spec


class TestGuardedExecute:
    def test_success_passes_the_result_through(self):
        result = guarded_execute(_quick_spec(0))
        assert not isinstance(result, TrialFailure)
        assert result.ok

    def test_exception_becomes_a_failure_value(self):
        outcome = guarded_execute(_quick_spec(0, sabotage="raise"))
        assert isinstance(outcome, TrialFailure)
        assert outcome.kind == "error"
        assert "sabotage" in outcome.detail

    @pytest.mark.skipif(not _HAS_SIGALRM, reason="needs SIGALRM")
    def test_watchdog_cuts_a_hang_short(self):
        outcome = guarded_execute(_quick_spec(0, sabotage="hang"),
                                  timeout=0.2)
        assert isinstance(outcome, TrialFailure)
        assert outcome.kind == "timeout"
        assert "0.2" in outcome.detail


class TestSerialResilience:
    def test_failing_spec_is_quarantined_not_raised(self):
        specs = [_quick_spec(0), _quick_spec(1, sabotage="raise"),
                 _quick_spec(2)]
        quarantine = QuarantineReport()
        results = run_trials(specs, jobs=1, quarantine=quarantine,
                             backoff=0)
        assert results[0].ok and results[2].ok
        assert results[1] is None
        assert len(quarantine) == 1
        assert quarantine.entries[0].index == 1
        assert quarantine.entries[0].key == spec_key(specs[1])
        assert "quarantine: 1 spec(s)" in quarantine.render()

    def test_retry_recovers_a_deterministic_flake(self, tmp_path):
        marker = tmp_path / "flake.marker"
        specs = [_quick_spec(0, sabotage=f"raise-once:{marker}")]
        quarantine = QuarantineReport()
        results = run_trials(specs, jobs=1, retries=2,
                             quarantine=quarantine, backoff=0)
        assert results[0] is not None and results[0].ok
        assert len(quarantine) == 0

    def test_harness_events_reach_the_bus(self, tmp_path):
        marker = tmp_path / "flake.marker"
        collector = MetricsCollector()
        specs = [_quick_spec(0, sabotage=f"raise-once:{marker}"),
                 _quick_spec(1, sabotage="raise")]
        results = run_trials(specs, jobs=1, retries=1, backoff=0,
                             bus=collector.bus)
        assert results[0].ok and results[1] is None
        counters = collector.snapshot()["counters"]
        assert sum(counters["trial_retries"].values()) >= 2
        assert sum(counters["trial_quarantines"].values()) == 1

    def test_backoff_does_not_compound_across_trials(self, tmp_path,
                                                     monkeypatch):
        # Each of three trials fails once: every retry sleeps the base
        # backoff (its own first failure), not backoff * 2**k for the
        # k-th failure of the sweep.
        slept = []
        monkeypatch.setattr(executor_module._time, "sleep", slept.append)
        specs = [_quick_spec(s, sabotage=f"raise-once:{tmp_path}/flake{s}")
                 for s in range(3)]
        results = run_trials(specs, jobs=1, retries=1, backoff=0.25)
        assert all(r is not None and r.ok for r in results)
        assert slept == [0.25] * 3

    @pytest.mark.skipif(not _HAS_SIGALRM, reason="needs SIGALRM")
    def test_timeout_is_counted_and_quarantined(self):
        collector = MetricsCollector()
        quarantine = QuarantineReport()
        results = run_trials(
            [_quick_spec(0, sabotage="hang")], jobs=1,
            trial_timeout=0.2, quarantine=quarantine, backoff=0,
            bus=collector.bus,
        )
        assert results == [None]
        assert "wall clock" in quarantine.entries[0].reason
        counters = collector.snapshot()["counters"]
        assert sum(counters["trial_timeouts"].values()) == 1


@pytest.fixture
def store():
    """No farm store: the lost-batch cases run on the local path."""
    return None


class _OnAStore:
    """Runs the inherited lost-batch cases through a fresh farm store."""

    @pytest.fixture
    def store(self, tmp_path):
        store = SQLiteFarmStore(tmp_path / "farm.db")
        yield store
        store.close()


class _WorkerDeathCases:
    def test_crash_is_retried_then_quarantined_in_order(self, store):
        # Worker death: os._exit(23) inside the pool.  The executor must
        # requeue the poisoned batch, isolate the culprit, quarantine it
        # after `retries + 1` attributable attempts, and keep every
        # surviving result in its input-order slot.
        specs = [_quick_spec(0), _quick_spec(1, sabotage="crash"),
                 _quick_spec(2), _quick_spec(3)]
        quarantine = QuarantineReport()
        results = run_trials(specs, jobs=2, retries=1,
                             quarantine=quarantine, backoff=0, store=store)
        assert results[1] is None
        assert [r is not None for r in results] == [True, False, True, True]
        assert len(quarantine) == 1
        entry = quarantine.entries[0]
        assert entry.index == 1
        assert entry.attempts == 2          # retries + 1, both attributable
        assert "worker death" in entry.reason
        # Survivors match a clean serial run slot for slot.
        clean = run_trials([specs[0], specs[2], specs[3]], jobs=1)
        assert [results[0], results[2], results[3]] == clean

    def test_two_crashers_are_both_isolated(self, store):
        specs = [_quick_spec(0), _quick_spec(1, sabotage="crash"),
                 _quick_spec(2, sabotage="crash"), _quick_spec(3)]
        quarantine = QuarantineReport()
        results = run_trials(specs, jobs=2, retries=0,
                             quarantine=quarantine, backoff=0, store=store)
        assert [r is not None for r in results] == [True, False, False, True]
        assert [e.index for e in quarantine.entries] == [1, 2]


class TestWorkerDeath(_WorkerDeathCases):
    def test_worker_crash_injection_needs_a_pool(self):
        # At --jobs 1 the sabotaged trial would os._exit the CLI itself.
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "chaos",
             "--protocols", "fig1", "--sizes", "3", "--seeds", "0,1",
             "--retries", "1", "--inject-worker-crash", "1", "--no-cache"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert "--jobs" in proc.stderr


class TestWorkerDeathOnAStore(_OnAStore, _WorkerDeathCases):
    pass


class TestAbortedBatch:
    @staticmethod
    def _run_poisoned(monkeypatch, error, jobs, quarantine, store):
        """Run four specs whose seed-1 trial raises ``error``, which the
        per-spec guard does not catch, on a pool forked after the patch."""
        real = spec_module.execute_trial

        def execute(spec, collector=None):
            if spec.seed == 1:
                raise error
            return real(spec, collector=collector)

        monkeypatch.setattr(spec_module, "execute_trial", execute)
        monkeypatch.setattr(executor_module, "execute_trial", execute)
        specs = [_quick_spec(s) for s in range(4)]
        pool = WorkerPool()
        try:
            return specs, run_trials(specs, jobs=jobs, retries=1,
                                     chunk_size=2, backoff=0,
                                     quarantine=quarantine, pool=pool,
                                     store=store)
        finally:
            pool.shutdown()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_aborted_batch_is_blamed_like_a_worker_death(self, jobs,
                                                         monkeypatch, store):
        # SystemExit aborts the batch; the culprit's batch mates re-run
        # uncharged, and the culprit is quarantined with the exception
        # named.
        quarantine = QuarantineReport()
        specs, results = self._run_poisoned(
            monkeypatch, SystemExit("trial called exit"), jobs, quarantine,
            store,
        )
        assert [r is not None for r in results] == [True, False, True, True]
        assert [e.index for e in quarantine.entries] == [1]
        assert quarantine.entries[0].attempts == 2
        assert "SystemExit" in quarantine.entries[0].reason
        clean = run_trials([specs[0], specs[2], specs[3]], jobs=1)
        assert [results[0], results[2], results[3]] == clean

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_keyboard_interrupt_propagates_uncounted(self, jobs,
                                                     monkeypatch, store):
        quarantine = QuarantineReport()
        with pytest.raises(KeyboardInterrupt):
            self._run_poisoned(monkeypatch, KeyboardInterrupt(), jobs,
                               quarantine, store)
        assert len(quarantine) == 0


class TestAbortedBatchOnAStore(_OnAStore, TestAbortedBatch):
    pass


class TestCheckpointJournal:
    def test_round_trip_and_idempotence(self, tmp_path):
        path = tmp_path / "run.journal"
        with CheckpointJournal(path) as journal:
            journal.record_done("aaa")
            journal.record_done("aaa")          # idempotent
            journal.record_quarantined("bbb", "worker death")
        with CheckpointJournal(path) as journal:
            assert journal.is_done("aaa")
            assert journal.quarantined() == {"bbb": "worker death"}
            journal.record_done("bbb")          # a later success clears it
        with CheckpointJournal(path) as journal:
            assert journal.done_keys == {"aaa", "bbb"}
            assert journal.quarantined() == {}
        # The file stays lean: the duplicate record_done wrote nothing.
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3

    def test_tolerates_a_truncated_tail_line(self, tmp_path):
        path = tmp_path / "run.journal"
        path.write_text(
            json.dumps({"key": "aaa", "status": "done"}) + "\n"
            + '{"key": "bbb", "sta'        # killed mid-write
        )
        with CheckpointJournal(path) as journal:
            assert journal.done_keys == {"aaa"}

    def test_record_after_a_torn_tail_survives(self, tmp_path):
        # A killed append leaves a fragment with no newline; the next
        # record must start its own line instead of fusing with it.
        path = tmp_path / "run.journal"
        path.write_text(
            json.dumps({"key": "aaa", "status": "done"}) + "\n"
            + '{"key":"bbb'
        )
        with CheckpointJournal(path) as journal:
            journal.record_done("ccc")
            journal.record_quarantined("ddd", "worker death")
        with CheckpointJournal(path) as journal:
            assert journal.done_keys == {"aaa", "ccc"}
            assert journal.quarantined() == {"ddd": "worker death"}
        assert path.read_text().endswith("\n")

    def test_resume_skips_completed_keys(self, tmp_path):
        specs = [_quick_spec(s) for s in range(3)]
        cache = TrialCache(tmp_path / "cache")
        journal_path = tmp_path / "run.journal"
        first = run_trials(specs, jobs=1, cache=cache,
                           journal=journal_path, backoff=0)
        assert all(r is not None for r in first)
        # Resume: journaled keys are served from the cache, nothing runs.
        cache2 = TrialCache(tmp_path / "cache")
        again = run_trials(specs, jobs=1, cache=cache2,
                           journal=journal_path, backoff=0)
        assert again == first
        assert cache2.hits == 3 and cache2.misses == 0

    def test_interrupted_sweep_resumes_to_100_percent(self, tmp_path):
        # The acceptance scenario: a sweep with a mid-run worker crash
        # completes with partial results + quarantine, then a resume run
        # (crash fixed) reaches 100% without re-running completed keys.
        cache = TrialCache(tmp_path / "cache")
        journal_path = tmp_path / "run.journal"
        specs = [_quick_spec(0), _quick_spec(1, sabotage="crash"),
                 _quick_spec(2)]
        quarantine = QuarantineReport()
        partial = run_trials(specs, jobs=2, retries=0, cache=cache,
                             journal=journal_path, quarantine=quarantine,
                             backoff=0)
        assert partial[1] is None and len(quarantine) == 1
        with CheckpointJournal(journal_path) as journal:
            assert spec_key(specs[1]) in journal.quarantined()
        # Resume with the sabotage removed (a fixed flake / healthy node).
        fixed = [specs[0], specs[1].spec, specs[2]]
        cache2 = TrialCache(tmp_path / "cache")
        resumed = run_trials(fixed, jobs=2, retries=0, cache=cache2,
                             journal=journal_path, backoff=0)
        assert all(r is not None for r in resumed)
        assert cache2.hits == 2            # the two journaled keys
        assert resumed[0] == partial[0] and resumed[2] == partial[2]

    def test_cleared_cache_degrades_to_a_rerun(self, tmp_path):
        specs = [_quick_spec(0)]
        journal_path = tmp_path / "run.journal"
        cache = TrialCache(tmp_path / "cache")
        run_trials(specs, jobs=1, cache=cache, journal=journal_path,
                   backoff=0)
        cache.clear()
        cache2 = TrialCache(tmp_path / "cache")
        results = run_trials(specs, jobs=1, cache=cache2,
                             journal=journal_path, backoff=0)
        assert results[0] is not None      # journal alone is not a result
        assert cache2.misses == 1


class TestCorruptCache:
    def test_corrupt_entry_is_a_logged_miss_not_an_error(self, tmp_path,
                                                         caplog):
        import logging

        cache = TrialCache(tmp_path / "cache")
        spec = _quick_spec(0)
        result = guarded_execute(spec)
        cache.put(spec, result)
        write_cache_row(cache, spec, b"\x80\x04 this is not a pickle")
        with caplog.at_level(logging.WARNING, logger="repro.perf.cache"):
            assert cache.get(spec) is None
        assert cache.corrupt == 1
        assert cache.misses == 1
        assert any("corrupt" in r.message for r in caplog.records)
        assert cache_row(cache, spec) is None  # deleted, will be rewritten
        cache.put(spec, result)
        assert cache.get(spec) == result

    def test_truncated_entry_is_also_recovered(self, tmp_path):
        cache = TrialCache(tmp_path / "cache")
        spec = _quick_spec(1)
        result = guarded_execute(spec)
        cache.put(spec, result)
        write_cache_row(cache, spec, cache_row(cache, spec)[:10])  # torn
        assert cache.get(spec) is None
        assert cache.corrupt == 1
        cache.put(spec, result)
        assert cache.get(spec) == result


class TestNonTermination:
    def test_run_until_names_the_failure(self):
        from repro.runtime.ops import Nop

        system = System(3)

        def spin(ctx, value):
            while True:
                yield Nop()

        sim = Simulation(system, spin, inputs={p: p for p in system.pids})
        with pytest.raises(NonTerminationError) as info:
            sim.run_until(Simulation.all_correct_decided, 50,
                          RandomScheduler(0))
        assert isinstance(info.value, SimulationLimitError)
        assert info.value.max_steps == 50
        assert info.value.time == 50
        assert "50 steps" in str(info.value)

    def test_cli_names_non_termination(self, capsys, monkeypatch):
        from repro import cli

        def explode(args):
            raise NonTerminationError("condition not reached within 40 steps",
                                      max_steps=40, time=40)

        monkeypatch.setitem(cli._COMMANDS, "run", explode)
        code = cli.main(["run"])
        assert code == 3
        err = capsys.readouterr().err
        assert "NonTerminationError" in err
        assert "--max-steps" in err
