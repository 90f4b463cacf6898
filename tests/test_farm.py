"""Tests for the distributed trial farm (``repro.farm``).

The contracts under test: ``BEGIN IMMEDIATE`` claims never hand the
same trial to two workers (even under thread hammering), an expired
lease is reclaimed by exactly one successor, completion is by token so
a zombie's late result is a no-op, a worker dying mid-batch loses no trial
and duplicates no result, and a campaign drained through the store is
byte-identical — results *and* logical telemetry — to a serial
``run_trials`` of the same grid.
"""

import os
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.farm import (
    CRASH_EXIT_CODE,
    CampaignIncompleteError,
    FarmStoreError,
    FarmWorker,
    RetryingStore,
    SQLiteFarmStore,
    collect_results,
    open_store,
    render_status,
    submit_campaign,
)
from repro.farm import worker as worker_module
from repro.farm.store import CLAIM_SQL
from repro.obs import MetricsCollector
from repro.obs.events import FarmLeaseExpired, FarmTrialClaimed
from repro.obs.metrics import SPAN_METRIC_PREFIX
from repro.perf import (
    QuarantineReport,
    ResiliencePolicy,
    SabotagedSpec,
    SetAgreementTrialSpec,
    StoreJournalConflictError,
    TrialCache,
    run_trials,
    spec_key,
)

SPECS = [
    SetAgreementTrialSpec(3, 1, seed=seed, stabilization_time=0)
    for seed in range(8)
]

#: Deterministically raises inside the trial — the "always fails" spec.
BROKEN = SabotagedSpec(SetAgreementTrialSpec(3, 2, 0, 0), "raise")


def _store(tmp_path, name="farm.db"):
    return SQLiteFarmStore(tmp_path / name)


def _enqueue(store, specs, campaign="c1", kind="test"):
    store.create_campaign(campaign, kind, len(specs), {})
    store.enqueue(campaign, [
        (position, spec_key(spec), spec, False, None, None)
        for position, spec in enumerate(specs)
    ])


def _logical(collector):
    """Snapshot minus harness wall-clock histograms (they time us)."""
    snap = collector.snapshot()
    snap["histograms"] = {
        name: value for name, value in snap["histograms"].items()
        if not name.startswith(SPAN_METRIC_PREFIX)
    }
    return snap


class TestOpenStore:
    def test_bare_path_and_sqlite_url_hit_the_same_file(self, tmp_path):
        path = tmp_path / "t.db"
        a = open_store(path)
        b = open_store(f"sqlite:////{str(path).lstrip('/')}")
        _enqueue(a, SPECS[:2])
        assert b.counts()["pending"] == 2
        a.close(), b.close()

    def test_store_instance_passes_through(self, tmp_path):
        store = _store(tmp_path)
        assert open_store(store) is store

    def test_memory_url_refused(self):
        with pytest.raises(FarmStoreError):
            SQLiteFarmStore(":memory:")

    def test_unknown_scheme_refused(self):
        with pytest.raises(FarmStoreError):
            open_store("postgres://nope/farm")


class TestStoreLifecycle:
    def test_claim_execute_complete_roundtrip(self, tmp_path):
        store = _store(tmp_path)
        _enqueue(store, SPECS[:3])
        policy = ResiliencePolicy()
        leases, reaped = store.claim_batch("w1", 2, 30.0, policy)
        assert reaped == []
        assert [lease.position for lease in leases] == [0, 1]
        assert all(lease.attempts == 1 for lease in leases)
        assert store.counts() == {
            "pending": 1, "leased": 2, "done": 0, "failed": 0,
            "quarantined": 0,
        }
        for lease in leases:
            assert store.complete(lease.token, {"pos": lease.position}, None)
        rows = store.campaign_rows("c1")
        assert [row["state"] for row in rows] == ["done", "done", "pending"]
        assert rows[0]["result"] == {"pos": 0}

    def test_duplicate_campaign_refused(self, tmp_path):
        store = _store(tmp_path)
        _enqueue(store, SPECS[:1])
        with pytest.raises(FarmStoreError):
            store.create_campaign("c1", "test", 1, {})

    def test_stale_token_completion_is_a_noop(self, tmp_path):
        """A zombie finishing after its lease was reaped changes nothing."""
        store = _store(tmp_path)
        _enqueue(store, SPECS[:1])
        policy = ResiliencePolicy(retries=3)
        (zombie,), _ = store.claim_batch("zombie", 1, 0.01, policy)
        time.sleep(0.05)
        (fresh,), reaped = store.claim_batch("fresh", 1, 30.0, policy)
        assert len(reaped) == 1 and not reaped[0].quarantined
        assert fresh.position == zombie.position
        assert fresh.attempts == 2
        assert not store.complete(zombie.token, "zombie result", None)
        assert store.fail(zombie.token, "zombie failure", policy) == "stale"
        assert store.complete(fresh.token, "fresh result", None)
        assert store.campaign_rows("c1")[0]["result"] == "fresh result"

    def test_fail_requeues_until_the_budget_quarantines(self, tmp_path):
        store = _store(tmp_path)
        _enqueue(store, SPECS[:1])
        policy = ResiliencePolicy(retries=1)  # two attempts total
        (lease,), _ = store.claim_batch("w1", 1, 30.0, policy)
        assert store.fail(lease.token, "boom", policy) == "retry"
        assert store.counts()["failed"] == 1
        (lease,), _ = store.claim_batch("w1", 1, 30.0, policy)
        assert lease.attempts == 2
        assert store.fail(lease.token, "boom again", policy) == "quarantined"
        row = store.campaign_rows("c1")[0]
        assert row["state"] == "quarantined"
        assert "boom again" in row["failure"]

    def test_expired_reap_quarantines_an_exhausted_trial(self, tmp_path):
        store = _store(tmp_path)
        _enqueue(store, SPECS[:1])
        policy = ResiliencePolicy()  # one attempt: a lost lease exhausts it
        store.claim_batch("doomed", 1, 0.01, policy)
        time.sleep(0.05)
        leases, reaped = store.claim_batch("next", 1, 30.0, policy)
        assert leases == []
        assert len(reaped) == 1 and reaped[0].quarantined
        assert store.counts()["quarantined"] == 1

    def test_complete_many_skips_a_reclaimed_zombie_token(self, tmp_path):
        store = _store(tmp_path)
        _enqueue(store, SPECS[:2])
        policy = ResiliencePolicy(retries=3)
        (zombie,), _ = store.claim_batch("zombie", 1, 0.01, policy)
        time.sleep(0.05)
        (fresh,), reaped = store.claim_batch("fresh", 1, 30.0, policy)
        assert len(reaped) == 1 and fresh.position == zombie.position
        (live,), _ = store.claim_batch("live", 1, 30.0, policy)
        assert store.complete_many([
            (live.token, "live result", None),
            (zombie.token, "zombie result", None),
        ]) == [True, False]
        reclaimed, settled = store.campaign_rows("c1")
        assert reclaimed["state"] == "leased"
        assert reclaimed["lease_token"] == fresh.token
        assert reclaimed["result"] is None
        assert settled["state"] == "done"
        assert settled["result"] == "live result"
        assert store.complete_many([]) == []

    def test_retrying_store_retries_complete_many_as_one_unit(
            self, tmp_path):
        store = _store(tmp_path)
        _enqueue(store, SPECS[:2])
        leases, _ = store.claim_batch("w1", 2, 30.0, ResiliencePolicy())
        batches = []

        class LockedOnce:
            def complete_many(self, items):
                batches.append(list(items))
                if len(batches) == 1:
                    raise sqlite3.OperationalError("database is locked")
                return store.complete_many(items)

        retrying = RetryingStore(LockedOnce(), sleep=lambda _: None)
        items = [(lease.token, lease.position, None) for lease in leases]
        assert retrying.complete_many(items) == [True, True]
        assert retrying.retried == 1
        assert batches == [items, items]  # the whole batch, twice
        assert store.counts("c1")["done"] == 2

    def test_claims_read_the_claimable_index(self, tmp_path):
        """Scoped and unscoped claims walk the partial index of
        claimable rows, never sorting the pending set."""
        store = _store(tmp_path)
        _enqueue(store, SPECS)
        conn = store._conn()
        for scope, args in (("", (5,)), (" AND campaign = ?", ("c1", 5))):
            plan = " | ".join(
                row["detail"] for row in conn.execute(
                    "EXPLAIN QUERY PLAN " + CLAIM_SQL.format(scope=scope),
                    args,
                )
            )
            assert "trials_claimable" in plan, plan
            assert "TEMP B-TREE" not in plan, plan

    def test_claims_are_scoped_by_campaign(self, tmp_path):
        store = _store(tmp_path)
        _enqueue(store, SPECS[:2], campaign="a")
        _enqueue(store, SPECS[2:4], campaign="b")
        policy = ResiliencePolicy()
        leases, _ = store.claim_batch("w1", 10, 30.0, policy, campaign="b")
        assert {lease.campaign for lease in leases} == {"b"}
        assert store.counts("a")["pending"] == 2

    def test_status_renders(self, tmp_path):
        store = _store(tmp_path)
        _enqueue(store, SPECS[:4])
        store.claim_batch("w1", 1, 30.0, ResiliencePolicy())
        status = store.status()
        assert status["remaining"] == 4
        assert status["workers"] == {"w1": 1}
        text = render_status(status)
        assert "pending=3" in text and "w1" in text and "c1" in text


class TestClaimConcurrency:
    def test_four_threads_never_double_lease(self, tmp_path):
        """Satellite: hammer ``claim_batch`` from 4 threads — every trial
        is leased exactly once."""
        store = _store(tmp_path)
        _enqueue(store, [
            SetAgreementTrialSpec(3, 1, seed=s, stabilization_time=0)
            for s in range(40)
        ])
        policy = ResiliencePolicy()
        claimed, errors = [], []
        lock = threading.Lock()

        def hammer(worker):
            try:
                while True:
                    leases, _ = store.claim_batch(worker, 3, 30.0, policy)
                    if not leases:
                        return
                    with lock:
                        claimed.extend(
                            (lease.campaign, lease.position)
                            for lease in leases
                        )
                    for lease in leases:
                        store.complete(lease.token, None, None)
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(f"w{i}",))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(claimed) == 40
        assert len(set(claimed)) == 40  # no double-lease, ever
        assert store.counts()["done"] == 40

    def test_expired_lease_reclaimed_exactly_once(self, tmp_path):
        """Satellite: four concurrent claimers race for one expired
        lease — exactly one wins it."""
        store = _store(tmp_path)
        _enqueue(store, SPECS[:1])
        policy = ResiliencePolicy(retries=3)
        store.claim_batch("dead", 1, 0.01, policy)
        time.sleep(0.05)
        wins, barrier = [], threading.Barrier(4)
        lock = threading.Lock()

        def race(worker):
            barrier.wait()
            leases, reaped = store.claim_batch(worker, 5, 30.0, policy)
            with lock:
                wins.append((worker, leases, reaped))

        threads = [
            threading.Thread(target=race, args=(f"w{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        winners = [w for w, leases, _ in wins if leases]
        reapers = [w for w, _, reaped in wins if reaped]
        assert len(winners) == 1
        assert len(reapers) == 1
        (_, (lease,), _), = [w for w in wins if w[1]]
        assert lease.attempts == 2


class TestWorkerDrain:
    def test_serial_worker_matches_run_trials(self, tmp_path):
        baseline = run_trials(SPECS, jobs=1)
        store = _store(tmp_path)
        submitted = submit_campaign(store, SPECS, campaign="par")
        assert submitted["pending"] == len(SPECS)
        stats = FarmWorker(store, lease_ttl=5.0).drain()
        assert stats["completed"] == len(SPECS)
        assert stats["stale"] == 0
        results, info = collect_results(store, "par")
        assert results == baseline
        assert info["completed"] == len(SPECS)

    def test_store_backend_telemetry_parity(self, tmp_path):
        serial = MetricsCollector()
        baseline = run_trials(SPECS, jobs=1, collector=serial)
        farm = MetricsCollector()
        results = run_trials(
            SPECS, jobs=1, collector=farm,
            store=str(tmp_path / "farm.db"),
        )
        assert results == baseline
        assert _logical(farm) == _logical(serial)

    def test_store_and_journal_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(StoreJournalConflictError):
            run_trials(
                SPECS[:1], store=str(tmp_path / "s.db"),
                journal=str(tmp_path / "j.jsonl"),
            )

    def test_pooled_worker_matches_serial(self, tmp_path):
        store = _store(tmp_path)
        submit_campaign(store, SPECS, campaign="pooled")
        stats = FarmWorker(store, jobs=2, lease_ttl=10.0).drain()
        assert stats["completed"] == len(SPECS)
        results, _ = collect_results(store, "pooled")
        assert results == run_trials(SPECS, jobs=1)

    def test_failing_trials_quarantine_and_collect_partial(self, tmp_path):
        store = _store(tmp_path)
        specs = SPECS[:2] + [BROKEN]
        submit_campaign(store, specs, campaign="broken")
        policy = ResiliencePolicy(retries=1, backoff=0.0)
        stats = FarmWorker(store, policy=policy, lease_ttl=5.0).drain()
        assert stats["completed"] == 2
        assert stats["failed"] == 1  # the retry round
        assert stats["quarantined"] == 1
        quarantine = QuarantineReport()
        results, info = collect_results(store, "broken",
                                        quarantine=quarantine)
        assert results[:2] == run_trials(SPECS[:2], jobs=1)
        assert results[2] is None
        assert info["quarantined"] == 1
        assert len(quarantine) == 1
        assert quarantine.entries[0].attempts == 2

    def test_collect_while_in_flight_raises(self, tmp_path):
        store = _store(tmp_path)
        submit_campaign(store, SPECS[:2], campaign="open")
        with pytest.raises(CampaignIncompleteError):
            collect_results(store, "open")
        results, info = collect_results(store, "open", strict=False)
        assert results == [None, None]
        assert info["unfinished"] == 2

    @staticmethod
    def _claim_limits(tmp_path, monkeypatch, specs, trial_seconds,
                      batch_size=None):
        """Drain ``specs`` with trials taking ``trial_seconds`` each;
        returns the ``limit`` of every claim."""
        def execute(spec, timeout, submitted_at, key):
            time.sleep(trial_seconds)
            return key, None

        monkeypatch.setattr(worker_module, "guarded_execute_observed",
                            execute)
        limits = []

        class LimitLog(SQLiteFarmStore):
            def claim_batch(self, worker, limit, *args, **kwargs):
                limits.append(limit)
                return super().claim_batch(worker, limit, *args, **kwargs)

        store = LimitLog(tmp_path / "farm.db")
        submit_campaign(store, specs, campaign="sized")
        stats = FarmWorker(store, batch_size=batch_size,
                           lease_ttl=5.0).drain()
        assert stats["completed"] == len(specs)
        return limits

    def test_fast_trials_grow_the_claim(self, tmp_path, monkeypatch):
        limits = self._claim_limits(tmp_path, monkeypatch, SPECS, 0.0)
        assert limits[0] == 2  # max(2, 2·jobs) before any measurement
        assert limits[1] > 2

    def test_slow_trials_keep_the_default_claim(self, tmp_path, monkeypatch):
        limits = self._claim_limits(tmp_path, monkeypatch, SPECS[:4], 0.11)
        assert set(limits) == {2}

    def test_explicit_batch_size_wins(self, tmp_path, monkeypatch):
        limits = self._claim_limits(tmp_path, monkeypatch, SPECS, 0.0,
                                    batch_size=3)
        assert set(limits) == {3}

    def test_max_idle_exits_while_another_worker_holds_leases(
            self, tmp_path):
        store = _store(tmp_path)
        submit_campaign(store, SPECS[:1], campaign="held")
        store.claim_batch("other", 1, 30.0, ResiliencePolicy())
        worker = FarmWorker(store, poll=0.01, max_idle=0.05)
        stats = worker.drain()
        assert stats["claimed"] == 0


class TestCacheAsSharedTier:
    def test_second_submit_is_all_cache_hits(self, tmp_path):
        cache = TrialCache(tmp_path / "cache")
        first = _store(tmp_path, "first.db")
        submit_campaign(first, SPECS, campaign="cold", cache=cache)
        FarmWorker(first, cache=cache, lease_ttl=5.0).drain()
        cold, _ = collect_results(first, "cold")

        second = _store(tmp_path, "second.db")
        submitted = submit_campaign(second, SPECS, campaign="warm",
                                    cache=cache)
        assert submitted["cache_hits"] == len(SPECS)
        assert submitted["pending"] == 0
        # nothing to drain: the campaign is complete on arrival
        warm, info = collect_results(second, "warm")
        assert warm == cold
        assert info["cached"] == len(SPECS)

    def test_cached_rows_report_cached_telemetry(self, tmp_path):
        cache = TrialCache(tmp_path / "cache")
        first = _store(tmp_path, "first.db")
        submit_campaign(first, SPECS, campaign="cold", cache=cache)
        FarmWorker(first, cache=cache, lease_ttl=5.0).drain()

        second = _store(tmp_path, "second.db")
        submit_campaign(second, SPECS, campaign="warm", cache=cache)
        collector = MetricsCollector()
        collect_results(second, "warm", collector=collector)
        counters = collector.snapshot()["counters"]
        assert counters["trials_cached"] == {"set_agreement": len(SPECS)}
        assert counters["trials_completed"] == {}


class TestFarmEvents:
    def test_claims_and_reaps_reach_the_metrics_registry(self, tmp_path):
        store = _store(tmp_path)
        submit_campaign(store, SPECS[:3], campaign="seen")
        # a dead worker's lease, ready to reap
        policy = ResiliencePolicy(retries=2)
        store.claim_batch("dead", 1, 0.01, policy)
        time.sleep(0.05)
        collector = MetricsCollector()
        claims, reaps = [], []
        collector.bus.subscribe(claims.append, (FarmTrialClaimed,))
        collector.bus.subscribe(reaps.append, (FarmLeaseExpired,))
        stats = FarmWorker(store, policy=policy, bus=collector.bus,
                           lease_ttl=5.0).drain()
        assert stats["completed"] == 3
        assert stats["reaped"] == 1
        assert len(reaps) == 1 and reaps[0].worker == "dead"
        assert len(claims) == stats["claimed"]
        counters = collector.snapshot()["counters"]
        assert sum(counters["farm_trials_claimed"].values()) == \
            stats["claimed"]
        assert counters["farm_leases_expired"] == {"dead": 1}


def _worker_cmd(store_path, *extra):
    return [
        sys.executable, "-m", "repro", "worker",
        "--store", f"sqlite:////{str(store_path).lstrip('/')}",
        "--no-cache", *extra,
    ]


def _worker_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestWorkerDeathRecovery:
    def test_killed_worker_loses_no_trial_and_duplicates_none(
            self, tmp_path):
        """Satellite: a worker dies mid-batch holding leases; after
        expiry a second worker reclaims and the campaign finishes
        byte-identical to the serial baseline."""
        baseline = run_trials(SPECS, jobs=1)
        store_path = tmp_path / "crash.db"
        store = SQLiteFarmStore(store_path)
        submit_campaign(store, SPECS, campaign="crashy")

        proc = subprocess.run(
            _worker_cmd(store_path, "--lease-ttl", "0.5",
                        "--batch-size", "4",
                        "--self-test-crash-after", "2"),
            env=_worker_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == CRASH_EXIT_CODE, proc.stderr
        counts = store.counts()
        assert counts["done"] == 2
        assert counts["leased"] == 2  # the rest of the dead batch

        policy = ResiliencePolicy(retries=2, backoff=0.0)
        recovery = FarmWorker(store, policy=policy, lease_ttl=0.5,
                              poll=0.05)
        stats = recovery.drain()
        assert stats["reaped"] == 2  # both abandoned leases, once each
        assert stats["stale"] == 0
        counts = store.counts()
        assert counts["done"] == len(SPECS)
        assert counts["pending"] == counts["leased"] == 0
        assert counts["failed"] == counts["quarantined"] == 0

        results, info = collect_results(store, "crashy")
        assert results == baseline  # no loss, no duplicates, same bytes
        assert info["completed"] == len(SPECS)


class TestCli:
    def test_sweep_store_refuses_resume_journal(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "sweep", "set-agreement", "--sizes", "3", "--seeds", "0",
            "--stabilizations", "0", "--no-cache",
            "--store", f"sqlite:////{str(tmp_path / 's.db').lstrip('/')}",
            "--resume", str(tmp_path / "j.jsonl"),
        ])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_submit_status_worker_results_flow(self, tmp_path, capsys):
        from repro.cli import main

        url = f"sqlite:////{str(tmp_path / 'cli.db').lstrip('/')}"
        code = main([
            "submit", "set-agreement", "--sizes", "3", "--seeds", "0,1",
            "--stabilizations", "0", "--no-cache",
            "--store", url, "--campaign", "cli", "--json",
        ])
        assert code == 0
        import json
        submitted = json.loads(capsys.readouterr().out)
        assert submitted["trials"] == 2 and submitted["pending"] == 2

        assert main(["farm", "status", "--store", url, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["states"]["pending"] == 2

        code = main([
            "worker", "--store", url, "--no-cache", "--json",
        ])
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["completed"] == 2

        csv_path = tmp_path / "cli.csv"
        code = main([
            "farm", "results", "--store", url, "--campaign", "cli",
            "--csv", str(csv_path),
        ])
        assert code == 0
        assert "properties: OK" in capsys.readouterr().out
        assert csv_path.exists()

    def test_results_csv_refuses_mixed_kinds(self, tmp_path, capsys):
        from repro.cli import main

        url = f"sqlite:////{str(tmp_path / 'mixed.db').lstrip('/')}"
        assert main([
            "submit", "chaos", "--protocols", "fig1,abd-converge",
            "--sizes", "3", "--seeds", "0", "--lying-prefixes", "0",
            "--drop-rates", "0.0", "--no-cache", "--store", url,
            "--campaign", "mixed",
        ]) == 0
        assert main(["worker", "--store", url, "--no-cache"]) == 0
        capsys.readouterr()
        csv_path = tmp_path / "mixed.csv"
        code = main([
            "farm", "results", "--store", url, "--campaign", "mixed",
            "--csv", str(csv_path),
        ])
        assert code == 2
        assert "mixes ConvergeResult, SetAgreementResult" in \
            capsys.readouterr().err
        assert not csv_path.exists()

    def test_submit_duplicate_campaign_is_a_usage_error(
            self, tmp_path, capsys):
        from repro.cli import main

        url = f"sqlite:////{str(tmp_path / 'dup.db').lstrip('/')}"
        base = [
            "submit", "set-agreement", "--sizes", "3", "--seeds", "0",
            "--stabilizations", "0", "--no-cache",
            "--store", url, "--campaign", "dup",
        ]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base) == 2
        assert "dup" in capsys.readouterr().err
