"""Tests for infrastructure chaos (``repro.chaos.infra``) and friends.

The contracts under test: a fault plan is seeded/picklable/validated
and stays inside the retry safety envelope; injected ``database is
locked`` storms are retried with jittered backoff instead of crashing
the worker; injected cache ENOSPC degrades the cache to read-only
(``cache_degraded == 1``) while the trial still succeeds; a worker that
cannot heartbeat abandons its leases cleanly; the campaign ledger
survives a torn-tail append losing nothing; the crash-consistency
checker passes seeded kill-point runs byte-identical to a pristine
serial baseline and flags a sabotaged (duplicate ``done`` row) store
with a structured violation report — locally, through the
``faulty-infra`` audit oracle, and through the ``repro chaos infra``
exit-code contract.
"""

import pickle
import random
import sqlite3

import pytest

from repro.chaos.infra import (
    KILL_BARRIERS,
    CrashConsistencyChecker,
    FaultyCache,
    FaultyStore,
    InfraFaultPlan,
    SimulatedPowerCut,
    check_ledger_survives_tear,
    check_store_invariants,
    default_infra_specs,
    result_bytes,
    sabotage_duplicate_done,
    tear_ledger_tail,
)
from repro.farm import FarmWorker, RetryingStore, SQLiteFarmStore, submit_campaign
from repro.farm.worker import _Heartbeat
from repro.obs.campaign import CampaignLedger, CampaignRecord
from repro.obs.metrics import MetricsCollector
from repro.perf import ResiliencePolicy, spec_key
from repro.perf.resilience import guarded_execute

SPECS = default_infra_specs(3)

POLICY = ResiliencePolicy(retries=2, backoff=0.0)

FAST_RETRY = ResiliencePolicy(backoff=0.001, max_backoff=0.01, jitter=1.0)


def _enqueue(store, specs, campaign="c1"):
    store.create_campaign(campaign, "test", len(specs), {})
    store.enqueue(campaign, [
        (position, spec_key(spec), spec, False, None, None)
        for position, spec in enumerate(specs)
    ])


class TestInfraFaultPlan:
    def test_severity_constructors_round_trip(self):
        for plan in (InfraFaultPlan.light(7), InfraFaultPlan.max_severity(7)):
            assert plan.any_active
            assert plan == InfraFaultPlan.from_dict(plan.to_dict())
            assert plan == pickle.loads(pickle.dumps(plan))

    def test_default_plan_is_inert(self):
        assert not InfraFaultPlan().any_active

    def test_max_severity_is_seed_deterministic(self):
        assert InfraFaultPlan.max_severity(3) == InfraFaultPlan.max_severity(3)
        assert InfraFaultPlan.max_severity(3) != InfraFaultPlan.max_severity(4)
        assert InfraFaultPlan.max_severity(0).kill_barrier in KILL_BARRIERS

    def test_validation_rejects_out_of_envelope_knobs(self):
        with pytest.raises(ValueError):
            InfraFaultPlan(store_lock_rate=1.5)
        with pytest.raises(ValueError):
            InfraFaultPlan(store_lock_burst=9)  # beyond the retry budget
        with pytest.raises(ValueError):
            InfraFaultPlan(kill_barrier="between-everything")
        with pytest.raises(ValueError):
            InfraFaultPlan(kill_at=-1)

    def test_lock_bursts_stay_below_the_retry_budget(self):
        injector = InfraFaultPlan(
            seed=0, store_lock_rate=1.0, store_lock_burst=3
        ).build()
        outcomes = []
        for _ in range(8):
            try:
                injector.maybe_lock("claim")
                outcomes.append("ok")
            except sqlite3.OperationalError:
                outcomes.append("locked")
        # rate 1.0: exactly burst-many locks, then a forced success.
        assert outcomes == ["locked"] * 3 + ["ok"] + ["locked"] * 3 + ["ok"]


class TestJitteredBackoff:
    def test_default_schedule_is_bit_identical_without_jitter(self):
        policy = ResiliencePolicy(backoff=0.5, max_backoff=30.0)
        assert [policy.backoff_seconds(r) for r in range(4)] \
            == [0.5, 1.0, 2.0, 4.0]
        # An rng without jitter configured changes nothing.
        assert policy.backoff_seconds(1, random.Random(0)) == 1.0

    def test_full_jitter_stays_within_the_exponential_envelope(self):
        policy = ResiliencePolicy(backoff=0.5, max_backoff=30.0, jitter=1.0)
        rng = random.Random(42)
        delays = [policy.backoff_seconds(2, rng) for _ in range(50)]
        assert all(0.0 <= d <= 2.0 for d in delays)
        assert len(set(delays)) > 1  # actually spread out

    def test_jitter_without_rng_is_deterministic(self):
        policy = ResiliencePolicy(backoff=0.5, jitter=1.0)
        assert policy.backoff_seconds(1) == 1.0


class TestRetryingStore:
    def test_injected_lock_on_claim_is_retried_with_jittered_backoff(
        self, tmp_path
    ):
        inner = SQLiteFarmStore(tmp_path / "farm.db")
        _enqueue(inner, SPECS)
        injector = InfraFaultPlan(
            seed=1, store_lock_rate=1.0, store_lock_burst=2
        ).build()
        sleeps = []
        store = RetryingStore(
            FaultyStore(inner, injector), policy=FAST_RETRY,
            rng=random.Random(0), sleep=sleeps.append,
        )
        leases, _ = store.claim_batch("w", 2, 30.0, POLICY)
        assert len(leases) == 2
        assert store.retried == 2  # two injected locks, then success
        assert len(sleeps) == 2
        assert all(0.0 <= s <= FAST_RETRY.max_backoff for s in sleeps)
        inner.close()

    def test_non_transient_errors_pass_straight_through(self, tmp_path):
        inner = SQLiteFarmStore(tmp_path / "farm.db")

        class Schema:
            def counts(self, campaign=None):
                raise sqlite3.OperationalError("no such table: trials")

        store = RetryingStore(Schema(), policy=FAST_RETRY)
        with pytest.raises(sqlite3.OperationalError):
            store.counts()
        assert store.retried == 0
        inner.close()

    def test_exhausted_attempts_reraise_the_lock(self):
        class AlwaysLocked:
            def counts(self, campaign=None):
                raise sqlite3.OperationalError("database is locked")

        sleeps = []
        store = RetryingStore(AlwaysLocked(), policy=FAST_RETRY,
                              attempts=3, rng=random.Random(0),
                              sleep=sleeps.append)
        with pytest.raises(sqlite3.OperationalError):
            store.counts()
        assert store.retried == 2  # attempts - 1 sleeps, then re-raise
        assert len(sleeps) == 2

    def test_farm_worker_auto_wraps_its_store(self, tmp_path):
        inner = SQLiteFarmStore(tmp_path / "farm.db")
        worker = FarmWorker(inner, worker_id="w")
        assert isinstance(worker.store, RetryingStore)
        # ... but never double-wraps.
        again = FarmWorker(worker.store, worker_id="w")
        assert again.store is worker.store
        inner.close()


class TestCacheDegradation:
    def test_enospc_degrades_to_read_only_and_trial_still_succeeds(
        self, tmp_path
    ):
        store = SQLiteFarmStore(tmp_path / "farm.db")
        _enqueue(store, SPECS)
        injector = InfraFaultPlan(seed=0, cache_enospc_after=0).build()
        cache = FaultyCache(tmp_path / "cache", injector)
        worker = FarmWorker(store, worker_id="w", cache=cache,
                            policy=POLICY, poll=0.01)
        stats = worker.drain()
        # Every trial settled despite the cache losing its disk.
        assert stats["completed"] == len(SPECS)
        assert store.counts("c1")["done"] == len(SPECS)
        assert cache.cache_degraded == 1
        assert cache.degraded
        store.close()

    def test_degraded_cache_keeps_serving_reads(self, tmp_path):
        from repro.perf import TrialCache

        spec = SPECS[0]
        result = guarded_execute(spec)
        warm = TrialCache(tmp_path / "cache")
        warm.put(spec, result)
        injector = InfraFaultPlan(seed=0, cache_enospc_after=0).build()
        cache = FaultyCache(tmp_path / "cache", injector)
        cache.put(SPECS[1], guarded_execute(SPECS[1]))  # degrades
        assert cache.degraded
        assert cache.get(spec) == result  # reads still hit
        assert cache.get(SPECS[1]) is None  # the failed write stored nothing

    def test_truncated_entry_is_dropped_and_recomputed(self, tmp_path):
        from repro.perf import TrialCache

        spec = SPECS[0]
        warm = TrialCache(tmp_path / "cache")
        warm.put(spec, guarded_execute(spec))
        injector = InfraFaultPlan(seed=0, cache_truncate_rate=1.0).build()
        cache = FaultyCache(tmp_path / "cache", injector)
        assert cache.get(spec) is None  # torn on disk -> corrupt -> miss
        assert cache.corrupt == 1
        assert not cache._path(spec_key(spec)).exists()  # dropped


class TestKillBarriers:
    def test_power_cut_fires_at_the_seeded_crossing(self, tmp_path):
        store = SQLiteFarmStore(tmp_path / "farm.db")
        _enqueue(store, SPECS)
        plan = InfraFaultPlan(seed=0, kill_barrier="after-claim", kill_at=0)
        faulty = FaultyStore(store, plan.build())
        with pytest.raises(SimulatedPowerCut) as exc_info:
            faulty.claim_batch("w", 2, 30.0, POLICY)
        assert exc_info.value.barrier == "after-claim"
        # The claim itself committed before the cut: leases are durable,
        # exactly what a real torn process leaves behind.
        assert store.counts("c1")["leased"] == 2
        store.close()

    def test_kill_before_a_batch_commit_leaves_the_batch_leased(
        self, tmp_path
    ):
        """The batched completion crosses ``before-complete`` too: the
        cut loses the whole uncommitted batch, and a pristine finisher
        still restores parity with the serial baseline."""
        store = SQLiteFarmStore(tmp_path / "farm.db")
        submit_campaign(store, SPECS, campaign="c1", kind="test")
        plan = InfraFaultPlan(seed=0, kill_barrier="before-complete")
        dying = FarmWorker(
            FaultyStore(store, plan.build()), worker_id="a", policy=POLICY,
            lease_ttl=0.15, campaign="c1", poll=0.01,
        )
        with pytest.raises(SimulatedPowerCut):
            dying.drain()
        counts = store.counts("c1")
        assert counts["leased"] == 2  # the first claim, max(2, 2·jobs)
        assert counts["done"] == 0
        finisher = SQLiteFarmStore(tmp_path / "farm.db")
        FarmWorker(finisher, worker_id="b", policy=POLICY, lease_ttl=0.15,
                   campaign="c1", poll=0.02).drain()
        finisher.close()
        baseline = [result_bytes(guarded_execute(spec)) for spec in SPECS]
        assert check_store_invariants(store, "c1", POLICY, baseline) == []
        store.close()

    def test_power_cut_passes_through_the_retry_wrapper(self, tmp_path):
        store = SQLiteFarmStore(tmp_path / "farm.db")
        _enqueue(store, SPECS)
        plan = InfraFaultPlan(seed=0, kill_barrier="after-claim", kill_at=0)
        wrapped = RetryingStore(FaultyStore(store, plan.build()),
                                policy=FAST_RETRY)
        with pytest.raises(SimulatedPowerCut):
            wrapped.claim_batch("w", 2, 30.0, POLICY)
        store.close()


class TestHeartbeatLoss:
    def test_consecutive_misses_set_lost(self, tmp_path):
        class Unreachable:
            def heartbeat(self, tokens, ttl):
                raise sqlite3.OperationalError("database is locked")

        heartbeat = _Heartbeat(Unreachable(), lease_ttl=0.12, max_misses=3)
        heartbeat.track(["tok"])
        heartbeat.start()
        try:
            assert heartbeat.lost.wait(timeout=5.0)
        finally:
            heartbeat.stop()

    def test_lost_heartbeat_abandons_remaining_leases(self, tmp_path):
        store = SQLiteFarmStore(tmp_path / "farm.db")
        _enqueue(store, SPECS)
        worker = FarmWorker(store, worker_id="w", policy=POLICY, poll=0.01)
        leases, _ = worker.store.claim_batch("w", len(SPECS), 30.0, POLICY)
        heartbeat = _Heartbeat(worker.store, lease_ttl=30.0)
        heartbeat.track([lease.token for lease in leases])
        heartbeat.lost.set()  # the store went unreachable
        worker._run(leases, heartbeat)
        assert worker.stats["abandoned"] == len(leases)
        assert worker.stats["completed"] == 0
        assert heartbeat.tracked() == []
        # Nothing settled: the rows are still leased and will expire.
        assert store.counts("c1")["leased"] == len(SPECS)
        store.close()


class TestLedgerTornTail:
    def test_append_survives_a_torn_tail_losing_nothing(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = CampaignLedger(path)
        ledger.append(CampaignRecord("sweep", "ok", started=1.0))
        ledger.append(CampaignRecord("sweep", "ok", started=2.0))
        tear_ledger_tail(path)
        # The next append must not glue onto the torn fragment.
        ledger.append(CampaignRecord("sweep", "ok", started=3.0))
        records = ledger.records()
        assert [record.started for record in records] == [1.0, 2.0, 3.0]
        # The torn tail is skipped as exactly one malformed line.
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4
        assert sum(1 for line in lines if "torn-by-power-cut" in line) == 1

    def test_helper_asserts_the_same_contract(self, tmp_path):
        assert check_ledger_survives_tear(tmp_path / "ledger.jsonl") == []

    def test_kill_mid_append_loses_at_most_the_torn_record(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = CampaignLedger(path)
        ledger.append(CampaignRecord("sweep", "ok", started=1.0))
        # Simulate the writer dying partway through its own write() by
        # truncating the file mid-line, then reopening.
        raw = path.read_bytes()
        path.write_bytes(raw + raw[: len(raw) // 2])
        reopened = CampaignLedger(path)
        assert [r.started for r in reopened.records()] == [1.0]
        reopened.append(CampaignRecord("sweep", "ok", started=2.0))
        assert [r.started for r in reopened.records()] == [1.0, 2.0]


class TestStoreCloseErrors:
    def test_close_failure_is_logged_and_counted_not_swallowed(
        self, tmp_path, caplog
    ):
        store = SQLiteFarmStore(tmp_path / "farm.db")
        store._conn()

        class Broken:
            def close(self):
                raise sqlite3.ProgrammingError("already closed")

        store._all_conns.append(Broken())
        with caplog.at_level("WARNING", logger="repro.farm.store"):
            store.close()
        assert store.farm_store_errors == 1
        assert any("close failed" in record.message
                   for record in caplog.records)


class TestRequeue:
    def _quarantine_all(self, store, campaign="c1"):
        policy = ResiliencePolicy(retries=0)
        leases, _ = store.claim_batch("w", 99, 30.0, policy,
                                      campaign=campaign)
        for lease in leases:
            store.fail(lease.token, "boom", policy)
        return len(leases)

    def test_requeue_rearms_selected_positions(self, tmp_path):
        store = SQLiteFarmStore(tmp_path / "farm.db")
        _enqueue(store, SPECS)
        assert self._quarantine_all(store) == len(SPECS)
        assert store.requeue(campaign="c1", positions=[0]) == 1
        counts = store.counts("c1")
        assert counts["pending"] == 1
        assert counts["quarantined"] == len(SPECS) - 1
        rows = store.campaign_rows("c1")
        assert rows[0]["attempts"] == 0
        assert rows[0]["failure"] is None
        # The re-armed trial is claimable and completable again.
        leases, _ = store.claim_batch("w2", 5, 30.0, POLICY, campaign="c1")
        assert [lease.position for lease in leases] == [0]
        assert store.complete(leases[0].token, "result")
        store.close()

    def test_requeue_all_scopes_by_campaign(self, tmp_path):
        store = SQLiteFarmStore(tmp_path / "farm.db")
        _enqueue(store, SPECS, campaign="c1")
        _enqueue(store, SPECS[:2], campaign="c2")
        self._quarantine_all(store, "c1")
        self._quarantine_all(store, "c2")
        assert store.requeue(campaign="c2") == 2
        assert store.counts("c1")["quarantined"] == len(SPECS)
        assert store.counts("c2")["pending"] == 2
        assert store.requeue() == len(SPECS)  # the rest, store-wide
        store.close()

    def test_requeue_cli_verb(self, tmp_path, capsys):
        from repro.cli import main

        store = SQLiteFarmStore(tmp_path / "farm.db")
        _enqueue(store, SPECS)
        self._quarantine_all(store)
        store.close()
        code = main(["farm", "requeue", "--store",
                     f"sqlite:///{tmp_path}/farm.db", "--trial-id", "0",
                     "--trial-id", "1"])
        assert code == 0
        assert "re-armed 2" in capsys.readouterr().out
        reopened = SQLiteFarmStore(tmp_path / "farm.db")
        assert reopened.counts("c1")["pending"] == 2
        reopened.close()


class TestCrashConsistencyChecker:
    def test_seeded_kill_runs_match_the_pristine_baseline(self):
        collector = MetricsCollector()
        checker = CrashConsistencyChecker(
            SPECS, runs=3, seed=0, severity="max", bus=collector.bus
        )
        report = checker.run()
        assert report.ok, report.summary()
        assert report.kills == 3  # max severity always stages a cut
        assert report.injected.get("store:locked", 0) > 0
        counters = collector.snapshot()["counters"]
        assert counters["infra_faults_injected"]["store:kill"] == 3

    def test_light_severity_runs_clean_without_kills(self):
        report = CrashConsistencyChecker(
            SPECS, runs=2, seed=5, severity="light"
        ).run()
        assert report.ok, report.summary()
        assert report.kills == 0

    def test_sabotaged_store_is_detected_with_a_structured_report(self):
        report = CrashConsistencyChecker(
            SPECS, runs=1, seed=0, severity="max",
            sabotage="duplicate-done",
        ).run()
        assert not report.ok
        kinds = {violation.kind for violation in report.violations}
        assert "duplicate-result" in kinds
        assert "row-count" in kinds
        body = report.to_dict()
        assert body["ok"] is False
        assert all({"kind", "detail", "position", "run"}
                   <= set(v) for v in body["violations"])

    def test_unknown_sabotage_and_empty_grid_refused(self):
        with pytest.raises(ValueError):
            CrashConsistencyChecker(SPECS, sabotage="set-fire")
        with pytest.raises(ValueError):
            CrashConsistencyChecker([])


class TestStoreInvariants:
    def _drained_store(self, tmp_path):
        store = SQLiteFarmStore(tmp_path / "farm.db")
        submit_campaign(store, SPECS, campaign="c1", kind="test")
        FarmWorker(store, worker_id="w", policy=POLICY, poll=0.01).drain()
        return store

    def test_clean_drain_has_no_violations(self, tmp_path):
        store = self._drained_store(tmp_path)
        baseline = [result_bytes(guarded_execute(spec)) for spec in SPECS]
        assert check_store_invariants(store, "c1", POLICY, baseline) == []
        store.close()

    def test_duplicate_done_row_is_flagged(self, tmp_path):
        store = self._drained_store(tmp_path)
        sabotage_duplicate_done(store, "c1")
        violations = check_store_invariants(store, "c1", POLICY)
        assert {"row-count", "duplicate-result"} \
            <= {violation.kind for violation in violations}
        store.close()

    def test_doctored_result_breaks_byte_identity(self, tmp_path):
        store = self._drained_store(tmp_path)
        conn = store._conn()
        conn.execute("BEGIN IMMEDIATE")
        conn.execute(
            "UPDATE trials SET result = ? WHERE campaign = 'c1'"
            " AND position = 1",
            (pickle.dumps("wrong", protocol=pickle.HIGHEST_PROTOCOL),),
        )
        conn.execute("COMMIT")
        baseline = [result_bytes(guarded_execute(spec)) for spec in SPECS]
        violations = check_store_invariants(store, "c1", POLICY, baseline)
        assert [violation.kind for violation in violations] \
            == ["result-mismatch"]
        assert violations[0].position == 1
        store.close()

    def test_lingering_lease_on_a_done_row_is_flagged(self, tmp_path):
        store = self._drained_store(tmp_path)
        conn = store._conn()
        conn.execute("BEGIN IMMEDIATE")
        conn.execute(
            "UPDATE trials SET lease_token = 'zombie', lease_worker = 'z'"
            " WHERE campaign = 'c1' AND position = 0",
        )
        conn.execute("COMMIT")
        violations = check_store_invariants(store, "c1", POLICY)
        assert [violation.kind for violation in violations] \
            == ["done-but-leased"]
        store.close()


class TestFaultyInfraOracle:
    def test_clean_case_and_sabotaged_case(self):
        from repro.audit.oracles import PAIRS_PER_CASE, run_case

        outcome = run_case("faulty-infra", 0, 13)
        assert outcome.ok
        assert outcome.trials == PAIRS_PER_CASE["faulty-infra"]
        sabotaged = run_case("faulty-infra", 0, 13, sabotage="infra-dup")
        assert not sabotaged.ok
        assert all(d.kind == "contract" for d in sabotaged.divergences)


class TestChaosInfraCli:
    def test_exit_code_contract(self, tmp_path, capsys):
        from repro.cli import main

        ledger = tmp_path / "ledger.jsonl"
        code = main(["chaos", "infra", "--seed", "0", "--runs", "2",
                     "--trials", "2", "--severity", "max",
                     "--ledger", str(ledger)])
        assert code == 0
        assert "OK" in capsys.readouterr().out
        records = CampaignLedger(ledger).records()
        assert len(records) == 1 and records[0].verdict == "ok"

        code = main(["chaos", "infra", "--seed", "0", "--runs", "1",
                     "--trials", "2", "--severity", "max",
                     "--sabotage", "duplicate-done", "--json"])
        assert code == 1
        import json

        body = json.loads(capsys.readouterr().out)
        assert body["ok"] is False
        assert body["violations"]
