"""Tests for the differential audit layer (repro.audit)."""

import dataclasses
import json
import pickle

import pytest

from repro.audit import (
    AuditTrialSpec,
    Divergence,
    ORACLE_PAIRS,
    PAIRS_PER_CASE,
    diff_result_fields,
    first_trace_divergence,
    plan_audit,
    run_audit,
    run_audit_trial,
    run_case,
)
from repro.cli import main
from repro.obs.metrics import MetricsCollector
from repro.perf.spec import execute_trial, spec_key


class TestDivergence:
    def test_round_trips_through_json(self, tmp_path):
        divergence = Divergence(
            pair="replay", case=3, seed=7, kind="fingerprint",
            detail="live and replay disagree",
            fingerprint_a="aa", fingerprint_b="bb",
            schedule=[0, 1, 0], shrunk_schedule=[0],
        )
        path = tmp_path / "div.json"
        divergence.save(path)
        loaded = Divergence.load(path)
        assert loaded == divergence
        assert "replay" in loaded.describe()

    def test_diff_result_fields_skips_nocompare(self):
        @dataclasses.dataclass
        class Result:
            steps: int
            metrics: dict = dataclasses.field(
                default_factory=dict, compare=False
            )

        rows = diff_result_fields(
            Result(3, {"a": 1}), Result(4, {"b": 2})
        )
        assert rows == [["steps", "3", "4"]]

    def test_diff_result_fields_type_mismatch(self):
        rows = diff_result_fields(1, "1")
        assert rows[0][0] == "type"

    def test_first_trace_divergence_length_mismatch(self):
        from repro.mc.instances import McInstance, build_simulation

        a = build_simulation(McInstance("fig1", 2))
        b = build_simulation(McInstance("fig1", 2))
        a.run_script([0, 1, 0])
        b.run_script([0, 1])
        index, step_a, step_b = first_trace_divergence(a.trace, b.trace)
        assert index == 2
        assert step_a is not None and step_b is None
        assert first_trace_divergence(a.trace, a.trace) is None


class TestAuditSpec:
    def test_picklable_and_hashable(self):
        spec = AuditTrialSpec(pair="replay", case=2, seed=9)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert hash(spec) == hash(AuditTrialSpec("replay", 2, 9))

    def test_spec_key_covers_every_field(self):
        base = AuditTrialSpec(pair="replay", case=0, seed=0)
        keys = {spec_key(base)}
        for change in (
            {"pair": "cache"}, {"case": 1}, {"seed": 1},
            {"sabotage": "cache"},
        ):
            keys.add(spec_key(dataclasses.replace(base, **change)))
        assert len(keys) == 5

    def test_execute_trial_dispatches_audit_specs(self):
        outcome = execute_trial(AuditTrialSpec(pair="replay", case=0, seed=7))
        assert outcome.pair == "replay"
        assert outcome.ok
        assert outcome.trials == PAIRS_PER_CASE["replay"]

    def test_run_audit_trial_deterministic(self):
        spec = AuditTrialSpec(pair="substrate", case=1, seed=3)
        assert run_audit_trial(spec) == run_audit_trial(spec)


class TestOracles:
    @pytest.mark.parametrize("pair", ORACLE_PAIRS)
    def test_each_pair_clean_at_head(self, pair):
        outcome = run_case(pair, 0, 13)
        assert outcome.ok, [d.describe() for d in outcome.divergences]
        assert outcome.trials == PAIRS_PER_CASE[pair]

    def test_unknown_pair_rejected(self):
        with pytest.raises(ValueError, match="unknown oracle pair"):
            run_case("nope", 0, 0)

    def test_cache_sabotage_is_detected(self):
        outcome = run_case("cache", 0, 7, sabotage="cache")
        assert not outcome.ok
        assert any(d.kind == "result" for d in outcome.divergences)
        assert any("warm" in d.detail for d in outcome.divergences)

    def test_abd_ack_sabotage_is_detected(self):
        outcome = run_case("substrate", 0, 7, sabotage="abd-ack")
        assert not outcome.ok
        assert any(d.kind == "contract" for d in outcome.divergences)
        assert any("!corrupted" in d.detail for d in outcome.divergences)

    def test_chaos_zero_catches_one_swapped_pick(self, monkeypatch):
        # A zero-severity chaos scheduler that deviates once from its
        # inner scheduler must show up as a step-level divergence: the
        # oracle runs the real drivers with and without the wrappers.
        from repro.chaos import ChaosScheduler

        choose = ChaosScheduler.choose

        def swapped(self, t, eligible):
            pid = choose(self, t, eligible)
            if t == 3 and len(eligible) > 1:
                return next(p for p in eligible if p != pid)
            return pid

        monkeypatch.setattr(ChaosScheduler, "choose", swapped)
        outcome = run_case("chaos-zero", 0, 13)
        traces = [d for d in outcome.divergences if d.kind == "trace"]
        assert len(traces) == PAIRS_PER_CASE["chaos-zero"]
        assert {d.first_step for d in traces} == {3}


class TestPlanAndRun:
    def test_plan_covers_every_selected_pair(self):
        specs = plan_audit(budget=50, seed=1)
        assert {s.pair for s in specs} == set(ORACLE_PAIRS)
        assert all(s.seed == 1 for s in specs)

    def test_plan_minimum_one_case_per_pair(self):
        specs = plan_audit(budget=1, seed=0)
        assert {s.pair for s in specs} == set(ORACLE_PAIRS)

    def test_plan_rejects_bad_input(self):
        with pytest.raises(ValueError, match="unknown oracle pair"):
            plan_audit(budget=10, seed=0, pairs=["nope"])
        with pytest.raises(ValueError, match="budget"):
            plan_audit(budget=0, seed=0)

    def test_run_audit_clean_and_counted(self):
        collector = MetricsCollector()
        report = run_audit(
            budget=2, seed=13, pairs=["replay", "substrate"],
            bus=collector.bus,
        )
        assert report.ok
        assert report.trial_pairs >= 2
        assert report.cases == 2
        counters = collector.snapshot()["counters"]
        assert not counters.get("audit_divergences")

    def test_run_audit_publishes_divergence_events(self):
        collector = MetricsCollector()
        report = run_audit(
            budget=2, seed=7, pairs=["substrate"], sabotage="abd-ack",
            bus=collector.bus,
        )
        assert not report.ok
        counts = collector.snapshot()["counters"]["audit_divergences"]
        assert counts.get("substrate", 0) >= 1

    def test_run_audit_shards_through_executor(self):
        serial = run_audit(budget=4, seed=5, pairs=["replay", "substrate"])
        sharded = run_audit(
            budget=4, seed=5, pairs=["replay", "substrate"], jobs=2
        )
        assert serial.ok and sharded.ok
        assert serial.trial_pairs == sharded.trial_pairs
        assert serial.cases == sharded.cases

    def test_report_round_trips(self, tmp_path):
        report = run_audit(budget=1, seed=3, pairs=["replay"])
        path = report.save(tmp_path / "report.json")
        body = json.loads(path.read_text())
        assert body["seed"] == 3
        assert body["divergences"] == []


class TestCli:
    def test_audit_exits_zero_when_clean(self, tmp_path, capsys):
        code = main([
            "audit", "--budget", "2", "--seed", "13",
            "--pairs", "replay,substrate",
            "--report", str(tmp_path / "report.json"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "clean" in out
        assert str(tmp_path / "report.json") in out
        assert (tmp_path / "report.json").exists()

    def test_audit_exits_four_on_divergence(self, tmp_path, capsys):
        code = main([
            "audit", "--budget", "2", "--seed", "7",
            "--pairs", "substrate", "--sabotage", "abd-ack",
            "--report", str(tmp_path / "report.json"),
        ])
        assert code == 4
        out = capsys.readouterr().out
        assert "DIVERGENCE" in out
        body = json.loads((tmp_path / "report.json").read_text())
        assert body["divergences"]

    def test_audit_json_output(self, tmp_path, capsys):
        code = main([
            "audit", "--budget", "1", "--seed", "3", "--pairs", "replay",
            "--json", "--report", str(tmp_path / "report.json"),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        payload = json.loads(stdout[: stdout.rindex("}") + 1])
        assert payload["pairs"] == ["replay"]
