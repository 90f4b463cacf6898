"""Tests for the sweep/CSV helpers and the command-line interface."""

import csv
import io
import json

import pytest

from repro.analysis import extraction_grid, set_agreement_grid, to_csv
from repro.cli import main
from repro.perf import run_trials


class TestSweeps:
    def test_wait_free_grid(self):
        results = run_trials(set_agreement_grid(
            system_sizes=[3, 4], seeds=[0, 1], stabilization_times=[0, 40],
        ))
        assert len(results) == 2 * 2 * 2
        assert all(r.ok for r in results)
        assert {r.n_processes for r in results} == {3, 4}

    def test_f_grid_clamps_to_n(self):
        results = run_trials(set_agreement_grid(
            system_sizes=[3], seeds=[0], stabilization_times=[0],
            fs=[1, 2, 7],  # 7 > n = 2 is dropped
        ))
        assert {r.f for r in results} == {1, 2}

    def test_extraction_sweep(self):
        results = run_trials(extraction_grid(
            ["omega"], system_sizes=[3], seeds=[0, 1],
            stabilization_time=40, max_steps=30_000,
        ))
        assert len(results) == 2
        assert all(r.stabilized and r.legal for r in results)


class TestCsvExport:
    def test_roundtrip(self):
        results = run_trials(set_agreement_grid(
            system_sizes=[3], seeds=[0, 1], stabilization_times=[0],
        ))
        text = to_csv(results)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2
        assert rows[0]["n_processes"] == "3"
        assert rows[0]["ok"] == "True"

    def test_frozenset_stringified(self):
        results = run_trials(extraction_grid(
            ["omega"], system_sizes=[3], seeds=[0],
            stabilization_time=30, max_steps=30_000,
        ))
        text = to_csv(results)
        row = next(csv.DictReader(io.StringIO(text)))
        assert row["output"].startswith("{")

    def test_file_destination(self, tmp_path):
        results = run_trials(set_agreement_grid(
            system_sizes=[3], seeds=[0], stabilization_times=[0],
        ))
        path = tmp_path / "out.csv"
        to_csv(results, str(path))
        assert path.read_text().startswith("n_processes,")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            to_csv([])

    def test_non_dataclass_rejected(self):
        with pytest.raises(TypeError):
            to_csv([{"a": 1}])

    def test_mixed_types_rejected(self):
        sa = run_trials(set_agreement_grid([3], [0], [0]))
        ex = run_trials(extraction_grid(["omega"], [3], [0], max_steps=30_000))
        with pytest.raises(TypeError):
            to_csv(sa + ex)


class TestCli:
    def test_fig1(self, capsys):
        assert main(["fig1", "--processes", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "properties: OK" in out

    def test_fig1_adversarial(self, capsys):
        assert main(["fig1", "--processes", "3", "--adversarial",
                     "--stabilization", "50"]) == 0

    def test_fig2(self, capsys):
        assert main(["fig2", "--processes", "4", "--resilience", "2"]) == 0
        assert "bound 2" in capsys.readouterr().out

    def test_extract(self, capsys):
        assert main(["extract", "--detector", "omega_n",
                     "--processes", "3"]) == 0
        assert "extraction: OK" in capsys.readouterr().out

    def test_extract_f_resilient(self, capsys):
        assert main(["extract", "--detector", "omega", "--processes", "4",
                     "--resilience", "3"]) == 0

    def test_theorem1(self, capsys):
        assert main(["theorem1", "--candidate", "heartbeat",
                     "--phases", "4"]) == 0
        assert "refuted: YES" in capsys.readouterr().out

    def test_run_with_trace(self, capsys):
        assert main(["run", "--show-trace"]) == 0
        out = capsys.readouterr().out
        assert "decisions:" in out
        assert "p0 |" in out  # the timeline lanes

    def test_hierarchy(self, capsys):
        assert main(["hierarchy", "--processes", "4"]) == 0
        out = capsys.readouterr().out
        assert "Υ ≺ Ωn" in out

    def test_hierarchy_f_resilient(self, capsys):
        assert main(["hierarchy", "--processes", "5",
                     "--resilience", "2"]) == 0
        assert "Υf" in capsys.readouterr().out

    def test_campaign(self, capsys):
        assert main(["campaign", "--trials", "4", "--seed", "9"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])

    @pytest.mark.parametrize("argv,flag", [
        (["stats", "fig1", "--processes", "1"], "--processes"),
        (["run", "--processes", "1"], "--processes"),
        (["fig1", "--processes", "0"], "--processes"),
        (["profile", "--processes", "1"], "--processes"),
        (["check", "--processes", "1"], "--processes"),
        (["sweep", "set-agreement", "--sizes", "1", "--seeds", "0",
          "--no-cache"], "--sizes"),
        (["sweep", "extraction", "--sizes", "3,1", "--no-cache"], "--sizes"),
        (["submit", "chaos", "--sizes", "0-3", "--store", "unused.db"],
         "--sizes"),
        (["fig2", "--processes", "2"], "--resilience"),
        (["stats", "extract", "--processes", "3", "--resilience", "3"],
         "--resilience"),
        (["extract", "--processes", "3", "--resilience", "-1"],
         "--resilience"),
    ])
    def test_bad_process_count_or_resilience_is_a_usage_error(
        self, capsys, argv, flag
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and flag in errors[0], errors


class TestResilienceFlags:
    """A resilience flag either acts or is refused; none is ignored."""

    CHECK = ["check", "--protocol", "fig1", "--processes", "2",
             "--depth", "10"]

    @pytest.mark.parametrize("flags", [
        ["--retries", "2"],
        ["--trial-timeout", "5"],
        ["--retries", "1", "--jobs", "1"],
    ])
    def test_check_guards_need_a_parallel_check(self, capsys, monkeypatch,
                                                flags):
        # Every check runs its shards through run_trials, so the guards
        # reach it (and act) at --jobs 1 too.
        from repro.perf import executor

        calls = []

        def recording(specs, **kwargs):
            calls.append(kwargs)
            return run_trials(specs, **kwargs)

        monkeypatch.setattr(executor, "run_trials", recording)
        assert main(self.CHECK + flags) == 0
        assert "properties: OK" in capsys.readouterr().out
        given = dict(zip(flags[::2], flags[1::2]))
        timeout = given.get("--trial-timeout")
        [kwargs] = calls
        assert kwargs["jobs"] == int(given.get("--jobs", 1))
        assert kwargs["retries"] == int(given.get("--retries", 0))
        assert kwargs["trial_timeout"] == (timeout and float(timeout))

    def test_check_has_no_resume_journal(self, capsys, tmp_path):
        journal = tmp_path / "check.journal"
        with pytest.raises(SystemExit) as exc:
            main(self.CHECK + ["--jobs", "2", "--resume", str(journal)])
        assert exc.value.code == 2
        assert "--resume" in capsys.readouterr().err
        assert not journal.exists()

    def test_parallel_check_takes_the_guards(self, capsys):
        assert main(self.CHECK + ["--jobs", "2", "--retries", "1",
                                  "--trial-timeout", "60"]) == 0
        assert "properties: OK" in capsys.readouterr().out

    def test_sweep_resume_needs_the_cache(self, capsys, tmp_path):
        journal = tmp_path / "sweep.journal"
        code = main([
            "sweep", "set-agreement", "--sizes", "3", "--seeds", "0-3",
            "--stabilizations", "0", "--no-cache", "--resume", str(journal),
        ])
        assert code == 2
        assert "--resume needs the trial cache" in capsys.readouterr().err
        assert not journal.exists()

    def test_sweep_resume_reruns_nothing(self, capsys, tmp_path):
        argv = [
            "sweep", "set-agreement", "--sizes", "3", "--seeds", "0-3",
            "--stabilizations", "0", "--cache-dir", str(tmp_path / "cache"),
            "--resume", str(tmp_path / "sweep.journal"), "--json",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["cache"] == {
            "dir": str(tmp_path / "cache"), "hits": 4, "misses": 0,
        }


class TestCountFlags:
    """``--jobs`` takes a worker count (0 = one per CPU) and
    ``--batch-size`` a positive size, on every command that has them; a
    bad value is a usage error naming the flag."""

    SWEEP = ["sweep", "set-agreement", "--sizes", "3", "--seeds", "0-1",
             "--stabilizations", "0", "--no-cache"]
    CHECK = ["check", "--protocol", "fig1", "--processes", "2",
             "--depth", "10"]
    AUDIT = ["audit", "--budget", "2", "--seed", "7"]
    WORKER = ["worker"]

    @pytest.mark.parametrize("argv, flag", [
        (SWEEP + ["--jobs", "-1"], "--jobs"),
        (SWEEP + ["--jobs", "2", "--batch-size", "0"], "--batch-size"),
        (SWEEP + ["--jobs", "2", "--batch-size", "-2"], "--batch-size"),
        (CHECK + ["--jobs", "-1"], "--jobs"),
        (CHECK + ["--jobs", "2", "--batch-size", "0"], "--batch-size"),
        (AUDIT + ["--jobs", "-1"], "--jobs"),
        (WORKER + ["--jobs", "-1"], "--jobs"),
        (WORKER + ["--batch-size", "-2"], "--batch-size"),
        (WORKER + ["--batch-size", "0"], "--batch-size"),
    ])
    def test_a_bad_count_is_a_usage_error(self, capsys, tmp_path, argv,
                                          flag):
        if argv[0] == "worker":
            argv = argv + ["--store", f"sqlite:///{tmp_path / 'farm.db'}"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and f"argument {flag}:" in errors[0]

    def test_zero_jobs_is_accepted(self, capsys):
        assert main(self.CHECK + ["--jobs", "0"]) == 0
        assert "properties: OK" in capsys.readouterr().out


class TestDetectorRegistry:
    def test_names(self):
        from repro.detectors import detector_names

        assert "upsilon" in detector_names()
        assert "omega_f" in detector_names()

    def test_make_system_detector(self, system4):
        from repro.detectors import make_detector
        from repro.failures import Environment

        env = Environment.wait_free(system4)
        assert make_detector("omega", env).name == "Ω"
        assert make_detector("upsilon", env).name == "Υ"

    def test_make_env_detector(self, system4):
        from repro.detectors import make_detector
        from repro.failures import Environment

        env = Environment(system4, 2)
        assert make_detector("upsilon_f", env).name == "Υ^2"
        assert make_detector("omega_f", env).k == 2

    def test_unknown_name(self, system4):
        from repro.detectors import make_detector
        from repro.failures import Environment

        with pytest.raises(KeyError):
            make_detector("sigma", Environment.wait_free(system4))
