"""Tests for the parallel sweep executor, the trial cache, and spec keys."""

import dataclasses
import pickle

import pytest

from repro.analysis import (
    EmptySweepError,
    extraction_grid,
    set_agreement_grid,
    to_csv,
)
from repro.perf import (
    ExtractionTrialSpec,
    SetAgreementTrialSpec,
    TrialCache,
    execute_trial,
    run_trials,
    spec_key,
)
from repro.perf.cache import DB_NAME
from repro.perf.executor import _chunk_indices, resolve_jobs
from tests.helpers import cache_row, write_cache_row


class TestSpecs:
    def test_specs_are_picklable(self):
        spec = SetAgreementTrialSpec(3, 2, seed=0, stabilization_time=40)
        assert pickle.loads(pickle.dumps(spec)) == spec
        spec = ExtractionTrialSpec("omega", 3, seed=1)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_key_is_stable(self):
        a = SetAgreementTrialSpec(4, 3, seed=7, stabilization_time=0)
        b = SetAgreementTrialSpec(4, 3, seed=7, stabilization_time=0)
        assert spec_key(a) == spec_key(b)
        assert len(spec_key(a)) == 64

    def test_key_covers_every_field(self):
        base = SetAgreementTrialSpec(4, 3, seed=7, stabilization_time=0)
        keys = {spec_key(base)}
        for change in (
            {"n_processes": 5}, {"f": 2}, {"seed": 8},
            {"stabilization_time": 10}, {"adversarial": True},
            {"max_steps": 99},
        ):
            keys.add(spec_key(dataclasses.replace(base, **change)))
        assert len(keys) == 7

    def test_kinds_do_not_collide(self):
        # same field values, different trial kind -> different key
        sa = SetAgreementTrialSpec(3, 2, seed=0, stabilization_time=60)
        ex = ExtractionTrialSpec("omega", 3, seed=0)
        assert spec_key(sa) != spec_key(ex)

    def test_key_salted_by_engine_version(self):
        spec = SetAgreementTrialSpec(3, 2, seed=0, stabilization_time=0)
        key = spec_key(spec)
        import repro.perf.spec as spec_mod
        original = spec_mod.ENGINE_VERSION
        try:
            spec_mod.ENGINE_VERSION = original + ".bumped"
            assert spec_key(spec) != key
        finally:
            spec_mod.ENGINE_VERSION = original

    def test_execute_trial_deterministic(self):
        spec = SetAgreementTrialSpec(3, 2, seed=5, stabilization_time=20)
        assert execute_trial(spec) == execute_trial(spec)

    def test_execute_extraction_by_registry_name(self):
        result = execute_trial(
            ExtractionTrialSpec("omega", 3, seed=0, stabilization_time=40,
                                max_steps=30_000)
        )
        assert result.stabilized and result.legal

    def test_execute_rejects_non_spec(self):
        with pytest.raises(TypeError):
            execute_trial({"n_processes": 3})


class TestGrids:
    def test_grid_order_is_deterministic(self):
        grid = set_agreement_grid([3, 4], [0, 1], [0, 40])
        assert grid == set_agreement_grid([3, 4], [0, 1], [0, 40])
        assert len(grid) == 8

    def test_empty_parameter_is_named(self):
        with pytest.raises(EmptySweepError, match="'seeds'"):
            set_agreement_grid([3], [], [0])
        with pytest.raises(EmptySweepError, match="'system_sizes'"):
            set_agreement_grid([], [0], [0])
        with pytest.raises(EmptySweepError, match="'stabilization_times'"):
            set_agreement_grid([3], [0], [])
        with pytest.raises(EmptySweepError, match="'detectors'"):
            extraction_grid([], [3], [0])

    def test_fs_filtered_to_nothing_is_named(self):
        # every f out of 1..n for every size -> the error blames fs
        with pytest.raises(EmptySweepError, match="'fs'") as excinfo:
            set_agreement_grid([3], [0], [0], fs=[7, 9])
        assert excinfo.value.parameter == "fs"
        assert "7" in str(excinfo.value)

    def test_empty_sweep_error_is_a_value_error(self):
        assert issubclass(EmptySweepError, ValueError)


class TestExecutor:
    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-1)

    def test_chunking_covers_everything_once(self):
        chunks = _chunk_indices(10, jobs=3, chunk_size=None)
        flat = [i for chunk in chunks for i in chunk]
        assert flat == list(range(10))
        chunks = _chunk_indices(5, jobs=2, chunk_size=2)
        assert [list(c) for c in chunks] == [[0, 1], [2, 3], [4]]
        with pytest.raises(ValueError):
            _chunk_indices(5, jobs=2, chunk_size=0)

    @pytest.mark.parametrize("chunk_size", [0, -2])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_non_positive_chunk_size_refused_at_every_jobs(self, jobs,
                                                           chunk_size):
        # Checked before any trial runs, so an in-process run refuses it
        # just as a pooled one does.
        with pytest.raises(ValueError, match="chunk_size must be positive"):
            run_trials(set_agreement_grid([3], [0, 1], [0]), jobs=jobs,
                       chunk_size=chunk_size)

    def test_serial_results_in_grid_order(self):
        grid = set_agreement_grid([3], [0, 1, 2], [0])
        results = run_trials(grid, jobs=1)
        assert [r.seed for r in results] == [0, 1, 2]

    def test_parallel_matches_serial_byte_identical(self):
        """The determinism contract: a jobs=4 sweep exports byte-identical
        CSV to a serial sweep over the same grid."""
        kwargs = dict(
            system_sizes=[3, 4], seeds=[0, 1, 2, 3],
            stabilization_times=[0, 40],
        )
        serial = run_trials(set_agreement_grid(**kwargs), jobs=1)
        parallel = run_trials(set_agreement_grid(**kwargs), jobs=4)
        assert to_csv(serial) == to_csv(parallel)
        assert serial == parallel

    def test_parallel_extraction_matches_serial(self):
        kwargs = dict(
            detectors=["omega"], system_sizes=[3], seeds=[0, 1, 2],
            stabilization_time=40, max_steps=30_000,
        )
        serial = run_trials(extraction_grid(**kwargs), jobs=1)
        parallel = run_trials(extraction_grid(**kwargs), jobs=4)
        assert to_csv(serial) == to_csv(parallel)


class TestCache:
    def test_roundtrip_equal_result(self, tmp_path):
        cache = TrialCache(tmp_path)
        spec = SetAgreementTrialSpec(3, 2, seed=0, stabilization_time=0)
        assert cache.get(spec) is None
        result = execute_trial(spec)
        cache.put(spec, result)
        hit = cache.get(spec)
        assert hit == result
        assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1

    def test_sweep_warm_cache_equal(self, tmp_path):
        cache = TrialCache(tmp_path)
        grid = set_agreement_grid([3], [0, 1], [0, 20])
        cold = run_trials(grid, cache=cache)
        assert cache.misses == 4 and cache.hits == 0
        warm = run_trials(grid, cache=cache)
        assert cache.hits == 4
        assert warm == cold
        assert to_csv(warm) == to_csv(cold)

    def test_parallel_sweep_populates_cache(self, tmp_path):
        cache = TrialCache(tmp_path)
        grid = set_agreement_grid([3], [0, 1, 2, 3], [0])
        run_trials(grid, jobs=2, cache=cache)
        assert len(cache) == 4
        # a later serial run is served entirely from disk
        run_trials(grid, jobs=1, cache=cache)
        assert cache.hits == 4

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = TrialCache(tmp_path)
        spec = SetAgreementTrialSpec(3, 2, seed=0, stabilization_time=0)
        cache.put(spec, execute_trial(spec))
        write_cache_row(cache, spec, b"not a pickle")
        assert cache.get(spec) is None
        assert cache_row(cache, spec) is None  # dropped for recompute

    def test_garbage_database_file_means_no_cache(self, tmp_path):
        (tmp_path / DB_NAME).write_bytes(b"not a database\n" * 256)
        cache = TrialCache(tmp_path)
        grid = set_agreement_grid([3], [0, 1], [0, 20])
        results = run_trials(grid, cache=cache)
        assert results == run_trials(grid)
        assert (cache.hits, cache.misses, cache.stores) == (0, 4, 0)
        assert cache.degraded

    @pytest.mark.parametrize("error, read", [
        ("unable to open database file", True),
        ("database is locked", False),  # others may be writing it
    ])
    def test_a_file_it_cannot_open_for_writing_is_read(self, tmp_path,
                                                       monkeypatch, error,
                                                       read):
        import sqlite3

        import repro.perf.cache as cache_mod

        stored, fresh = (SetAgreementTrialSpec(3, 2, seed=seed,
                                               stabilization_time=0)
                         for seed in (0, 1))
        writer = TrialCache(tmp_path)
        writer.put(stored, execute_trial(stored))
        writer.close()

        def cannot_write(path, check_same_thread=True):
            raise sqlite3.OperationalError(error)

        monkeypatch.setattr(cache_mod, "connect_sqlite", cannot_write)
        cache = TrialCache(tmp_path)
        hit = execute_trial(stored) if read else None
        assert cache.get_many([stored, fresh]) == [hit, None]
        assert cache.degraded
        cache.put(fresh, execute_trial(fresh))
        assert (cache.hits, cache.stores) == (int(read), 0)
        assert len(cache) == int(read)
        cache.close()

    def test_read_only_directory_still_serves_hits(self, tmp_path):
        root = tmp_path / "cache"
        writer = TrialCache(root)
        run_trials(set_agreement_grid([3], [0], [0]), cache=writer)
        writer.close()
        root.chmod(0o555)
        try:
            try:
                (root / "probe").touch()
            except PermissionError:
                pass
            else:
                pytest.skip("this user writes into a 0o555 directory")
            cache = TrialCache(root)
            grid = set_agreement_grid([3], [0, 2], [0])
            results = run_trials(grid, cache=cache)
            assert results == run_trials(grid)
            assert (cache.hits, cache.misses, cache.stores) == (1, 1, 0)
            assert cache.degraded
            cache.close()
        finally:
            root.chmod(0o755)

    def test_old_shard_entry_is_a_plain_miss(self, tmp_path):
        spec = SetAgreementTrialSpec(3, 2, seed=0, stabilization_time=0)
        key = spec_key(spec)
        (tmp_path / key[:2]).mkdir()
        (tmp_path / key[:2] / f"{key}.pkl").write_bytes(
            pickle.dumps(execute_trial(spec))
        )
        cache = TrialCache(tmp_path)
        assert cache.get(spec) is None
        assert (cache.misses, cache.corrupt) == (1, 0)
        assert not cache.degraded

    def test_engine_salt_invalidates(self, tmp_path):
        import repro.perf.spec as spec_mod

        cache = TrialCache(tmp_path)
        spec = SetAgreementTrialSpec(3, 2, seed=0, stabilization_time=0)
        cache.put(spec, execute_trial(spec))
        original = spec_mod.ENGINE_VERSION
        try:
            spec_mod.ENGINE_VERSION = original + ".bumped"
            assert cache.get(spec) is None
        finally:
            spec_mod.ENGINE_VERSION = original
        assert cache.get(spec) is not None

    def test_clear(self, tmp_path):
        cache = TrialCache(tmp_path)
        spec = SetAgreementTrialSpec(3, 2, seed=0, stabilization_time=0)
        cache.put(spec, execute_trial(spec))
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0


class TestMemoryKeys:
    def test_keys_accessor(self):
        from repro.memory import Memory
        from repro.runtime import System

        memory = Memory(System(3))
        memory.create_register(("r", 1))
        memory.create_snapshot("S")
        assert set(memory.keys()) == {("r", 1), "S"}
        # read-only snapshot: mutating the return value changes nothing
        keys = memory.keys()
        assert isinstance(keys, tuple)

    def test_max_round_uses_public_api(self):
        from repro.analysis import run_set_agreement_trial
        from repro.runtime import System

        result = run_set_agreement_trial(
            System(3), 2, seed=0, stabilization_time=0
        )
        assert result.rounds >= 1


class TestSweepCli:
    def test_sweep_cli_parallel_with_cache(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "cache")
        csv_path = str(tmp_path / "out.csv")
        argv = ["sweep", "set-agreement", "--sizes", "3", "--seeds", "0,1",
                "--stabilizations", "0", "--jobs", "2",
                "--cache-dir", cache_dir, "--csv", csv_path]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 misses" in out
        # warm rerun: every trial served from the cache
        assert main(argv) == 0
        assert "2 hits" in capsys.readouterr().out
        with open(csv_path) as handle:
            assert handle.readline().startswith("n_processes,")

    def test_sweep_cli_extraction(self, capsys):
        from repro.cli import main

        assert main(["sweep", "extraction", "--detectors", "omega",
                     "--sizes", "3", "--seeds", "0", "--no-cache"]) == 0
        assert "properties: OK" in capsys.readouterr().out

    def test_sweep_cli_names_empty_parameter(self, capsys):
        from repro.cli import main

        code = main(["sweep", "set-agreement", "--sizes", "3",
                     "--seeds", "0", "--stabilizations", "0",
                     "--fs", "9", "--no-cache"])
        assert code == 2
        assert "'fs'" in capsys.readouterr().err

    def test_seed_ranges(self):
        from repro.cli import _parse_int_list

        assert _parse_int_list("0-3") == [0, 1, 2, 3]
        assert _parse_int_list("3,4,5") == [3, 4, 5]
        assert _parse_int_list("0,2-4") == [0, 2, 3, 4]


class TestSerialParallelEquivalence:
    """Audit satellite: jobs=1 and jobs=4 are output-equivalent.

    Property-based when hypothesis is available (it is in CI); the
    strategies draw small mixed spec grids so each example spins a real
    four-worker pool over the same grid the serial path ran.
    """

    hypothesis = pytest.importorskip("hypothesis")

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @staticmethod
    def _grid(seeds):
        specs = []
        for i, seed in enumerate(seeds):
            if i % 2 == 0:
                specs.append(SetAgreementTrialSpec(
                    3, 2, seed=seed, stabilization_time=0,
                    max_steps=100_000,
                ))
            else:
                specs.append(ExtractionTrialSpec(
                    "omega", 3, seed=seed, stabilization_time=20,
                    max_steps=40_000,
                ))
        return specs

    @settings(max_examples=5, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10_000),
                    min_size=2, max_size=6))
    def test_jobs1_equals_jobs4(self, seeds):
        specs = self._grid(seeds)
        serial = run_trials(specs, jobs=1)
        parallel = run_trials(specs, jobs=4)
        assert serial == parallel  # ordered, elementwise dataclass equality

    def test_quarantined_slots_at_identical_indices(self):
        """With a deterministically crashing spec in the grid, resilient
        serial and parallel execution quarantine the *same* input slots
        (results[i] is None exactly there) and agree elsewhere."""
        from repro.perf.resilience import QuarantineReport, SabotagedSpec

        def broken(seed):
            return SabotagedSpec(
                SetAgreementTrialSpec(3, 2, seed, stabilization_time=0),
                "raise",
            )

        specs = [
            SetAgreementTrialSpec(3, 2, seed=1, stabilization_time=0),
            broken(2),
            SetAgreementTrialSpec(3, 2, seed=3, stabilization_time=0),
            broken(4),
        ]
        serial_q = QuarantineReport()
        serial = run_trials(specs, jobs=1, quarantine=serial_q, backoff=0)
        parallel_q = QuarantineReport()
        parallel = run_trials(specs, jobs=4, quarantine=parallel_q,
                              backoff=0)
        assert [r is None for r in serial] == [False, True, False, True]
        assert [r is None for r in parallel] == [False, True, False, True]
        assert serial == parallel
        assert (
            sorted(e.index for e in serial_q.entries)
            == sorted(e.index for e in parallel_q.entries)
            == [1, 3]
        )


class TestEnvironmentSalt:
    """Cache keys cover semantics a spec only names by reference
    (audit satellite: detector registry + chaos schema salting)."""

    def test_salt_is_stable_and_cached(self):
        from repro.perf.spec import environment_salt

        first = environment_salt()
        assert len(first) == 64
        assert environment_salt() == first

    def test_key_changes_with_environment_salt(self):
        import repro.perf.spec as spec_mod

        spec = SetAgreementTrialSpec(3, 2, seed=0, stabilization_time=0)
        key = spec_key(spec)
        original = spec_mod._ENV_SALT
        try:
            spec_mod._ENV_SALT = "0" * 64  # a rewired registry would differ
            assert spec_key(spec) != key
        finally:
            spec_mod._ENV_SALT = original

    def test_salt_covers_registry_and_chaos_schema(self):
        """The salt digest is a function of the detector registry's
        name→class wiring and the chaos config's field defaults."""
        import dataclasses as dc
        import hashlib
        import json as json_module

        from repro.chaos.config import ChaosConfig
        from repro.detectors.registry import detector_names, make_detector
        from repro.failures.environment import Environment
        from repro.perf.spec import environment_salt
        from repro.runtime.process import System

        env = Environment.wait_free(System(3))
        detectors = []
        for name in detector_names():
            kind = type(make_detector(name, env))
            detectors.append([name, kind.__module__, kind.__qualname__])
        chaos_schema = [[f.name, repr(f.default)]
                        for f in dc.fields(ChaosConfig)]
        blob = json_module.dumps(
            {"detectors": detectors, "chaos": chaos_schema},
            sort_keys=True, separators=(",", ":"),
        )
        expected = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        assert environment_salt() == expected
