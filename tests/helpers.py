"""Shared non-fixture helpers for the test suite."""

from __future__ import annotations

import sqlite3
from contextlib import closing

from repro.failures import Environment, FailurePattern
from repro.perf import spec_key
from repro.perf.cache import DB_NAME
from repro.runtime import RandomScheduler, Simulation


def run_to_decision(
    system,
    protocol,
    inputs,
    pattern=None,
    history=None,
    seed=0,
    max_steps=500_000,
    memory=None,
):
    """Run a decision protocol under a fair random scheduler to completion."""
    sim = Simulation(
        system, protocol, inputs=inputs, pattern=pattern, history=history,
        memory=memory,
    )
    sim.run_until(
        Simulation.all_correct_decided,
        max_steps=max_steps,
        scheduler=RandomScheduler(seed),
    )
    return sim


def wait_free_env(system) -> Environment:
    return Environment.wait_free(system)


def pattern_with_correct(system, correct) -> FailurePattern:
    return FailurePattern.only_correct(system, correct)


def cache_row(cache, spec):
    """The stored blob for ``spec`` in ``cache``'s file, or ``None``."""
    with closing(sqlite3.connect(cache.root / DB_NAME)) as conn:
        row = conn.execute(
            "SELECT result FROM results WHERE key = ?", (spec_key(spec),)
        ).fetchone()
    return None if row is None else row[0]


def write_cache_row(cache, spec, blob: bytes) -> None:
    """Store raw bytes as ``spec``'s entry, bypassing the cache's pickling."""
    with closing(sqlite3.connect(cache.root / DB_NAME)) as conn, conn:
        conn.execute(
            "INSERT OR REPLACE INTO results (key, result) VALUES (?, ?)",
            (spec_key(spec), blob),
        )
