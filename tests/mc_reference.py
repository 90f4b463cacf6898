"""A whole-state JSON reference for model-checker fingerprints.

``canonical_state`` lays a simulation state out as one JSON-safe
structure, built with the trace codec (``repro.analysis.trace_io``) and
none of the fingerprint encoder's code; ``canonical_fingerprint`` hashes
it in one piece.  Tests use the pair as an oracle: two states reached in
one exploration must get equal ``repro.mc.fingerprint`` digests exactly
when their canonical states are equal.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Tuple

from repro.analysis.trace_io import _encode_op, encode_value
from repro.mc.fingerprint import history_sensitivity_horizon
from repro.memory.base import (
    AtomicRegister,
    ConsensusObject,
    PrimitiveSnapshot,
    SWMRRegister,
)
from repro.memory.immediate import ImmediateSnapshotObject


def _canonical_json(value: Any) -> str:
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )


def _encode_object(obj: Any) -> list:
    kind = type(obj)
    if kind is SWMRRegister:
        return ["swmr", obj.writer, encode_value(obj.value)]
    if kind is AtomicRegister:
        return ["reg", encode_value(obj.value)]
    if kind is PrimitiveSnapshot:
        return ["snap", [encode_value(c) for c in obj.cells]]
    if kind is ImmediateSnapshotObject:
        return [
            "imm", [encode_value(c) for c in obj.cells], sorted(obj.called),
        ]
    if kind is ConsensusObject:
        return [
            "cons", obj.m, bool(obj.decided), encode_value(obj.decision),
            sorted(obj.accessors),
        ]
    raise TypeError(f"no reference encoding for {obj.describe()}")


def reference_pending_crashes(sim) -> List[Tuple[int, int]]:
    """Crashes of participating processes still in the future, sorted."""
    return sorted(
        (pid, when)
        for pid, when in sim.pattern.crash_times.items()
        if pid in sim.runtimes and when > sim.time
    )


def canonical_state(sim) -> Dict[str, Any]:
    """The state as one JSON-safe structure: each process's status and
    observation history, the shared objects, and — while the clock still
    matters — the time and the pending crashes."""
    per_pid: Dict[int, list] = {pid: [] for pid in sim.runtimes}
    for step in sim.trace.steps:
        per_pid[step.pid].append(
            [_encode_op(step.op), encode_value(step.response)]
        )
    procs = {
        str(pid): {"st": sim.runtimes[pid].status.name, "h": per_pid[pid]}
        for pid in sorted(sim.runtimes)
    }
    memory = [
        [encode_value(key), _encode_object(sim.memory.get(key))]
        for key in sorted(
            sim.memory.keys(), key=lambda k: _canonical_json(encode_value(k))
        )
    ]
    state: Dict[str, Any] = {"p": procs, "m": memory}
    pending = reference_pending_crashes(sim)
    if (
        sim.network is not None
        or pending
        or sim.time < history_sensitivity_horizon(sim.history)
    ):
        state["t"] = sim.time
        state["crash"] = [[pid, when] for pid, when in pending]
    return state


def canonical_fingerprint(sim) -> str:
    """Hash of the whole :func:`canonical_state` JSON in one piece."""
    blob = _canonical_json(canonical_state(sim))
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=16).hexdigest()
