"""Spans for the traced run, and the objects that record them.

A :class:`Tracer` keeps every span in memory as four parallel arrays
(name, parent, start, end) and writes them out only when the run ends.
Spans are opened around calls into the program's public functions and
injection points; nothing under ``src/`` is edited:

* :class:`TimedTrialCache` and :class:`TimedJournal` are subclasses the
  benchmark passes to ``run_trials(cache=..., journal=...)``;
* :class:`TimedStore` is a :class:`~repro.farm.store.FarmStore`
  decorator passed as ``run_trials(store=...)``;
* :class:`RecordingMemory`, :class:`RecordingHistory` and
  :class:`RecordingScheduler` are handed to ``Simulation``.  A span per
  engine call would cost more than the call itself, so these record the
  calls and ``layers.py`` times exact replays of them instead;
* :meth:`Tracer.patch` swaps a module or class attribute for a timed
  wrapper for the length of one pass and restores it afterwards.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import statistics
import threading
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

from repro.detectors.base import History
from repro.farm.store import FarmStore
from repro.memory.base import Memory
from repro.perf import CheckpointJournal, TrialCache
from repro.runtime.scheduler import Scheduler


class Tracer:
    """Nested spans of one thread, kept in memory.

    A span's parent is the span open on the same thread when it started,
    so a layer's self time is its duration minus its children's.  Calls
    from other threads (the farm worker's heartbeat) pass through
    untimed, which keeps the span stack single-threaded.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[int] = []
        self._thread = threading.get_ident()

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        index = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self._end[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """One span around a block of the benchmark's own code."""
        index = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call on the tracing thread recorded as a span."""
        nid = self._name_id(name)
        opener, closer = self._open, self._close
        owner, get_ident = self._thread, threading.get_ident

        def timed(*args, **kwargs):
            if get_ident() != owner:
                return fn(*args, **kwargs)
            index = opener(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                closer(index)

        return timed

    @contextlib.contextmanager
    def patch(self, hooks: Sequence[Tuple[Any, str, str]]) -> Iterator[None]:
        """Replace each ``owner.attr`` by a timed wrapper named ``name``.

        Only attributes the owner defines itself are swapped, and every
        one is restored on exit, error or not.
        """
        saved = []
        try:
            for owner, attr, name in hooks:
                original = owner.__dict__[attr]
                setattr(owner, attr, self.wrap(original, name))
                saved.append((owner, attr, original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- reading the spans --------------------------------------------------

    def durations(self, name: str) -> List[float]:
        nid = self._ids.get(name)
        if nid is None:
            return []
        return [
            self._end[i] - self._start[i]
            for i in range(len(self._start)) if self._name[i] == nid
        ]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def mean(self, name: str) -> float:
        spans = self.durations(name)
        if not spans:
            raise ValueError(f"no {name!r} spans were recorded")
        return statistics.fmean(spans)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Count, total and self seconds per span name."""
        count = len(self._start)
        child = [0.0] * count
        for i in range(count):
            parent = self._parent[i]
            if parent >= 0:
                child[parent] += self._end[i] - self._start[i]
        out: Dict[str, Dict[str, float]] = {
            name: {"count": 0, "total_s": 0.0, "self_s": 0.0}
            for name in self.names
        }
        for i in range(count):
            row = out[self.names[self._name[i]]]
            duration = self._end[i] - self._start[i]
            row["count"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child[i]
        return out

    def to_dict(self) -> Dict[str, Any]:
        """Spans as parallel lists; times in integer nanoseconds from the
        first span's start."""
        origin = self._start[0] if self._start else 0.0
        return {
            "names": self.names,
            "name": self._name.tolist(),
            "parent": self._parent.tolist(),
            "start_ns": [round((t - origin) * 1e9) for t in self._start],
            "end_ns": [round((t - origin) * 1e9) for t in self._end],
        }


def write_spans(path: Path, tracers: Dict[str, Tracer]) -> None:
    """Write every tracer's raw spans as one gzipped JSON document."""
    path.parent.mkdir(parents=True, exist_ok=True)
    body = {group: tracer.to_dict() for group, tracer in tracers.items()}
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
        json.dump(body, handle, separators=(",", ":"))


# -- timing objects passed to run_trials --------------------------------------


class TimedTrialCache(TrialCache):
    """A :class:`TrialCache` whose batched reads and writes are spans."""

    def __init__(self, root, tracer: Tracer):
        super().__init__(root)
        self.get_many = tracer.wrap(super().get_many, "perf.cache_get_many")
        self.put_many = tracer.wrap(super().put_many, "perf.cache_put_many")


class TimedJournal(CheckpointJournal):
    """A :class:`CheckpointJournal` whose appends are spans."""

    def __init__(self, path, tracer: Tracer):
        super().__init__(path)
        self.record_done = tracer.wrap(
            super().record_done, "perf.journal_record"
        )


#: The :class:`FarmStore` interface, every call of which becomes a span.
STORE_OPS = (
    "create_campaign", "enqueue", "claim_batch", "heartbeat", "complete",
    "fail", "requeue", "counts", "campaign_rows", "campaigns", "status",
)


class TimedStore(FarmStore):
    """Decorator timing every :class:`FarmStore` call as ``farm.<op>``."""

    def __init__(self, inner: FarmStore, tracer: Tracer):
        self.inner = inner
        self.url = inner.url
        for op in STORE_OPS:
            setattr(self, op, tracer.wrap(getattr(inner, op), f"farm.{op}"))

    def close(self) -> None:
        self.inner.close()

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)


# -- recording objects passed to Simulation -----------------------------------


class RecordingMemory(Memory):
    """Memory that logs ``(op, pid, response)`` for every execute."""

    def __init__(self, system):
        super().__init__(system)
        self.calls: List[tuple] = []

    def execute(self, op, pid):
        response = super().execute(op, pid)
        self.calls.append((op, pid, response))
        return response


class RecordingHistory(History):
    """A history that logs ``(pid, t, value)`` for every query."""

    def __init__(self, inner: History):
        self.inner = inner
        self.calls: List[tuple] = []

    def value(self, pid, t):
        value = self.inner.value(pid, t)
        self.calls.append((pid, t, value))
        return value


class RecordingScheduler(Scheduler):
    """A scheduler that logs ``(t, eligible, pid)`` for every choice.

    The engine replaces its eligible list rather than mutating it, so
    keeping the reference is safe.
    """

    def __init__(self, inner: Scheduler):
        self.inner = inner
        self.calls: List[tuple] = []

    def choose(self, t, eligible):
        pid = self.inner.choose(t, eligible)
        self.calls.append((t, eligible, pid))
        return pid
