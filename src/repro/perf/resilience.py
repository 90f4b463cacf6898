"""Resilient execution primitives: watchdog, retry/quarantine, journal.

Three small pieces the executor composes:

* :func:`guarded_execute` — the watchdog.  Runs one spec under a
  wall-clock budget (``SIGALRM``/``setitimer`` where available; pool
  workers execute tasks on their main thread, so the signal always
  lands) and converts any trial exception or timeout into a
  :class:`TrialFailure` *value* — failures cross the process boundary as
  data, not as exceptions, so one bad trial cannot poison a batch.  The
  batch runner (:func:`repro.perf.pool._execute_batch`) uses its core.
* :class:`QuarantineReport` — the sweep-level record of specs that
  exhausted their retries; sweeps degrade to partial results plus this
  report instead of aborting.
* :class:`CheckpointJournal` — an append-only JSONL journal of finished
  and quarantined spec keys (``--resume``).  It records progress; the
  :class:`~repro.perf.cache.TrialCache` is what skips completed work on
  a re-run.  A line is written *after* the cache store, so a crash
  mid-sweep can lose at most the in-flight trials, never record
  phantom completions.

:class:`SabotagedSpec` is the harness's own fault injector: it wraps any
trial spec and makes the *worker* fail, so the three pieces above can be
tested and demonstrated end to end (``repro sweep chaos
--inject-worker-crash``).
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import signal
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Union


@dataclasses.dataclass(frozen=True)
class ResiliencePolicy:
    """The retry/backoff/quarantine knobs, as one shared value.

    Both failure-tolerant execution paths — the in-process resilient
    executor (:func:`repro.perf.executor.run_trials`) and the farm
    workers (:mod:`repro.farm.worker`) — consume this same dataclass, so
    "how many attempts before quarantine" and "how long may a trial run"
    cannot drift between a local sweep and a distributed campaign.

    ``retries`` is *extra* runs after the first attempt, so a trial is
    quarantined once it has consumed :attr:`max_attempts` attempts.
    ``backoff`` is the exponential base in seconds (0 disables sleeping,
    as tests do); ``max_backoff`` caps the sleep so a long retry tail
    cannot park a worker for minutes.

    ``jitter`` spreads the sleeps: a fraction in ``[0, 1]`` of each
    exponential delay that is drawn uniformly at random ("full jitter"
    at ``jitter=1.0``), so N workers hammering one contended store do
    not retry in lockstep.  It is opt-in (default ``0.0`` keeps every
    existing delay schedule bit-identical) and only consulted when the
    caller supplies a seeded ``random.Random`` — sleeping never touches
    any RNG stream a trial result could observe.
    """

    retries: int = 0
    trial_timeout: Optional[float] = None
    backoff: float = 0.5
    max_backoff: float = 30.0
    jitter: float = 0.0

    @property
    def max_attempts(self) -> int:
        return self.retries + 1

    def exhausted(self, attempts: int) -> bool:
        """True once ``attempts`` used up the whole retry budget."""
        return attempts >= self.max_attempts

    def backoff_seconds(self, failure_rounds: int, rng=None) -> float:
        """Sleep before the next attempt after ``failure_rounds`` failures.

        With ``jitter > 0`` and an ``rng``, the exponential delay ``d``
        becomes ``uniform(d * (1 - jitter), d)`` — full jitter at 1.0.
        """
        if self.backoff <= 0:
            return 0.0
        delay = min(self.backoff * 2 ** failure_rounds, self.max_backoff)
        if self.jitter > 0 and rng is not None:
            delay -= self.jitter * delay * rng.random()
        return delay


#: Substrings of :class:`sqlite3.OperationalError` messages that mark a
#: *transient* fault — worth retrying, unlike a schema or disk error.
TRANSIENT_MARKERS = ("locked", "busy")

#: Default backoff schedule for SQLite retries: short, capped, and fully
#: jittered so N processes hammering one contended file spread out.
STORE_RETRY_POLICY = ResiliencePolicy(
    backoff=0.02, max_backoff=0.5, jitter=1.0
)

#: Jitter for :func:`connect_sqlite`; sleeping never touches a trial RNG.
_RETRY_RNG = random.Random()

#: Opens :func:`connect_sqlite` tries before a transient lock is raised.
_CONNECT_ATTEMPTS = 5


def is_transient_store_error(exc: BaseException) -> bool:
    """True for 'database is locked'-class faults worth a bounded retry."""
    if not isinstance(exc, sqlite3.OperationalError):
        return False
    text = str(exc).lower()
    return any(marker in text for marker in TRANSIENT_MARKERS)


def connect_sqlite(path: Union[str, Path],
                   check_same_thread: bool = True) -> sqlite3.Connection:
    """Open ``path`` the way every SQLite file of the harness is opened.

    WAL mode (readers never block the writer), ``synchronous=NORMAL``, a
    60 s busy timeout and autocommit mode (a batch of writes opens its
    own ``BEGIN IMMEDIATE`` transaction).  Switching a fresh file to WAL
    needs an exclusive lock that the busy handler does not always wait
    for, so processes opening one new file together retry a transient
    lock under :data:`STORE_RETRY_POLICY`.  ``check_same_thread`` goes to
    :func:`sqlite3.connect`.
    """
    for round_ in range(_CONNECT_ATTEMPTS):
        conn = sqlite3.connect(str(path), timeout=60.0, isolation_level=None,
                               check_same_thread=check_same_thread)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            return conn
        except BaseException as exc:
            conn.close()
            if not is_transient_store_error(exc) \
                    or round_ + 1 >= _CONNECT_ATTEMPTS:
                raise
        time.sleep(STORE_RETRY_POLICY.backoff_seconds(round_, _RETRY_RNG))
    raise AssertionError("unreachable")  # pragma: no cover


@dataclasses.dataclass(frozen=True)
class TrialFailure:
    """Marker returned (not raised) by :func:`guarded_execute` on failure.

    ``kind`` is ``"timeout"`` or ``"error"``; ``detail`` is human-readable.
    """

    kind: str
    detail: str


@dataclasses.dataclass(frozen=True)
class SabotagedSpec:
    """``spec``, run by a worker that fails on purpose (harness self-test).

    ``mode`` is ``"raise"`` (the trial raises), ``"crash"`` (the worker
    process dies outright), ``"hang"`` (sleeps past any reasonable
    watchdog) or ``"raise-once:<path>"`` (raises only while ``<path>``
    does not exist, creating it — a deterministic flake).  The wrapper is
    a field of its own cache key, so a sabotaged run never shares a key
    with ``spec``; its :attr:`kind` is ``spec``'s.
    """

    spec: Any
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in ("raise", "crash", "hang") \
                and not self.mode.startswith("raise-once:"):
            raise ValueError(f"unknown sabotage mode {self.mode!r}")

    @property
    def kind(self) -> str:
        return self.spec.kind

    def sabotage(self) -> None:
        """Fail the way :attr:`mode` says (returns only for a spent flake)."""
        if self.mode == "raise":
            raise RuntimeError("sabotage: deliberate trial failure")
        if self.mode == "crash":
            import os

            os._exit(23)  # simulate a worker death (OOM-killer style)
        if self.mode == "hang":
            import time

            time.sleep(3600)  # the watchdog must cut this short
            raise RuntimeError("sabotage: hang outlived the watchdog")
        marker = Path(self.mode.partition(":")[2])
        if not marker.exists():
            marker.parent.mkdir(parents=True, exist_ok=True)
            marker.touch()
            raise RuntimeError("sabotage: first-attempt flake")


class _TrialTimeout(Exception):
    """Internal: raised by the watchdog signal handler."""


def _watchdog_available() -> bool:
    # SIGALRM is POSIX-only, and signals are delivered to the main thread.
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


def guarded_execute(spec: Any, timeout: Optional[float] = None) -> Any:
    """Execute one trial spec; failures come back as :class:`TrialFailure`.

    ``timeout`` is a wall-clock budget in seconds (``None`` = no
    watchdog).  On platforms without ``SIGALRM`` — or off the main
    thread — the trial simply runs unguarded.
    """
    outcome, _ = _guarded(spec, timeout, collector=None)
    return outcome


def _guarded(spec: Any, timeout: Optional[float], collector,
             execute=None) -> tuple:
    """Shared watchdog core; returns ``(outcome, is_result)``.

    ``execute`` runs the spec (default :func:`~repro.perf.spec.execute_trial`).
    """
    if execute is None:
        from .spec import execute_trial as execute

    if not timeout or not _watchdog_available():
        try:
            return execute(spec, collector=collector), True
        except Exception as exc:
            return TrialFailure("error", f"{type(exc).__name__}: {exc}"), False

    def _on_alarm(signum, frame):
        raise _TrialTimeout()

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return execute(spec, collector=collector), True
    except _TrialTimeout:
        return (
            TrialFailure("timeout", f"exceeded {timeout:g}s wall clock"),
            False,
        )
    except Exception as exc:
        return TrialFailure("error", f"{type(exc).__name__}: {exc}"), False
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclasses.dataclass(frozen=True)
class QuarantineEntry:
    """One spec the executor gave up on."""

    index: int          # position in the input grid
    key: str            # spec_key (matches cache and journal)
    spec: Any           # the spec itself, for reproduction
    attempts: int
    reason: str


class QuarantineReport:
    """Specs that exhausted their retries, in input order."""

    def __init__(self) -> None:
        self.entries: List[QuarantineEntry] = []

    def add(self, index: int, key: str, spec: Any, attempts: int,
            reason: str) -> None:
        self.entries.append(
            QuarantineEntry(index, key, spec, attempts, reason)
        )
        self.entries.sort(key=lambda e: e.index)

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def keys(self) -> List[str]:
        return [entry.key for entry in self.entries]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "quarantined": len(self.entries),
            "entries": [
                {
                    "index": e.index,
                    "key": e.key,
                    "spec": repr(e.spec),
                    "attempts": e.attempts,
                    "reason": e.reason,
                }
                for e in self.entries
            ],
        }

    def render(self) -> str:
        if not self.entries:
            return "quarantine: empty"
        lines = [f"quarantine: {len(self.entries)} spec(s) set aside"]
        for e in self.entries:
            lines.append(
                f"  [{e.index}] {e.key[:12]}…  after {e.attempts} "
                f"attempt(s): {e.reason}"
            )
        return "\n".join(lines)


def ends_torn(path: Path) -> bool:
    """Does the file end in a torn line, with no trailing newline?  A
    record appended to it would fuse with the fragment and be lost."""
    try:
        with open(path, "rb") as reader:
            reader.seek(-1, os.SEEK_END)
            return reader.read(1) != b"\n"
    except (OSError, ValueError):
        return False  # missing or empty file


class CheckpointJournal:
    """Append-only JSONL journal of completed spec keys.

    Each line is ``{"key": <spec_key>, "status": "done"|"quarantined",
    "reason": ...}``.  Loading tolerates a truncated final line (the
    harness may have been killed mid-write); replaying records the same
    key twice is harmless.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._done: Set[str] = set()
        self._quarantined: Dict[str, str] = {}
        self._load()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        torn = ends_torn(self.path)
        self._handle = open(self.path, "a", encoding="utf-8")
        if torn:
            self._handle.write("\n")  # the next record gets its own line

    def _load(self) -> None:
        if not self.path.is_file():
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # truncated tail from a killed run
                key = record.get("key")
                if not key:
                    continue
                if record.get("status") == "done":
                    self._done.add(key)
                    self._quarantined.pop(key, None)
                elif record.get("status") == "quarantined":
                    self._quarantined[key] = record.get("reason", "")

    # -- queries -------------------------------------------------------------

    @property
    def done_keys(self) -> Set[str]:
        return set(self._done)

    def is_done(self, key: str) -> bool:
        return key in self._done

    def quarantined(self) -> Dict[str, str]:
        return dict(self._quarantined)

    # -- appends -------------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        self._handle.write(
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        )
        self._handle.flush()

    def record_done(self, key: str) -> None:
        if key in self._done:
            return  # resumed runs re-see cached keys; keep the journal lean
        self._done.add(key)
        self._quarantined.pop(key, None)
        self._append({"key": key, "status": "done"})

    def record_quarantined(self, key: str, reason: str) -> None:
        self._quarantined[key] = reason
        self._append(
            {"key": key, "status": "quarantined", "reason": reason}
        )

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
