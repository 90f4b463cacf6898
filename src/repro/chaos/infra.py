"""Infrastructure chaos: seeded fault injection for the harness itself.

PR 4's chaos layer attacks the *simulated* protocol (lying detectors,
lossy networks, unfair schedules); this module turns the same pressure
on the machinery that runs the experiments — the farm store, the trial
cache, the campaign ledger.  The farm *is* a little
distributed system (leases, heartbeats, exactly-once completion), so its
invariants deserve the same adversarial treatment as the paper's: every
fault below is drawn from a seeded stream, graded by severity, and kept
inside a **safety envelope** (bounded lock bursts, one power cut per
run) under which the graceful-degradation machinery is *guaranteed* to
recover — so an invariant violation under infra chaos is a real bug,
never an artifact of injecting more failure than the design tolerates.

The pieces:

* :class:`InfraFaultPlan` — frozen, picklable, severity-graded knobs in
  the :class:`~repro.chaos.config.ChaosConfig` house style;
* :class:`InfraInjector` — the runtime: seeded RNG streams, barrier
  counters, burst envelope, :class:`~repro.obs.events.InfraFaultInjected`
  events;
* :class:`FaultyStore` / :class:`FaultyCache` — wrappers injecting
  ``database is locked``, torn-process kills at named barriers, ENOSPC
  on cache commits, truncated cache entries;
* :func:`tear_ledger_tail` — a kill mid-ledger-append;
* :func:`check_store_invariants` — the farm's exactly-once contract as
  executable assertions over a drained campaign;
* :class:`CrashConsistencyChecker` — real two-worker drains under a
  fault plan, killed at seeded barriers, checked against a pristine
  serial baseline byte for byte.  ``repro chaos infra`` is the CLI
  front end; the ``faulty-infra`` audit oracle runs one-run slices of
  the same checker inside ``repro audit``.
"""

from __future__ import annotations

import dataclasses
import errno
import pickle
import random
import sqlite3
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..perf.cache import TrialCache
from ..perf.resilience import ResiliencePolicy, TrialFailure, guarded_execute

#: Named torn-process kill points inside the store protocol.  Each is a
#: moment a real worker could lose power between lease-claim and
#: result-commit; :class:`FaultyStore` raises :class:`SimulatedPowerCut`
#: when the plan's barrier counter hits ``kill_at``.
KILL_BARRIERS = ("after-claim", "before-complete", "after-complete")

#: Safety envelope: the injector never raises more than this many
#: *consecutive* locked errors on one operation stream, and
#: :class:`~repro.farm.store.RetryingStore` retries up to 5 attempts —
#: so bounded retry always recovers and a crashed worker is a bug.
MAX_LOCK_BURST = 4

#: Sabotage hooks for the self-tests: each must flip a clean checker
#: run into a violation report.
SABOTAGES = ("duplicate-done",)


class SimulatedPowerCut(BaseException):
    """A torn-process kill: the worker 'dies' at a store barrier.

    Deliberately a ``BaseException`` so no retry wrapper or trial-level
    ``except Exception`` can swallow it — exactly like ``SIGKILL``, the
    only handler is the harness that staged the cut.
    """

    def __init__(self, barrier: str, crossing: int):
        super().__init__(f"power cut at {barrier} (crossing {crossing})")
        self.barrier = barrier
        self.crossing = crossing


@dataclasses.dataclass(frozen=True)
class InfraFaultPlan:
    """Severity knobs for the infrastructure injectors.

    Parameters
    ----------
    seed:
        Drives every injection draw, on RNG streams separate from both
        the engine's and the protocol chaos layer's — a plan with all
        knobs off reproduces the pristine run bit-for-bit.
    store_lock_rate:
        Per-operation probability that a guarded store call (claim,
        complete, heartbeat, fail) raises ``sqlite3.OperationalError:
        database is locked`` before reaching the backend.
    store_lock_burst:
        Envelope on consecutive injected locks per operation stream —
        must stay below the store retry budget (≤
        :data:`MAX_LOCK_BURST`) so bounded retry always recovers.
    kill_barrier:
        One of :data:`KILL_BARRIERS`, or ``""`` (no kill).  The worker
        takes a :class:`SimulatedPowerCut` at that store barrier.
    kill_at:
        Which crossing of ``kill_barrier`` dies (0 = the first).
    cache_enospc_after:
        Cache commits (one per ``put_many`` batch) that succeed before
        an injected ``OSError(ENOSPC)`` fails one, storing none of its
        batch and flipping the cache into degraded read-only mode
        (``-1`` = never).
    cache_truncate_rate:
        Per-row probability that a read finds the stored blob halved,
        exercising the corrupt-entry recovery path.
    ledger_tear:
        Exercise a kill mid-ledger-append (torn tail) and assert every
        complete record survives.
    """

    seed: int = 0
    store_lock_rate: float = 0.0
    store_lock_burst: int = 2
    kill_barrier: str = ""
    kill_at: int = 0
    cache_enospc_after: int = -1
    cache_truncate_rate: float = 0.0
    ledger_tear: bool = False

    def __post_init__(self) -> None:
        for name in ("store_lock_rate", "cache_truncate_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if not 1 <= self.store_lock_burst <= MAX_LOCK_BURST:
            raise ValueError(
                f"store_lock_burst must be in [1, {MAX_LOCK_BURST}] (the "
                f"retry safety envelope), got {self.store_lock_burst}"
            )
        if self.kill_barrier and self.kill_barrier not in KILL_BARRIERS:
            raise ValueError(
                f"kill_barrier must be one of {KILL_BARRIERS} or '', "
                f"got {self.kill_barrier!r}"
            )
        if self.kill_at < 0:
            raise ValueError(f"kill_at must be >= 0, got {self.kill_at}")
        if self.cache_enospc_after < -1:
            raise ValueError(
                f"cache_enospc_after must be >= -1, "
                f"got {self.cache_enospc_after}"
            )

    @property
    def any_active(self) -> bool:
        """True when at least one injector has a non-zero knob."""
        return bool(
            self.store_lock_rate
            or self.kill_barrier
            or self.cache_enospc_after >= 0
            or self.cache_truncate_rate
            or self.ledger_tear
        )

    @classmethod
    def light(cls, seed: int = 0) -> "InfraFaultPlan":
        """Weather, not storms: occasional locks and torn cache reads."""
        return cls(
            seed=seed,
            store_lock_rate=0.25,
            store_lock_burst=2,
            cache_truncate_rate=0.1,
        )

    @classmethod
    def max_severity(cls, seed: int = 0) -> "InfraFaultPlan":
        """The harshest plan the safety envelope supports.

        Every guarded store op is lock-bombed (in bursts the retry
        budget still beats), the cache loses its disk after one write,
        reads face torn entries, the ledger takes a torn-tail append,
        and the worker is power-cut at a seed-chosen barrier crossing.
        """
        rng = random.Random(f"infra-plan:{seed}")
        return cls(
            seed=seed,
            store_lock_rate=1.0,
            store_lock_burst=3,
            kill_barrier=rng.choice(KILL_BARRIERS),
            kill_at=rng.randrange(2),
            cache_enospc_after=1,
            cache_truncate_rate=0.35,
            ledger_tear=True,
        )

    @classmethod
    def from_severity(cls, severity: str, seed: int = 0) -> "InfraFaultPlan":
        try:
            builder = _SEVERITIES[severity]
        except KeyError:
            known = ", ".join(sorted(_SEVERITIES))
            raise ValueError(
                f"unknown severity {severity!r} (known: {known})"
            )
        return builder(seed)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "InfraFaultPlan":
        return cls(**data)

    def build(self, bus=None) -> "InfraInjector":
        """The runtime injector for this plan (one per drained run)."""
        return InfraInjector(self, bus=bus)


_SEVERITIES = {
    "light": InfraFaultPlan.light,
    "max": InfraFaultPlan.max_severity,
}

SEVERITIES = tuple(sorted(_SEVERITIES))


class InfraInjector:
    """Runtime state of one plan: RNG streams, counters, envelopes.

    Lock draws use one stream *per operation name* so the main drain
    thread's weather is independent of the heartbeat thread's.  Barrier
    crossings are counted over **successful** inner operations only, so
    the kill point is a deterministic function of the trial flow, not of
    the lock weather.  ``injected`` tallies every fault by
    ``component:kind`` for reports and tests.
    """

    def __init__(self, plan: InfraFaultPlan, bus=None):
        self.plan = plan
        self.bus = bus
        self.injected: Dict[str, int] = {}
        self._lock_rngs: Dict[str, random.Random] = {}
        self._lock_streaks: Dict[str, int] = {}
        self._crossings: Dict[str, int] = {}
        self._read_rng = random.Random(f"infra:truncate:{plan.seed}")
        self._cache_puts = 0

    def _record(self, component: str, kind: str, op: str = "") -> None:
        key = f"{component}:{kind}"
        self.injected[key] = self.injected.get(key, 0) + 1
        if self.bus is not None and self.bus.active:
            from ..obs.events import InfraFaultInjected

            self.bus.publish(InfraFaultInjected(-1, component, kind, op))

    # -- store faults --------------------------------------------------------

    def maybe_lock(self, op: str) -> None:
        """Raise an injected 'database is locked' per plan and envelope."""
        if self.plan.store_lock_rate <= 0:
            return
        rng = self._lock_rngs.get(op)
        if rng is None:
            rng = random.Random(f"infra:lock:{op}:{self.plan.seed}")
            self._lock_rngs[op] = rng
        streak = self._lock_streaks.get(op, 0)
        if streak >= self.plan.store_lock_burst:
            # Envelope: force a success so bounded retry always recovers.
            self._lock_streaks[op] = 0
            return
        if rng.random() < self.plan.store_lock_rate:
            self._lock_streaks[op] = streak + 1
            self._record("store", "locked", op)
            raise sqlite3.OperationalError("database is locked [injected]")
        self._lock_streaks[op] = 0

    def barrier(self, name: str) -> None:
        """Cross a named kill barrier; die if this crossing is staged."""
        if name != self.plan.kill_barrier:
            return
        crossing = self._crossings.get(name, 0)
        self._crossings[name] = crossing + 1
        if crossing == self.plan.kill_at:
            self._record("store", "kill", name)
            raise SimulatedPowerCut(name, crossing)

    # -- cache faults --------------------------------------------------------

    def cache_put_fault(self) -> bool:
        """True when this cache commit should hit injected ENOSPC."""
        if self.plan.cache_enospc_after < 0:
            return False
        fires = self._cache_puts >= self.plan.cache_enospc_after
        self._cache_puts += 1
        if fires:
            self._record("cache", "enospc", "put")
        return fires

    def cache_truncate_fault(self) -> bool:
        """True when this row's blob should read back halved."""
        if self.plan.cache_truncate_rate <= 0:
            return False
        if self._read_rng.random() < self.plan.cache_truncate_rate:
            self._record("cache", "truncate", "get")
            return True
        return False


class FaultyStore:
    """A :class:`~repro.farm.store.FarmStore` wrapper that injects faults.

    Guarded operations (claim/complete/heartbeat/fail) may raise the
    injected ``database is locked``; claim and complete additionally
    cross the plan's kill barriers — ``after-claim`` fires with the
    leases durably held but the worker 'dead', ``before-complete`` with
    the results computed but never committed, ``after-complete`` with the
    commit durable but the worker gone mid-batch.  ``complete_many`` is
    faulted like ``complete``, crossing each barrier once per batch.
    Submit-side and
    monitoring calls pass through untouched: the adversary attacks the
    drain path, not the experiment definition.
    """

    def __init__(self, inner, injector: InfraInjector):
        self.inner = inner
        self.injector = injector

    @property
    def url(self) -> str:
        return self.inner.url

    # -- faulted drain path --------------------------------------------------

    def claim_batch(self, *args: Any, **kwargs: Any):
        self.injector.maybe_lock("claim")
        out = self.inner.claim_batch(*args, **kwargs)
        self.injector.barrier("after-claim")
        return out

    def heartbeat(self, *args: Any, **kwargs: Any) -> int:
        self.injector.maybe_lock("heartbeat")
        return self.inner.heartbeat(*args, **kwargs)

    def complete(self, *args: Any, **kwargs: Any) -> bool:
        self.injector.maybe_lock("complete")
        self.injector.barrier("before-complete")
        ok = self.inner.complete(*args, **kwargs)
        self.injector.barrier("after-complete")
        return ok

    def complete_many(self, *args: Any, **kwargs: Any) -> List[bool]:
        # One barrier crossing per batch commit, like one per complete.
        self.injector.maybe_lock("complete")
        self.injector.barrier("before-complete")
        oks = self.inner.complete_many(*args, **kwargs)
        self.injector.barrier("after-complete")
        return oks

    def fail(self, *args: Any, **kwargs: Any) -> str:
        self.injector.maybe_lock("fail")
        return self.inner.fail(*args, **kwargs)

    # -- pristine pass-through -----------------------------------------------

    def close(self) -> None:
        self.inner.close()

    def __enter__(self) -> "FaultyStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)


class FaultyCache(TrialCache):
    """A :class:`~repro.perf.cache.TrialCache` facing injected disk rot.

    Commits hit the plan's ENOSPC fault: the transaction rolls back, so
    none of its batch is stored, and the production degraded-mode
    machinery takes over (warning, ``cache_degraded`` counter, read-only
    flip).  Reads may find a row's blob halved, exercising the real
    corrupt-entry recovery (log, delete the row, recompute).
    """

    def __init__(self, root, injector: InfraInjector):
        super().__init__(root)
        self.injector = injector

    def _commit(self, conn) -> None:
        if self.injector.cache_put_fault():
            raise OSError(errno.ENOSPC, "No space left on device [injected]")
        super()._commit(conn)

    def _loads(self, blob: bytes) -> Any:
        if self.injector.cache_truncate_fault():
            blob = blob[: max(1, len(blob) // 2)]
        return super()._loads(blob)


def tear_ledger_tail(path: Union[str, Path]) -> bytes:
    """Simulate a writer killed mid-append: a torn, newline-less tail.

    Returns the fragment written.  A subsequent
    :meth:`~repro.obs.campaign.CampaignLedger.append` must survive it
    (the torn fragment is skipped as exactly one malformed line).
    """
    fragment = b'{"kind":"torn-by-power-cut","verdict":"un'
    with open(path, "ab") as handle:
        handle.write(fragment)
    return fragment


# -- the crash-consistency contract ------------------------------------------


@dataclasses.dataclass(frozen=True)
class InfraViolation:
    """One broken store invariant, locatable and serializable."""

    kind: str
    detail: str
    position: int = -1
    run: int = -1

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


def result_bytes(result: Any) -> bytes:
    """Canonical bytes of a trial result for cross-run comparison.

    The ``metrics`` snapshot is observation, not outcome (result
    dataclasses already exclude it from ``==``), so it is nulled before
    pickling — byte equality then means *the experiment agreed*, not
    *the telemetry happened to match*.
    """
    if dataclasses.is_dataclass(result) and any(
        field.name == "metrics" for field in dataclasses.fields(result)
    ):
        result = dataclasses.replace(result, metrics=None)
    return pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)


def check_store_invariants(
    store,
    campaign: str,
    policy: ResiliencePolicy,
    baseline: Optional[Sequence[bytes]] = None,
    run: int = -1,
) -> List[InfraViolation]:
    """The farm's exactly-once contract over one drained campaign.

    * every trial settled exactly once (state ``done``, result present,
      one row per position, row count = declared trial count);
    * no row is both ``done`` and leased;
    * attempts never exceeded the policy budget;
    * results byte-identical to the pristine serial ``baseline``.
    """
    violations: List[InfraViolation] = []

    def flag(kind: str, detail: str, position: int = -1) -> None:
        violations.append(InfraViolation(kind, detail, position, run))

    rows = store.campaign_rows(campaign)
    declared = next(
        (c["trials"] for c in store.campaigns() if c["campaign"] == campaign),
        None,
    )
    if declared is not None and len(rows) != declared:
        flag(
            "row-count",
            f"campaign declares {declared} trial(s) but holds {len(rows)} "
            f"row(s) — a trial was lost or settled twice",
        )
    seen_keys: Dict[str, int] = {}
    for index, row in enumerate(rows):
        position = row["position"]
        if position != index:
            flag(
                "position-gap",
                f"expected position {index}, found {position}",
                position,
            )
        previous = seen_keys.get(row["key"])
        if previous is not None:
            flag(
                "duplicate-result",
                f"key {row['key'][:12]}… settled at both position "
                f"{previous} and {position}",
                position,
            )
        seen_keys.setdefault(row["key"], position)
        if row["state"] != "done":
            flag(
                "unsettled",
                f"state {row['state']!r} after drain "
                f"(failure: {row['failure']!r})",
                position,
            )
        else:
            if row["result"] is None:
                flag("missing-result", "done row carries no result",
                     position)
            if row["lease_token"] is not None \
                    or row["lease_worker"] is not None:
                flag(
                    "done-but-leased",
                    f"done row still leased by "
                    f"{row['lease_worker'] or row['lease_token']!r}",
                    position,
                )
            if row["completed_at"] is None:
                flag("missing-completion-time",
                     "done row has no completed_at", position)
        if row["attempts"] > policy.max_attempts:
            flag(
                "attempt-overrun",
                f"{row['attempts']} attempts exceed the budget of "
                f"{policy.max_attempts}",
                position,
            )
    if baseline is not None:
        if len(rows) != len(baseline):
            if declared is None or len(rows) == declared:
                flag(
                    "row-count",
                    f"baseline has {len(baseline)} result(s), store holds "
                    f"{len(rows)} row(s)",
                )
        else:
            for row, expected in zip(rows, baseline):
                if row["state"] != "done":
                    continue  # already flagged as unsettled
                if result_bytes(row["result"]) != expected:
                    flag(
                        "result-mismatch",
                        "stored result differs byte-for-byte from the "
                        "pristine serial baseline",
                        row["position"],
                    )
    return violations


def sabotage_duplicate_done(store, campaign: str) -> None:
    """Doctor a drained store: duplicate row 0 as an extra done row.

    The self-test hook behind ``--sabotage duplicate-done`` (and the
    ``faulty-infra`` oracle's sabotage mode): a checker that cannot flag
    this store is not checking anything.
    """
    inner = getattr(store, "inner", store)
    conn = inner._conn()
    row = conn.execute(
        "SELECT * FROM trials WHERE campaign = ? AND position = 0",
        (campaign,),
    ).fetchone()
    if row is None:
        raise ValueError(f"campaign {campaign!r} has no row 0 to duplicate")
    top = conn.execute(
        "SELECT MAX(position) AS p FROM trials WHERE campaign = ?",
        (campaign,),
    ).fetchone()["p"]
    body = dict(row)
    body["position"] = top + 1
    columns = ", ".join(body)
    marks = ", ".join("?" * len(body))
    conn.execute("BEGIN IMMEDIATE")
    conn.execute(
        f"INSERT INTO trials ({columns}) VALUES ({marks})",
        tuple(body.values()),
    )
    conn.execute("COMMIT")


def check_ledger_survives_tear(path: Union[str, Path]) -> List[InfraViolation]:
    """Exercise a torn-tail ledger append and assert nothing is lost."""
    from ..obs.campaign import CampaignLedger, CampaignRecord

    ledger = CampaignLedger(path)
    ledger.append(CampaignRecord("infra-chaos", "ok", started=1.0))
    ledger.append(CampaignRecord("infra-chaos", "ok", started=2.0))
    tear_ledger_tail(path)
    ledger.append(CampaignRecord("infra-chaos", "ok", started=3.0))
    records = ledger.records()
    violations: List[InfraViolation] = []
    if len(records) != 3:
        violations.append(InfraViolation(
            "ledger-tear",
            f"expected 3 complete records around a torn tail, "
            f"read {len(records)}",
        ))
    elif [r.started for r in records] != [1.0, 2.0, 3.0]:
        violations.append(InfraViolation(
            "ledger-tear",
            "records survived the torn tail but out of append order",
        ))
    return violations


# -- the checker --------------------------------------------------------------


@dataclasses.dataclass
class CrashConsistencyReport:
    """Outcome of a :class:`CrashConsistencyChecker` campaign."""

    runs: int
    trials_per_run: int
    kills: int
    severity: str
    seed: int
    violations: List[InfraViolation] = dataclasses.field(default_factory=list)
    injected: Dict[str, int] = dataclasses.field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "runs": self.runs,
            "trials_per_run": self.trials_per_run,
            "kills": self.kills,
            "severity": self.severity,
            "seed": self.seed,
            "elapsed_seconds": self.elapsed_seconds,
            "injected": dict(sorted(self.injected.items())),
            "violations": [v.to_dict() for v in self.violations],
        }

    def summary(self) -> str:
        injected = ", ".join(
            f"{key}={count}"
            for key, count in sorted(self.injected.items())
        ) or "none"
        lines = [
            f"crash consistency: {self.runs} run(s) × "
            f"{self.trials_per_run} trial(s), severity {self.severity}, "
            f"seed {self.seed}",
            f"  kills taken: {self.kills}   faults injected: {injected}",
        ]
        if self.ok:
            lines.append(
                "  OK — every trial settled exactly once, byte-identical "
                "to the pristine serial baseline"
            )
        else:
            lines.append(f"  {len(self.violations)} violation(s):")
            for violation in self.violations:
                where = (
                    f" [run {violation.run}"
                    + (f", position {violation.position}"
                       if violation.position >= 0 else "")
                    + "]"
                )
                lines.append(
                    f"    {violation.kind}{where}: {violation.detail}"
                )
        return "\n".join(lines)


class CrashConsistencyChecker:
    """Prove the farm's exactly-once invariants under infra chaos.

    Each run stages a fresh SQLite store in a scratch directory, submits
    the spec grid, and drains it with a *faulted* worker — locked store
    ops (retried through :class:`~repro.farm.store.RetryingStore` with
    jittered backoff), a cache losing its disk, and a seeded power cut
    at a kill barrier.  A second, pristine worker then finishes the
    drain the way a real farm peer would: waiting out the dead worker's
    leases, reaping, and re-executing.  Afterwards
    :func:`check_store_invariants` compares the store against the
    pristine serial baseline byte for byte.

    ``sabotage="duplicate-done"`` doctors each drained store before
    checking — the self-test proving the checker can fail.
    """

    def __init__(
        self,
        specs: Sequence[Any],
        *,
        runs: int = 50,
        seed: int = 0,
        severity: str = "max",
        sabotage: str = "",
        lease_ttl: float = 0.15,
        policy: Optional[ResiliencePolicy] = None,
        bus=None,
    ):
        if not specs:
            raise ValueError("checker needs at least one trial spec")
        if sabotage and sabotage not in SABOTAGES:
            raise ValueError(
                f"unknown sabotage {sabotage!r} (known: {SABOTAGES})"
            )
        self.specs = list(specs)
        self.runs = runs
        self.seed = seed
        self.severity = severity
        self.sabotage = sabotage
        self.lease_ttl = lease_ttl
        self.policy = policy or ResiliencePolicy(retries=2, backoff=0.0)
        self.bus = bus

    def _baseline(self) -> List[bytes]:
        baseline = []
        for spec in self.specs:
            outcome = guarded_execute(spec)
            if isinstance(outcome, TrialFailure):
                raise ValueError(
                    f"baseline trial failed pristine ({outcome.detail}); "
                    f"pick specs that succeed without chaos"
                )
            baseline.append(result_bytes(outcome))
        return baseline

    def _one_run(self, run: int, baseline: List[bytes],
                 workdir: Path) -> Dict[str, Any]:
        from ..farm.campaign import submit_campaign
        from ..farm.store import RetryingStore, SQLiteFarmStore
        from ..farm.worker import FarmWorker

        run_seed = self.seed * 1_000_003 + run
        plan = InfraFaultPlan.from_severity(self.severity, run_seed)
        injector = plan.build(self.bus)
        campaign = "chaos-infra"
        store = SQLiteFarmStore(workdir / "farm.db")
        killed = False
        try:
            submit_campaign(store, self.specs, campaign=campaign,
                            kind="chaos-infra")
            faulted = RetryingStore(
                FaultyStore(store, injector),
                policy=ResiliencePolicy(
                    backoff=0.001, max_backoff=0.01, jitter=1.0
                ),
                rng=random.Random(f"infra-retry:{run_seed}"),
            )
            cache = FaultyCache(workdir / "cache", injector)
            worker_a = FarmWorker(
                faulted, worker_id=f"chaos-a-{run}", jobs=1,
                lease_ttl=self.lease_ttl, policy=self.policy, cache=cache,
                campaign=campaign, poll=0.01,
            )
            try:
                worker_a.drain()
            except SimulatedPowerCut:
                killed = True
            # The pristine peer: waits out the dead worker's leases,
            # reaps, re-executes, finishes the campaign.
            finisher = SQLiteFarmStore(workdir / "farm.db")
            try:
                FarmWorker(
                    finisher, worker_id=f"chaos-b-{run}", jobs=1,
                    lease_ttl=self.lease_ttl, policy=self.policy,
                    campaign=campaign, poll=0.02,
                ).drain()
            finally:
                finisher.close()
            if self.sabotage == "duplicate-done":
                sabotage_duplicate_done(store, campaign)
            violations = check_store_invariants(
                store, campaign, self.policy, baseline, run=run
            )
        finally:
            store.close()
        if plan.ledger_tear:
            for violation in check_ledger_survives_tear(
                workdir / "ledger.jsonl"
            ):
                violations.append(dataclasses.replace(violation, run=run))
        return {
            "killed": killed,
            "violations": violations,
            "injected": dict(injector.injected),
            "cache_degraded": cache.cache_degraded,
        }

    def run(self) -> CrashConsistencyReport:
        started = time.perf_counter()
        baseline = self._baseline()
        report = CrashConsistencyReport(
            runs=self.runs, trials_per_run=len(self.specs), kills=0,
            severity=self.severity, seed=self.seed,
        )
        for run in range(self.runs):
            with tempfile.TemporaryDirectory(
                prefix=f"repro-infra-{run}-"
            ) as scratch:
                outcome = self._one_run(run, baseline, Path(scratch))
            if outcome["killed"]:
                report.kills += 1
            report.violations.extend(outcome["violations"])
            for key, count in outcome["injected"].items():
                report.injected[key] = report.injected.get(key, 0) + count
        report.elapsed_seconds = time.perf_counter() - started
        return report


def default_infra_specs(trials: int = 4) -> List[Any]:
    """The tiny deterministic grid the CLI and oracle drain under chaos."""
    from ..perf.spec import SetAgreementTrialSpec

    return [
        SetAgreementTrialSpec(
            n_processes=3, f=1, seed=seed, stabilization_time=0
        )
        for seed in range(trials)
    ]
