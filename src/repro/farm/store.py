"""The farm store: a durable queue of trials between submission and work.

A :class:`FarmStore` holds serialized :class:`~repro.perf.spec.TrialSpec`
rows grouped into named **campaigns**, each row walking the state machine

    ``pending → leased → done | failed | quarantined``

where ``failed`` is a *retryable* pending (the claim query treats the two
identically) and ``quarantined`` is terminal — the trial consumed its
whole :class:`~repro.perf.resilience.ResiliencePolicy` attempt budget.

Claims hand out **leases**: an opaque token plus an expiry timestamp.  A
worker must :meth:`~FarmStore.heartbeat` its tokens to keep them alive
and present the token again to :meth:`~FarmStore.complete` or
:meth:`~FarmStore.fail` the trial — a token that no longer matches (the
lease expired and someone else reclaimed the row) makes the call a
harmless no-op, which is what gives the farm its exactly-once-*result*
semantics: a zombie worker finishing late cannot overwrite the result
the reclaiming worker stored.

The default backend is SQLite (:class:`SQLiteFarmStore`): WAL mode so
readers never block the writer, and every claim wrapped in a
``BEGIN IMMEDIATE`` transaction so concurrent workers serialize on the
write lock and can never double-claim a row.  Each round trip costs
O(batch), not O(campaign): claims read a partial index of the claimable
rows only, and :meth:`~FarmStore.complete_many` settles a claimed batch
in one transaction.  :func:`open_store` maps DB
URLs onto backends; adding a server-backed store is registering one more
scheme.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import pickle
import random
import sqlite3
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..perf.resilience import (
    STORE_RETRY_POLICY,
    ResiliencePolicy,
    connect_sqlite,
    is_transient_store_error,
)

log = logging.getLogger("repro.farm.store")

#: Claimable states: a fresh row, or a failed one awaiting its retry.
CLAIMABLE = ("pending", "failed")

#: Every state a trial row can be in, in lifecycle order.
STATES = ("pending", "leased", "done", "failed", "quarantined")


@dataclasses.dataclass(frozen=True)
class LeasedTrial:
    """One claimed trial: the spec plus the lease that owns it.

    ``attempts`` counts this claim — a trial leased for the first time
    carries ``attempts == 1``.
    """

    campaign: str
    position: int
    key: str
    spec: Any
    token: str
    attempts: int


@dataclasses.dataclass(frozen=True)
class ReapedLease:
    """One expired lease swept during a claim.

    ``quarantined`` is true when the reap exhausted the trial's attempt
    budget; otherwise the row went back to claimable.
    """

    campaign: str
    position: int
    key: str
    worker: str
    attempts: int
    quarantined: bool


class FarmStoreError(RuntimeError):
    """A store-level contract violation (bad URL, duplicate campaign…)."""


class FarmStore:
    """Interface of a farm backend; :class:`SQLiteFarmStore` is the default.

    All methods are safe to call from multiple threads and multiple
    processes at once; the implementation must guarantee that

    * :meth:`claim_batch` never hands the same live lease to two callers,
    * :meth:`complete` / :meth:`complete_many` / :meth:`fail` with a
      stale token change nothing,
    * an expired lease is reclaimed exactly once.
    """

    url: str

    # -- campaign lifecycle ------------------------------------------------

    def create_campaign(self, campaign: str, kind: str, trials: int,
                        meta: Optional[Dict[str, Any]] = None) -> None:
        raise NotImplementedError

    def enqueue(self, campaign: str, entries: Sequence[tuple]) -> None:
        """Insert trial rows.  Each entry is a 6-tuple
        ``(position, key, spec, done, result, telemetry)`` — ``done``
        rows (cache hits resolved at submit time) are stored completed
        with ``cached = 1`` and never hit a worker."""
        raise NotImplementedError

    # -- worker side -------------------------------------------------------

    def claim_batch(self, worker: str, limit: int, lease_ttl: float,
                    policy: ResiliencePolicy,
                    campaign: Optional[str] = None,
                    ) -> Tuple[List[LeasedTrial], List[ReapedLease]]:
        raise NotImplementedError

    def heartbeat(self, tokens: Sequence[str], lease_ttl: float) -> int:
        raise NotImplementedError

    def complete(self, token: str, result: Any,
                 telemetry: Any = None) -> bool:
        raise NotImplementedError

    def complete_many(self, items: Sequence[Tuple[str, Any, Any]]
                      ) -> List[bool]:
        """Settle ``(token, result, telemetry)`` items; one flag each.

        The default is one :meth:`complete` per item, so a decorator
        that only wraps :meth:`complete` keeps working; a backend that
        can commit the batch in one transaction overrides it.
        """
        return [self.complete(token, result, telemetry)
                for token, result, telemetry in items]

    def fail(self, token: str, reason: str,
             policy: ResiliencePolicy) -> str:
        """Returns ``"retry"``, ``"quarantined"``, or ``"stale"``."""
        raise NotImplementedError

    # -- administration ----------------------------------------------------

    def requeue(self, campaign: Optional[str] = None,
                positions: Optional[Sequence[int]] = None) -> int:
        """Re-arm quarantined rows after a fix lands.

        Resets matching ``quarantined`` rows to ``pending`` with a fresh
        attempt budget and the quarantine reason cleared.  ``campaign``
        and ``positions`` narrow the selection; both ``None`` re-arms
        every quarantined row in the store.  Returns how many rows were
        re-armed.
        """
        raise NotImplementedError

    # -- monitoring --------------------------------------------------------

    def counts(self, campaign: Optional[str] = None) -> Dict[str, int]:
        raise NotImplementedError

    def campaign_rows(self, campaign: str) -> List[Dict[str, Any]]:
        raise NotImplementedError

    def campaigns(self) -> List[Dict[str, Any]]:
        raise NotImplementedError

    def status(self) -> Dict[str, Any]:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "FarmStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    campaign   TEXT PRIMARY KEY,
    kind       TEXT NOT NULL,
    trials     INTEGER NOT NULL,
    created    REAL NOT NULL,
    meta       TEXT NOT NULL DEFAULT '{}'
);
CREATE TABLE IF NOT EXISTS trials (
    campaign      TEXT NOT NULL,
    position      INTEGER NOT NULL,
    key           TEXT NOT NULL,
    spec          BLOB NOT NULL,
    state         TEXT NOT NULL DEFAULT 'pending',
    attempts      INTEGER NOT NULL DEFAULT 0,
    lease_token   TEXT,
    lease_worker  TEXT,
    lease_expires REAL,
    result        BLOB,
    telemetry     BLOB,
    cached        INTEGER NOT NULL DEFAULT 0,
    failure       TEXT,
    enqueued_at   REAL NOT NULL,
    completed_at  REAL,
    PRIMARY KEY (campaign, position)
);
DROP INDEX IF EXISTS trials_by_state;
CREATE INDEX IF NOT EXISTS trials_by_lease ON trials (state, lease_expires);
CREATE INDEX IF NOT EXISTS trials_by_token ON trials (lease_token);
CREATE INDEX IF NOT EXISTS trials_claimable ON trials (campaign, position)
    WHERE state IN ('pending', 'failed');
"""

#: The claim query, ``{scope}`` being ``""`` or ``" AND campaign = ?"``.
#: The partial index holds only claimable rows in claim order, so a
#: claim reads just the rows it leases.  ``INDEXED BY`` pins it: for the
#: unscoped form SQLite would otherwise pick ``trials_by_lease`` and sort
#: every pending row in a temp B-tree.
CLAIM_SQL = (
    "SELECT campaign, position, key, spec, attempts FROM trials"
    " INDEXED BY trials_claimable WHERE state IN ('pending', 'failed')"
    "{scope} ORDER BY campaign, position LIMIT ?"
)


class SQLiteFarmStore(FarmStore):
    """SQLite-backed :class:`FarmStore` — zero-dependency, multi-process.

    * **WAL mode** so `repro farm status` and the dashboard can read
      while workers write;
    * **one connection per thread** (SQLite connections are not
      thread-safe), created lazily and closed together;
    * **``BEGIN IMMEDIATE``** around every mutation, taking the write
      lock up front — two workers claiming concurrently serialize, and
      each sees the other's claims, so no row is ever double-leased;
    * a generous ``busy_timeout`` instead of hand-rolled retry loops.

    Connections come from :func:`~repro.perf.resilience.connect_sqlite`,
    the recipe the :class:`~repro.perf.cache.TrialCache` uses too.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        if str(self.path) == ":memory:":
            raise FarmStoreError(
                "sqlite ':memory:' cannot back a farm store: every "
                "connection would see its own private database. Use a "
                "file path (a tmpdir works fine for tests)."
            )
        self.url = f"sqlite:///{self.path}"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._local = threading.local()
        self._all_conns: List[sqlite3.Connection] = []
        self._conns_lock = threading.Lock()
        self._closed = False
        #: Store-level errors that were tolerated rather than raised
        #: (e.g. a connection that failed to close).  Surfaced by
        #: :meth:`status` so infra faults are observable, never silent.
        self.farm_store_errors = 0
        # executescript manages its own transaction (it commits before
        # running), so the schema is applied outside _txn.
        self._conn().executescript(_SCHEMA)

    # -- plumbing ----------------------------------------------------------

    def _conn(self) -> sqlite3.Connection:
        if self._closed:
            raise FarmStoreError(f"store {self.url} is closed")
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = connect_sqlite(self.path)
            conn.row_factory = sqlite3.Row
            self._local.conn = conn
            with self._conns_lock:
                self._all_conns.append(conn)
        return conn

    class _Txn:
        def __init__(self, conn: sqlite3.Connection):
            self.conn = conn

        def __enter__(self) -> sqlite3.Connection:
            self.conn.execute("BEGIN IMMEDIATE")
            return self.conn

        def __exit__(self, exc_type, *_rest) -> None:
            if exc_type is None:
                self.conn.execute("COMMIT")
            else:
                self.conn.execute("ROLLBACK")

    def _txn(self) -> "SQLiteFarmStore._Txn":
        return self._Txn(self._conn())

    # -- campaign lifecycle ------------------------------------------------

    def create_campaign(self, campaign: str, kind: str, trials: int,
                        meta: Optional[Dict[str, Any]] = None) -> None:
        with self._txn() as conn:
            row = conn.execute(
                "SELECT campaign FROM campaigns WHERE campaign = ?",
                (campaign,),
            ).fetchone()
            if row is not None:
                raise FarmStoreError(
                    f"campaign {campaign!r} already exists in {self.url}; "
                    f"pick another --campaign name (or another store)"
                )
            conn.execute(
                "INSERT INTO campaigns (campaign, kind, trials, created,"
                " meta) VALUES (?, ?, ?, ?, ?)",
                (campaign, kind, trials, time.time(),
                 json.dumps(meta or {}, sort_keys=True)),
            )

    def enqueue(self, campaign: str, entries: Sequence[tuple]) -> None:
        now = time.time()
        rows = []
        for position, key, spec, done, result, telemetry in entries:
            rows.append((
                campaign, position, key,
                pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL),
                "done" if done else "pending",
                pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
                if done else None,
                pickle.dumps(telemetry, protocol=pickle.HIGHEST_PROTOCOL)
                if done and telemetry is not None else None,
                1 if done else 0,
                now,
                now if done else None,
            ))
        with self._txn() as conn:
            conn.executemany(
                "INSERT INTO trials (campaign, position, key, spec, state,"
                " result, telemetry, cached, enqueued_at, completed_at)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )

    # -- worker side -------------------------------------------------------

    def claim_batch(self, worker: str, limit: int, lease_ttl: float,
                    policy: ResiliencePolicy,
                    campaign: Optional[str] = None,
                    ) -> Tuple[List[LeasedTrial], List[ReapedLease]]:
        """Reap every expired lease, then claim up to ``limit`` rows.

        Both happen inside one ``BEGIN IMMEDIATE`` transaction, so the
        reap and the claim are atomic with respect to every other
        worker: an expired lease is seen (and requeued or quarantined)
        by exactly one claimer, and a requeued row can be claimed in the
        same breath.
        """
        now = time.time()
        reaped: List[ReapedLease] = []
        claimed: List[sqlite3.Row] = []
        tokens: List[str] = []
        scope_sql = " AND campaign = ?" if campaign is not None else ""
        scope_args: tuple = (campaign,) if campaign is not None else ()
        with self._txn() as conn:
            for row in conn.execute(
                "SELECT campaign, position, key, lease_worker, attempts"
                " FROM trials WHERE state = 'leased' AND lease_expires < ?"
                + scope_sql, (now,) + scope_args,
            ).fetchall():
                quarantined = policy.exhausted(row["attempts"])
                reason = (
                    f"lease expired (worker {row['lease_worker'] or '?'} "
                    f"went silent on attempt {row['attempts']})"
                )
                conn.execute(
                    "UPDATE trials SET state = ?, failure = ?,"
                    " lease_token = NULL, lease_worker = NULL,"
                    " lease_expires = NULL, completed_at = ?"
                    " WHERE campaign = ? AND position = ?",
                    ("quarantined" if quarantined else "failed", reason,
                     now if quarantined else None,
                     row["campaign"], row["position"]),
                )
                reaped.append(ReapedLease(
                    row["campaign"], row["position"], row["key"],
                    row["lease_worker"] or "", row["attempts"], quarantined,
                ))
            if limit > 0:
                claimed = conn.execute(
                    CLAIM_SQL.format(scope=scope_sql), scope_args + (limit,),
                ).fetchall()
                tokens = [uuid.uuid4().hex for _ in claimed]
                conn.executemany(
                    "UPDATE trials SET state = 'leased',"
                    " attempts = attempts + 1, lease_token = ?,"
                    " lease_worker = ?, lease_expires = ?"
                    " WHERE campaign = ? AND position = ?",
                    [(token, worker, now + lease_ttl, row["campaign"],
                      row["position"]) for token, row in zip(tokens, claimed)],
                )
        # Specs are unpickled after COMMIT, outside the write lock.
        leases = [
            LeasedTrial(row["campaign"], row["position"], row["key"],
                        pickle.loads(row["spec"]), token, row["attempts"] + 1)
            for token, row in zip(tokens, claimed)
        ]
        return leases, reaped

    def heartbeat(self, tokens: Sequence[str], lease_ttl: float) -> int:
        tokens = list(tokens)
        if not tokens:
            return 0
        marks = ",".join("?" * len(tokens))
        with self._txn() as conn:
            cursor = conn.execute(
                f"UPDATE trials SET lease_expires = ? WHERE state = 'leased'"
                f" AND lease_token IN ({marks})",
                (time.time() + lease_ttl, *tokens),
            )
            return cursor.rowcount

    def complete(self, token: str, result: Any,
                 telemetry: Any = None) -> bool:
        """Store the result; false (and no write) if the lease is stale."""
        return self.complete_many([(token, result, telemetry)])[0]

    def complete_many(self, items: Sequence[Tuple[str, Any, Any]]
                      ) -> List[bool]:
        """Settle a batch in one transaction; a stale token is a per-row
        no-op (``False``), so a zombie never overwrites a result."""
        now = time.time()
        rows = [
            (pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL),
             pickle.dumps(telemetry, protocol=pickle.HIGHEST_PROTOCOL)
             if telemetry is not None else None,
             now, token)
            for token, result, telemetry in items
        ]
        if not rows:
            return []
        with self._txn() as conn:
            return [
                conn.execute(
                    "UPDATE trials SET state = 'done', result = ?,"
                    " telemetry = ?, failure = NULL, lease_token = NULL,"
                    " lease_worker = NULL, lease_expires = NULL,"
                    " completed_at = ? WHERE state = 'leased'"
                    " AND lease_token = ?", row,
                ).rowcount == 1
                for row in rows
            ]

    def fail(self, token: str, reason: str,
             policy: ResiliencePolicy) -> str:
        with self._txn() as conn:
            row = conn.execute(
                "SELECT campaign, position, attempts FROM trials"
                " WHERE state = 'leased' AND lease_token = ?",
                (token,),
            ).fetchone()
            if row is None:
                return "stale"
            quarantined = policy.exhausted(row["attempts"])
            conn.execute(
                "UPDATE trials SET state = ?, failure = ?,"
                " lease_token = NULL, lease_worker = NULL,"
                " lease_expires = NULL, completed_at = ?"
                " WHERE campaign = ? AND position = ?",
                ("quarantined" if quarantined else "failed", reason,
                 time.time() if quarantined else None,
                 row["campaign"], row["position"]),
            )
            return "quarantined" if quarantined else "retry"

    # -- administration ----------------------------------------------------

    def requeue(self, campaign: Optional[str] = None,
                positions: Optional[Sequence[int]] = None) -> int:
        scope_sql = ""
        scope_args: List[Any] = []
        if campaign is not None:
            scope_sql += " AND campaign = ?"
            scope_args.append(campaign)
        if positions is not None:
            if not positions:
                return 0
            marks = ",".join("?" * len(positions))
            scope_sql += f" AND position IN ({marks})"
            scope_args.extend(int(p) for p in positions)
        with self._txn() as conn:
            cursor = conn.execute(
                "UPDATE trials SET state = 'pending', attempts = 0,"
                " failure = NULL, lease_token = NULL, lease_worker = NULL,"
                " lease_expires = NULL, completed_at = NULL"
                " WHERE state = 'quarantined'" + scope_sql,
                scope_args,
            )
            return cursor.rowcount

    # -- monitoring --------------------------------------------------------

    def counts(self, campaign: Optional[str] = None) -> Dict[str, int]:
        scope_sql = " WHERE campaign = ?" if campaign is not None else ""
        scope_args: tuple = (campaign,) if campaign is not None else ()
        out = {state: 0 for state in STATES}
        for row in self._conn().execute(
            "SELECT state, COUNT(*) AS n FROM trials" + scope_sql
            + " GROUP BY state", scope_args,
        ).fetchall():
            out[row["state"]] = row["n"]
        return out

    def campaign_rows(self, campaign: str) -> List[Dict[str, Any]]:
        """Every row of a campaign in position order, blobs unpickled."""
        out = []
        for row in self._conn().execute(
            "SELECT position, key, state, attempts, result, telemetry,"
            " cached, failure, spec, lease_token, lease_worker,"
            " lease_expires, completed_at FROM trials WHERE campaign = ?"
            " ORDER BY position", (campaign,),
        ).fetchall():
            out.append({
                "position": row["position"],
                "key": row["key"],
                "state": row["state"],
                "attempts": row["attempts"],
                "cached": bool(row["cached"]),
                "failure": row["failure"],
                "lease_token": row["lease_token"],
                "lease_worker": row["lease_worker"],
                "lease_expires": row["lease_expires"],
                "completed_at": row["completed_at"],
                "spec": pickle.loads(row["spec"]),
                "result": pickle.loads(row["result"])
                if row["result"] is not None else None,
                "telemetry": pickle.loads(row["telemetry"])
                if row["telemetry"] is not None else None,
            })
        return out

    def campaigns(self) -> List[Dict[str, Any]]:
        out = []
        for row in self._conn().execute(
            "SELECT campaign, kind, trials, created, meta FROM campaigns"
            " ORDER BY created, campaign",
        ).fetchall():
            out.append({
                "campaign": row["campaign"], "kind": row["kind"],
                "trials": row["trials"], "created": row["created"],
                "meta": json.loads(row["meta"]),
                "states": self.counts(row["campaign"]),
            })
        return out

    def workers(self) -> Dict[str, int]:
        """Live leases per worker id (expired leases excluded)."""
        now = time.time()
        out: Dict[str, int] = {}
        for row in self._conn().execute(
            "SELECT lease_worker, COUNT(*) AS n FROM trials"
            " WHERE state = 'leased' AND lease_expires >= ?"
            " GROUP BY lease_worker", (now,),
        ).fetchall():
            out[row["lease_worker"] or "?"] = row["n"]
        return out

    def status(self) -> Dict[str, Any]:
        counts = self.counts()
        return {
            "store": self.url,
            "states": counts,
            "remaining": counts["pending"] + counts["failed"]
            + counts["leased"],
            "workers": self.workers(),
            "campaigns": self.campaigns(),
            "errors": self.farm_store_errors,
        }

    def close(self) -> None:
        self._closed = True
        with self._conns_lock:
            conns, self._all_conns = self._all_conns, []
        for conn in conns:
            try:
                conn.close()
            except sqlite3.Error as exc:
                self.farm_store_errors += 1
                log.warning(
                    "farm store close: connection close failed on %s "
                    "(%s: %s)", self.url, type(exc).__name__, exc,
                )
        self._local = threading.local()


class RetryingStore(FarmStore):
    """Bounded-retry decorator around any :class:`FarmStore`.

    Transient backend faults (``sqlite3.OperationalError`` mentioning
    *locked*/*busy* — exactly what a contended or fault-injected SQLite
    file raises) are retried up to ``attempts`` times with exponential
    backoff under **full jitter** drawn from a seeded ``random.Random``,
    then re-raised.  Non-transient errors pass straight through: a
    schema violation is a bug, not weather.

    Every store method is idempotent-or-guarded (claims serialize on the
    write lock; ``complete``/``fail`` no-op on stale tokens), so a retry
    after an ambiguous failure is always safe.  ``retried`` counts the
    sleeps taken; each one is logged at WARNING with the operation name.
    """

    def __init__(self, inner: FarmStore,
                 policy: ResiliencePolicy = STORE_RETRY_POLICY,
                 attempts: int = 5,
                 rng: Optional[random.Random] = None,
                 sleep: Callable[[float], None] = time.sleep):
        if attempts < 1:
            raise FarmStoreError("RetryingStore needs attempts >= 1")
        self.inner = inner
        self.policy = policy
        self.attempts = attempts
        self.rng = rng if rng is not None else random.Random()
        self.retried = 0
        self._sleep = sleep

    @property
    def url(self) -> str:  # type: ignore[override]
        return self.inner.url

    def _call(self, op: str, *args: Any, **kwargs: Any) -> Any:
        for round_ in range(self.attempts):
            try:
                return getattr(self.inner, op)(*args, **kwargs)
            except sqlite3.OperationalError as exc:
                last_round = round_ + 1 >= self.attempts
                if not is_transient_store_error(exc) or last_round:
                    raise
                delay = self.policy.backoff_seconds(round_, self.rng)
                log.warning(
                    "farm store %s: transient %s (%s); retry %d/%d in "
                    "%.3fs", op, type(exc).__name__, exc, round_ + 1,
                    self.attempts - 1, delay,
                )
                self.retried += 1
                if delay > 0:
                    self._sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover

    # Every FarmStore method funnels through _call; the registry below
    # keeps the decorator honest if the interface grows.

    def create_campaign(self, *a: Any, **kw: Any) -> None:
        return self._call("create_campaign", *a, **kw)

    def enqueue(self, *a: Any, **kw: Any) -> None:
        return self._call("enqueue", *a, **kw)

    def claim_batch(self, *a: Any, **kw: Any):
        return self._call("claim_batch", *a, **kw)

    def heartbeat(self, *a: Any, **kw: Any) -> int:
        return self._call("heartbeat", *a, **kw)

    def complete(self, *a: Any, **kw: Any) -> bool:
        return self._call("complete", *a, **kw)

    def complete_many(self, *a: Any, **kw: Any) -> List[bool]:
        # One unit: a lock rolls the whole batch back, so the retry
        # replays the whole batch.
        return self._call("complete_many", *a, **kw)

    def fail(self, *a: Any, **kw: Any) -> str:
        return self._call("fail", *a, **kw)

    def requeue(self, *a: Any, **kw: Any) -> int:
        return self._call("requeue", *a, **kw)

    def counts(self, *a: Any, **kw: Any) -> Dict[str, int]:
        return self._call("counts", *a, **kw)

    def campaign_rows(self, *a: Any, **kw: Any) -> List[Dict[str, Any]]:
        return self._call("campaign_rows", *a, **kw)

    def campaigns(self, *a: Any, **kw: Any) -> List[Dict[str, Any]]:
        return self._call("campaigns", *a, **kw)

    def workers(self) -> Dict[str, int]:
        return self._call("workers")

    def status(self) -> Dict[str, Any]:
        return self._call("status")

    def close(self) -> None:
        self.inner.close()

    def __getattr__(self, name: str) -> Any:
        # Backend extras (``path``, ``farm_store_errors``…) shine through.
        return getattr(self.inner, name)


def _parse_sqlite(rest: str) -> SQLiteFarmStore:
    """``sqlite://`` URL tail → store.  Three slashes = relative path,
    four = absolute, matching the SQLAlchemy convention."""
    if not rest.startswith("//"):
        raise FarmStoreError(
            f"malformed sqlite URL tail {rest!r}: use sqlite:///<path>"
        )
    tail = rest[2:]          # strip the (empty) authority's slashes
    if not tail.startswith("/"):
        raise FarmStoreError(
            f"malformed sqlite URL: use sqlite:///relative.db or "
            f"sqlite:////abs/path.db (got authority {tail!r})"
        )
    path = tail[1:]          # sqlite:///foo.db → foo.db
    if tail.startswith("//"):
        path = tail[1:]      # sqlite:////abs.db → /abs.db
    return SQLiteFarmStore(path or ".")


#: URL scheme registry; a server-backed store is one more entry here.
SCHEMES: Dict[str, Callable[[str], FarmStore]] = {
    "sqlite": _parse_sqlite,
}


def open_store(url: Union[str, Path, FarmStore]) -> FarmStore:
    """Open a farm store by DB URL (or pass one through unchanged).

    ``sqlite:///trials.db`` (relative), ``sqlite:////tmp/trials.db``
    (absolute), or a bare filesystem path — bare paths mean SQLite.
    """
    if isinstance(url, FarmStore):
        return url
    text = str(url)
    if "://" in text:
        scheme, _, rest = text.partition(":")
        handler = SCHEMES.get(scheme)
        if handler is None:
            raise FarmStoreError(
                f"unknown farm store scheme {scheme!r} in {text!r}; "
                f"known: {', '.join(sorted(SCHEMES))}"
            )
        return handler(rest)
    return SQLiteFarmStore(text)
