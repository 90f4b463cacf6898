"""The campaign ledger: an append-only JSONL history of every run.

A *campaign* is the longitudinal record the repo's one-shot artifacts
(``BENCH_*.json``, sweep summaries, audit reports) cannot give you: one
line per run, accumulated across days of development, so a perf
regression or a creeping quarantine rate is visible as a trajectory
rather than a diff of two snapshots.

Each line is one :class:`CampaignRecord` — run kind, verdict, duration,
trial/quarantine/divergence counts, :data:`~repro.perf.spec.ENGINE_VERSION`
— plus free-form ``extra`` facts.  Bench artifacts enter the same ledger
via :meth:`CampaignLedger.append_artifact`, which stamps the file's
sha256 digest so a rendered report can tell *which* artifact produced a
data point even after the file is overwritten.

The ledger is opt-in: nothing writes one unless the CLI is given
``--ledger PATH`` or the ``REPRO_LEDGER`` environment variable points at
a file (:func:`default_ledger_path`).  Consumers: ``repro report``
(static HTML via :mod:`repro.obs.report`) and ``repro dash`` (live
summaries via :mod:`repro.obs.dash`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

#: Bump when the ledger line layout changes incompatibly.
SCHEMA_VERSION = 1

#: Environment variable naming the default ledger file.
LEDGER_ENV = "REPRO_LEDGER"


def default_ledger_path() -> Optional[Path]:
    """The ledger path from ``$REPRO_LEDGER``, or ``None`` (ledger off)."""
    value = os.environ.get(LEDGER_ENV, "").strip()
    return Path(value) if value else None


@dataclasses.dataclass(frozen=True)
class CampaignRecord:
    """One ledger line: the durable facts of a single run.

    ``kind`` names the run flavor (``sweep``, ``check``, ``audit``,
    ``bench:<name>`` for ingested artifacts); ``verdict`` is ``"ok"`` /
    ``"violation"`` / ``"divergence"`` / whatever the run kind reports.
    ``started`` is seconds since the epoch.
    """

    kind: str
    verdict: str
    started: float
    duration: float = 0.0
    trials: int = 0
    quarantined: int = 0
    divergences: int = 0
    retries: int = 0
    engine_version: str = ""
    schema_version: int = SCHEMA_VERSION
    extra: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, body: Dict[str, Any]) -> "CampaignRecord":
        known = {field.name for field in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in body.items() if k in known}
        kwargs.setdefault("kind", "unknown")
        kwargs.setdefault("verdict", "unknown")
        kwargs.setdefault("started", 0.0)
        return cls(**kwargs)


class CampaignLedger:
    """Append-only JSONL ledger of :class:`CampaignRecord` lines.

    Reading tolerates malformed lines (a run killed mid-write leaves a
    truncated tail); appends open-write-close so concurrent runs
    interleave whole lines rather than hold a handle hostage.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    # -- appends -------------------------------------------------------------

    def append(self, record: CampaignRecord) -> None:
        from ..perf.resilience import ends_torn

        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(
            record.to_dict(), sort_keys=True, separators=(",", ":")
        )
        # Seed a newline after a torn tail, so the fragment is skipped
        # as exactly one malformed line and the new record survives.
        payload = line.encode("utf-8") + b"\n"
        if ends_torn(self.path):
            payload = b"\n" + payload
        with open(self.path, "ab") as handle:
            handle.write(payload)

    def append_run(self, kind: str, verdict: str, *, duration: float = 0.0,
                   trials: int = 0, quarantined: int = 0,
                   divergences: int = 0, retries: int = 0,
                   **extra: Any) -> CampaignRecord:
        """Build + append a record for a run that just finished."""
        from ..perf.spec import ENGINE_VERSION

        record = CampaignRecord(
            kind=kind, verdict=verdict, started=time.time(),
            duration=duration, trials=trials, quarantined=quarantined,
            divergences=divergences, retries=retries,
            engine_version=ENGINE_VERSION,
            extra={k: v for k, v in extra.items() if v is not None},
        )
        self.append(record)
        return record

    def append_artifact(self, artifact: Union[str, Path]) -> CampaignRecord:
        """Ingest one ``BENCH_*.json`` artifact as a ledger record.

        The record kind is ``bench:<stem>`` (``BENCH_sweep.json`` →
        ``bench:sweep``), the verdict mirrors the artifact's ``ok`` field
        when present (else ``"recorded"``), and ``extra`` keeps the
        artifact's scalar top-level fields plus its sha256 digest — the
        perf-trajectory charts in ``repro report`` read these.
        """
        path = Path(artifact)
        raw = path.read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        body = json.loads(raw.decode("utf-8"))
        stem = path.stem
        if stem.upper().startswith("BENCH_"):
            stem = stem[len("BENCH_"):]
        verdict = "recorded"
        if isinstance(body, dict) and "ok" in body:
            verdict = "ok" if body["ok"] else "violation"
        scalars = {
            key: value
            for key, value in (body.items() if isinstance(body, dict) else [])
            if isinstance(value, (int, float, str, bool))
        }
        scalars["artifact"] = path.name
        scalars["sha256"] = digest
        record = CampaignRecord(
            kind=f"bench:{stem}",
            verdict=verdict,
            started=path.stat().st_mtime,
            duration=float(body.get("elapsed_seconds", 0.0))
            if isinstance(body, dict) else 0.0,
            engine_version=str(body.get("engine_version",
                                        body.get("engine", "")))
            if isinstance(body, dict) else "",
            extra=scalars,
        )
        self.append(record)
        return record

    # -- reads ---------------------------------------------------------------

    def records(self) -> List[CampaignRecord]:
        """Every parseable ledger line, in file (append) order."""
        if not self.path.is_file():
            return []
        out: List[CampaignRecord] = []
        with open(self.path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    body = json.loads(line)
                except json.JSONDecodeError:
                    continue  # truncated tail from a killed run
                if isinstance(body, dict):
                    out.append(CampaignRecord.from_dict(body))
        return out

    def tail(self, n: int = 20) -> List[CampaignRecord]:
        records = self.records()
        return records[-n:] if n > 0 else []

    def __len__(self) -> int:
        return len(self.records())
