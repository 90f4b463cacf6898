"""The audit fuzzer: seeded random cases driven through every oracle.

:func:`plan_audit` turns a trial-pair budget into a deterministic list of
:class:`~repro.audit.runner.AuditTrialSpec` (splitting the budget evenly
across the selected oracle pairs, honouring each pair's comparisons-per-
case cost); :func:`run_audit` executes the plan — serially or sharded
through :func:`repro.perf.executor.run_trials` — and folds the outcomes
into an :class:`AuditReport`, publishing one
:class:`~repro.obs.events.AuditDivergence` event per break so the
metrics registry counts them per pair.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from .oracles import ORACLE_PAIRS, PAIRS_PER_CASE
from .runner import AuditOutcome, AuditTrialSpec


@dataclasses.dataclass
class AuditReport:
    """Aggregated outcome of one audit run (JSON round-trippable)."""

    seed: int
    budget: int
    pairs: List[str]
    cases: int
    trial_pairs: int
    divergences: List[Dict[str, Any]]
    quarantined: int = 0
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.quarantined

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, body: Dict[str, Any]) -> "AuditReport":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in body.items() if k in known})

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        return path

    def summary(self) -> str:
        status = "clean" if self.ok else (
            f"{len(self.divergences)} divergence(s)"
            + (f", {self.quarantined} quarantined" if self.quarantined
               else "")
        )
        return (
            f"audit: {self.trial_pairs} trial-pairs over {self.cases} "
            f"cases across {len(self.pairs)} oracle pair(s) — {status}"
        )


def plan_audit(
    budget: int,
    seed: int,
    pairs: Optional[Sequence[str]] = None,
    sabotage: str = "",
) -> List[AuditTrialSpec]:
    """A deterministic audit plan worth about ``budget`` trial-pairs.

    The budget is split evenly across the selected oracle pairs; each
    pair then gets ``ceil(share / pairs_per_case)`` cases so every pair
    runs at least one case even under tiny budgets.
    """
    selected = list(pairs) if pairs else list(ORACLE_PAIRS)
    for pair in selected:
        if pair not in PAIRS_PER_CASE:
            known = ", ".join(ORACLE_PAIRS)
            raise ValueError(
                f"unknown oracle pair {pair!r} (known: {known})"
            )
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    share = max(1, budget // len(selected))
    specs: List[AuditTrialSpec] = []
    for pair in selected:
        per_case = PAIRS_PER_CASE[pair]
        cases = max(1, -(-share // per_case))  # ceil division
        for case in range(cases):
            specs.append(
                AuditTrialSpec(
                    pair=pair, case=case, seed=seed, sabotage=sabotage
                )
            )
    return specs


def run_audit(
    budget: int = 200,
    seed: int = 0,
    pairs: Optional[Sequence[str]] = None,
    jobs: int = 1,
    sabotage: str = "",
    bus=None,
    progress=None,
    collector=None,
) -> AuditReport:
    """Plan and execute an audit; return the aggregated report.

    ``jobs > 1`` shards the audit cases through the parallel executor
    (each :class:`AuditTrialSpec` is picklable); divergence events are
    published on ``bus`` after results return, so metrics work in both
    modes.  ``progress`` is an optional callable receiving one line per
    finished oracle pair.
    """
    from ..perf.executor import run_trials

    specs = plan_audit(budget, seed, pairs=pairs, sabotage=sabotage)
    started = time.perf_counter()
    outcomes = run_trials(specs, jobs=jobs, collector=collector)
    elapsed = time.perf_counter() - started

    report = _fold(specs, outcomes, seed=seed, budget=budget, bus=bus)
    report.elapsed_seconds = elapsed
    if progress is not None:
        for pair in report.pairs:
            found = sum(
                1 for d in report.divergences if d.get("pair") == pair
            )
            cases = sum(1 for s in specs if s.pair == pair)
            progress(
                f"  {pair}: {cases} case(s), "
                f"{'clean' if not found else f'{found} divergence(s)'}"
            )
    return report


def _fold(
    specs: Sequence[AuditTrialSpec],
    outcomes: Iterable[Optional[AuditOutcome]],
    seed: int,
    budget: int,
    bus=None,
) -> AuditReport:
    """Aggregate worker outcomes; publish divergence events on ``bus``."""
    from ..obs.events import AuditDivergence

    pairs = sorted({spec.pair for spec in specs})
    divergences: List[Dict[str, Any]] = []
    trial_pairs = 0
    cases = 0
    quarantined = 0
    for spec, outcome in zip(specs, outcomes):
        if outcome is None:  # quarantined by the resilient executor
            quarantined += 1
            continue
        cases += 1
        trial_pairs += outcome.trials
        for body in outcome.divergences:
            divergences.append(body)
            if bus is not None and bus.active:
                bus.publish(
                    AuditDivergence(
                        -1,
                        pair=body.get("pair", spec.pair),
                        kind=body.get("kind", "result"),
                        detail=body.get("detail", ""),
                    )
                )
    return AuditReport(
        seed=seed,
        budget=budget,
        pairs=pairs,
        cases=cases,
        trial_pairs=trial_pairs,
        divergences=divergences,
        quarantined=quarantined,
    )
