"""Differential audit: the same trial by different paths must agree.

The engine makes several silent equivalence promises — serial and
parallel execution interchangeable, the cache invisible, ABD registers
indistinguishable from shared memory at the contract level, replays
faithful, zero-severity chaos free.  This package makes each promise an
executable oracle (:mod:`repro.audit.oracles`), fuzzes them with seeded
random cases (:mod:`repro.audit.fuzz`), and renders any break as a
structured, shrunken, replayable counterexample
(:mod:`repro.audit.diff`).  ``python -m repro audit`` drives it; exit
code ``4`` means an equivalence broke and a report was written.
"""

from .diff import (
    Divergence,
    diff_result_fields,
    first_trace_divergence,
    shrink_replay_schedule,
)
from .fuzz import AuditReport, plan_audit, run_audit
from .oracles import ORACLE_PAIRS, PAIRS_PER_CASE, CaseOutcome, run_case
from .runner import AuditOutcome, AuditTrialSpec, run_audit_trial

__all__ = [
    "AuditOutcome",
    "AuditReport",
    "AuditTrialSpec",
    "CaseOutcome",
    "Divergence",
    "ORACLE_PAIRS",
    "PAIRS_PER_CASE",
    "diff_result_fields",
    "first_trace_divergence",
    "plan_audit",
    "run_audit",
    "run_audit_trial",
    "run_case",
    "shrink_replay_schedule",
]
