"""Chaos layer: spec-conformant fault injection for every substrate.

The paper's guarantees are *eventual* (Sect. 3.2, run requirement 5), so
a finite prefix of arbitrary detector output, message faults within the
ABD safety envelope, and bounded scheduler unfairness are all inside the
model — a property violation under chaos is a real bug.  Three injectors,
one knob set:

* :mod:`repro.chaos.detectors` — :class:`LyingHistory`, worst-case-biased
  detector prefixes in front of any legal history, composable over
  Υ/Υf/Ω/Ωk via :func:`chaotic_history`;
* :mod:`repro.chaos.network` — :class:`FaultyNetwork`, seeded
  drop/duplicate/reorder with an explicit ABD safety envelope;
* :mod:`repro.chaos.scheduler` — :class:`ChaosScheduler`, adversarial
  bursts and starvation windows under a hard fairness bound.

The trial drivers of :mod:`repro.analysis.runner` install all three
when a trial spec carries ``chaos=ChaosConfig(...)`` — a chaotic trial is
the ordinary Fig. 1/2/3 or ABD k-converge trial with a lying history, a
perturbed schedule and a faulty network; ``python -m repro sweep chaos``
is the CLI front end.

:mod:`repro.chaos.infra` turns the same discipline on the experiment
infrastructure itself — seeded ``database is locked`` storms, torn-process
kills at store barriers, cache ENOSPC, ledger tears — with
:class:`CrashConsistencyChecker` proving the farm's exactly-once
invariants under every plan; ``python -m repro chaos infra`` drives it.
"""

from .config import ChaosConfig, announce, injection_counts
from .detectors import LyingHistory, chaotic_history, worst_lie
from .infra import (
    KILL_BARRIERS,
    CrashConsistencyChecker,
    CrashConsistencyReport,
    FaultyCache,
    FaultyStore,
    InfraFaultPlan,
    InfraInjector,
    InfraViolation,
    SimulatedPowerCut,
    check_store_invariants,
    tear_ledger_tail,
)
from .network import FaultyNetwork, quorum_critical
from .scheduler import ChaosScheduler

__all__ = [
    "ChaosConfig",
    "ChaosScheduler",
    "CrashConsistencyChecker",
    "CrashConsistencyReport",
    "FaultyCache",
    "FaultyNetwork",
    "FaultyStore",
    "InfraFaultPlan",
    "InfraInjector",
    "InfraViolation",
    "KILL_BARRIERS",
    "LyingHistory",
    "SimulatedPowerCut",
    "announce",
    "chaotic_history",
    "check_store_invariants",
    "injection_counts",
    "quorum_critical",
    "tear_ledger_tail",
    "worst_lie",
]
