"""Decision tasks: k-set agreement, consensus, k-converge, and the
verdict every checker judges a finished run with."""

from .base import TaskSpec, Verdict, Violation
from .converge import ConvergeSpec
from .properties import decision_verdict
from .set_agreement import ConsensusSpec, SetAgreementSpec

__all__ = [
    "ConsensusSpec",
    "ConvergeSpec",
    "SetAgreementSpec",
    "TaskSpec",
    "Verdict",
    "Violation",
    "decision_verdict",
]
