"""The k-converge task (Sect. 5.1) over traces: a protocol that runs
``k``-converge decides the ``(picked, committed)`` pair the call returned
(:mod:`repro.core.converge`)."""

from __future__ import annotations

from typing import Any, List, Mapping

from .base import TaskSpec
from .properties import (
    ConvergeAgreementProperty,
    ConvergeValidityProperty,
    PropertyAdapter,
)


class ConvergeSpec(TaskSpec):
    """C-Termination, C-Agreement and C-Validity of k-converge."""

    def __init__(self, k: int):
        self.k = k
        self.name = f"{k}-converge"

    def safety_properties(
        self, inputs: Mapping[int, Any]
    ) -> List[PropertyAdapter]:
        return [ConvergeAgreementProperty(self.k),
                ConvergeValidityProperty(inputs)]
