"""Problems as sets of traces (Sect. 3.4).

A problem specifies the permitted input/output sequences given the failure
pattern.  We realize decision problems as :class:`TaskSpec` objects that
*check* a finished simulation: each property (Validity, Agreement,
Termination) is verified on the recorded trace, never inside protocol code,
so a buggy protocol cannot self-certify.  A spec names its properties as
:mod:`repro.tasks.properties` adapters, the same objects the model checker
observes runs with and every seeded trial is judged by.

All problems in this library are closed under indistinguishability (the
checks depend on the failure pattern only through ``correct(F)``), matching
the paper's standing assumption.
"""

from __future__ import annotations

import dataclasses
from typing import Any, List, Mapping

from ..runtime.simulation import Simulation
from .properties import PropertyAdapter, TerminationProperty, decision_verdict


@dataclasses.dataclass
class Violation:
    """One property violation found while checking a run."""

    prop: str
    detail: str

    def __str__(self) -> str:
        return f"{self.prop}: {self.detail}"


@dataclasses.dataclass
class Verdict:
    """The outcome of checking one run against a task spec."""

    task: str
    violations: List[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_failed(self) -> "Verdict":
        if not self.ok:
            lines = "; ".join(str(v) for v in self.violations)
            raise AssertionError(f"{self.task} violated — {lines}")
        return self


class TaskSpec:
    """Base class for decision-task specifications."""

    name: str = "task"

    def safety_properties(
        self, inputs: Mapping[int, Any]
    ) -> List[PropertyAdapter]:
        """The task's safety properties for a run with ``inputs``."""
        raise NotImplementedError

    def properties(self, inputs: Mapping[int, Any]) -> List[PropertyAdapter]:
        """Every property of the task: its safety properties, then
        Termination."""
        return [*self.safety_properties(inputs), TerminationProperty()]

    def check(
        self,
        sim: Simulation,
        inputs: Mapping[int, Any],
        require_termination: bool = True,
    ) -> Verdict:
        """Check a finished simulation; returns a :class:`Verdict` with one
        :class:`Violation` per broken property."""
        properties = (
            self.properties(inputs) if require_termination
            else self.safety_properties(inputs)
        )
        return Verdict(self.name, [
            Violation(prop.prop, reason)
            for prop, reason in decision_verdict(sim, properties)
        ])
