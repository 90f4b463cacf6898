"""Replayable counterexample bundles.

A :class:`Counterexample` packs everything needed to reproduce a
violation found by the explorer — the instance descriptor (protocol
family, participants, crash pattern, stable value, noise seed) and the
explicit schedule — plus the recorded trace for byte-for-byte
comparison.  The bundle:

* **replays deterministically**: :meth:`Counterexample.replay` rebuilds
  the instance's simulation from the descriptor and drives it with
  ``Simulation.step``; :meth:`Counterexample.verify` asserts the replay
  reproduces the *same* violation at the *same* step (and, when a trace
  was captured, the identical trace through
  :func:`repro.analysis.trace_io.trace_to_dict`);
* **round-trips** through JSON via :meth:`to_dict`/:meth:`from_dict` and
  :meth:`save`/:meth:`load`, reusing the trace_io value encoding (``⊥``
  and frozensets included);
* **auto-shrinks** via
  :func:`repro.analysis.stress.minimize_schedule` — the explorer hands
  over whatever schedule DFS stumbled on; :meth:`shrink` delta-debugs it
  down to a 1-minimal reproduction of the same violation.

Violation kinds:

* ``"property"`` — a :mod:`repro.tasks.properties` adapter reported a
  reason; ``step`` is the schedule position after which it fired.
* ``"error"`` — stepping the final pid raised
  :class:`~repro.runtime.errors.ReproError` (e.g. the engine's
  crashed-process guard); the schedule *includes* that failing step.
* ``"no-termination"`` — a depth-bounded branch of a run that was
  required to make progress; the schedule is the exhausted branch.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, IO, List, Mapping, Optional, Tuple, Union

from ..analysis.stress import minimize_schedule
from ..analysis.trace_io import trace_from_dict, trace_to_dict
from ..runtime.errors import ReproError
from ..runtime.simulation import Simulation
from ..runtime.trace import Trace
from .instances import (
    McInstance,
    build_simulation,
    instance_properties,
    resolve_instance,
)


@dataclasses.dataclass
class ReplayOutcome:
    """What one replay of a schedule produced."""

    kind: str  # "property" | "error" | "none"
    prop: Optional[str]
    reason: Optional[str]
    step: int
    #: No process was left to schedule when the replay stopped.
    quiescent: bool
    sim: Simulation


@dataclasses.dataclass
class Counterexample:
    """A self-contained, replayable violation witness."""

    instance: McInstance
    schedule: Tuple[int, ...]
    kind: str
    prop: Optional[str]
    reason: str
    step: int
    trace: Optional[Trace] = None

    # -- construction --------------------------------------------------------

    @classmethod
    def from_violation(cls, instance: McInstance, violation) -> "Counterexample":
        """Bundle an explorer violation (``RawViolation`` duck type)."""
        instance = resolve_instance(instance)
        schedule = tuple(violation.schedule)
        return cls(
            instance=instance,
            schedule=schedule,
            kind=violation.kind,
            prop=violation.prop,
            reason=violation.reason,
            step=violation.step,
            trace=_capture_trace(instance, schedule),
        )

    @classmethod
    def from_schedule(
        cls, instance: McInstance, schedule, properties=None
    ) -> "Counterexample":
        """Bundle whatever violation replaying ``schedule`` produces.

        Raises ``ValueError`` if the schedule does not violate anything —
        a counterexample must witness a failure.
        """
        instance = resolve_instance(instance)
        outcome = _replay(instance, tuple(schedule), properties)
        if outcome.kind == "none":
            raise ValueError(
                "schedule replays cleanly; not a counterexample"
            )
        trimmed = tuple(schedule)[: outcome.step]
        return cls(
            instance=instance,
            schedule=trimmed,
            kind=outcome.kind,
            prop=outcome.prop,
            reason=outcome.reason or "",
            step=outcome.step,
            trace=_capture_trace(instance, trimmed),
        )

    # -- replay --------------------------------------------------------------

    def replay(self) -> ReplayOutcome:
        """Re-execute the schedule on a freshly built instance."""
        return _replay(self.instance, self.schedule)

    def verify(self) -> bool:
        """Does a fresh replay reproduce this exact violation?

        Checks kind, property, reason, and failing step; when a trace was
        captured, additionally requires the replayed trace to serialize
        identically (byte-for-byte determinism).
        """
        outcome = self.replay()
        if self.kind == "no-termination":
            # The branch must replay cleanly to its full length without
            # quiescing — the depth bound, not the run, ended it.
            ok = (
                outcome.kind == "none"
                and not outcome.quiescent
                and outcome.step == len(self.schedule)
            )
        else:
            ok = (
                outcome.kind == self.kind
                and outcome.prop == self.prop
                and outcome.reason == self.reason
                and outcome.step == self.step
            )
        if ok and self.trace is not None:
            ok = trace_to_dict(outcome.sim.trace) == trace_to_dict(self.trace)
        return ok

    # -- shrinking -----------------------------------------------------------

    def shrink(self) -> "Counterexample":
        """Delta-debug the schedule to a 1-minimal reproduction.

        Returns ``self`` when the violation kind cannot be expressed as a
        replay predicate (``no-termination``) or the schedule is already
        minimal.  The shrunk bundle witnesses the *same* property and
        reason; its failing step may move earlier.
        """
        if self.kind == "no-termination" or len(self.schedule) <= 1:
            return self
        instance = self.instance
        make_sim = lambda: build_simulation(instance)  # noqa: E731
        if self.kind == "error":
            # minimize_schedule treats raising replays as non-reproducing,
            # so split off the step that raises: minimize the body, with a
            # predicate that replays the failing pid on top and demands
            # the identical error.
            body, failing = list(self.schedule[:-1]), self.schedule[-1]

            def raises_same(sim: Simulation) -> bool:
                try:
                    sim.step(failing)
                except ReproError as exc:
                    return str(exc) == self.reason
                return False

            if not body:
                return self
            try:
                minimal_body = minimize_schedule(make_sim, body, raises_same)
            except ValueError:
                return self
            # An empty body may also reproduce; minimize_schedule never
            # returns one, so probe it directly.
            if raises_same(make_sim()):
                minimal_body = []
            schedule = tuple(minimal_body) + (failing,)
            if schedule == self.schedule:
                return self
            return dataclasses.replace(
                self,
                schedule=schedule,
                step=len(schedule),
                trace=_capture_trace(instance, schedule),
            )
        # Property violation: re-evaluate the named adapter on the
        # replayed end state (check_run — the whole-run view).
        adapter = _find_adapter(instance, self.prop)
        if adapter is None:
            return self

        def still_violates(sim: Simulation) -> bool:
            return adapter.check_run(sim) is not None

        try:
            minimal = minimize_schedule(
                make_sim, list(self.schedule), still_violates
            )
        except ValueError:
            return self
        if tuple(minimal) == self.schedule:
            return self
        try:
            return self.from_schedule(instance, minimal, [adapter])
        except ValueError:
            return self  # paranoia: keep the original witness

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "instance": self.instance.to_dict(),
            "schedule": list(self.schedule),
            "kind": self.kind,
            "prop": self.prop,
            "reason": self.reason,
            "step": self.step,
        }
        if self.trace is not None:
            body["trace"] = trace_to_dict(self.trace)
        return body

    @classmethod
    def from_dict(cls, body: Mapping[str, Any]) -> "Counterexample":
        trace = body.get("trace")
        return cls(
            instance=McInstance.from_dict(body["instance"]),
            schedule=tuple(body["schedule"]),
            kind=body["kind"],
            prop=body.get("prop"),
            reason=body["reason"],
            step=body["step"],
            trace=trace_from_dict(trace) if trace is not None else None,
        )

    def save(self, destination: Union[str, IO[str]]) -> None:
        if isinstance(destination, str):
            with open(destination, "w", encoding="utf-8") as handle:
                json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
        else:
            json.dump(self.to_dict(), destination, indent=2, sort_keys=True)

    @classmethod
    def load(cls, source: Union[str, IO[str]]) -> "Counterexample":
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as handle:
                return cls.from_dict(json.load(handle))
        return cls.from_dict(json.load(source))

    def describe(self) -> str:
        what = self.prop or self.kind
        return (
            f"{self.instance.describe()}: {what} violated at step "
            f"{self.step}/{len(self.schedule)} — {self.reason}"
        )


# -- helpers ------------------------------------------------------------------


def _find_adapter(instance: McInstance, name: Optional[str]):
    for adapter in instance_properties(instance):
        if adapter.name == name:
            return adapter
    return None


def _capture_trace(
    instance: McInstance, schedule: Tuple[int, ...]
) -> Optional[Trace]:
    """The trace a replay records (including a final raising step's none)."""
    sim = build_simulation(instance)
    try:
        sim.run_script(schedule)
    except ReproError:
        pass  # an "error"-kind schedule ends in the raising step
    return sim.trace


def _replay(
    instance: McInstance,
    schedule: Tuple[int, ...],
    properties=None,
) -> ReplayOutcome:
    """Drive a fresh simulation through ``schedule``, watching properties."""
    adapters = (
        list(properties)
        if properties is not None
        else instance_properties(instance)
    )
    sim = build_simulation(instance)
    executed = 0
    for pid in schedule:
        try:
            record = sim.step(pid)
        except ReproError as exc:
            return ReplayOutcome(
                "error", None, str(exc), executed + 1, False, sim
            )
        executed += 1
        for adapter in adapters:
            reason = adapter.on_step(sim, record)
            if reason:
                return ReplayOutcome(
                    "property", adapter.name, reason, executed, False, sim
                )
    quiescent = not sim.eligible()
    if quiescent:
        for adapter in adapters:
            reason = adapter.at_terminal(sim)
            if reason:
                return ReplayOutcome(
                    "property", adapter.name, reason, executed, True, sim
                )
    return ReplayOutcome("none", None, None, executed, quiescent, sim)
