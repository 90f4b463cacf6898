"""Property adapters — task specifications as exploration observers.

The explorer calls back into a small hook protocol:

* :meth:`PropertyAdapter.on_step` after every executed step (safety along
  the path);
* :meth:`PropertyAdapter.at_terminal` on quiescent states (no process
  left to schedule);
* :meth:`PropertyAdapter.at_horizon` when the depth bound cuts a branch;
* :meth:`PropertyAdapter.check_run` on a stopped simulation — the whole-run
  re-evaluation used by counterexample shrinking, where the minimizer can
  only look at the replayed end state.

Each hook returns ``None`` (property holds) or a human-readable reason
string (violation).  Adapters cover the task specs the benches already
check — k-set agreement/validity/termination for Fig. 1/Fig. 2, the
C-properties of k-converge, and the Υf output-range condition for the
Fig. 3 extraction.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Optional

from ..runtime.ops import Decide, Emit
from ..runtime.simulation import Simulation
from ..runtime.trace import StepRecord


class PropertyAdapter:
    """Base adapter: every hook passes by default."""

    name: str = "property"

    def on_step(
        self, sim: Simulation, record: StepRecord
    ) -> Optional[str]:
        return None

    def at_terminal(self, sim: Simulation) -> Optional[str]:
        return None

    def at_horizon(self, sim: Simulation) -> Optional[str]:
        return None

    def check_run(self, sim: Simulation) -> Optional[str]:
        """Evaluate on a stopped simulation (used by shrinking)."""
        return self.at_terminal(sim)


class AgreementProperty(PropertyAdapter):
    """At most ``k`` distinct decision values (k-set agreement)."""

    def __init__(self, k: int):
        self.k = k
        self.name = f"{k}-agreement"

    def _check(self, sim: Simulation) -> Optional[str]:
        values = set(sim.decisions().values())
        if len(values) > self.k:
            listing = ", ".join(sorted(repr(v) for v in values))
            return f"{len(values)} distinct decisions ({listing}) > k={self.k}"
        return None

    def on_step(self, sim, record):
        if type(record.op) is Decide:
            return self._check(sim)
        return None

    def at_terminal(self, sim):
        return self._check(sim)

    def check_run(self, sim):
        return self._check(sim)


class ValidityProperty(PropertyAdapter):
    """Every decision was some process's input."""

    name = "validity"

    def __init__(self, inputs: Mapping[int, Any]):
        self.allowed = set(inputs.values())

    def _bad(self, value: Any) -> Optional[str]:
        if value not in self.allowed:
            return f"decided {value!r}, which no process proposed"
        return None

    def on_step(self, sim, record):
        if type(record.op) is Decide:
            return self._bad(record.op.value)
        return None

    def at_terminal(self, sim):
        return self.check_run(sim)

    def check_run(self, sim):
        for value in sim.decisions().values():
            reason = self._bad(value)
            if reason:
                return reason
        return None


class TerminationProperty(PropertyAdapter):
    """A quiescent run must have every correct process decided."""

    name = "termination"

    def at_terminal(self, sim):
        undecided = [
            r.pid for r in sim.correct_runtimes() if not r.has_decided
        ]
        if undecided:
            return (
                f"run quiescent at t={sim.time} with undecided correct "
                f"processes {undecided}"
            )
        return None

    def check_run(self, sim):
        if sim.eligible():
            return None  # not quiescent: nothing to conclude
        return self.at_terminal(sim)


class ConvergeAgreementProperty(PropertyAdapter):
    """C-Agreement: a commit bounds the distinct picks by ``k``.

    Decisions are the ``(picked, committed)`` pairs a converge-driver
    protocol decides with.
    """

    def __init__(self, k: int):
        self.k = k
        self.name = f"c-agreement(k={k})"

    def _check(self, sim: Simulation) -> Optional[str]:
        decisions = sim.decisions()
        picks = {picked for (picked, _) in decisions.values()}
        if any(committed for (_, committed) in decisions.values()) \
                and len(picks) > self.k:
            listing = ", ".join(sorted(repr(v) for v in picks))
            return (
                f"a process committed yet {len(picks)} distinct values "
                f"were picked ({listing}) > k={self.k}"
            )
        return None

    def on_step(self, sim, record):
        if type(record.op) is Decide:
            return self._check(sim)
        return None

    def at_terminal(self, sim):
        return self._check(sim)

    def check_run(self, sim):
        return self._check(sim)


class ConvergeValidityProperty(PropertyAdapter):
    """C-Validity: every pick was some process's converge input."""

    name = "c-validity"

    def __init__(self, inputs: Mapping[int, Any]):
        self.allowed = set(inputs.values())

    def _check(self, sim: Simulation) -> Optional[str]:
        for picked, _ in sim.decisions().values():
            if picked not in self.allowed:
                return f"picked {picked!r}, which no process input"
        return None

    def on_step(self, sim, record):
        if type(record.op) is Decide:
            return self._check(sim)
        return None

    def at_terminal(self, sim):
        return self._check(sim)

    def check_run(self, sim):
        return self._check(sim)


class UpsilonOutputProperty(PropertyAdapter):
    """Range condition on emitted Υf outputs (Fig. 3 extraction).

    Every ``Emit`` must publish a non-empty subset of Π of size at least
    ``n + 1 − f``.  The *eventual* conditions (stability, and the output
    differing from ``correct(F)``) are not safety properties a bounded
    exploration can refute; they stay with the statistical benches.
    """

    def __init__(self, pid_set: frozenset, min_size: int = 1):
        self.pid_set = frozenset(pid_set)
        self.min_size = min_size
        self.name = f"upsilon-range(min={min_size})"

    def _bad(self, value: Any) -> Optional[str]:
        try:
            output = frozenset(value)
        except TypeError:
            return f"emitted non-set output {value!r}"
        if not output:
            return "emitted the empty set"
        if not output <= self.pid_set:
            return f"emitted {sorted(output)} ⊄ Π={sorted(self.pid_set)}"
        if len(output) < self.min_size:
            return (
                f"emitted {sorted(output)} with |U|={len(output)} < "
                f"n+1−f={self.min_size}"
            )
        return None

    def on_step(self, sim, record):
        # ``isinstance``, as the engine records it: an ``Emit`` subclass
        # is an emit output too.
        if isinstance(record.op, Emit):
            return self._bad(record.op.value)
        return None

    def check_run(self, sim):
        for output in sim.trace.outputs:
            if output.kind == "emit":
                reason = self._bad(output.value)
                if reason:
                    return reason
        return None

    def at_terminal(self, sim):
        return self.check_run(sim)


class CallbackProperty(PropertyAdapter):
    """Wrap an assertion-style callback as a terminal-state property.

    The callback receives the finished simulation and raises
    ``AssertionError`` on violation — the shape the old
    ``explore_all_schedules`` test helper used.
    """

    def __init__(self, callback: Callable[[Simulation], None],
                 name: str = "callback"):
        self.callback = callback
        self.name = name

    def at_terminal(self, sim):
        try:
            self.callback(sim)
        except AssertionError as exc:
            return str(exc) or "assertion failed"
        return None

    def check_run(self, sim):
        return self.at_terminal(sim)


def default_property_names(properties: Iterable[PropertyAdapter]) -> list:
    """The adapter names, in order (report/CLI helper)."""
    return [prop.name for prop in properties]
