"""The paper's failure detectors Υ and Υf (Sect. 4 and 5.3).

Υ outputs a non-empty set of processes (range ``2^Π − {∅}``) such that, for
every failure pattern ``F`` and history ``H ∈ Υ(F)``, eventually:

1. the same set ``U`` is permanently output at all correct processes, and
2. ``U ≠ correct(F)``.

Υf additionally requires ``|U| ≥ n + 1 − f`` (range
``{U ⊆ Π : |U| ≥ n + 1 − f}``); Υ is ``Υ^n``.

The one forbidden stable value — the exact correct set — is what makes
Υ non-trivial: an asynchronous implementation could never risk outputting
a *wrong* set permanently, and every other fixed set is wrong for *some*
pattern (see Theorem 10's machinery in :mod:`repro.core.samples`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Iterable, Sequence, Tuple

from ..failures.environment import Environment
from ..failures.pattern import FailurePattern
from ..runtime.process import System
from .base import DetectorSpec, powerset_nonempty


@lru_cache(maxsize=64)
def _upsilon_range(n_processes: int, min_size: int) -> Tuple[frozenset, ...]:
    """``{U ⊆ Π : |U| ≥ min_size}`` for ``Π = 0..n_processes-1``, cached.

    Specs are rebuilt per trial but the range depends only on ``(|Π|,
    n + 1 − f)``; sweeps re-enumerate it thousands of times.
    """
    return tuple(
        s
        for s in powerset_nonempty(list(range(n_processes)))
        if len(s) >= min_size
    )


class UpsilonFSpec(DetectorSpec):
    """Υf over environment ``E_f``.

    Parameters
    ----------
    environment:
        Fixes the system and the resilience ``f``; the minimum output-set
        size is ``environment.min_correct = n + 1 − f``.
    """

    def __init__(self, environment: Environment):
        self.environment = environment
        self.system = environment.system
        self.f = environment.f
        self.name = f"Υ^{self.f}"

    @property
    def min_size(self) -> int:
        """The minimum cardinality ``n + 1 − f`` of any output."""
        return self.environment.min_correct

    def range_values(self) -> Iterable[frozenset[int]]:
        """``R_{Υf} = {U ⊆ Π : |U| ≥ n + 1 − f}`` (non-empty by size)."""
        return _upsilon_range(self.system.n_processes, self.min_size)

    def legal_stable_values(
        self, pattern: FailurePattern
    ) -> Iterable[frozenset[int]]:
        """Every range value except the exact correct set."""
        correct = pattern.correct
        for s in self.range_values():
            if s != correct:
                yield s

    def noise_pool(self, pattern: FailurePattern) -> Sequence[Any]:
        # Pre-stabilization output is unconstrained within the range: the
        # noise may even (temporarily) be the correct set itself.
        return _upsilon_range(self.system.n_processes, self.min_size)

    def is_legal_stable_value(self, pattern: FailurePattern, value: Any) -> bool:
        if not isinstance(value, frozenset):
            value = frozenset(value)
        return (
            bool(value)
            and value <= self.system.pid_set
            and len(value) >= self.min_size
            and value != pattern.correct
        )


class UpsilonSpec(UpsilonFSpec):
    """Υ — the wait-free instance ``Υ^n`` (any non-empty set allowed)."""

    def __init__(self, system: System):
        super().__init__(Environment.wait_free(system))
        self.name = "Υ"
