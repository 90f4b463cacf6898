"""Failure-detector framework (Sect. 3.2).

A failure detector ``D`` with range ``R_D`` maps each failure pattern ``F``
to a non-empty set of *histories* ``D(F)``; a history ``H`` assigns a value
``H(p, t)`` to every process and time.

We realize this as two cooperating notions:

* :class:`History` — a concrete assignment of values, queried by the
  simulation whenever a process takes a ``QueryFD`` step.

* :class:`DetectorSpec` — the detector's *specification*: which values may
  eventually be the stable output for a given failure pattern
  (:meth:`DetectorSpec.legal_stable_values`), whether a given stabilized
  history is legal (:meth:`DetectorSpec.validate`), and how to draw a legal
  history at random (:meth:`DetectorSpec.sample_history`).

All detectors studied by the paper are *eventual*: their specifications
constrain only the limit behaviour, so every finite prefix is legal noise.
:class:`StableHistory` captures exactly that shape — arbitrary (seeded)
noise before a stabilization time, a fixed value afterwards — and is what
the samplers return.  The *stable* class of Sect. 6.2 (same value eventually
output at all correct processes) is built into :class:`StableHistory`;
:class:`LocallyStableHistory` models the footnote's weaker variant where
each correct process stabilizes on its own value.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..failures.pattern import FailurePattern
from ..runtime.errors import HistoryError


class History:
    """A failure-detector history ``H : Π × T -> R_D``."""

    def value(self, pid: int, t: int) -> Any:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class ConstantHistory(History):
    """``H(p, t) = d`` for all ``p, t`` — the dummy detector's histories."""

    def __init__(self, value: Any):
        self._value = value

    def value(self, pid: int, t: int) -> Any:
        return self._value

    def describe(self) -> str:
        return f"constant({self._value!r})"


class ScriptedHistory(History):
    """A history given by an explicit table, with a default.

    Useful in tests and in the adversarial constructions where specific
    pre-stabilization outputs matter.
    """

    def __init__(self, table: Mapping[tuple, Any], default: Any):
        self._table = dict(table)
        self._default = default

    def value(self, pid: int, t: int) -> Any:
        return self._table.get((pid, t), self._default)


class StableHistory(History):
    """Noise until ``stabilization_time``, then a fixed ``stable_value``.

    ``noise(pid, t)`` supplies the pre-stabilization output; it must be
    deterministic in ``(pid, t)`` so that replaying a run reproduces the
    same history.  After stabilization every process (correct or not — a
    harmless strengthening, since specs only constrain correct processes)
    sees ``stable_value``.
    """

    def __init__(
        self,
        stable_value: Any,
        stabilization_time: int,
        noise: Callable[[int, int], Any] | None = None,
    ):
        self.stable_value = stable_value
        self.stabilization_time = stabilization_time
        self._noise = noise

    def value(self, pid: int, t: int) -> Any:
        if t >= self.stabilization_time or self._noise is None:
            return self.stable_value
        return self._noise(pid, t)

    def describe(self) -> str:
        return (
            f"stable({self.stable_value!r} from t={self.stabilization_time})"
        )


class LocallyStableHistory(History):
    """Per-process stable values (the "locally stable" footnote of Sect. 6.2).

    Each correct process eventually sticks to its *own* value; different
    processes may stick to different values.
    """

    def __init__(
        self,
        stable_values: Mapping[int, Any],
        stabilization_time: int,
        noise: Callable[[int, int], Any] | None = None,
    ):
        self.stable_values = dict(stable_values)
        self.stabilization_time = stabilization_time
        self._noise = noise

    def value(self, pid: int, t: int) -> Any:
        if t >= self.stabilization_time or self._noise is None:
            return self.stable_values[pid]
        return self._noise(pid, t)


def seeded_noise(seed: int, pool: Sequence[Any]) -> Callable[[int, int], Any]:
    """A deterministic noise function drawing from ``pool``.

    Uses a counter-mode construction: the value at ``(pid, t)`` depends only
    on ``(seed, pid, t)``, so histories replay identically regardless of
    query order.
    """
    if not pool:
        raise HistoryError("noise pool must be non-empty")
    pool = list(pool)

    def noise(pid: int, t: int) -> Any:
        return pool[random.Random(f"{seed}:{pid}:{t}").randrange(len(pool))]

    return noise


class DetectorSpec:
    """Specification of one failure detector.

    Subclasses define the legal stable values per failure pattern and a
    noise pool; this base class supplies sampling and validation on top.
    """

    #: Short name used in experiment reports.
    name: str = "D"

    # -- to be provided by subclasses ---------------------------------------

    def legal_stable_values(self, pattern: FailurePattern) -> Iterable[Any]:
        """All values on which a history for ``pattern`` may stabilize."""
        raise NotImplementedError

    def noise_pool(self, pattern: FailurePattern) -> Sequence[Any]:
        """Values the pre-stabilization noise may draw from (default: range
        values that are legal stable values for *some* pattern — eventual
        detectors put no constraint on finite prefixes)."""
        return list(self.legal_stable_values(pattern))

    # -- derived -------------------------------------------------------------

    def is_legal_stable_value(self, pattern: FailurePattern, value: Any) -> bool:
        return any(value == legal for legal in self.legal_stable_values(pattern))

    def validate(self, history: History, pattern: FailurePattern) -> None:
        """Check that a stabilized history is in ``D(F)``.

        Only structured histories (:class:`StableHistory`,
        :class:`ConstantHistory`) can be checked exactly; scripted ones
        are checked empirically by the tests instead.
        """
        if isinstance(history, StableHistory):
            if not self.is_legal_stable_value(pattern, history.stable_value):
                raise HistoryError(
                    f"{self.name}: {history.stable_value!r} is not a legal "
                    f"stable value for pattern [{pattern.describe()}]"
                )
            return
        if isinstance(history, ConstantHistory):
            value = history.value(0, 0)
            if not self.is_legal_stable_value(pattern, value):
                raise HistoryError(
                    f"{self.name}: constant {value!r} illegal for pattern "
                    f"[{pattern.describe()}]"
                )
            return
        raise HistoryError(
            f"cannot statically validate a {history.describe()}"
        )

    def sample_history(
        self,
        pattern: FailurePattern,
        rng: random.Random,
        stabilization_time: int = 0,
        stable_value: Any = None,
    ) -> StableHistory:
        """Draw a legal history: adversary-chosen (or given) stable value
        after ``stabilization_time``, seeded noise before."""
        legal = list(self.legal_stable_values(pattern))
        if not legal:
            raise HistoryError(
                f"{self.name} has no legal stable value for "
                f"[{pattern.describe()}]"
            )
        if stable_value is None:
            stable_value = legal[rng.randrange(len(legal))]
        elif not self.is_legal_stable_value(pattern, stable_value):
            raise HistoryError(
                f"{self.name}: requested stable value {stable_value!r} "
                f"illegal for [{pattern.describe()}]"
            )
        noise = None
        if stabilization_time > 0:
            noise = seeded_noise(rng.randrange(2**31), self.noise_pool(pattern))
        return StableHistory(stable_value, stabilization_time, noise)

    def sample_locally_stable_history(
        self,
        pattern: FailurePattern,
        rng: random.Random,
        stabilization_time: int = 0,
    ) -> LocallyStableHistory:
        """Draw a *locally stable* history (Sect. 6.2, footnote): each
        process independently sticks to its own legal stable value."""
        legal = list(self.legal_stable_values(pattern))
        if not legal:
            raise HistoryError(
                f"{self.name} has no legal stable value for "
                f"[{pattern.describe()}]"
            )
        pool = self.noise_pool(pattern)
        values = {
            pid: legal[rng.randrange(len(legal))]
            for pid in pattern.system.pids
        }
        noise = None
        if stabilization_time > 0:
            noise = seeded_noise(rng.randrange(2**31), pool)
        return LocallyStableHistory(values, stabilization_time, noise)


def powerset_nonempty(pids: Sequence[int]) -> Iterable[frozenset[int]]:
    """All non-empty subsets of ``pids`` (2^Π − {∅})."""
    import itertools

    for size in range(1, len(pids) + 1):
        for combo in itertools.combinations(pids, size):
            yield frozenset(combo)
