"""Chaos configuration: one frozen knob set shared by every injector.

All of the paper's guarantees are *eventual*, which is exactly what makes
aggressive fault injection spec-conformant: a detector may output
arbitrary garbage for any finite prefix (Sect. 3.2), the schedule may be
arbitrarily unfair for any finite prefix (run requirement 5 constrains
only the limit), and the ABD substrate tolerates any message delay.  The
knobs below parameterize those three adversaries; each stays inside the
model on purpose, so a property violation under chaos is a real bug, not
an artifact of leaving the model.

``ChaosConfig`` is a frozen primitives-only dataclass so it can ride
inside a picklable trial spec and hash into a stable cache key.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict

#: The severity knobs; a trial announces each non-zero one at t=0.
KNOBS = ("lying_prefix", "drop_rate", "duplicate_rate", "reorder_rate",
         "burst_length", "starvation_window")


@dataclasses.dataclass(frozen=True)
class ChaosConfig:
    """Severity knobs for the three injectors.

    Parameters
    ----------
    seed:
        Drives every chaos draw.  Chaos randomness is deliberately kept
        on RNG streams separate from the engine's, so ``ChaosConfig()``
        (all knobs off) reproduces the ``chaos=None`` run bit-for-bit.
    lying_prefix:
        Detector adversary — steps during which the wrapped history may
        output arbitrary range values (including the worst-case lie)
        before reverting to its legal stable behaviour.
    drop_rate, duplicate_rate, reorder_rate:
        Network adversary — per-message probabilities, applied only
        within the ABD safety envelope (see
        :class:`repro.chaos.network.FaultyNetwork`).
    reorder_jitter:
        Extra delivery delay (in steps, uniform ``1..reorder_jitter``)
        for messages selected by ``reorder_rate``.
    burst_length:
        Scheduler adversary — length of "only this process runs" bursts.
    starvation_window:
        Scheduler adversary — length of "this process never runs"
        windows.
    fairness_bound:
        Hard cap on how long any eligible process may go unscheduled;
        the perturbing scheduler preempts its own mischief to honour it
        (run requirement 5 in finite form).
    """

    seed: int = 0
    lying_prefix: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    reorder_jitter: int = 4
    burst_length: int = 0
    starvation_window: int = 0
    fairness_bound: int = 64

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "reorder_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        for name in ("lying_prefix", "reorder_jitter", "burst_length",
                     "starvation_window"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.fairness_bound < 1:
            raise ValueError("fairness_bound must be >= 1")
        if self.burst_length >= self.fairness_bound:
            raise ValueError(
                f"burst_length {self.burst_length} would violate the "
                f"fairness bound {self.fairness_bound}"
            )
        if self.starvation_window >= self.fairness_bound:
            raise ValueError(
                f"starvation_window {self.starvation_window} would violate "
                f"the fairness bound {self.fairness_bound}"
            )

    @property
    def any_active(self) -> bool:
        """True when at least one injector has a non-zero knob."""
        return any(getattr(self, knob) for knob in KNOBS)

    @classmethod
    def max_severity(cls, seed: int = 0) -> "ChaosConfig":
        """The harshest configuration the safety envelope supports.

        Rates at 1.0 mean "every message the envelope allows to be
        faulted is faulted"; the envelope itself (never drop quorum-
        critical acks, never fake quorums with duplicates, bounded
        unfairness) is what keeps even this configuration inside the
        paper's model.
        """
        return cls(
            seed=seed,
            lying_prefix=150,
            drop_rate=1.0,
            duplicate_rate=1.0,
            reorder_rate=1.0,
            reorder_jitter=6,
            burst_length=12,
            starvation_window=12,
            fairness_bound=48,
        )

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ChaosConfig":
        return cls(**data)


def announce(bus, chaos: ChaosConfig) -> None:
    """Publish one ``ChaosInjected(0, knob, setting)`` per active knob."""
    from ..obs.events import ChaosInjected

    if bus is None or not bus.active:
        return
    for knob in KNOBS:
        setting = getattr(chaos, knob)
        if setting:
            bus.publish(ChaosInjected(0, knob, str(setting)))


def injection_counts(metrics: Dict[str, Any]) -> Dict[str, int]:
    """What the injectors did in one trial, read from the trial's metrics
    snapshot (the network and the scheduler publish every fault)."""
    counters = metrics["counters"]

    def total(name: str) -> int:
        return sum(counters.get(name, {}).values())

    perturbations = counters.get("chaos_injections", {})
    return {
        "messages_dropped": total("messages_dropped"),
        "messages_duplicated": total("messages_duplicated"),
        "messages_delayed": total("messages_delayed"),
        "bursts": perturbations.get("burst", 0),
        "starvations": perturbations.get("starvation", 0),
    }
