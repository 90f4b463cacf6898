"""Adversarial-but-legal detector histories (the lying prefix).

Sect. 3.2 defines all of the paper's detectors as *eventual*: a history is
in ``D(F)`` as soon as its limit behaviour is right, so any finite prefix
of arbitrary range values is legal.  :class:`LyingHistory` exploits that
to the hilt — before ``lie_until`` it outputs a seeded mix of the *worst
case* value for the wrapped detector and plain noise; from ``lie_until``
on it defers to the legal history it wraps (the one the trial driver
sampled anyway).

The worst case is detector-specific but derivable from the spec alone:

* for Υ/Υf the most damaging transient output is the correct set itself
  (the one value the spec forbids as a *limit* — Fig. 1's termination
  argument is precisely about surviving it transiently);
* for leader-style detectors (Ω, Ωk) the damage is a crashed or rotating
  leader; the noise pool already contains every such value.

Because the wrapper only ever emits values from ``spec.noise_pool`` before
``lie_until`` and delegates afterwards, the composed history is in
``D(F)`` for every detector in the registry — chaos composes over
Υ/Υf/Ω/Ωk without per-detector code.
"""

from __future__ import annotations

import random
from typing import Any, Optional

from ..detectors.base import DetectorSpec, History, seeded_noise
from ..failures.pattern import FailurePattern
from .config import ChaosConfig


class LyingHistory(History):
    """Arbitrary (seeded) output before ``lie_until``, ``inner`` after.

    ``lie(pid, t)`` must be deterministic in ``(pid, t)`` — same contract
    as :class:`~repro.detectors.base.StableHistory` noise — so chaotic
    runs replay identically.
    """

    def __init__(self, inner: History, lie, lie_until: int):
        self.inner = inner
        self.lie_until = lie_until
        self._lie = lie

    @property
    def stable_value(self) -> Any:
        """Delegates to the wrapped history (analysis code reads this)."""
        return self.inner.stable_value  # type: ignore[attr-defined]

    def value(self, pid: int, t: int) -> Any:
        if t < self.lie_until:
            return self._lie(pid, t)
        return self.inner.value(pid, t)

    def describe(self) -> str:
        return f"lying(until t={self.lie_until}, then {self.inner.describe()})"


def worst_lie(spec: DetectorSpec, pattern: FailurePattern) -> Optional[Any]:
    """The most adversarial single range value for ``spec`` under
    ``pattern``, or ``None`` when the noise pool has no distinguished
    worst case.

    Showing exactly ``correct(F)`` maximally stalls the Υ protocols (no
    process can tell the lie from a stabilized output about itself), and
    pointing at a crashed process is the classic Ω-style lie.
    """
    pool = list(spec.noise_pool(pattern))
    correct = frozenset(pattern.correct)
    if correct in pool:
        return correct
    for faulty in sorted(pattern.faulty):
        if faulty in pool:
            return faulty
        if frozenset((faulty,)) in pool:
            return frozenset((faulty,))
    return None


def chaotic_history(
    spec: DetectorSpec,
    pattern: FailurePattern,
    chaos: ChaosConfig,
    inner: History,
) -> LyingHistory:
    """``inner`` (a legal history for ``spec``) behind a
    ``chaos.lying_prefix`` lying prefix.

    The prefix mixes the worst-case lie (3 out of 4 draws) with seeded
    noise-pool values; every draw comes from ``chaos.seed``, never from
    the caller's RNG.  The wrapper is installed even at
    ``lying_prefix == 0``, where it delegates every query to ``inner``.
    """
    noise = seeded_noise(chaos.seed, spec.noise_pool(pattern))
    pinned = worst_lie(spec, pattern)
    if pinned is None:
        lie = noise
    else:
        coin_seed = chaos.seed

        def lie(pid: int, t: int, _noise=noise, _pinned=pinned) -> Any:
            coin = random.Random(f"lie:{coin_seed}:{pid}:{t}").random()
            return _pinned if coin < 0.75 else _noise(pid, t)

    return LyingHistory(inner, lie, chaos.lying_prefix)
