"""Picklable trial specifications and their content-addressed keys.

A *trial spec* is the full recipe for one seeded, deterministic trial —
primitives only (system size, resilience, seed, stabilization time,
detector registry name), so a spec can cross a process boundary to a
worker and can be hashed into a stable cache key.

Two invariants matter:

* **Determinism** — executing the same spec twice yields equal result
  dataclasses (the ``metrics`` snapshot is excluded from comparison);
  this is what makes both the process-pool fan-out and the disk cache
  sound.
* **Stable keys** — :func:`spec_key` hashes the canonical JSON of the
  spec *plus* the engine version salt *plus* the environment salt
  (:func:`environment_salt`: detector-registry wiring and the chaos-knob
  schema), so cached results are invalidated whenever the engine's trial
  semantics change — including semantics a spec only names by reference.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:
    from ..chaos.config import ChaosConfig

#: Cache-key salt for the simulation engine.  Bump whenever a change to
#: the engine, the protocols, or the trial drivers alters what any trial
#: returns — every previously cached result is then invalidated at once.
ENGINE_VERSION = "2026.10.1"

#: Lazily computed environment salt (see :func:`environment_salt`).
_ENV_SALT: Optional[str] = None


def environment_salt() -> str:
    """A digest of trial semantics that live *outside* the spec fields.

    A spec names its detector by registry entry and its chaos knobs by
    :class:`~repro.chaos.config.ChaosConfig` field — so rewiring a
    registry name to a different detector class, or changing a chaos
    knob's default, changes what a cached result means without changing
    any spec field.  The salt folds both into every cache key: the
    registry's ``name → detector class`` mapping and the chaos config's
    ``field → default`` schema.  Computed once per process.
    """
    global _ENV_SALT
    if _ENV_SALT is None:
        from ..chaos.config import ChaosConfig
        from ..detectors.registry import detector_names, make_detector
        from ..failures.environment import Environment
        from ..runtime.process import System

        env = Environment.wait_free(System(3))
        detectors = []
        for name in detector_names():
            spec = make_detector(name, env)
            kind = type(spec)
            detectors.append([name, kind.__module__, kind.__qualname__])
        chaos_schema = [
            [field.name, repr(field.default)]
            for field in dataclasses.fields(ChaosConfig)
        ]
        blob = json.dumps(
            {"detectors": detectors, "chaos": chaos_schema},
            sort_keys=True, separators=(",", ":"),
        )
        _ENV_SALT = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    return _ENV_SALT


@dataclasses.dataclass(frozen=True)
class SetAgreementTrialSpec:
    """One seeded Fig. 1 / Fig. 2 set-agreement trial (Theorems 2 / 6).

    ``chaos`` (every spec kind has it) runs the same trial under the
    :mod:`repro.chaos` injectors; ``None`` installs none of them.
    """

    n_processes: int
    f: int
    seed: int
    stabilization_time: int
    adversarial: bool = False
    max_steps: int = 2_000_000
    chaos: Optional["ChaosConfig"] = None

    kind = "set_agreement"


@dataclasses.dataclass(frozen=True)
class ExtractionTrialSpec:
    """One seeded Fig. 3 extraction trial (Theorem 10).

    ``detector`` is a :mod:`repro.detectors.registry` name — the registry
    is the picklable identity of a detector spec.  ``f = None`` means the
    wait-free environment.
    """

    detector: str
    n_processes: int
    seed: int
    f: Optional[int] = None
    stabilization_time: int = 60
    max_steps: int = 40_000
    chaos: Optional["ChaosConfig"] = None

    kind = "extraction"


@dataclasses.dataclass(frozen=True)
class ConvergeTrialSpec:
    """One seeded k-converge trial over ABD-emulated registers (E13).

    ``f = None`` means the largest majority-safe resilience ``⌊n/2⌋``.
    """

    n_processes: int
    seed: int
    f: Optional[int] = None
    max_steps: int = 400_000
    chaos: Optional["ChaosConfig"] = None

    kind = "abd-converge"


TrialSpec = Union[SetAgreementTrialSpec, ExtractionTrialSpec, ConvergeTrialSpec]


def spec_key(spec: TrialSpec) -> str:
    """A stable content hash of ``spec`` (hex sha256).

    The digest covers every spec field, the spec kind, and
    :data:`ENGINE_VERSION`, so equal specs collide on purpose and any
    engine bump misses the old cache entries.
    """
    payload = dict(dataclasses.asdict(spec))
    payload["kind"] = spec.kind
    payload["engine"] = ENGINE_VERSION
    payload["salt"] = environment_salt()
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def warm_imports() -> None:
    """Pre-pay :func:`execute_trial`'s deferred imports (worker warm start).

    A pool worker calls this once at boot so the first trial of every
    kind doesn't carry the import cost of the trial drivers, the
    detector registry, the mc instance tables, the chaos injectors or the
    audit runner — and so ``environment_salt()`` (which walks the detector
    registry) is computed before any batch is timed.
    """
    from ..analysis import runner  # noqa: F401
    from ..audit import runner as _audit  # noqa: F401
    from ..chaos import detectors, network, scheduler  # noqa: F401
    from ..detectors import registry  # noqa: F401
    from ..mc import instances, parallel  # noqa: F401

    environment_salt()


def execute_trial(spec: TrialSpec, collector=None):
    """Run one trial spec to its result dataclass (worker entry point).

    ``collector`` (a :class:`~repro.obs.metrics.MetricsCollector`) is
    threaded into the trial drivers that accept one — the telemetry relay
    passes a worker-local collector here and ships its registry back to
    the parent.  Spec kinds without sim-level instrumentation (mc shards,
    audit cases) ignore it.

    Imports are deferred so that pool workers pay them once on first
    use and so this module stays import-cycle-free.
    """
    from ..analysis.runner import (
        run_converge_trial,
        run_extraction_trial,
        run_set_agreement_trial,
    )
    from ..detectors.registry import make_detector
    from ..failures.environment import Environment
    from ..runtime.process import System

    if isinstance(spec, SetAgreementTrialSpec):
        system = System(spec.n_processes)
        return run_set_agreement_trial(
            system,
            spec.f,
            seed=spec.seed,
            stabilization_time=spec.stabilization_time,
            adversarial=spec.adversarial,
            max_steps=spec.max_steps,
            collector=collector,
            chaos=spec.chaos,
        )
    if isinstance(spec, ExtractionTrialSpec):
        system = System(spec.n_processes)
        env = (
            Environment.wait_free(system)
            if spec.f is None
            else Environment(system, spec.f)
        )
        detector = make_detector(spec.detector, env)
        return run_extraction_trial(
            detector,
            env,
            seed=spec.seed,
            stabilization_time=spec.stabilization_time,
            max_steps=spec.max_steps,
            collector=collector,
            chaos=spec.chaos,
        )
    if isinstance(spec, ConvergeTrialSpec):
        return run_converge_trial(
            System(spec.n_processes),
            spec.seed,
            f=spec.f,
            max_steps=spec.max_steps,
            collector=collector,
            chaos=spec.chaos,
        )
    from ..mc.parallel import McShardSpec, execute_mc_shard

    if isinstance(spec, McShardSpec):
        return execute_mc_shard(spec)
    from .resilience import SabotagedSpec

    if isinstance(spec, SabotagedSpec):
        spec.sabotage()
        return execute_trial(spec.spec, collector=collector)
    from ..audit.runner import AuditTrialSpec, run_audit_trial

    if isinstance(spec, AuditTrialSpec):
        return run_audit_trial(spec)
    raise TypeError(f"not a trial spec: {spec!r}")
