"""Checkable instances — picklable descriptors of what to model-check.

An :class:`McInstance` pins everything a deterministic exploration needs:
the protocol family, the system size, the resilience, the failure
pattern, and the detector-history parameters (stable value, stabilization
time, noise seed).  The descriptor is primitives-plus-frozensets only, so
it crosses process boundaries, hashes into perf cache keys, and
round-trips through JSON (:meth:`McInstance.to_dict`).

The family registry maps the paper's protocols — and the planted-bug
ablation variants — to builders for the protocol, the inputs, the
detector specification, and the default property set:

========================  =====================================  =========
family                    protocol                               detector
========================  =====================================  =========
``fig1``                  Fig. 1 Υ-based n-set agreement         Υ
``fig2``                  Fig. 2 Υf-based f-set agreement        Υf
``extraction``            Fig. 3 Υf extraction (from Ω)          Ω
``converge``              bare k-converge + Decide               —
``naive-converge``        ablation: converge without phase 2     —
``gladiators-only``       ablation: Fig. 1 without citizens      Υ
``no-stability-flag``     ablation: Fig. 1 without line 16       Υ
========================  =====================================  =========

For the converge families ``f`` doubles as the convergence parameter
``k`` (default ``n``).  When ``stable_value`` is unset, the detector's
stable output is chosen deterministically — the first legal value by
(size, lexicographic) order — and :func:`resolve_instance` pins it into
the descriptor so serialized instances are self-describing.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..analysis.trace_io import decode_value, encode_value
from ..core.ablations import (
    NaiveConvergeInstance,
    make_gladiators_only_set_agreement,
    make_no_stability_flag_set_agreement,
)
from ..core.converge import ConvergeInstance, make_converge_protocol
from ..core.extraction import make_extraction_protocol
from ..core.f_resilient import make_upsilon_f_set_agreement
from ..core.samples import PhiMap
from ..core.set_agreement import make_upsilon_set_agreement
from ..detectors.base import DetectorSpec, StableHistory, seeded_noise
from ..detectors.omega import OmegaSpec
from ..detectors.upsilon import UpsilonFSpec, UpsilonSpec
from ..failures.environment import Environment
from ..failures.pattern import FailurePattern
from ..runtime.errors import HistoryError
from ..runtime.process import System
from ..runtime.simulation import Simulation
from ..tasks import ConvergeSpec, SetAgreementSpec
from ..tasks.properties import PropertyAdapter, UpsilonOutputProperty


@dataclasses.dataclass(frozen=True)
class McInstance:
    """One fully deterministic checkable instance."""

    protocol: str
    n_processes: int
    #: Resilience for ``fig2``/``extraction``; the converge parameter
    #: ``k`` for the converge families; ignored by ``fig1``.
    f: Optional[int] = None
    #: ``((pid, crash_time), ...)`` — the failure pattern.
    crashes: Tuple[Tuple[int, int], ...] = ()
    #: Detector stable output; ``None`` = deterministic first legal value.
    stable_value: Any = None
    stabilization_time: int = 0
    noise_seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self,
            "crashes",
            tuple(sorted((int(p), int(t)) for p, t in self.crashes)),
        )

    def describe(self) -> str:
        crashes = ", ".join(f"p{p}@{t}" for p, t in self.crashes) or "none"
        stable = (
            "auto" if self.stable_value is None else repr(self.stable_value)
        )
        return (
            f"{self.protocol} n+1={self.n_processes} f={self.f} "
            f"crashes=[{crashes}] stable={stable} "
            f"stab={self.stabilization_time}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "protocol": self.protocol,
            "n_processes": self.n_processes,
            "f": self.f,
            "crashes": [[p, t] for p, t in self.crashes],
            "stable_value": encode_value(self.stable_value),
            "stabilization_time": self.stabilization_time,
            "noise_seed": self.noise_seed,
        }

    @classmethod
    def from_dict(cls, body: Mapping[str, Any]) -> "McInstance":
        f = body.get("f")
        return cls(
            protocol=body["protocol"],
            n_processes=int(body["n_processes"]),
            f=None if f is None else int(f),
            crashes=tuple(
                (int(p), int(t)) for p, t in body.get("crashes", ())
            ),
            stable_value=decode_value(body.get("stable_value")),
            stabilization_time=int(body.get("stabilization_time", 0)),
            noise_seed=int(body.get("noise_seed", 0)),
        )


# -- family registry ----------------------------------------------------------

_ProtocolBuilder = Callable[["McInstance", System, Environment], Any]
_PropertyBuilder = Callable[
    ["McInstance", System, Environment, Mapping[int, Any]],
    List[PropertyAdapter],
]


@dataclasses.dataclass(frozen=True)
class ProtocolFamily:
    name: str
    detector: Optional[str]  # "upsilon" | "upsilon_f" | "omega" | None
    build_protocol: _ProtocolBuilder
    build_properties: _PropertyBuilder
    has_inputs: bool = True


def _value_inputs(system: System) -> Dict[int, str]:
    return {pid: f"v{pid}" for pid in system.pids}


def _converge_k(instance: McInstance, system: System) -> int:
    return system.n if instance.f is None else instance.f


def _converge_protocol(instance_cls):
    def build(instance, system, env):
        return make_converge_protocol(
            ("mc", "conv"), _converge_k(instance, system),
            system.n_processes, instance_cls,
        )

    return build


def _converge_props(instance, system, env, inputs):
    return ConvergeSpec(_converge_k(instance, system)).properties(inputs)


def _extraction_protocol(instance, system, env):
    return make_extraction_protocol(PhiMap(OmegaSpec(system), env))


FAMILIES: Dict[str, ProtocolFamily] = {
    "fig1": ProtocolFamily(
        "fig1",
        detector="upsilon",
        build_protocol=lambda i, s, e: make_upsilon_set_agreement(),
        build_properties=lambda i, s, e, inp: (
            SetAgreementSpec(s.n).properties(inp)
        ),
    ),
    "fig2": ProtocolFamily(
        "fig2",
        detector="upsilon_f",
        build_protocol=lambda i, s, e: make_upsilon_f_set_agreement(e.f),
        build_properties=lambda i, s, e, inp: (
            SetAgreementSpec(e.f).properties(inp)
        ),
    ),
    "extraction": ProtocolFamily(
        "extraction",
        detector="omega",
        build_protocol=_extraction_protocol,
        build_properties=lambda i, s, e, inp: [
            UpsilonOutputProperty(s.pid_set, e.min_correct)
        ],
        has_inputs=False,
    ),
    "converge": ProtocolFamily(
        "converge",
        detector=None,
        build_protocol=_converge_protocol(ConvergeInstance),
        build_properties=_converge_props,
    ),
    "naive-converge": ProtocolFamily(
        "naive-converge",
        detector=None,
        build_protocol=_converge_protocol(NaiveConvergeInstance),
        build_properties=_converge_props,
    ),
    "gladiators-only": ProtocolFamily(
        "gladiators-only",
        detector="upsilon",
        build_protocol=lambda i, s, e: make_gladiators_only_set_agreement(),
        build_properties=lambda i, s, e, inp: (
            SetAgreementSpec(s.n).properties(inp)
        ),
    ),
    "no-stability-flag": ProtocolFamily(
        "no-stability-flag",
        detector="upsilon",
        build_protocol=lambda i, s, e: make_no_stability_flag_set_agreement(),
        build_properties=lambda i, s, e, inp: (
            SetAgreementSpec(s.n).properties(inp)
        ),
    ),
}


def family_of(instance: McInstance) -> ProtocolFamily:
    family = FAMILIES.get(instance.protocol)
    if family is None:
        known = ", ".join(sorted(FAMILIES))
        raise ValueError(
            f"unknown protocol family {instance.protocol!r} (known: {known})"
        )
    return family


# -- builders -----------------------------------------------------------------


def _environment(instance: McInstance, system: System) -> Environment:
    if instance.f is None:
        return Environment.wait_free(system)
    return Environment(system, instance.f)


def _detector_spec(
    family: ProtocolFamily, system: System, env: Environment
) -> Optional[DetectorSpec]:
    if family.detector == "upsilon":
        return UpsilonSpec(system)
    if family.detector == "upsilon_f":
        return UpsilonFSpec(env)
    if family.detector == "omega":
        return OmegaSpec(system)
    return None


def build_pattern(instance: McInstance, system: System) -> FailurePattern:
    if instance.crashes:
        return FailurePattern.crash_at(system, dict(instance.crashes))
    return FailurePattern.failure_free(system)


def _stable_sort_key(value: Any):
    if isinstance(value, frozenset):
        return (1, len(value), tuple(sorted(repr(v) for v in value)))
    return (0, repr(value))


def choose_stable_value(
    spec: DetectorSpec,
    pattern: FailurePattern,
    requested: Any = None,
) -> Any:
    """A legal stable value, deterministically.

    With no request, pick the first legal value by (size, lexicographic)
    order — the same value on every machine and in every worker process.
    """
    if requested is not None:
        if not spec.is_legal_stable_value(pattern, requested):
            raise HistoryError(
                f"{spec.name}: requested stable value {requested!r} "
                f"illegal for [{pattern.describe()}]"
            )
        return requested
    legal = sorted(spec.legal_stable_values(pattern), key=_stable_sort_key)
    if not legal:
        raise HistoryError(
            f"{spec.name} has no legal stable value for "
            f"[{pattern.describe()}]"
        )
    return legal[0]


def build_history(
    instance: McInstance,
    spec: Optional[DetectorSpec],
    pattern: FailurePattern,
):
    if spec is None:
        return None
    stable = choose_stable_value(spec, pattern, instance.stable_value)
    noise = None
    if instance.stabilization_time > 0:
        noise = seeded_noise(
            instance.noise_seed, list(spec.noise_pool(pattern))
        )
    return StableHistory(stable, instance.stabilization_time, noise)


def resolve_instance(instance: McInstance) -> McInstance:
    """Pin the deterministic detector choice into the descriptor.

    A resolved instance carries its stable value explicitly, so a
    serialized counterexample is self-describing even if the default
    choice rule ever changes.
    """
    family = family_of(instance)
    system = System(instance.n_processes)
    env = _environment(instance, system)
    spec = _detector_spec(family, system, env)
    if spec is None or instance.stable_value is not None:
        return instance
    pattern = build_pattern(instance, system)
    stable = choose_stable_value(spec, pattern)
    return dataclasses.replace(instance, stable_value=stable)


def build_simulation(instance: McInstance) -> Simulation:
    """A fresh simulation of the instance (deterministic: equal instances
    build behaviourally identical simulations)."""
    family = family_of(instance)
    system = System(instance.n_processes)
    env = _environment(instance, system)
    pattern = build_pattern(instance, system)
    spec = _detector_spec(family, system, env)
    history = build_history(instance, spec, pattern)
    protocol = family.build_protocol(instance, system, env)
    inputs = _value_inputs(system) if family.has_inputs else {}
    return Simulation(
        system, protocol, inputs=inputs, pattern=pattern, history=history
    )


def instance_properties(instance: McInstance) -> List[PropertyAdapter]:
    """The default property set checked for the instance's family."""
    family = family_of(instance)
    system = System(instance.n_processes)
    env = _environment(instance, system)
    inputs = _value_inputs(system) if family.has_inputs else {}
    return family.build_properties(instance, system, env, inputs)


# -- crash-pattern sweeping ---------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CrashSweep:
    """Bounds for sweeping failure patterns in one ``check()`` call.

    Covers every crash subset of size ``1..max_crashes`` (further bounded
    by the environment's resilience and by "at least one correct
    process") combined with every assignment of ``crash_times`` to the
    victims.
    """

    max_crashes: int = 1
    crash_times: Tuple[int, ...] = (0,)

    def __post_init__(self):
        object.__setattr__(
            self, "crash_times", tuple(int(t) for t in self.crash_times)
        )


def sweep_instances(
    instance: McInstance, sweep: CrashSweep
) -> List[McInstance]:
    """The base instance plus one instance per swept failure pattern."""
    system = System(instance.n_processes)
    env = _environment(instance, system)
    limit = min(sweep.max_crashes, env.f, system.n)
    out = [instance]
    for size in range(1, limit + 1):
        for victims in itertools.combinations(system.pids, size):
            for times in itertools.product(sweep.crash_times, repeat=size):
                crashes = tuple(sorted(zip(victims, times)))
                if crashes == instance.crashes:
                    continue
                out.append(dataclasses.replace(instance, crashes=crashes))
    return out
