"""repro.mc — systematic model checking of the paper's constructions.

Where the statistical benches sample schedules, this subsystem
*enumerates* them: bounded DFS over every scheduling choice, crash
subset, and crash time of a small instance, with

* deterministic state fingerprints (:mod:`repro.mc.fingerprint`) so
  converging branches share subtrees,
* sleep-set partial-order reduction (:mod:`repro.mc.reduction`) with a
  stats record proving the reduction ratio,
* property adapters (:mod:`repro.mc.properties`) for agreement /
  validity / termination, the C-properties of k-converge, and the Υf
  output-range condition,
* replayable, shrinkable, JSON round-tripping counterexamples
  (:mod:`repro.mc.counterexample`), and
* a perf-pool parallel mode (:mod:`repro.mc.parallel`).

Front door::

    from repro.mc import McInstance, check
    report = check(McInstance("fig1", n_processes=2), sweep=CrashSweep())
    assert report.ok, report.counterexamples[0].describe()
"""

from .counterexample import Counterexample, ReplayOutcome
from .explorer import (
    CheckReport,
    CheckResult,
    ExploreConfig,
    ExploreResult,
    ExploreStats,
    Explorer,
    RawViolation,
    check,
    explore_instance,
)
from .fingerprint import (
    FingerprintError,
    fingerprint,
    time_sensitive,
)
from .instances import (
    FAMILIES,
    CrashSweep,
    McInstance,
    build_simulation,
    family_of,
    instance_inputs,
    instance_properties,
    resolve_instance,
    sweep_instances,
)
from .parallel import (
    McShardSpec,
    ParallelExplorer,
    execute_mc_shard,
    make_shard_spec,
    shard_prefixes,
)
from .properties import (
    AgreementProperty,
    CallbackProperty,
    ConvergeAgreementProperty,
    ConvergeValidityProperty,
    PropertyAdapter,
    TerminationProperty,
    UpsilonOutputProperty,
    ValidityProperty,
)
from .reduction import ReductionStats, SleepSetReducer, independent

__all__ = [
    "AgreementProperty",
    "CallbackProperty",
    "CheckReport",
    "CheckResult",
    "ConvergeAgreementProperty",
    "ConvergeValidityProperty",
    "Counterexample",
    "CrashSweep",
    "ExploreConfig",
    "ExploreResult",
    "ExploreStats",
    "Explorer",
    "FAMILIES",
    "FingerprintError",
    "McInstance",
    "McShardSpec",
    "ParallelExplorer",
    "PropertyAdapter",
    "RawViolation",
    "ReductionStats",
    "ReplayOutcome",
    "SleepSetReducer",
    "TerminationProperty",
    "UpsilonOutputProperty",
    "ValidityProperty",
    "build_simulation",
    "check",
    "execute_mc_shard",
    "explore_instance",
    "family_of",
    "fingerprint",
    "independent",
    "instance_inputs",
    "instance_properties",
    "make_shard_spec",
    "resolve_instance",
    "shard_prefixes",
    "sweep_instances",
    "time_sensitive",
]
