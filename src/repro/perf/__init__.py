"""Sweep performance layer: parallel trial execution and result caching.

* :mod:`repro.perf.spec` — picklable trial specs, stable content keys,
  and the engine version salt that invalidates caches on engine changes;
* :mod:`repro.perf.executor` — :func:`run_trials`, the batched sweep
  executor with deterministic input-order reassembly;
* :mod:`repro.perf.pool` — :class:`WorkerPool`, the persistent
  warm-started worker pool every ``run_trials`` call shares
  (:func:`shared_pool`), and :class:`DispatchStats`, the dispatch
  overhead meter;
* :mod:`repro.perf.cache` — :class:`TrialCache`, the content-addressed
  store of trial results in one SQLite file (batched
  ``get_many``/``put_many``);
* :mod:`repro.perf.resilience` — the watchdog, retry/quarantine, and
  checkpoint-journal primitives behind the executor's resilient mode.

The grid builders in :mod:`repro.analysis.sweeps` emit specs and
delegate here; ``python -m repro sweep`` is the CLI front end.
"""

from .cache import CACHE_DIR_ENV, TrialCache, default_cache_dir
from .executor import StoreJournalConflictError, resolve_jobs, run_trials
from .pool import (
    DispatchStats,
    WorkerCrashError,
    WorkerPool,
    reset_shared_pool,
    shared_pool,
)
from .resilience import (
    CheckpointJournal,
    QuarantineReport,
    ResiliencePolicy,
    SabotagedSpec,
    TrialFailure,
    guarded_execute,
)
from .spec import (
    ENGINE_VERSION,
    ConvergeTrialSpec,
    ExtractionTrialSpec,
    SetAgreementTrialSpec,
    TrialSpec,
    execute_trial,
    spec_key,
)

__all__ = [
    "CACHE_DIR_ENV",
    "CheckpointJournal",
    "ConvergeTrialSpec",
    "DispatchStats",
    "ENGINE_VERSION",
    "ExtractionTrialSpec",
    "QuarantineReport",
    "ResiliencePolicy",
    "SabotagedSpec",
    "SetAgreementTrialSpec",
    "StoreJournalConflictError",
    "TrialFailure",
    "TrialCache",
    "TrialSpec",
    "WorkerCrashError",
    "WorkerPool",
    "default_cache_dir",
    "execute_trial",
    "guarded_execute",
    "reset_shared_pool",
    "resolve_jobs",
    "run_trials",
    "shared_pool",
    "spec_key",
]
