"""Seeded trial results and metrics are pinned, byte for byte.

A fixed grid of Fig. 3, Fig. 1/2 and k-converge trials runs through
``execute_trial``.  One SHA-256 over each result's ``repr`` and its
metrics snapshot (``json.dumps(..., sort_keys=True)``) must keep the
value recorded below.  The engine's step path, the protocols, the
schedulers and the collector may get faster; they may not move a seeded
schedule, a result or a counter.  A change that does so on purpose
changes ``ENGINE_VERSION`` and this digest together.
"""

import hashlib
import json

from repro.analysis.sweeps import extraction_grid, set_agreement_grid
from repro.perf import ConvergeTrialSpec, execute_trial

#: Recorded at ENGINE_VERSION 2026.10.1 with CPython 3.11; CPython 3.10,
#: 3.12 and 3.13 give the same value.
PINNED_DIGEST = (
    "33cba9826b6938781e7bf0ababc440ef90d0c5c03890c95bfa4f287befe0876f"
)


def pinned_specs():
    return [
        *extraction_grid(("omega", "omega_n", "diamond_p"), (3, 4),
                         range(1))[:4],
        *set_agreement_grid((3, 4, 5), range(7), (0, 100, 300)),
        ConvergeTrialSpec(3, 0),
    ]


def test_fixed_grid_results_and_metrics_are_unchanged():
    digest = hashlib.sha256()
    for spec in pinned_specs():
        result = execute_trial(spec)
        digest.update(repr(result).encode())
        digest.update(json.dumps(result.metrics, sort_keys=True).encode())
    assert digest.hexdigest() == PINNED_DIGEST
