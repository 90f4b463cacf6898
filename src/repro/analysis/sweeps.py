"""Parameter grids and CSV export for the experiment harness.

The benchmark suite times representative points; these helpers build
the full grids behind EXPERIMENTS.md and dump flat CSVs for external
analysis — see ``benchmarks/report.py`` for the Markdown rendering.

A sweep is two steps: a *grid builder* (:func:`set_agreement_grid`,
:func:`extraction_grid`, :func:`chaos_grid`) turns parameter sequences
into picklable
:mod:`repro.perf` trial specs — raising :class:`EmptySweepError` early
when a parameter filters the grid down to nothing — and
:func:`repro.perf.executor.run_trials` runs them, in this process or
across a process pool (``jobs``), optionally through a disk-backed
:class:`~repro.perf.cache.TrialCache`.  Results always come back in
grid order, so ``jobs=8`` and ``jobs=1`` export identical CSVs::

    results = run_trials(set_agreement_grid([3, 4], range(10), [0]), jobs=2)
    to_csv(results, "fig1.csv")
"""

from __future__ import annotations

import csv
import dataclasses
import io
from typing import Iterable, List, Optional, Sequence, TextIO, Union

from ..chaos.config import ChaosConfig
from ..perf.spec import (
    ConvergeTrialSpec,
    ExtractionTrialSpec,
    SetAgreementTrialSpec,
    TrialSpec,
)
from ..runtime.process import System


class EmptySweepError(ValueError):
    """A sweep parameter produced no trials.

    ``parameter`` names the offending input, so the error surfaces at the
    sweep boundary with a actionable message instead of a bare
    ``ValueError("no results to export")`` from ``to_csv`` downstream.
    """

    def __init__(self, parameter: str, detail: str):
        self.parameter = parameter
        super().__init__(
            f"sweep parameter {parameter!r} produced no trials: {detail}"
        )


def _require_non_empty(name: str, values: Sequence) -> None:
    if not list(values):
        raise EmptySweepError(name, "the sequence is empty")


# -- grid builders ---------------------------------------------------------


def set_agreement_grid(
    system_sizes: Sequence[int],
    seeds: Sequence[int],
    stabilization_times: Sequence[int],
    fs: Optional[Sequence[int]] = None,
    adversarial: bool = False,
    max_steps: int = 2_000_000,
) -> List[SetAgreementTrialSpec]:
    """Specs for the Fig. 1 / Fig. 2 grid.

    ``fs = None`` means the wait-free case (f = n) for each system size;
    an explicit ``fs`` is clamped to ``1 <= f <= n`` per size, and a
    clamp that leaves nothing raises :class:`EmptySweepError`.
    """
    _require_non_empty("system_sizes", system_sizes)
    _require_non_empty("seeds", seeds)
    _require_non_empty("stabilization_times", stabilization_times)
    specs: List[SetAgreementTrialSpec] = []
    for n_procs in system_sizes:
        n = System(n_procs).n
        f_values = [n] if fs is None else [f for f in fs if 1 <= f <= n]
        for f in f_values:
            for stab in stabilization_times:
                for seed in seeds:
                    specs.append(SetAgreementTrialSpec(
                        n_processes=n_procs,
                        f=f,
                        seed=seed,
                        stabilization_time=stab,
                        adversarial=adversarial,
                        max_steps=max_steps,
                    ))
    if not specs:
        raise EmptySweepError(
            "fs",
            f"no f in {list(fs)} satisfies 1 <= f <= n for system sizes "
            f"{list(system_sizes)}",
        )
    return specs


def extraction_grid(
    detectors: Sequence[str],
    system_sizes: Sequence[int],
    seeds: Sequence[int],
    f: Optional[int] = None,
    stabilization_time: int = 60,
    max_steps: int = 40_000,
) -> List[ExtractionTrialSpec]:
    """Specs for the Fig. 3 grid.

    ``detectors`` are :mod:`repro.detectors.registry` names (the picklable
    identity of a detector spec); ``f = None`` means wait-free.
    """
    _require_non_empty("detectors", detectors)
    _require_non_empty("system_sizes", system_sizes)
    _require_non_empty("seeds", seeds)
    return [
        ExtractionTrialSpec(
            detector=name,
            n_processes=n_procs,
            seed=seed,
            f=f,
            stabilization_time=stabilization_time,
            max_steps=max_steps,
        )
        for n_procs in system_sizes
        for name in detectors
        for seed in seeds
    ]


#: Protocol names a chaos grid accepts (``--protocols``).
PROTOCOLS = ("fig1", "fig2", "extraction", "abd-converge")


def protocol_spec(
    protocol: str,
    n_processes: int,
    seed: int,
    chaos: Optional[ChaosConfig] = None,
    f: Optional[int] = None,
    detector: str = "omega",
    max_steps: int = 400_000,
) -> TrialSpec:
    """The ordinary trial spec behind a :data:`PROTOCOLS` name.

    ``fig1`` is wait-free (f = n); ``fig2`` defaults to f = n − 1;
    ``extraction`` extracts Υf from ``detector`` (``f = None`` is
    wait-free); ``abd-converge`` defaults to f = ⌊n/2⌋.  The detector
    histories are stable from t = 0, so a lying prefix is the only
    transient detector output.
    """
    if protocol == "abd-converge":
        return ConvergeTrialSpec(
            n_processes, seed, f=f, max_steps=max_steps, chaos=chaos
        )
    if protocol == "extraction":
        return ExtractionTrialSpec(
            detector, n_processes, seed, f=f, stabilization_time=0,
            max_steps=max_steps, chaos=chaos,
        )
    if protocol not in PROTOCOLS:
        raise ValueError(
            f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}"
        )
    n = System(n_processes).n
    if protocol == "fig1":
        f = n
    elif f is None:
        f = max(1, n - 1)
    return SetAgreementTrialSpec(
        n_processes, f, seed, stabilization_time=0, max_steps=max_steps,
        chaos=chaos,
    )


def chaos_grid(
    protocols: Sequence[str],
    system_sizes: Sequence[int],
    seeds: Sequence[int],
    lying_prefixes: Sequence[int] = (0,),
    drop_rates: Sequence[float] = (0.0,),
    duplicate_rate: float = 0.0,
    reorder_rate: float = 0.0,
    reorder_jitter: int = 4,
    burst_length: int = 0,
    starvation_window: int = 0,
    fairness_bound: int = 64,
    f: Optional[int] = None,
    detector: str = "omega",
    max_steps: int = 400_000,
) -> List[TrialSpec]:
    """Specs for a chaos grid: protocols × sizes × lies × drops × seeds.

    Each point is the protocol's ordinary spec (:func:`protocol_spec`)
    with ``chaos=ChaosConfig(seed=<trial seed>, …)``; the lying-prefix
    and drop-rate axes are swept, the remaining chaos knobs are held
    constant across the grid.  Re-running the grid reproduces the same
    faults.
    """
    _require_non_empty("protocols", protocols)
    _require_non_empty("system_sizes", system_sizes)
    _require_non_empty("seeds", seeds)
    _require_non_empty("lying_prefixes", lying_prefixes)
    _require_non_empty("drop_rates", drop_rates)
    unknown = sorted(set(protocols) - set(PROTOCOLS))
    if unknown:
        raise EmptySweepError(
            "protocols",
            f"unknown protocol names {unknown}; choose from {list(PROTOCOLS)}",
        )
    return [
        protocol_spec(
            protocol, n_procs, seed,
            chaos=ChaosConfig(
                seed=seed,
                lying_prefix=lying,
                drop_rate=drop,
                duplicate_rate=duplicate_rate,
                reorder_rate=reorder_rate,
                reorder_jitter=reorder_jitter,
                burst_length=burst_length,
                starvation_window=starvation_window,
                fairness_bound=fairness_bound,
            ),
            f=f, detector=detector, max_steps=max_steps,
        )
        for protocol in protocols
        for n_procs in system_sizes
        for lying in lying_prefixes
        for drop in drop_rates
        for seed in seeds
    ]


# -- CSV export ------------------------------------------------------------


def _stringify(value) -> str:
    if isinstance(value, frozenset):
        return "{" + ",".join(str(x) for x in sorted(value)) + "}"
    if value is None:
        return ""
    return str(value)


def to_csv(
    results: Iterable[object], destination: Union[str, TextIO, None] = None
) -> str:
    """Write a list of result dataclasses as CSV.

    ``destination`` may be a path, an open text file, or ``None`` (return
    the CSV text only).  All rows must share a dataclass type.  Fields
    declared ``repr=False`` (e.g. the nested ``metrics`` snapshot) are
    omitted — CSV rows stay flat; use the metrics JSON artifacts for the
    structured data.
    """
    rows = list(results)
    if not rows:
        raise ValueError("no results to export")
    first = rows[0]
    if not dataclasses.is_dataclass(first):
        raise TypeError("results must be dataclass instances")
    fieldnames = [f.name for f in dataclasses.fields(first) if f.repr]
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames)
    writer.writeheader()
    for row in rows:
        if type(row) is not type(first):
            raise TypeError("mixed result types in one export")
        record = {
            key: _stringify(value)
            for key, value in dataclasses.asdict(row).items()
            if key in fieldnames
        }
        writer.writerow(record)
    text = buffer.getvalue()
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text)
    elif destination is not None:
        destination.write(text)
    return text
