"""Experiment drivers, statistics, validators, rendering."""

from .linearizability import (
    OperationRecord,
    RegisterSequentialSpec,
    SnapshotRecorder,
    SnapshotSequentialSpec,
    is_linearizable,
)
from .render import describe_step, render_summary, render_timeline
from .runner import (
    ComplementHistory,
    ConvergeResult,
    EmittedHistory,
    ExtractionResult,
    LatencyComparison,
    SetAgreementResult,
    max_round_reached,
    run_converge_trial,
    run_extraction_trial,
    run_latency_comparison,
    run_set_agreement_trial,
)
from .stats import Summary, percentile, summarize
from .stress import (
    CampaignConfig,
    CampaignFailure,
    CampaignReport,
    minimize_schedule,
    run_campaign,
)
from .sweeps import (
    PROTOCOLS,
    EmptySweepError,
    chaos_grid,
    extraction_grid,
    protocol_spec,
    set_agreement_grid,
    to_csv,
)
from .trace_io import (
    dump_jsonl,
    load_jsonl,
    trace_from_dict,
    trace_to_dict,
)
from .validate import AxiomViolation, RunValidator, validate_simulation

__all__ = [
    "AxiomViolation",
    "CampaignConfig",
    "CampaignFailure",
    "CampaignReport",
    "ComplementHistory",
    "ConvergeResult",
    "EmittedHistory",
    "EmptySweepError",
    "ExtractionResult",
    "LatencyComparison",
    "OperationRecord",
    "PROTOCOLS",
    "RegisterSequentialSpec",
    "RunValidator",
    "SetAgreementResult",
    "SnapshotRecorder",
    "SnapshotSequentialSpec",
    "Summary",
    "chaos_grid",
    "describe_step",
    "dump_jsonl",
    "extraction_grid",
    "is_linearizable",
    "load_jsonl",
    "max_round_reached",
    "minimize_schedule",
    "percentile",
    "protocol_spec",
    "render_summary",
    "render_timeline",
    "run_campaign",
    "run_converge_trial",
    "run_extraction_trial",
    "run_latency_comparison",
    "run_set_agreement_trial",
    "set_agreement_grid",
    "summarize",
    "to_csv",
    "trace_from_dict",
    "trace_to_dict",
    "validate_simulation",
]
