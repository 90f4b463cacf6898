"""Command-line interface: run the paper's experiments from a shell.

::

    python -m repro fig1 --processes 4 --stabilization 80 --seed 3
    python -m repro fig2 --processes 5 --resilience 2
    python -m repro extract --detector omega --processes 4
    python -m repro theorem1 --candidate heartbeat --phases 8
    python -m repro run --show-trace   # quickstart run with a timeline
    python -m repro stats fig1 --processes 4 --seed 3   # live metrics table
    python -m repro profile            # engine hot-path timing
    python -m repro sweep set-agreement --jobs 4 --csv f1.csv  # parallel grid
    python -m repro check --protocol fig1 --processes 2 --depth 14  # model check
    python -m repro sweep chaos --retries 2 --resume sweep.journal  # chaos grid
    python -m repro stats chaos --lying-prefix 80 --drop-rate 0.4
    python -m repro audit --budget 2000 --seed 7   # differential audit
    python -m repro submit set-agreement --store sqlite:///trials.db
    python -m repro worker --store sqlite:///trials.db --jobs 4
    python -m repro farm status --store sqlite:///trials.db --watch

Every subcommand prints a short report and exits non-zero if the
corresponding paper property failed to hold (they never should).
Exit codes: 0 = clean, 1 = property violation, 2 = usage error,
3 = non-termination, 4 = the differential audit found an equivalence
break (its report path is printed).
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Optional, Sequence

from .analysis import run_extraction_trial, run_set_agreement_trial
from .analysis.render import render_summary, render_timeline
from .audit.oracles import ORACLE_PAIRS
from .core import (
    candidate_complement_extractor,
    candidate_heartbeat_extractor,
    candidate_sticky_extractor,
    make_upsilon_set_agreement,
    run_theorem1_adversary,
)
from .detectors import UpsilonSpec, detector_names, make_detector
from .failures import Environment, FailurePattern
from .runtime import RandomScheduler, Simulation, System
from .tasks import SetAgreementSpec

_CANDIDATES = {
    "complement": candidate_complement_extractor,
    "heartbeat": candidate_heartbeat_extractor,
    "sticky": candidate_sticky_extractor,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Experiments from 'On the weakest failure detector ever'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig1 = sub.add_parser("fig1", help="Υ-based n-set agreement (Theorem 2)")
    fig1.add_argument("--processes", type=int, default=4)
    fig1.add_argument("--stabilization", type=int, default=80)
    fig1.add_argument("--seed", type=int, default=0)
    fig1.add_argument("--adversarial", action="store_true",
                      help="lockstep schedule + worst-case noise")

    fig2 = sub.add_parser("fig2", help="Υf-based f-set agreement (Theorem 6)")
    fig2.add_argument("--processes", type=int, default=4)
    fig2.add_argument("--resilience", type=int, default=2, metavar="F")
    fig2.add_argument("--stabilization", type=int, default=80)
    fig2.add_argument("--seed", type=int, default=0)

    extract = sub.add_parser(
        "extract", help="extract Υf from a stable detector (Theorem 10)"
    )
    extract.add_argument(
        "--detector",
        choices=[n for n in detector_names() if n != "dummy"],
        default="omega",
    )
    extract.add_argument("--processes", type=int, default=4)
    extract.add_argument("--resilience", type=int, default=None, metavar="F")
    extract.add_argument("--stabilization", type=int, default=60)
    extract.add_argument("--seed", type=int, default=0)

    theorem1 = sub.add_parser(
        "theorem1", help="refute a Υ → Ωn candidate extractor (Theorem 1)"
    )
    theorem1.add_argument("--candidate", choices=sorted(_CANDIDATES),
                          default="heartbeat")
    theorem1.add_argument("--processes", type=int, default=4)
    theorem1.add_argument("--phases", type=int, default=8)

    hierarchy = sub.add_parser(
        "hierarchy", help="print the weaker-than graph around Υ"
    )
    hierarchy.add_argument("--processes", type=int, default=4)
    hierarchy.add_argument("--resilience", type=int, default=None,
                           metavar="F")

    campaign = sub.add_parser(
        "campaign", help="fuzz Fig. 1/Fig. 2 against the task spec"
    )
    campaign.add_argument("--trials", type=int, default=25)
    campaign.add_argument("--seed", type=int, default=0)

    run = sub.add_parser("run", help="one annotated Fig. 1 run")
    run.add_argument("--processes", type=int, default=3)
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--show-trace", action="store_true")

    stats = sub.add_parser(
        "stats", help="run an experiment with live metrics and print the table"
    )
    stats_sub = stats.add_subparsers(dest="stats_command", required=True)

    s_fig1 = stats_sub.add_parser("fig1", help="instrumented Fig. 1 trial")
    s_fig1.add_argument("--processes", type=int, default=4)
    s_fig1.add_argument("--stabilization", type=int, default=80)
    s_fig1.add_argument("--seed", type=int, default=0)
    s_fig1.add_argument("--adversarial", action="store_true")

    s_fig2 = stats_sub.add_parser("fig2", help="instrumented Fig. 2 trial")
    s_fig2.add_argument("--processes", type=int, default=4)
    s_fig2.add_argument("--resilience", type=int, default=2, metavar="F")
    s_fig2.add_argument("--stabilization", type=int, default=80)
    s_fig2.add_argument("--seed", type=int, default=0)

    s_extract = stats_sub.add_parser(
        "extract", help="instrumented Fig. 3 extraction trial"
    )
    s_extract.add_argument(
        "--detector",
        choices=[n for n in detector_names() if n != "dummy"],
        default="omega",
    )
    s_extract.add_argument("--processes", type=int, default=4)
    s_extract.add_argument("--resilience", type=int, default=None, metavar="F")
    s_extract.add_argument("--stabilization", type=int, default=60)
    s_extract.add_argument("--seed", type=int, default=0)

    from .analysis.sweeps import PROTOCOLS as CHAOS_PROTOCOLS

    s_chaos = stats_sub.add_parser(
        "chaos", help="instrumented chaos trial (what was injected, "
                      "what survived)"
    )
    s_chaos.add_argument("--protocol", choices=CHAOS_PROTOCOLS,
                         default="fig1")
    s_chaos.add_argument("--processes", type=int, default=4)
    s_chaos.add_argument("--resilience", type=int, default=None, metavar="F")
    s_chaos.add_argument(
        "--detector",
        choices=[n for n in detector_names() if n != "dummy"],
        default="omega",
    )
    s_chaos.add_argument("--seed", type=int, default=0)
    s_chaos.add_argument("--lying-prefix", type=int, default=50,
                         help="steps of arbitrary detector output")
    s_chaos.add_argument("--drop-rate", type=float, default=0.2)
    s_chaos.add_argument("--duplicate-rate", type=float, default=0.2)
    s_chaos.add_argument("--reorder-rate", type=float, default=0.2)
    s_chaos.add_argument("--burst", type=int, default=6,
                         help="adversarial scheduler burst length")
    s_chaos.add_argument("--starvation", type=int, default=6,
                         help="scheduler starvation-window length")
    s_chaos.add_argument("--max-steps", type=int, default=60_000)

    for sub_parser in (s_fig1, s_fig2, s_extract, s_chaos):
        sub_parser.add_argument(
            "--events", metavar="FILE", default=None,
            help="also stream every run event to FILE as JSONL",
        )
        sub_parser.add_argument(
            "--format", choices=("table", "json", "prom"), default="table",
            help="metrics output: aligned table (default), JSON snapshot, "
                 "or Prometheus text exposition",
        )
        sub_parser.add_argument(
            "--json", action="store_true",
            help="shorthand for --format json",
        )

    profile = sub.add_parser(
        "profile", help="hot-path timing of the engine itself"
    )
    profile.add_argument("--processes", type=int, default=4)
    profile.add_argument("--repeats", type=int, default=5)
    profile.add_argument("--max-steps", type=int, default=150_000)
    profile.add_argument("--json", action="store_true")

    sweep = sub.add_parser(
        "sweep",
        help="run an experiment grid, in parallel and with trial caching",
    )
    sw_sa, sw_ex, sw_ch = _add_grid_subparsers(
        sweep, "sweep_command", CHAOS_PROTOCOLS
    )

    for sub_parser in (sw_sa, sw_ex, sw_ch):
        sub_parser.add_argument(
            "--jobs", type=int, default=1,
            help="worker processes (0 = one per CPU; default 1 = serial)",
        )
        sub_parser.add_argument(
            "--batch-size", type=int, default=None, metavar="N",
            help="trials per dispatched batch (default ~2 batches per "
                 "worker); one pickle round trip per batch",
        )
        sub_parser.add_argument(
            "--cache-dir", default=None, metavar="DIR",
            help="trial cache root (default $REPRO_CACHE_DIR or "
                 "~/.cache/repro/trials)",
        )
        sub_parser.add_argument(
            "--no-cache", action="store_true",
            help="recompute every trial; neither read nor write the cache",
        )
        sub_parser.add_argument(
            "--csv", metavar="FILE", default=None,
            help="also export the results as CSV to FILE",
        )
        sub_parser.add_argument(
            "--json", action="store_true",
            help="print the run summary as JSON (includes the merged "
                 "metrics snapshot)",
        )
        sub_parser.add_argument(
            "--events", metavar="FILE", default=None,
            help="stream harness events (spans, trial completions, "
                 "retries) to FILE as JSONL — `repro dash` tails this",
        )
        sub_parser.add_argument(
            "--ledger", metavar="FILE", default=None,
            help="append one campaign-ledger record for this run "
                 "(default $REPRO_LEDGER; unset = no ledger)",
        )
        sub_parser.add_argument(
            "--store", metavar="URL", default=None,
            help="route the sweep through a farm store "
                 "(sqlite:///PATH); extra `repro worker --store URL` "
                 "processes share the load; mutually exclusive with "
                 "--resume (the store already checkpoints per trial)",
        )
        _add_resilience_flags(sub_parser)

    submit = sub.add_parser(
        "submit",
        help="enqueue an experiment grid into a farm store; "
             "`repro worker` processes drain it",
    )
    sb_sa, sb_ex, sb_ch = _add_grid_subparsers(
        submit, "submit_command", CHAOS_PROTOCOLS
    )
    for sub_parser in (sb_sa, sb_ex, sb_ch):
        sub_parser.add_argument(
            "--store", metavar="URL", required=True,
            help="farm store URL (sqlite:///PATH or a bare path)",
        )
        sub_parser.add_argument(
            "--campaign", default=None, metavar="NAME",
            help="campaign name (default: a generated run-<ts>-<id>)",
        )
        sub_parser.add_argument(
            "--cache-dir", default=None, metavar="DIR",
            help="trial cache root; cached results are enqueued "
                 "already-done (default $REPRO_CACHE_DIR or "
                 "~/.cache/repro/trials)",
        )
        sub_parser.add_argument(
            "--no-cache", action="store_true",
            help="skip the cache prefilter; enqueue every trial pending",
        )
        sub_parser.add_argument(
            "--ledger", metavar="FILE", default=None,
            help="append one campaign-ledger record for this submit "
                 "(default $REPRO_LEDGER; unset = no ledger)",
        )
        sub_parser.add_argument("--json", action="store_true")

    worker = sub.add_parser(
        "worker",
        help="drain a farm store: claim leased batches, execute, "
             "complete (run any number, on any machine that sees the "
             "store)",
    )
    worker.add_argument("--store", metavar="URL", required=True,
                        help="farm store URL (sqlite:///PATH)")
    worker.add_argument("--campaign", default=None, metavar="NAME",
                        help="only claim this campaign's trials "
                             "(default: any)")
    worker.add_argument("--worker-id", default=None, metavar="ID",
                        help="lease-holder label (default host:pid)")
    worker.add_argument("--jobs", type=int, default=1,
                        help="local worker processes (0 = one per CPU; "
                             "default 1 = in-process)")
    worker.add_argument("--batch-size", type=int, default=None, metavar="N",
                        help="trials claimed per lease round (default: "
                             "sized from measured trial time to ~0.1 s "
                             "of work, between 2 per job and 64)")
    worker.add_argument("--lease-ttl", type=float, default=30.0,
                        metavar="SECONDS",
                        help="lease expiry; a heartbeat renews live "
                             "leases every TTL/3 (default 30)")
    worker.add_argument("--retries", type=int, default=0,
                        help="per-trial attempt budget before the store "
                             "quarantines it (default 0 = one attempt)")
    worker.add_argument("--trial-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-trial wall-clock budget, enforced by "
                             "an in-worker watchdog")
    worker.add_argument("--backoff", type=float, default=0.5,
                        metavar="SECONDS",
                        help="base of the exponential pause after a "
                             "failing batch (default 0.5; 0 disables)")
    worker.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="trial cache root; completions are written "
                             "back for future submits")
    worker.add_argument("--no-cache", action="store_true",
                        help="don't write completions to the trial cache")
    worker.add_argument("--max-idle", type=float, default=None,
                        metavar="SECONDS",
                        help="exit after this long with nothing claimable "
                             "(default: wait for the store to drain)")
    worker.add_argument("--poll", type=float, default=0.2,
                        metavar="SECONDS",
                        help="idle poll interval while other workers "
                             "hold the remaining leases (default 0.2)")
    worker.add_argument("--events", metavar="FILE", default=None,
                        help="stream farm events (claims, reaps, "
                             "retries) to FILE as JSONL")
    worker.add_argument("--ledger", metavar="FILE", default=None,
                        help="append one campaign-ledger record for "
                             "this drain (default $REPRO_LEDGER)")
    worker.add_argument("--json", action="store_true")
    # Self-test hook (tests/CI only): hard-exit mid-batch after N
    # completions, leases still held, like a power cut.
    worker.add_argument("--self-test-crash-after", type=int, default=None,
                        help=argparse.SUPPRESS)

    farm = sub.add_parser(
        "farm", help="inspect a farm store / collect campaign results"
    )
    farm_sub = farm.add_subparsers(dest="farm_command", required=True)

    f_status = farm_sub.add_parser(
        "status",
        help="state counts, live workers, per-campaign progress",
    )
    f_status.add_argument("--store", metavar="URL", required=True)
    f_status.add_argument("--watch", action="store_true",
                          help="redraw until the store is drained")
    f_status.add_argument("--interval", type=float, default=1.0,
                          metavar="SECONDS",
                          help="--watch redraw interval (default 1)")
    f_status.add_argument("--json", action="store_true")

    f_results = farm_sub.add_parser(
        "results",
        help="reassemble a drained campaign's results in submission "
             "order (exit 2 while trials are still in flight)",
    )
    f_results.add_argument("--store", metavar="URL", required=True)
    f_results.add_argument("--campaign", required=True, metavar="NAME")
    f_results.add_argument("--csv", metavar="FILE", default=None,
                           help="export the results as CSV to FILE "
                                "(same shape as `sweep --csv`)")
    f_results.add_argument("--json", action="store_true")

    f_requeue = farm_sub.add_parser(
        "requeue",
        help="re-arm quarantined trials after a fix lands: reset "
             "attempts, clear the quarantine reason, back to pending",
    )
    f_requeue.add_argument("--store", metavar="URL", required=True)
    f_requeue.add_argument("--campaign", metavar="NAME", default=None,
                           help="limit to one campaign (default: whole "
                                "store)")
    selector = f_requeue.add_mutually_exclusive_group(required=True)
    selector.add_argument("--trial-id", type=int, action="append",
                          metavar="POSITION", dest="trial_ids",
                          help="re-arm this trial position (repeatable)")
    selector.add_argument("--all", action="store_true", dest="requeue_all",
                          help="re-arm every quarantined trial in scope")
    f_requeue.add_argument("--json", action="store_true")

    from .mc.instances import FAMILIES

    mc_check = sub.add_parser(
        "check",
        help="model-check a small instance: every schedule × crash pattern",
    )
    mc_check.add_argument("--protocol", choices=sorted(FAMILIES),
                          default="fig1")
    mc_check.add_argument("--processes", type=int, default=2)
    mc_check.add_argument("--resilience", type=int, default=None, metavar="F")
    mc_check.add_argument("--depth", type=int, default=14,
                          help="schedule-length bound (exploration horizon)")
    mc_check.add_argument("--por", action=argparse.BooleanOptionalAction,
                          default=True,
                          help="sleep-set partial-order reduction")
    mc_check.add_argument("--dedup", action=argparse.BooleanOptionalAction,
                          default=True,
                          help="fingerprint-based visited-state pruning")
    mc_check.add_argument("--jobs", type=int, default=1,
                          help="worker processes (parallel root sharding)")
    mc_check.add_argument("--batch-size", type=int, default=None, metavar="N",
                          help="shards per dispatched batch (default ~2 "
                               "batches per worker)")
    mc_check.add_argument("--max-crashes", type=int, default=0,
                          help="also sweep crash subsets up to this size")
    mc_check.add_argument("--crash-times", default="0", metavar="LIST",
                          help="crash times to sweep, e.g. 0,2,4")
    mc_check.add_argument("--stabilization", type=int, default=0,
                          help="detector stabilization time (0 = stable "
                               "from the start)")
    mc_check.add_argument("--max-states", type=int, default=None)
    mc_check.add_argument("--require-progress", action="store_true",
                          help="treat depth exhaustion as a violation")
    mc_check.add_argument("--json", action="store_true")
    mc_check.add_argument("--save-counterexample", metavar="FILE",
                          default=None,
                          help="write the first counterexample to FILE "
                               "as JSON")
    _add_resilience_flags(mc_check)

    audit = sub.add_parser(
        "audit",
        help="differential audit: the same trial via different paths "
             "must agree (exit 4 on divergence)",
    )
    audit.add_argument(
        "--pairs", default=None, metavar="LIST",
        help="comma-separated oracle pairs to run (default: all); "
             "known: " + ", ".join(ORACLE_PAIRS),
    )
    audit.add_argument("--budget", type=int, default=200,
                       help="approximate trial-pair budget, split across "
                            "the selected oracle pairs (default 200)")
    audit.add_argument("--seed", type=int, default=0)
    audit.add_argument("--jobs", type=int, default=1,
                       help="worker processes for sharding audit cases "
                            "(default 1 = in-process)")
    audit.add_argument("--report", metavar="FILE",
                       default="audit-report.json",
                       help="where to write the JSON report "
                            "(default audit-report.json)")
    audit.add_argument("--sabotage",
                       choices=("cache", "abd-ack", "infra-dup"),
                       default="",
                       help="self-test: inject a known equivalence break "
                            "(a poisoned cache entry / a corrupted ABD "
                            "ack / a duplicated farm row) — the audit "
                            "must then exit 4")
    audit.add_argument("--json", action="store_true",
                       help="print the full report as JSON to stdout")

    from .chaos.infra import SABOTAGES as INFRA_SABOTAGES
    from .chaos.infra import SEVERITIES as INFRA_SEVERITIES

    chaos = sub.add_parser(
        "chaos",
        help="fault-inject the experiment infrastructure itself "
             "(exit 1 on an invariant violation)",
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)
    c_infra = chaos_sub.add_parser(
        "infra",
        help="crash-consistency check: drain a farm campaign under "
             "seeded lock storms, torn-process kills, and cache ENOSPC; "
             "every trial must settle exactly once, byte-identical to a "
             "pristine serial run",
    )
    c_infra.add_argument("--seed", type=int, default=0)
    c_infra.add_argument("--runs", type=int, default=50,
                         help="independent kill-point runs (default 50)")
    c_infra.add_argument("--trials", type=int, default=4,
                         help="grid size drained per run (default 4)")
    c_infra.add_argument("--severity", choices=INFRA_SEVERITIES,
                         default="max",
                         help="fault-plan severity (default max)")
    c_infra.add_argument("--sabotage", choices=INFRA_SABOTAGES, default="",
                         help="self-test: doctor each drained store with "
                              "a known violation — the check must then "
                              "exit 1")
    c_infra.add_argument("--json", action="store_true")

    for sub_parser in (mc_check, audit, c_infra):
        sub_parser.add_argument(
            "--ledger", metavar="FILE", default=None,
            help="append one campaign-ledger record for this run "
                 "(default $REPRO_LEDGER; unset = no ledger)",
        )

    dash = sub.add_parser(
        "dash",
        help="live dashboard over a --events stream + campaign ledger "
             "(stdlib http.server; /api/summary, /api/metrics, /metrics)",
    )
    dash.add_argument("--events", metavar="FILE", default=None,
                      help="JSONL event stream to tail (a sweep's "
                           "--events file)")
    dash.add_argument("--ledger", metavar="FILE", default=None,
                      help="campaign ledger to show (default $REPRO_LEDGER)")
    dash.add_argument("--store", metavar="URL", default=None,
                      help="farm store to poll for queue/worker status "
                           "(/api/farm)")
    dash.add_argument("--host", default="127.0.0.1")
    dash.add_argument("--port", type=int, default=8787)

    report_cmd = sub.add_parser(
        "report",
        help="render the campaign ledger as a static HTML "
             "perf-trajectory page (no JS, CI-artifact friendly)",
    )
    report_cmd.add_argument("--ledger", metavar="FILE", default=None,
                            help="campaign ledger to render "
                                 "(default $REPRO_LEDGER)")
    report_cmd.add_argument("--out", metavar="FILE",
                            default="campaign-report.html",
                            help="output HTML path "
                                 "(default campaign-report.html)")
    report_cmd.add_argument("--title", default="repro campaign report")

    return parser


def _add_resilience_flags(sub_parser) -> None:
    sub_parser.add_argument(
        "--retries", type=int, default=0,
        help="re-run a failing/crashing trial up to N extra times "
             "before quarantining it (default 0)",
    )
    sub_parser.add_argument(
        "--trial-timeout", type=float, default=None, metavar="SECONDS",
        help="per-trial wall-clock budget, enforced by an in-worker "
             "watchdog",
    )
    sub_parser.add_argument(
        "--resume", metavar="JOURNAL", default=None,
        help="JSONL checkpoint journal; completed spec keys are "
             "skipped on re-run and appended as the run progresses",
    )


def _add_grid_subparsers(parent, dest: str, chaos_protocols):
    """The three experiment-grid subparsers with their axis flags.

    ``sweep`` (run locally) and ``submit`` (enqueue into a farm store)
    take the same grids; this keeps their axes identical by
    construction.
    """
    grid_sub = parent.add_subparsers(dest=dest, required=True)

    g_sa = grid_sub.add_parser(
        "set-agreement",
        help="Fig. 1 / Fig. 2 grid (defaults = the EXPERIMENTS.md F1 grid)",
    )
    g_sa.add_argument("--sizes", default="3,4,5", metavar="LIST",
                      help="system sizes, e.g. 3,4,5")
    g_sa.add_argument("--stabilizations", default="0,100,300",
                      metavar="LIST", help="Υ stabilization times")
    g_sa.add_argument("--seeds", default="0-19", metavar="LIST",
                      help="seeds; ranges allowed, e.g. 0-19 or 0,1,7")
    g_sa.add_argument("--fs", default=None, metavar="LIST",
                      help="resilience values f (default: wait-free f=n)")
    g_sa.add_argument("--adversarial", action="store_true",
                      help="lockstep schedule + worst-case noise")

    g_ex = grid_sub.add_parser(
        "extraction",
        help="Fig. 3 grid over detector registry names",
    )
    g_ex.add_argument("--detectors", default="omega,omega_n,diamond_p",
                      metavar="LIST",
                      help="registry names, e.g. omega,diamond_p")
    g_ex.add_argument("--sizes", default="3,4", metavar="LIST")
    g_ex.add_argument("--seeds", default="0-9", metavar="LIST")
    g_ex.add_argument("--resilience", type=int, default=None, metavar="F")
    g_ex.add_argument("--stabilization", type=int, default=60)
    g_ex.add_argument("--max-steps", type=int, default=40_000)

    g_ch = grid_sub.add_parser(
        "chaos",
        help="chaos grid: protocols × sizes × lying prefixes × drop rates",
    )
    g_ch.add_argument("--protocols", default="fig1,fig2,abd-converge",
                      metavar="LIST",
                      help=f"chaos protocols ({','.join(chaos_protocols)})")
    g_ch.add_argument("--sizes", default="3,4", metavar="LIST")
    g_ch.add_argument("--seeds", default="0-4", metavar="LIST")
    g_ch.add_argument("--lying-prefixes", default="0,50", metavar="LIST",
                      help="lying-prefix axis, e.g. 0,50,150")
    g_ch.add_argument("--drop-rates", default="0.0,0.2", metavar="LIST",
                      help="drop-rate axis, e.g. 0.0,0.2,0.5")
    g_ch.add_argument("--duplicate-rate", type=float, default=0.0)
    g_ch.add_argument("--reorder-rate", type=float, default=0.0)
    g_ch.add_argument("--burst", type=int, default=0,
                      help="adversarial scheduler burst length")
    g_ch.add_argument("--starvation", type=int, default=0,
                      help="scheduler starvation-window length")
    g_ch.add_argument("--resilience", type=int, default=None, metavar="F")
    g_ch.add_argument(
        "--detector",
        choices=[n for n in detector_names() if n != "dummy"],
        default="omega",
    )
    g_ch.add_argument("--max-steps", type=int, default=60_000)
    g_ch.add_argument(
        "--inject-worker-crash", type=int, default=None, metavar="I",
        help="harness self-test: hard-kill the worker running grid "
             "point I (mod grid size); needs --retries to recover",
    )
    return g_sa, g_ex, g_ch


def _grid_from_args(command: str, args):
    """Build the trial-spec grid a ``sweep``/``submit`` subcommand named.

    Raises :class:`~repro.analysis.sweeps.EmptySweepError` when an axis
    parses empty.
    """
    from .analysis.sweeps import (
        chaos_grid,
        extraction_grid,
        set_agreement_grid,
    )
    from .perf import SabotagedSpec

    if command == "set-agreement":
        return set_agreement_grid(
            system_sizes=_parse_int_list(args.sizes),
            seeds=_parse_int_list(args.seeds),
            stabilization_times=_parse_int_list(args.stabilizations),
            fs=_parse_int_list(args.fs) if args.fs else None,
            adversarial=args.adversarial,
        )
    if command == "chaos":
        specs = chaos_grid(
            protocols=[
                p.strip() for p in args.protocols.split(",") if p.strip()
            ],
            system_sizes=_parse_int_list(args.sizes),
            seeds=_parse_int_list(args.seeds),
            lying_prefixes=_parse_int_list(args.lying_prefixes),
            drop_rates=_parse_float_list(args.drop_rates),
            duplicate_rate=args.duplicate_rate,
            reorder_rate=args.reorder_rate,
            burst_length=args.burst,
            starvation_window=args.starvation,
            f=args.resilience,
            detector=args.detector,
            max_steps=args.max_steps,
        )
        if args.inject_worker_crash is not None:
            victim = args.inject_worker_crash % len(specs)
            specs[victim] = SabotagedSpec(specs[victim], "crash")
        return specs
    return extraction_grid(
        detectors=[
            d.strip() for d in args.detectors.split(",") if d.strip()
        ],
        system_sizes=_parse_int_list(args.sizes),
        seeds=_parse_int_list(args.seeds),
        f=args.resilience,
        stabilization_time=args.stabilization,
        max_steps=args.max_steps,
    )


def _mixed_csv(kinds) -> bool:
    """True (after saying why on stderr) when ``kinds`` holds more than
    one result kind: a CSV has one set of columns."""
    kinds = sorted(set(kinds))
    if len(kinds) < 2:
        return False
    print(f"error: --csv holds one result kind, but this run mixes "
          f"{', '.join(kinds)}; split it (e.g. one --protocols family "
          f"per sweep)", file=sys.stderr)
    return True


def _open_ledger(args):
    """The :class:`CampaignLedger` selected by ``--ledger``/``$REPRO_LEDGER``,
    or ``None`` when the ledger is off (the default)."""
    from .obs.campaign import CampaignLedger, default_ledger_path

    path = getattr(args, "ledger", None) or default_ledger_path()
    return CampaignLedger(path) if path else None


def _parse_int_list(text: str) -> list:
    """``"3,4,5"`` and ``"0-19"`` (inclusive ranges) to a list of ints."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:
            lo, _, hi = part.partition("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def _parse_float_list(text: str) -> list:
    """``"0.0,0.2,0.5"`` to a list of floats (no ranges)."""
    return [float(part) for part in text.split(",") if part.strip()]


def _cmd_fig1(args) -> int:
    system = System(args.processes)
    result = run_set_agreement_trial(
        system, system.n, seed=args.seed,
        stabilization_time=args.stabilization,
        adversarial=args.adversarial,
    )
    print(f"n+1={args.processes}  f=n={system.n}  "
          f"stabilization={args.stabilization}  "
          f"faulty={result.faulty}")
    print(f"steps={result.total_steps}  rounds={result.rounds}  "
          f"distinct decisions={result.distinct_decisions} (bound {system.n})")
    print("properties:", "OK" if result.ok else f"VIOLATED — {result.violations}")
    return 0 if result.ok else 1


def _cmd_fig2(args) -> int:
    system = System(args.processes)
    result = run_set_agreement_trial(
        system, args.resilience, seed=args.seed,
        stabilization_time=args.stabilization, use_fig2=True,
    )
    print(f"n+1={args.processes}  f={args.resilience}  "
          f"faulty={result.faulty}")
    print(f"steps={result.total_steps}  rounds={result.rounds}  "
          f"distinct decisions={result.distinct_decisions} "
          f"(bound {args.resilience})")
    print("properties:", "OK" if result.ok else f"VIOLATED — {result.violations}")
    return 0 if result.ok else 1


def _cmd_extract(args) -> int:
    system = System(args.processes)
    env = (
        Environment.wait_free(system)
        if args.resilience is None
        else Environment(system, args.resilience)
    )
    spec = make_detector(args.detector, env)
    result = run_extraction_trial(
        spec, env, seed=args.seed, stabilization_time=args.stabilization
    )
    output = sorted(result.output) if result.output is not None else None
    print(f"source={spec.name}  environment=E_{env.f}  "
          f"stabilization={args.stabilization}")
    print(f"extracted Υ^{env.f} output: {output}  "
          f"settle time: {result.output_settle_time}")
    ok = result.ok
    print("extraction:", "OK" if ok else "FAILED")
    return 0 if ok else 1


def _cmd_theorem1(args) -> int:
    system = System(args.processes)
    result = run_theorem1_adversary(
        _CANDIDATES[args.candidate](), system, phases=args.phases
    )
    print(f"candidate={args.candidate}  n+1={args.processes}  "
          f"phases={args.phases}")
    if result.stalled_at is None:
        print(f"forced {result.flips} output changes in {result.steps} "
              f"steps — the extracted Ωn output never stabilizes")
    else:
        print(f"candidate stalled in phase {result.stalled_at}; "
              f"violating completion: {result.witness}")
    print("refuted:", "YES" if result.refuted else "NO")
    return 0 if result.refuted else 1


def _cmd_run(args) -> int:
    system = System(args.processes)
    rng = random.Random(args.seed)
    pattern = FailurePattern.random(system, rng, max_crash_time=50)
    spec = UpsilonSpec(system)
    history = spec.sample_history(pattern, rng, stabilization_time=100)
    inputs = {p: f"v{p}" for p in system.pids}
    sim = Simulation(system, make_upsilon_set_agreement(), inputs=inputs,
                     pattern=pattern, history=history)
    sim.run_until(Simulation.all_correct_decided, 500_000,
                  RandomScheduler(args.seed))
    print(f"pattern: {pattern.describe()}")
    print(f"Υ stable value: {sorted(history.stable_value)}")
    print(f"decisions: {sim.decisions()}")
    verdict = SetAgreementSpec(system.n).check(sim, inputs)
    print("properties:", "OK" if verdict.ok else "VIOLATED")
    if args.show_trace:
        print()
        print(render_timeline(sim.trace, system.n_processes))
        print()
        print(render_summary(sim.trace, system.n_processes))
    return 0 if verdict.ok else 1


def _cmd_stats(args) -> int:
    import json

    from .obs import JsonlEventSink, MetricsCollector

    collector = MetricsCollector()
    try:
        sink = (
            JsonlEventSink(args.events, bus=collector.bus)
            if args.events else None
        )
    except OSError as exc:
        print(f"error: cannot open --events file: {exc}", file=sys.stderr)
        return 2
    try:
        if args.stats_command == "fig1":
            system = System(args.processes)
            result = run_set_agreement_trial(
                system, system.n, seed=args.seed,
                stabilization_time=args.stabilization,
                adversarial=args.adversarial, collector=collector,
            )
            headline = (
                f"fig1  n+1={args.processes}  f=n={system.n}  "
                f"stabilization={args.stabilization}  seed={args.seed}  "
                f"steps={result.total_steps}  "
                f"distinct decisions={result.distinct_decisions}"
            )
            ok = result.ok
        elif args.stats_command == "fig2":
            system = System(args.processes)
            result = run_set_agreement_trial(
                system, args.resilience, seed=args.seed,
                stabilization_time=args.stabilization, use_fig2=True,
                collector=collector,
            )
            headline = (
                f"fig2  n+1={args.processes}  f={args.resilience}  "
                f"seed={args.seed}  steps={result.total_steps}  "
                f"distinct decisions={result.distinct_decisions}"
            )
            ok = result.ok
        elif args.stats_command == "chaos":
            from .analysis.sweeps import protocol_spec
            from .chaos import ChaosConfig, injection_counts
            from .perf import execute_trial

            chaos = ChaosConfig(
                seed=args.seed,
                lying_prefix=args.lying_prefix,
                drop_rate=args.drop_rate,
                duplicate_rate=args.duplicate_rate,
                reorder_rate=args.reorder_rate,
                burst_length=args.burst,
                starvation_window=args.starvation,
            )
            result = execute_trial(
                protocol_spec(
                    args.protocol, args.processes, args.seed, chaos=chaos,
                    f=args.resilience, detector=args.detector,
                    max_steps=args.max_steps,
                ),
                collector=collector,
            )
            counts = injection_counts(result.metrics)
            headline = (
                f"chaos  protocol={args.protocol}  n+1={args.processes}  "
                f"seed={args.seed}  lying_prefix={args.lying_prefix}  "
                f"drop_rate={args.drop_rate:g}  steps={result.total_steps}  "
                f"dropped={counts['messages_dropped']}  "
                f"duplicated={counts['messages_duplicated']}  "
                f"delayed={counts['messages_delayed']}"
            )
            ok = result.ok
        else:
            system = System(args.processes)
            env = (
                Environment.wait_free(system)
                if args.resilience is None
                else Environment(system, args.resilience)
            )
            spec = make_detector(args.detector, env)
            result = run_extraction_trial(
                spec, env, seed=args.seed,
                stabilization_time=args.stabilization, collector=collector,
            )
            headline = (
                f"extract  source={spec.name}  environment=E_{env.f}  "
                f"seed={args.seed}  steps={result.total_steps}  "
                f"settle time={result.output_settle_time}"
            )
            ok = result.ok
    finally:
        if sink is not None:
            sink.close()
    fmt = "json" if args.json else args.format
    if fmt == "json":
        print(json.dumps(
            {"headline": headline, "ok": ok,
             "events_written": sink.lines if sink is not None else 0,
             "metrics": result.metrics},
            indent=2, sort_keys=True,
        ))
        return 0 if ok else 1
    if fmt == "prom":
        from .obs.prom import render_prometheus

        print(render_prometheus(collector.registry), end="")
        return 0 if ok else 1
    print(headline)
    print()
    print(collector.registry.render())
    stab = collector.stabilization_times()
    print()
    if stab:
        settled = ", ".join(
            f"p{pid}@t={int(t)}" for pid, t in sorted(stab.items())
        )
        print(f"emit stabilization times: {settled}")
    else:
        print("emit stabilization times: — (no emits in this protocol)")
    if sink is not None:
        print(f"{sink.lines} events -> {args.events}")
    print("properties:", "OK" if ok else "VIOLATED")
    return 0 if ok else 1


def _cmd_profile(args) -> int:
    import json

    from .obs import profile_engine

    profile = profile_engine(
        n_processes=args.processes,
        repeats=args.repeats,
        max_steps=args.max_steps,
    )
    if args.json:
        print(json.dumps(profile.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"engine hot path — lockstep spin workload, "
              f"n+1={args.processes}, best of {args.repeats} runs")
        print()
        print(profile.render())
    return 0


def _cmd_sweep(args) -> int:
    import json
    import time

    from .analysis.sweeps import EmptySweepError, to_csv
    from .perf import (
        DispatchStats,
        QuarantineReport,
        TrialCache,
        resolve_jobs,
        run_trials,
    )

    try:
        specs = _grid_from_args(args.sweep_command, args)
    except EmptySweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.csv and _mixed_csv(spec.kind for spec in specs):
        return 2

    # Satellite guard for the farm backend: the store already
    # checkpoints per trial, so a journal would be a second, possibly
    # disagreeing, source of truth (run_trials enforces the same).
    if args.store and args.resume:
        print("error: --store and --resume are mutually exclusive: the "
              "farm store already checkpoints every trial. Drop "
              "--resume — re-running with the same --store and cache "
              "resumes automatically.", file=sys.stderr)
        return 2

    from .obs import JsonlEventSink, MetricsCollector

    resilient = bool(
        args.retries or args.trial_timeout or args.resume or args.store
        or getattr(args, "inject_worker_crash", None) is not None
    )
    quarantine = QuarantineReport() if resilient else None
    cache = None if args.no_cache else TrialCache(args.cache_dir)
    jobs = resolve_jobs(args.jobs)
    collector = MetricsCollector()
    try:
        sink = (
            JsonlEventSink(args.events, bus=collector.bus, flush=True)
            if args.events else None
        )
    except OSError as exc:
        print(f"error: cannot open --events file: {exc}", file=sys.stderr)
        return 2
    dispatch = DispatchStats()
    start = time.perf_counter()
    try:
        results = run_trials(
            specs, jobs=jobs, cache=cache, chunk_size=args.batch_size,
            retries=args.retries, trial_timeout=args.trial_timeout,
            journal=args.resume, quarantine=quarantine,
            collector=collector, dispatch=dispatch, store=args.store,
        )
    finally:
        if sink is not None:
            sink.close()
    wall = time.perf_counter() - start

    survivors = [r for r in results if r is not None]
    ok_flags = [r.ok for r in survivors]
    all_ok = all(ok_flags)
    quarantined = len(quarantine) if quarantine is not None else 0

    if args.csv and survivors:
        to_csv(survivors, args.csv)

    summary = {
        "kind": args.sweep_command,
        "trials": len(results),
        "completed": len(survivors),
        "quarantined": quarantined,
        "ok": sum(ok_flags),
        "violations": len(ok_flags) - sum(ok_flags),
        "jobs": jobs,
        "wall_seconds": round(wall, 3),
        "trials_per_second": round(len(results) / wall, 1) if wall else None,
        "cache": None if cache is None else {
            "dir": str(cache.root),
            "hits": cache.hits,
            "misses": cache.misses,
        },
        "journal": args.resume,
        "store": args.store,
        "csv": args.csv if survivors else None,
        "dispatch": dispatch.to_dict(),
    }
    registry = collector.registry
    retried = registry.counter("trial_retries").total()
    ledger = _open_ledger(args)
    if ledger is not None:
        ledger.append_run(
            f"sweep:{args.sweep_command}",
            "ok" if all_ok else "violation",
            duration=wall, trials=len(results),
            quarantined=quarantined, retries=retried,
            jobs=jobs, violations=len(ok_flags) - sum(ok_flags),
            events=args.events,
        )
    if args.json:
        if quarantine is not None:
            summary["quarantine"] = quarantine.to_dict()
        summary["metrics"] = collector.snapshot()
        summary["events_written"] = sink.lines if sink is not None else 0
        summary["ledger"] = str(ledger.path) if ledger is not None else None
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"{args.sweep_command} sweep: {len(results)} trials  "
              f"jobs={jobs}  wall={wall:.2f}s")
        if jobs > 1:
            print(f"dispatch: {dispatch.batches} batches, "
                  f"{dispatch.pool_spawns} pool spawn(s), "
                  f"{dispatch.pool_reuses} reuse(s), "
                  f"{dispatch.cache_get_round_trips + dispatch.cache_put_round_trips} "
                  f"cache round trips")
        if cache is not None:
            print(f"cache: {cache.hits} hits, {cache.misses} misses "
                  f"({cache.root})")
        if args.resume:
            print(f"journal: {args.resume} "
                  f"({len(survivors)}/{len(results)} keys done)")
        if args.store:
            print(f"store: {args.store}")
        if args.csv and survivors:
            print(f"csv -> {args.csv}")
        if sink is not None:
            print(f"{sink.lines} events -> {args.events}")
        if ledger is not None:
            print(f"ledger -> {ledger.path}")
        if quarantine:
            print()
            print(quarantine.render())
            print()
        print("properties:", "OK" if all_ok else
              f"VIOLATED in {len(ok_flags) - sum(ok_flags)} trials")
    # Quarantined trials degrade the sweep to partial results; only a
    # property violation in a completed trial is a failure.
    return 0 if all_ok else 1


def _cmd_check(args) -> int:
    import json

    from .mc import CrashSweep, ExploreConfig, McInstance, check
    from .obs import MetricsRegistry

    instance = McInstance(
        args.protocol,
        n_processes=args.processes,
        f=args.resilience,
        stabilization_time=args.stabilization,
    )
    config = ExploreConfig(
        max_depth=args.depth,
        por=args.por,
        dedup=args.dedup,
        require_progress=args.require_progress,
        max_states=args.max_states,
    )
    sweep = None
    if args.max_crashes > 0:
        sweep = CrashSweep(
            max_crashes=args.max_crashes,
            crash_times=tuple(_parse_int_list(args.crash_times)),
        )
    from .perf import QuarantineReport

    resilient = bool(args.retries or args.trial_timeout or args.resume)
    quarantine = QuarantineReport() if resilient else None
    import time as time_module

    start = time_module.perf_counter()
    report = check(
        instance, config, sweep=sweep, jobs=args.jobs,
        batch_size=args.batch_size,
        retries=args.retries, trial_timeout=args.trial_timeout,
        journal=args.resume, quarantine=quarantine,
    )
    wall = time_module.perf_counter() - start
    if args.save_counterexample and report.counterexamples:
        report.counterexamples[0].save(args.save_counterexample)
    ledger = _open_ledger(args)
    if ledger is not None:
        ledger.append_run(
            f"check:{args.protocol}", "ok" if report.ok else "violation",
            duration=wall, trials=report.instances_checked,
            quarantined=len(quarantine) if quarantine is not None else 0,
            counterexamples=len(report.counterexamples),
            depth=args.depth,
        )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0 if report.ok else 1
    stats = report.total_stats()
    reduction = report.total_reduction()
    print(f"check  protocol={args.protocol}  n+1={args.processes}  "
          f"depth={args.depth}  por={'on' if args.por else 'off'}  "
          f"instances={report.instances_checked}")
    registry = MetricsRegistry()
    report.record_metrics(registry)
    print()
    print(registry.render())
    print()
    print(f"explored {stats.states_visited} states "
          f"({stats.states_distinct} distinct, "
          f"{stats.pruned_visited} pruned as visited) in "
          f"{stats.wall_seconds:.2f}s — "
          f"{stats.states_per_second:,.0f} states/s; "
          f"reduction ratio {reduction.ratio:.3f}")
    if not report.ok:
        for ce in report.counterexamples:
            print(f"COUNTEREXAMPLE: {ce.describe()}")
            print(f"  schedule: {list(ce.schedule)}")
        if args.save_counterexample:
            print(f"first counterexample -> {args.save_counterexample}")
    if quarantine:
        print()
        print(quarantine.render())
        print()
    if stats.truncated:
        print("warning: exploration truncated (--max-states or "
              "quarantined shards); the verdict is not exhaustive")
    print("properties:", "OK" if report.ok else "VIOLATED")
    return 0 if report.ok else 1


def _cmd_hierarchy(args) -> int:
    from .core import DetectorHierarchy

    system = System(args.processes)
    env = (
        Environment.wait_free(system)
        if args.resilience is None
        else Environment(system, args.resilience)
    )
    hierarchy = DetectorHierarchy(env)
    print(f"detectors over n+1={args.processes}, E_{env.f}: "
          f"{', '.join(hierarchy.detectors())}")
    for weaker, edges in sorted(
        (node, list(hierarchy.graph.out_edges(node)))
        for node in hierarchy.graph.nodes
    ):
        for _, stronger in edges:
            edge = hierarchy.graph.edges[weaker, stronger]["edge"]
            marker = "≺" if edge.strict else "≤"
            print(f"  {weaker} {marker} {stronger}: {edge.justification}")
    return 0


def _cmd_campaign(args) -> int:
    from .analysis import run_campaign
    from .core import make_upsilon_f_set_agreement, make_upsilon_set_agreement
    from .detectors import UpsilonFSpec

    def protocol(system, f):
        if f == system.n:
            return make_upsilon_set_agreement()
        return make_upsilon_f_set_agreement(f)

    def detector(system, env):
        return UpsilonFSpec(env) if env.f < system.n else UpsilonSpec(system)

    report = run_campaign(
        protocol, lambda system, f: SetAgreementSpec(f), detector,
        trials=args.trials, seed=args.seed,
    )
    print(report.summary())
    for failure in report.failures:
        print(" ", failure)
    return 0 if report.ok else 1


def _cmd_audit(args) -> int:
    import json as json_module

    from .audit import run_audit
    from .obs.metrics import MetricsCollector

    pairs = None
    if args.pairs:
        pairs = [p.strip() for p in args.pairs.split(",") if p.strip()]
    collector = MetricsCollector()
    report = run_audit(
        budget=args.budget,
        seed=args.seed,
        pairs=pairs,
        jobs=args.jobs,
        sabotage=args.sabotage,
        bus=collector.bus,
        progress=None if args.json else print,
        collector=collector,
    )
    report_path = report.save(args.report)
    ledger = _open_ledger(args)
    if ledger is not None:
        ledger.append_run(
            "audit", "ok" if report.ok else "divergence",
            duration=report.elapsed_seconds, trials=report.trial_pairs,
            divergences=len(report.divergences), budget=args.budget,
        )
    if args.json:
        print(json_module.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        rate = (
            report.trial_pairs / report.elapsed_seconds
            if report.elapsed_seconds else 0.0
        )
        print(f"{report.summary()}  ({rate:.1f} trial-pairs/s)")
        for body in report.divergences:
            print(f"  DIVERGENCE [{body.get('pair')}] case "
                  f"{body.get('case')}: {body.get('detail')}")
    print(f"report: {report_path}")
    return 0 if report.ok else 4


def _cmd_submit(args) -> int:
    import json
    import time

    from .analysis.sweeps import EmptySweepError
    from .farm import FarmStoreError, submit_campaign
    from .perf import TrialCache

    try:
        specs = _grid_from_args(args.submit_command, args)
    except EmptySweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cache = None if args.no_cache else TrialCache(args.cache_dir)
    start = time.perf_counter()
    try:
        summary = submit_campaign(
            args.store, specs, campaign=args.campaign,
            kind=args.submit_command, cache=cache,
        )
    except FarmStoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - start
    ledger = _open_ledger(args)
    if ledger is not None:
        ledger.append_run(
            f"farm:submit:{args.submit_command}", "ok",
            duration=wall, trials=summary["trials"],
            campaign=summary["campaign"], store=summary["store"],
            cache_hits=summary["cache_hits"],
        )
    if args.json:
        out = dict(summary)
        out["ledger"] = str(ledger.path) if ledger is not None else None
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        print(f"campaign {summary['campaign']}: {summary['trials']} "
              f"trial(s) -> {summary['store']}")
        print(f"  {summary['cache_hits']} cache hit(s) enqueued done, "
              f"{summary['pending']} pending")
        print(f"  drain with: repro worker --store {args.store} "
              f"(any number, any machine)")
        if ledger is not None:
            print(f"ledger -> {ledger.path}")
    return 0


def _cmd_worker(args) -> int:
    import json
    import time

    from .farm import FarmStoreError, FarmWorker, open_store
    from .obs import JsonlEventSink, MetricsCollector
    from .perf import ResiliencePolicy, TrialCache, resolve_jobs

    collector = MetricsCollector()
    try:
        sink = (
            JsonlEventSink(args.events, bus=collector.bus, flush=True)
            if args.events else None
        )
    except OSError as exc:
        print(f"error: cannot open --events file: {exc}", file=sys.stderr)
        return 2
    try:
        store = open_store(args.store)
    except (FarmStoreError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    policy = ResiliencePolicy(
        retries=args.retries, trial_timeout=args.trial_timeout,
        backoff=args.backoff,
    )
    cache = None if args.no_cache else TrialCache(args.cache_dir)
    start = time.perf_counter()
    try:
        farm_worker = FarmWorker(
            store,
            worker_id=args.worker_id,
            jobs=resolve_jobs(args.jobs),
            batch_size=args.batch_size,
            lease_ttl=args.lease_ttl,
            policy=policy,
            cache=cache,
            campaign=args.campaign,
            bus=collector.bus,
            poll=args.poll,
            max_idle=args.max_idle,
            crash_after=args.self_test_crash_after,
        )
        stats = farm_worker.drain()
    finally:
        store.close()
        if sink is not None:
            sink.close()
    wall = time.perf_counter() - start
    ledger = _open_ledger(args)
    if ledger is not None:
        ledger.append_run(
            "farm:worker", "ok",
            duration=wall, trials=stats["completed"],
            quarantined=stats["quarantined"],
            worker=farm_worker.worker_id, store=store.url,
            claimed=stats["claimed"], reaped=stats["reaped"],
        )
    if args.json:
        out = {"worker": farm_worker.worker_id, "store": store.url,
               "wall_seconds": round(wall, 3),
               "events_written": sink.lines if sink is not None else 0,
               "ledger": str(ledger.path) if ledger is not None else None}
        out.update(stats)
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        print(f"worker {farm_worker.worker_id} drained {store.url}: "
              f"{stats['completed']} completed, {stats['failed']} "
              f"failed, {stats['quarantined']} quarantined in "
              f"{wall:.2f}s")
        print(f"  {stats['claimed']} claim(s) in {stats['batches']} "
              f"batch(es), {stats['reaped']} dead lease(s) reaped, "
              f"{stats['stale']} stale settlement(s)")
        if sink is not None:
            print(f"{sink.lines} events -> {args.events}")
        if ledger is not None:
            print(f"ledger -> {ledger.path}")
    return 0


def _cmd_farm(args) -> int:
    import json

    from .farm import (
        CampaignIncompleteError,
        FarmStoreError,
        open_store,
        render_status,
        watch,
    )

    try:
        store = open_store(args.store)
    except (FarmStoreError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.farm_command == "status":
            if args.watch:
                watch(store, interval=args.interval)
                return 0
            status = store.status()
            if args.json:
                print(json.dumps(status, indent=2, sort_keys=True))
            else:
                print(render_status(status))
            return 0

        if args.farm_command == "requeue":
            positions = None if args.requeue_all else args.trial_ids
            rearmed = store.requeue(
                campaign=args.campaign, positions=positions
            )
            if args.json:
                print(json.dumps(
                    {"store": store.url, "campaign": args.campaign,
                     "positions": positions, "requeued": rearmed},
                    indent=2, sort_keys=True,
                ))
            else:
                scope = (f"campaign {args.campaign}" if args.campaign
                         else "whole store")
                print(f"re-armed {rearmed} quarantined trial(s) in {scope}")
            return 0

        # farm results: the collect half of submit/collect.
        from .analysis.sweeps import to_csv
        from .farm import collect_results
        from .obs import MetricsCollector
        from .obs.telemetry import result_verdict
        from .perf import QuarantineReport

        quarantine = QuarantineReport()
        collector = MetricsCollector()
        try:
            results, info = collect_results(
                store, args.campaign, collector=collector,
                quarantine=quarantine,
            )
        except (CampaignIncompleteError, FarmStoreError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        survivors = [r for r in results if r is not None]
        if args.csv and _mixed_csv(type(r).__name__ for r in survivors):
            return 2
        ok_flags = [result_verdict(r) for r in survivors]
        all_ok = all(ok_flags)
        if args.csv and survivors:
            to_csv(survivors, args.csv)
        if args.json:
            print(json.dumps(
                {"campaign": args.campaign, "store": store.url,
                 **info,
                 "ok": sum(ok_flags),
                 "violations": len(ok_flags) - sum(ok_flags),
                 "quarantine": quarantine.to_dict() if quarantine else None,
                 "metrics": collector.snapshot(),
                 "csv": args.csv if survivors else None},
                indent=2, sort_keys=True,
            ))
        else:
            print(f"campaign {args.campaign}: {info['completed']}/"
                  f"{info['trials']} completed "
                  f"({info['cached']} from cache, "
                  f"{info['quarantined']} quarantined)")
            if args.csv and survivors:
                print(f"csv -> {args.csv}")
            if quarantine:
                print()
                print(quarantine.render())
                print()
            print("properties:", "OK" if all_ok else
                  f"VIOLATED in {len(ok_flags) - sum(ok_flags)} trials")
        return 0 if all_ok else 1
    finally:
        store.close()


def _cmd_chaos(args) -> int:
    import json as json_module

    from .chaos.infra import CrashConsistencyChecker, default_infra_specs
    from .obs.metrics import MetricsCollector

    collector = MetricsCollector()
    checker = CrashConsistencyChecker(
        default_infra_specs(args.trials),
        runs=args.runs,
        seed=args.seed,
        severity=args.severity,
        sabotage=args.sabotage,
        bus=collector.bus,
    )
    report = checker.run()
    ledger = _open_ledger(args)
    if ledger is not None:
        ledger.append_run(
            "chaos-infra", "ok" if report.ok else "violation",
            duration=report.elapsed_seconds,
            trials=report.runs * report.trials_per_run,
            severity=report.severity, seed=report.seed,
            kills=report.kills, violations=len(report.violations),
        )
    if args.json:
        print(json_module.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _cmd_dash(args) -> int:
    from .obs.campaign import default_ledger_path
    from .obs.dash import serve

    ledger = args.ledger or default_ledger_path()
    if not args.events and not ledger and not args.store:
        print("error: nothing to show — pass --events, --ledger and/or "
              "--store (or set $REPRO_LEDGER)", file=sys.stderr)
        return 2
    serve(events_path=args.events, ledger=ledger, store=args.store,
          host=args.host, port=args.port)
    return 0


def _cmd_report(args) -> int:
    from .obs.campaign import CampaignLedger, default_ledger_path
    from .obs.report import render_report_html

    path = args.ledger or default_ledger_path()
    if not path:
        print("error: no ledger — pass --ledger FILE or set $REPRO_LEDGER",
              file=sys.stderr)
        return 2
    ledger = CampaignLedger(path)
    records = ledger.records()
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(render_report_html(records, title=args.title))
    print(f"{len(records)} ledger record(s) -> {args.out}")
    return 0


_COMMANDS = {
    "audit": _cmd_audit,
    "chaos": _cmd_chaos,
    "dash": _cmd_dash,
    "report": _cmd_report,
    "fig1": _cmd_fig1,
    "hierarchy": _cmd_hierarchy,
    "campaign": _cmd_campaign,
    "fig2": _cmd_fig2,
    "extract": _cmd_extract,
    "theorem1": _cmd_theorem1,
    "run": _cmd_run,
    "stats": _cmd_stats,
    "profile": _cmd_profile,
    "sweep": _cmd_sweep,
    "submit": _cmd_submit,
    "worker": _cmd_worker,
    "farm": _cmd_farm,
    "check": _cmd_check,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    from .runtime import NonTerminationError

    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NonTerminationError as exc:
        print(f"error: NonTerminationError: {exc}", file=sys.stderr)
        print("hint: raise --max-steps, or lower the chaos severity — "
              "a lying prefix or starvation window delays decisions",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
