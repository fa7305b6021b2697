"""Command-line driver: ``repro-fpga`` / ``python -m repro``.

Subcommands
-----------
``info <design>``
    Print statistics of one generated benchmark.
``generate <design> <path>``
    Write a generated benchmark to a ``.net`` file.
``run <design> [--flow ...] [--tracks N] [--seed N] [--effort ...]``
    Run one layout flow on one design and print its metrics.
``compare <design> [...]``
    Run both flows and print the Table-1-style comparison row.
``lint [paths ...]``
    Run the determinism/invariant static analyzer (``repro.lint``).
``trace summary|diff|validate ...``
    Summarize, diff, or validate anneal traces (``repro.obs``).
``xray show|svg|diff ...``
    Render and compare layout snapshots (``repro.obs.snapshot``).
``runs list|show|compare|regress|report ...``
    Cross-run analytics over a run ledger (``repro.obs.ledger``).
``watch <trace> [--gate] [--once --json] ...``
    Live dashboard / stall watchdog over a running flow
    (``repro.obs.live``).
``jobs submit|run|status|cancel|resume ...``
    Fault-tolerant anneal job supervisor: persistent queue, worker
    pool with watchdogs, checkpoint-resume retries
    (``repro.service``).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional, Sequence

from . import architecture_for
from .analysis import format_table
from .core import AnnealerConfig, fast_config, thorough_config
from .flows import (
    SequentialConfig,
    fast_sequential_config,
    run_sequential,
    run_simultaneous,
    timing_improvement_percent,
)
from .netlist import PAPER_SPECS, dump, paper_benchmark
from .obs.console import get_console
from .obs.metrics import format_timings


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("design", choices=sorted(PAPER_SPECS))
    parser.add_argument("--tracks", type=int, default=24,
                        help="horizontal tracks per channel (default 24)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--effort", choices=("fast", "normal", "thorough"), default="fast"
    )


def _configs(effort: str, seed: int):
    if effort == "fast":
        return fast_config(seed), fast_sequential_config(seed)
    if effort == "thorough":
        return thorough_config(seed), SequentialConfig(seed=seed,
                                                       attempts_per_cell=14)
    return AnnealerConfig(seed=seed), SequentialConfig(seed=seed)


def _cmd_info(args: argparse.Namespace) -> int:
    netlist = paper_benchmark(args.design)
    print(netlist)
    for key, value in netlist.stats().items():
        print(f"  {key:>12}: {value}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    netlist = paper_benchmark(args.design)
    dump(netlist, args.path)
    print(f"wrote {netlist.num_cells} cells / {netlist.num_nets} nets to {args.path}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    console = get_console()
    netlist = paper_benchmark(args.design)
    arch = architecture_for(netlist, tracks_per_channel=args.tracks)
    sim_cfg, seq_cfg = _configs(args.effort, args.seed)
    # The instrumentation flags compose freely: any subset of
    # --trace / --sanitize / --heartbeat can ride on one run, all wired through the shared Instrumentation hook point in
    # the annealer.
    overrides: dict = {}
    if args.sanitize:
        overrides["sanitize"] = True
    if args.trace is not None:
        overrides["trace"] = True
    if args.heartbeat is not None:
        if args.heartbeat == "auto":
            if args.trace is None:
                console.error("--heartbeat without a PATH requires "
                              "--trace (the sidecar lives next to the "
                              "trace file)")
                return 2
            from .obs.live import heartbeat_path

            overrides["heartbeat_path"] = str(heartbeat_path(args.trace))
        else:
            overrides["heartbeat_path"] = args.heartbeat
        if args.trace is not None:
            # Stream trace events to the file as they happen, so
            # `repro-fpga watch` can tail the very file the final
            # atomic write will later replace byte-identically.
            overrides["trace_stream"] = args.trace
    if args.snapshot_every:
        if args.trace is None:
            console.error("--snapshot-every requires --trace (snapshots "
                          "ride in the trace event stream)")
            return 2
        overrides["snapshot_every"] = args.snapshot_every
    if args.checkpoint_every and args.checkpoint is None:
        console.error("--checkpoint-every requires --checkpoint PATH")
        return 2
    if args.checkpoint is not None:
        overrides["checkpoint_path"] = args.checkpoint
        overrides["checkpoint_every"] = args.checkpoint_every
    if args.max_seconds:
        overrides["max_seconds"] = args.max_seconds
    if args.max_stages:
        overrides["max_stages"] = args.max_stages
    if args.max_moves:
        overrides["max_moves"] = args.max_moves
    if args.checkpoint is not None or args.resume is not None or any(
        (args.max_seconds, args.max_stages, args.max_moves)
    ):
        # A run the user expects to interrupt and resume should stop
        # cleanly on the first Ctrl-C instead of dying mid-stage.
        overrides["handle_signals"] = True
    resume_payload = None
    if args.resume is not None:
        if args.flow != "simultaneous":
            console.error("--resume applies only to the simultaneous flow")
            return 2
        from .resilience import read_checkpoint

        resume_payload = read_checkpoint(args.resume)
        if args.checkpoint is None:
            # Keep checkpointing to the file being resumed from, so an
            # interrupt-resume-interrupt chain needs no extra flags.
            overrides["checkpoint_path"] = args.resume
            overrides["checkpoint_every"] = args.checkpoint_every
    if args.flow == "simultaneous":
        if overrides:
            sim_cfg = dataclasses.replace(sim_cfg, **overrides)
        result = run_simultaneous(
            netlist, arch, sim_cfg, resume_from=resume_payload
        )
    else:
        resilience_flags = (
            "checkpoint_path", "checkpoint_every", "max_seconds",
            "max_stages", "max_moves", "handle_signals",
        )
        for flag in ("sanitize", "snapshot_every"):
            if overrides.pop(flag, False):
                name = flag.replace("_", "-")
                console.note(f"note: --{name} only instruments the "
                             f"simultaneous flow")
        for flag in resilience_flags:
            if overrides.pop(flag, False):
                console.note("note: checkpointing and run budgets apply "
                             "only to the simultaneous flow")
                break
        for flag in resilience_flags:
            overrides.pop(flag, None)
        if overrides:
            seq_cfg = dataclasses.replace(seq_cfg, **overrides)
        result = run_sequential(netlist, arch, seq_cfg)
    print(result)
    for key, value in result.metrics().items():
        print(f"  {key:>24}: {value}")
    interrupted = result.extra.get("interrupted") if result.extra else None
    if interrupted:
        checkpoint = result.extra.get("checkpoint")
        console.note(
            f"interrupted: {interrupted} (best-so-far layout returned)"
        )
        if checkpoint:
            console.note(f"resume with: repro-fpga run {args.design} "
                         f"--resume {checkpoint}")
    profile = result.extra.get("profile") if result.extra else None
    if profile is not None:
        print(format_timings(profile, result.wall_time_s))
    trace = result.extra.get("trace") if result.extra else None
    if trace is not None and args.trace is not None:
        trace.write_jsonl(args.trace)
        console.note(f"trace: {len(trace.events)} events -> {args.trace}")
    if args.snapshot is not None:
        from .flows import capture_flow_snapshot
        from .obs.snapshot import write_snapshot

        payload = capture_flow_snapshot(result, arch)
        write_snapshot(payload, args.snapshot)
        console.note(
            f"snapshot: T={payload['timing']['T']:.4f} -> {args.snapshot}"
        )
    if args.ledger is not None:
        # Recording happens strictly after the run — a pure read of the
        # finished result, so the anneal stays bit-identical.
        from .obs.ledger import append_record, record_from_result

        artifacts = {}
        if args.trace is not None and trace is not None:
            artifacts["trace"] = args.trace
        if args.snapshot is not None:
            artifacts["snapshot"] = args.snapshot
        if args.checkpoint is not None:
            artifacts["checkpoint"] = args.checkpoint
        if overrides.get("heartbeat_path"):
            artifacts["heartbeat"] = overrides["heartbeat_path"]
        config = sim_cfg if args.flow == "simultaneous" else seq_cfg
        append_record(args.ledger, record_from_result(
            result, config=config, tag=args.tag, artifacts=artifacts,
        ))
        console.note(f"ledger: appended record to {args.ledger}")
    if interrupted and str(interrupted).startswith("signal"):
        return 130
    return 0 if result.fully_routed else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    netlist = paper_benchmark(args.design)
    arch = architecture_for(netlist, tracks_per_channel=args.tracks)
    sim_cfg, seq_cfg = _configs(args.effort, args.seed)
    seq = run_sequential(netlist, arch, seq_cfg)
    sim = run_simultaneous(netlist, arch, sim_cfg)
    improvement = timing_improvement_percent(seq, sim)
    print(
        format_table(
            ["design", "#cells", "seq T (ns)", "sim T (ns)", "% improvement",
             "seq routed", "sim routed"],
            [[
                args.design,
                netlist.num_cells,
                seq.worst_delay,
                sim.worst_delay,
                improvement,
                seq.fully_routed,
                sim.fully_routed,
            ]],
            title="Timing comparison (Table-1 style)",
        )
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint.cli import main as lint_main

    return lint_main(args.lint_args)


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs.cli import main as trace_main

    return trace_main(args.trace_args)


def _cmd_xray(args: argparse.Namespace) -> int:
    from .obs.cli import xray_main

    return xray_main(args.xray_args)


def _cmd_runs(args: argparse.Namespace) -> int:
    from .obs.cli import runs_main

    return runs_main(args.runs_args)


def _cmd_watch(args: argparse.Namespace) -> int:
    from .obs.cli import watch_main

    return watch_main(args.watch_args)


def _cmd_jobs(args: argparse.Namespace) -> int:
    from .service.cli import jobs_main

    return jobs_main(args.jobs_args)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command-line parser."""
    parser = argparse.ArgumentParser(
        prog="repro-fpga",
        description="Simultaneous place and route for row-based FPGAs "
        "(Nag & Rutenbar, DAC 1994 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="print benchmark statistics")
    p_info.add_argument("design", choices=sorted(PAPER_SPECS))
    p_info.set_defaults(func=_cmd_info)

    p_gen = sub.add_parser("generate", help="write a benchmark .net file")
    p_gen.add_argument("design", choices=sorted(PAPER_SPECS))
    p_gen.add_argument("path")
    p_gen.set_defaults(func=_cmd_generate)

    p_run = sub.add_parser("run", help="run one flow on one design")
    _add_common(p_run)
    p_run.add_argument(
        "--flow", choices=("sequential", "simultaneous"), default="simultaneous"
    )
    p_run.add_argument(
        "--sanitize", action="store_true",
        help="cross-check rollback/cache/audit invariants after every "
        "move (slow; results are bit-identical to an unsanitized run)",
    )
    p_run.add_argument(
        "--trace", nargs="?", const="trace.jsonl", default=None,
        metavar="PATH",
        help="record a structured event trace and write it as JSONL, "
        "and print per-section move-transaction timings "
        "(default PATH: trace.jsonl; results are bit-identical to an "
        "untraced run)",
    )
    p_run.add_argument(
        "--heartbeat", nargs="?", const="auto", default=None,
        metavar="PATH",
        help="write a live heartbeat sidecar (atomic JSON, wall-clock "
        "telemetry kept out of the deterministic trace) to PATH, or "
        "next to the trace as <trace>.hb when PATH is omitted; with "
        "--trace also streams trace events live so 'repro-fpga watch' "
        "can follow the run (results stay bit-identical)",
    )
    p_run.add_argument(
        "--snapshot", default=None, metavar="PATH",
        help="write a flow-end layout snapshot (spatial occupancy + "
        "critical-path attribution) as JSON; inspect it with "
        "'repro-fpga xray'",
    )
    p_run.add_argument(
        "--snapshot-every", type=int, default=0, metavar="N",
        help="with --trace, also embed a layout snapshot event every N "
        "anneal stages (simultaneous flow only; results stay "
        "bit-identical)",
    )
    p_run.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="write an atomic, digest-protected, resumable checkpoint "
        "to PATH at the end of the run and (with --checkpoint-every) "
        "periodically; results stay bit-identical",
    )
    p_run.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="with --checkpoint, also checkpoint every N anneal stages "
        "(0 = final checkpoint only)",
    )
    p_run.add_argument(
        "--resume", default=None, metavar="PATH",
        help="resume an interrupted run from a checkpoint; the combined "
        "runs are bit-identical to one that was never interrupted "
        "(same design/seed/effort flags required)",
    )
    p_run.add_argument(
        "--max-seconds", type=float, default=0.0, metavar="S",
        help="stop cleanly at a stage boundary after S seconds of "
        "wall-clock time and return the best-so-far layout "
        "(0 = unlimited)",
    )
    p_run.add_argument(
        "--max-stages", type=int, default=0, metavar="N",
        help="stop cleanly before anneal stage N (counted across "
        "resumes; 0 = unlimited)",
    )
    p_run.add_argument(
        "--max-moves", type=int, default=0, metavar="N",
        help="stop cleanly at the next stage boundary after N total "
        "move attempts (0 = unlimited)",
    )
    p_run.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="append this run's QoR record to a JSONL run ledger "
        "(atomic append; analyse with 'repro-fpga runs'; results stay "
        "bit-identical)",
    )
    p_run.add_argument(
        "--tag", default="", metavar="TAG",
        help="free-form label stored on the ledger record (outside "
        "record identity); slice with 'runs ... --tag'",
    )
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="run both flows and compare")
    _add_common(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_lint = sub.add_parser(
        "lint",
        help="run the determinism/invariant static analyzer",
        add_help=False,
    )
    p_lint.add_argument("lint_args", nargs=argparse.REMAINDER)
    p_lint.set_defaults(func=_cmd_lint)

    p_trace = sub.add_parser(
        "trace",
        help="summarize, diff, or validate anneal traces",
        add_help=False,
    )
    p_trace.add_argument("trace_args", nargs=argparse.REMAINDER)
    p_trace.set_defaults(func=_cmd_trace)

    p_xray = sub.add_parser(
        "xray",
        help="render and compare layout snapshots",
        add_help=False,
    )
    p_xray.add_argument("xray_args", nargs=argparse.REMAINDER)
    p_xray.set_defaults(func=_cmd_xray)

    p_runs = sub.add_parser(
        "runs",
        help="cross-run ledger analytics: list/compare/regress/report",
        add_help=False,
    )
    p_runs.add_argument("runs_args", nargs=argparse.REMAINDER)
    p_runs.set_defaults(func=_cmd_runs)

    p_watch = sub.add_parser(
        "watch",
        help="live dashboard / stall watchdog over a running flow",
        add_help=False,
    )
    p_watch.add_argument("watch_args", nargs=argparse.REMAINDER)
    p_watch.set_defaults(func=_cmd_watch)

    p_jobs = sub.add_parser(
        "jobs",
        help="fault-tolerant anneal job supervisor: "
        "submit/run/status/cancel/resume",
        add_help=False,
    )
    p_jobs.add_argument("jobs_args", nargs=argparse.REMAINDER)
    p_jobs.set_defaults(func=_cmd_jobs)
    return parser


#: Domain error -> exit code.  Each failure family gets its own code so
#: scripts can tell "bad layout file" from "bad checkpoint" without
#: parsing messages; 2 stays argparse's bad-usage code and 130 the
#: conventional SIGINT code.
EXIT_LAYOUT_ERROR = 3
EXIT_CHECKPOINT_ERROR = 4
EXIT_NETLIST_ERROR = 5


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Domain errors (malformed layout files, rejected checkpoints,
    invalid netlists) become one-line ``error:`` messages with distinct
    exit codes instead of tracebacks; genuine bugs still traceback.
    """
    from .flows.layout_io import LayoutFormatError
    from .netlist import NetlistFormatError
    from .resilience import CheckpointError

    console = get_console()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CheckpointError as exc:
        console.error(str(exc))
        return EXIT_CHECKPOINT_ERROR
    except LayoutFormatError as exc:
        console.error(str(exc))
        return EXIT_LAYOUT_ERROR
    except NetlistFormatError as exc:
        console.error(str(exc))
        return EXIT_NETLIST_ERROR
    except KeyboardInterrupt:
        console.error("interrupted")
        return 130


if __name__ == "__main__":
    sys.exit(main())
