"""Move-throughput benchmark for the simultaneous annealer's hot loop.

Measures attempted moves per second on generated circuits and emits a
machine-readable ``BENCH_moves.json``.  This is the harness behind the
fast-path optimization work (dirty-channel repair, negative-result
caches, fused candidate scans): any change to the move transaction or
the routers should be checked against it.

Absolute moves/sec depends on the host, so every run also times a fixed
pure-Python calibration loop and reports a *normalized score*
(moves per calibration unit).  Regression checks compare normalized
scores, which makes a checked-in baseline meaningful across machines of
different speeds.

Usage
-----
Full run (small + medium + large), write ``BENCH_moves.json`` in the
cwd::

    PYTHONPATH=src python benchmarks/bench_moves_per_sec.py

CI smoke run with a regression gate against a checked-in baseline::

    PYTHONPATH=src python benchmarks/bench_moves_per_sec.py --smoke \
        --check benchmarks/baselines/moves_smoke.json --max-regression 0.30

Each design is also re-run with ``repro.obs`` tracing enabled (same
seed): the report records the traced throughput and the fractional
overhead, and the run fails if tracing slows the hot loop by more than
``--max-trace-overhead`` (default 5%) or — worse — perturbs the anneal
(traced and untraced runs must be bit-identical).  ``--no-trace`` skips
the comparison runs.

A further pair of runs gates periodic layout snapshots
(``--snapshot-every``, default every 5 stages): snapshotting must cost
at most ``--max-snapshot-overhead`` (default 5%) *relative to a plain
traced run* — snapshots ride on the tracer, so that is the marginal
cost a user opting in actually pays — and must likewise leave the
anneal bit-identical.  ``--no-snapshot`` skips it.

Periodic crash-safe checkpoints (``--checkpoint-every``, default every
5 stages) are gated the same way against a *plain* run — checkpointing
is independent of the tracer — with ``--max-checkpoint-overhead``
(default 5%), and the checkpointed anneal must stay bit-identical.
``--no-checkpoint`` skips it.

Run-ledger recording (``repro.obs.ledger``) is gated against a plain
run too — the timed window covers the atomic ledger append — with
``--max-ledger-overhead`` (default 5%) and the same bit-identity
requirement; ``--no-ledger-overhead`` skips it.  ``--ledger PATH``
additionally appends one ledger record per case (QoR, normalized
score, measured overheads) for ``repro-fpga runs`` analytics.

The live heartbeat sidecar (``heartbeat_path`` + ``repro-fpga watch``)
is gated against a plain run as well, with the beat interval cranked
down to ``--heartbeat-interval`` (default 0.1 s — far below the 2 s
production default) so the gate covers many more atomic sidecar writes
than a real run pays; ``--max-heartbeat-overhead`` (default 5%) bounds
the slowdown and the beating anneal must stay bit-identical.
``--no-heartbeat`` skips it.

``--profile`` emits a per-phase timing breakdown (ripup / repair /
timing / cost / rollback / other) into each design record so perf work
can attribute wins.

Exit status is non-zero if any design fails to anneal, the regression
gate trips, or the tracing overhead gate trips.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional, Sequence

from repro import architecture_for
from repro.core import AnnealerConfig, ScheduleConfig, SimultaneousAnnealer
from repro.netlist import CircuitSpec, generate


@dataclass(frozen=True)
class BenchCase:
    """One benchmark configuration (circuit + anneal effort)."""

    name: str
    spec: CircuitSpec
    tracks: int
    max_temperatures: int


def _schedule(max_temperatures: int) -> ScheduleConfig:
    return ScheduleConfig(
        lambda_=2.0, max_temperatures=max_temperatures, freeze_patience=2
    )


def _config(
    case: BenchCase, profile: bool, trace: bool = False,
    snapshot_every: int = 0, checkpoint_path: Optional[str] = None,
    checkpoint_every: int = 0,
    heartbeat_path: Optional[str] = None,
    heartbeat_min_interval_s: float = 2.0,
) -> AnnealerConfig:
    return AnnealerConfig(
        seed=1,
        attempts_per_cell=4,
        initial="clustered",
        greedy_rounds=1,
        profile=profile,
        trace=trace,
        snapshot_every=snapshot_every,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        heartbeat_path=heartbeat_path,
        heartbeat_min_interval_s=heartbeat_min_interval_s,
        schedule=_schedule(case.max_temperatures),
    )


#: The standing benchmark set.  ``medium`` is the headline number quoted
#: in BENCH_moves.json; ``smoke`` is a cut-down case cheap enough for CI.
CASES = {
    "small": BenchCase(
        "small", CircuitSpec("small", num_cells=60, seed=42, depth=5), 20, 10
    ),
    "medium": BenchCase(
        "medium", CircuitSpec("medium", num_cells=150, seed=42, depth=7), 20, 10
    ),
    # Paper-scale tier (the DAC'94 benchmarks are 231-529 cells); 44
    # tracks is the narrowest width at which the anneal converges to
    # full routing, so throughput is measured on productive moves
    # rather than hopeless repair scans.
    "large": BenchCase(
        "large", CircuitSpec("large", num_cells=500, seed=42, depth=9), 44, 10
    ),
    "smoke": BenchCase(
        "smoke", CircuitSpec("smoke", num_cells=60, seed=42, depth=5), 20, 6
    ),
    # Paper-scale tier cut down for CI: same 500-cell circuit as
    # ``large`` but fewer temperature stages, so the per-move cost is
    # representative while the wall clock stays CI-sized.
    "large_smoke": BenchCase(
        "large_smoke", CircuitSpec("large", num_cells=500, seed=42, depth=9),
        44, 3
    ),
}


def calibrate(reps: int = 3, iters: int = 200_000) -> float:
    """Seconds for a fixed pure-Python workload (best of ``reps``).

    Used to normalize moves/sec across hosts: score = moves_per_sec *
    calibration_s is roughly machine-independent for CPython.
    """
    best = float("inf")
    for _ in range(reps):
        t0 = perf_counter()
        acc = 0
        for i in range(iters):
            acc += i % 7
        best = min(best, perf_counter() - t0)
    assert acc >= 0
    return best


def _phase_breakdown(profile: dict, wall: float) -> dict:
    """Per-phase wall-clock attribution derived from a profile record.

    The move-transaction profiler times the ripup / repair / timing /
    cost / rollback sections of every move; whatever it does not cover
    (move selection, acceptance bookkeeping, schedule control, channel
    scans) lands in ``other`` so the fractions sum to ~1.  Future perf
    PRs should quote this table when claiming a win in one phase.
    """
    sections = dict(profile.get("section_s", {}))
    accounted = sum(sections.values())
    sections["other"] = max(0.0, wall - accounted)
    denom = wall if wall > 0 else 1e-12
    return {
        name: {
            "seconds": round(seconds, 4),
            "fraction": round(seconds / denom, 4),
        }
        for name, seconds in sections.items()
    }


def run_case(
    case: BenchCase, calibration_s: float, profile: bool,
    trace: bool = False, snapshot_every: int = 0,
    checkpoint_path: Optional[str] = None, checkpoint_every: int = 0,
    ledger_path: Optional[str] = None,
    heartbeat_path: Optional[str] = None,
    heartbeat_min_interval_s: float = 2.0,
) -> dict:
    """Run one benchmark case and return its result record.

    ``ledger_path`` appends a run-ledger record *inside* the timed
    window, so the measured wall clock covers the atomic append — the
    honest cost a ledger-recording run pays (the anneal itself is
    untouched; recording is a pure read of the finished result).
    """
    netlist = generate(case.spec)
    arch = architecture_for(netlist, tracks_per_channel=case.tracks)
    annealer = SimultaneousAnnealer(
        netlist, arch,
        _config(case, profile, trace, snapshot_every,
                checkpoint_path, checkpoint_every,
                heartbeat_path, heartbeat_min_interval_s),
    )
    t0 = perf_counter()
    result = annealer.run()
    if ledger_path is not None:
        from repro.obs.ledger import append_record, make_record

        append_record(ledger_path, make_record(
            flow="bench", design=case.name, seed=annealer.config.seed,
            worst_delay_ns=result.worst_delay,
            fully_routed=result.fully_routed,
            moves_attempted=result.moves_attempted,
            moves_accepted=result.moves_accepted,
        ))
    wall = perf_counter() - t0
    moves_per_sec = result.moves_attempted / wall if wall > 0 else 0.0
    record = {
        "num_cells": netlist.num_cells,
        "num_nets": netlist.num_nets,
        "moves_attempted": result.moves_attempted,
        "moves_accepted": result.moves_accepted,
        "wall_time_s": round(wall, 4),
        "moves_per_sec": round(moves_per_sec, 1),
        "normalized_score": round(moves_per_sec * calibration_s, 3),
        "fully_routed": result.fully_routed,
        "worst_delay_ns": result.worst_delay,
        "audit_clean": annealer.audit() == [],
    }
    if result.profile is not None:
        prof = result.profile.as_dict()
        record["profile"] = prof
        record["phases"] = _phase_breakdown(prof, wall)
    if result.trace is not None:
        record["trace_events"] = len(result.trace.events)
    return record


#: Result-record keys that must be bit-identical with tracing on or off.
_DETERMINISM_KEYS = (
    "moves_attempted", "moves_accepted", "fully_routed", "worst_delay_ns",
)


def measure_trace_overhead(
    case: BenchCase, calibration_s: float, baseline: dict, reps: int = 3,
) -> dict:
    """Re-run one case with tracing on and compare against ``baseline``.

    Returns a record with the traced throughput, the fractional
    normalized-score overhead relative to the untraced run, and whether
    the traced run reproduced the baseline's results bit-exactly (the
    repro.obs determinism contract).

    Single timings of a multi-second anneal swing by ±10% on a busy
    host (warm-up drift alone exceeds the sub-5% overhead being gated),
    so the comparison is paired and best-of: ``reps`` interleaved
    (untraced, traced) pairs, gating best score against best score.
    ``baseline`` contributes one extra untraced sample.
    """
    best_base = baseline
    best_traced: Optional[dict] = None
    for _ in range(reps):
        again = run_case(case, calibration_s, profile=False)
        if again["normalized_score"] > best_base["normalized_score"]:
            best_base = again
        traced = run_case(case, calibration_s, profile=False, trace=True)
        if (best_traced is None
                or traced["normalized_score"] > best_traced["normalized_score"]):
            best_traced = traced
    assert best_traced is not None
    base_score = best_base["normalized_score"] or 1e-12
    overhead = 1.0 - best_traced["normalized_score"] / base_score
    return {
        "moves_per_sec": best_traced["moves_per_sec"],
        "normalized_score": best_traced["normalized_score"],
        "trace_events": best_traced["trace_events"],
        "overhead_frac": round(overhead, 4),
        "metrics_identical": all(
            best_traced[key] == baseline[key] for key in _DETERMINISM_KEYS
        ),
    }


def measure_snapshot_overhead(
    case: BenchCase, calibration_s: float, baseline: dict,
    every: int = 5, reps: int = 3,
) -> dict:
    """Re-run one case traced + snapshotting and compare to plain tracing.

    Snapshots ride on the tracer, so the honest cost of
    ``snapshot_every`` is measured against a *traced* run, not an
    uninstrumented one — the same paired best-of-``reps`` scheme as
    :func:`measure_trace_overhead`.  ``baseline`` (the uninstrumented
    record) is only used for the bit-identity check: snapshot capture
    must consume no RNG and read no wall clock.
    """
    best_traced: Optional[dict] = None
    best_snap: Optional[dict] = None
    for _ in range(reps):
        traced = run_case(case, calibration_s, profile=False, trace=True)
        if (best_traced is None
                or traced["normalized_score"] > best_traced["normalized_score"]):
            best_traced = traced
        snapped = run_case(
            case, calibration_s, profile=False, trace=True,
            snapshot_every=every,
        )
        if (best_snap is None
                or snapped["normalized_score"] > best_snap["normalized_score"]):
            best_snap = snapped
    assert best_traced is not None and best_snap is not None
    base_score = best_traced["normalized_score"] or 1e-12
    overhead = 1.0 - best_snap["normalized_score"] / base_score
    return {
        "snapshot_every": every,
        "moves_per_sec": best_snap["moves_per_sec"],
        "normalized_score": best_snap["normalized_score"],
        "trace_events": best_snap["trace_events"],
        "overhead_frac": round(overhead, 4),
        "metrics_identical": all(
            best_snap[key] == baseline[key] for key in _DETERMINISM_KEYS
        ),
    }


def measure_checkpoint_overhead(
    case: BenchCase, calibration_s: float, baseline: dict,
    every: int = 5, reps: int = 3,
) -> dict:
    """Re-run one case with periodic checkpointing and compare to plain.

    Checkpoints are independent of the tracer, so the honest cost of
    ``checkpoint_every`` is measured against an *uninstrumented* run —
    the same paired best-of-``reps`` scheme as
    :func:`measure_trace_overhead`.  The bit-identity check enforces the
    resilience contract: serializing the full anneal state (layout, RNG,
    schedule, timing arrays) must consume no RNG and read no wall clock.
    """
    import tempfile

    best_base = baseline
    best_ck: Optional[dict] = None
    with tempfile.TemporaryDirectory(prefix="bench-ckpt-") as tmp:
        path = str(Path(tmp) / f"{case.name}.ckpt")
        for _ in range(reps):
            again = run_case(case, calibration_s, profile=False)
            if again["normalized_score"] > best_base["normalized_score"]:
                best_base = again
            checked = run_case(
                case, calibration_s, profile=False,
                checkpoint_path=path, checkpoint_every=every,
            )
            if (best_ck is None
                    or checked["normalized_score"] > best_ck["normalized_score"]):
                best_ck = checked
    assert best_ck is not None
    base_score = best_base["normalized_score"] or 1e-12
    overhead = 1.0 - best_ck["normalized_score"] / base_score
    return {
        "checkpoint_every": every,
        "moves_per_sec": best_ck["moves_per_sec"],
        "normalized_score": best_ck["normalized_score"],
        "overhead_frac": round(overhead, 4),
        "metrics_identical": all(
            best_ck[key] == baseline[key] for key in _DETERMINISM_KEYS
        ),
    }


def measure_ledger_overhead(
    case: BenchCase, calibration_s: float, baseline: dict, reps: int = 3,
) -> dict:
    """Re-run one case with ledger recording and compare to plain.

    The ledger append happens after the anneal but inside the timed
    window (see :func:`run_case`), so the gate measures the real cost
    of the atomic whole-file rewrite on a growing ledger — the same
    paired best-of-``reps`` scheme as :func:`measure_trace_overhead`.
    The bit-identity check enforces the ledger contract: recording is a
    pure read of the finished result, never perturbing the anneal.
    """
    import tempfile

    best_base = baseline
    best_led: Optional[dict] = None
    with tempfile.TemporaryDirectory(prefix="bench-ledger-") as tmp:
        path = str(Path(tmp) / "ledger.jsonl")
        for _ in range(reps):
            again = run_case(case, calibration_s, profile=False)
            if again["normalized_score"] > best_base["normalized_score"]:
                best_base = again
            recorded = run_case(case, calibration_s, profile=False,
                                ledger_path=path)
            if (best_led is None
                    or recorded["normalized_score"] > best_led["normalized_score"]):
                best_led = recorded
    assert best_led is not None
    base_score = best_base["normalized_score"] or 1e-12
    overhead = 1.0 - best_led["normalized_score"] / base_score
    return {
        "moves_per_sec": best_led["moves_per_sec"],
        "normalized_score": best_led["normalized_score"],
        "overhead_frac": round(overhead, 4),
        "metrics_identical": all(
            best_led[key] == baseline[key] for key in _DETERMINISM_KEYS
        ),
    }


def measure_heartbeat_overhead(
    case: BenchCase, calibration_s: float, baseline: dict, reps: int = 3,
    min_interval_s: float = 0.1,
) -> dict:
    """Re-run one case with the heartbeat sidecar on and compare to plain.

    The heartbeat is independent of the tracer, so its honest cost is
    measured against an *uninstrumented* run — the same paired
    best-of-``reps`` scheme as :func:`measure_trace_overhead`.  The
    interval is deliberately cranked far below the 2 s default so the
    gate covers many more atomic sidecar writes than a real run pays.
    The bit-identity check enforces the live-observability contract:
    beats read only the monotonic clock and never touch the anneal's
    RNG, so a heartbeating run is bit-identical to a plain one.
    """
    import tempfile

    best_base = baseline
    best_hb: Optional[dict] = None
    with tempfile.TemporaryDirectory(prefix="bench-hb-") as tmp:
        path = str(Path(tmp) / f"{case.name}.hb")
        for _ in range(reps):
            again = run_case(case, calibration_s, profile=False)
            if again["normalized_score"] > best_base["normalized_score"]:
                best_base = again
            beating = run_case(
                case, calibration_s, profile=False, heartbeat_path=path,
                heartbeat_min_interval_s=min_interval_s,
            )
            if (best_hb is None
                    or beating["normalized_score"] > best_hb["normalized_score"]):
                best_hb = beating
    assert best_hb is not None
    base_score = best_base["normalized_score"] or 1e-12
    overhead = 1.0 - best_hb["normalized_score"] / base_score
    return {
        "min_interval_s": min_interval_s,
        "moves_per_sec": best_hb["moves_per_sec"],
        "normalized_score": best_hb["normalized_score"],
        "overhead_frac": round(overhead, 4),
        "metrics_identical": all(
            best_hb[key] == baseline[key] for key in _DETERMINISM_KEYS
        ),
    }


def case_ledger_record(
    case: BenchCase, record: dict, tag: str = "",
) -> dict:
    """One run-ledger record summarizing a finished bench case.

    Carries the calibration-normalized score and every measured
    instrumentation overhead, so ``repro-fpga runs regress`` can gate
    ledger slices the same way the bench gates BENCH_moves.json.
    """
    from repro.obs.ledger import FAMILY_EXCLUDE, make_record
    from repro.obs.tracer import config_digest

    config = _config(case, profile=False)
    overheads = {
        kind: record[kind]
        for kind in ("tracing", "snapshotting", "checkpointing", "ledger",
                     "heartbeat")
        if kind in record
    }
    return make_record(
        flow="bench", design=case.name, seed=config.seed,
        config_digest=config_digest(config),
        family_digest=config_digest(config, exclude=FAMILY_EXCLUDE),
        netlist={"cells": record["num_cells"], "nets": record["num_nets"]},
        worst_delay_ns=record["worst_delay_ns"],
        fully_routed=record["fully_routed"],
        moves_attempted=record["moves_attempted"],
        moves_accepted=record["moves_accepted"],
        wall_time_s=record["wall_time_s"],
        moves_per_sec=record["moves_per_sec"],
        normalized_score=record["normalized_score"],
        overheads=overheads or None,
        profile=record.get("profile"),
        tag=tag,
    )


def check_regression(
    current: dict, baseline: dict, max_regression: float
) -> list[str]:
    """Compare normalized scores against a baseline.  Returns failures."""
    failures: list[str] = []
    for name, base in baseline.get("designs", {}).items():
        now = current["designs"].get(name)
        if now is None:
            continue
        base_score = base.get("normalized_score")
        now_score = now.get("normalized_score")
        if not base_score or not now_score:
            failures.append(f"{name}: missing normalized_score for comparison")
            continue
        regression = 1.0 - now_score / base_score
        verdict = "FAIL" if regression > max_regression else "ok"
        print(
            f"  {name}: score {now_score:.3f} vs baseline {base_score:.3f} "
            f"({-regression:+.1%}) [{verdict}]"
        )
        if regression > max_regression:
            failures.append(
                f"{name}: moves/sec regressed {regression:.1%} "
                f"(limit {max_regression:.0%})"
            )
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--designs", nargs="+", choices=sorted(CASES), default=None,
        help="cases to run (default: small medium; --smoke overrides)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run only the cut-down smoke case (CI-sized)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="attach per-phase profiles and timing breakdowns to the "
        "JSON records",
    )
    parser.add_argument(
        "--output", default="BENCH_moves.json",
        help="where to write the JSON report (default ./BENCH_moves.json)",
    )
    parser.add_argument(
        "--check", metavar="BASELINE_JSON", default=None,
        help="compare against a baseline report and gate on regression",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.30,
        help="maximum tolerated normalized-score regression (default 0.30)",
    )
    parser.add_argument(
        "--max-trace-overhead", type=float, default=0.05,
        help="maximum tolerated tracing slowdown per design (default 0.05)",
    )
    parser.add_argument(
        "--no-trace", action="store_true",
        help="skip the tracing-enabled comparison runs",
    )
    parser.add_argument(
        "--max-snapshot-overhead", type=float, default=0.05,
        help="maximum tolerated slowdown of periodic layout snapshots "
        "relative to a plain traced run (default 0.05)",
    )
    parser.add_argument(
        "--snapshot-every", type=int, default=5,
        help="snapshot cadence (in stages) for the overhead runs "
        "(default 5)",
    )
    parser.add_argument(
        "--no-snapshot", action="store_true",
        help="skip the snapshot-overhead comparison runs",
    )
    parser.add_argument(
        "--max-checkpoint-overhead", type=float, default=0.05,
        help="maximum tolerated slowdown of periodic checkpointing "
        "relative to a plain run (default 0.05)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=5,
        help="checkpoint cadence (in stages) for the overhead runs "
        "(default 5)",
    )
    parser.add_argument(
        "--no-checkpoint", action="store_true",
        help="skip the checkpoint-overhead comparison runs",
    )
    parser.add_argument(
        "--max-ledger-overhead", type=float, default=0.05,
        help="maximum tolerated slowdown of in-run ledger recording "
        "relative to a plain run (default 0.05)",
    )
    parser.add_argument(
        "--no-ledger-overhead", action="store_true",
        help="skip the ledger-overhead comparison runs",
    )
    parser.add_argument(
        "--max-heartbeat-overhead", type=float, default=0.05,
        help="maximum tolerated slowdown of the live heartbeat sidecar "
        "relative to a plain run (default 0.05)",
    )
    parser.add_argument(
        "--heartbeat-interval", type=float, default=0.1,
        help="heartbeat min interval (seconds) for the overhead runs; "
        "deliberately far below the 2s default (default 0.1)",
    )
    parser.add_argument(
        "--no-heartbeat", action="store_true",
        help="skip the heartbeat-overhead comparison runs",
    )
    parser.add_argument(
        "--ledger", metavar="PATH", default=None,
        help="append one run-ledger record per case (QoR + normalized "
        "score + overheads); analyse with 'repro-fpga runs'",
    )
    parser.add_argument(
        "--ledger-tag", default="bench", metavar="TAG",
        help="tag stored on emitted ledger records (default 'bench')",
    )
    args = parser.parse_args(argv)

    names = args.designs or (
        ["smoke"] if args.smoke else ["small", "medium", "large"]
    )
    calibration_s = calibrate()
    report = {
        "schema": "bench-moves/1",
        "calibration_s": round(calibration_s, 5),
        "designs": {},
    }
    ok = True
    for name in names:
        case = CASES[name]
        record = run_case(case, calibration_s, args.profile)
        # Host jitter is roughly constant in absolute terms (~0.1 s a
        # run), so the overhead gates on short anneals are noise-
        # dominated: give them extra best-of pairs.  Long cases are
        # stable and expensive; three pairs suffice.
        overhead_reps = 5 if record["wall_time_s"] < 10 else 3
        report["designs"][name] = record
        print(
            f"{name}: {record['moves_attempted']} moves in "
            f"{record['wall_time_s']:.2f}s -> {record['moves_per_sec']:.1f} "
            f"moves/s (score {record['normalized_score']:.3f}, "
            f"routed={record['fully_routed']})"
        )
        if not record["audit_clean"]:
            print(f"{name}: AUDIT FAILED", file=sys.stderr)
            ok = False
        if not args.no_trace:
            tracing = measure_trace_overhead(
                case, calibration_s, record, reps=overhead_reps,
            )
            record["tracing"] = tracing
            print(
                f"{name} (traced): {tracing['moves_per_sec']:.1f} moves/s, "
                f"{tracing['trace_events']} events, overhead "
                f"{tracing['overhead_frac']:+.1%}"
            )
            if not tracing["metrics_identical"]:
                print(
                    f"FAIL: {name}: traced run diverged from untraced run",
                    file=sys.stderr,
                )
                ok = False
            if tracing["overhead_frac"] > args.max_trace_overhead:
                print(
                    f"FAIL: {name}: trace overhead "
                    f"{tracing['overhead_frac']:.1%} exceeds limit "
                    f"{args.max_trace_overhead:.0%}",
                    file=sys.stderr,
                )
                ok = False
        if not args.no_trace and not args.no_snapshot:
            snapshotting = measure_snapshot_overhead(
                case, calibration_s, record, every=args.snapshot_every,
                reps=overhead_reps,
            )
            record["snapshotting"] = snapshotting
            print(
                f"{name} (snapshot every {snapshotting['snapshot_every']}): "
                f"{snapshotting['moves_per_sec']:.1f} moves/s, "
                f"{snapshotting['trace_events']} events, overhead "
                f"{snapshotting['overhead_frac']:+.1%} vs traced"
            )
            if not snapshotting["metrics_identical"]:
                print(
                    f"FAIL: {name}: snapshotted run diverged from plain run",
                    file=sys.stderr,
                )
                ok = False
            if snapshotting["overhead_frac"] > args.max_snapshot_overhead:
                print(
                    f"FAIL: {name}: snapshot overhead "
                    f"{snapshotting['overhead_frac']:.1%} exceeds limit "
                    f"{args.max_snapshot_overhead:.0%}",
                    file=sys.stderr,
                )
                ok = False
        if not args.no_checkpoint:
            checkpointing = measure_checkpoint_overhead(
                case, calibration_s, record, every=args.checkpoint_every,
                reps=overhead_reps,
            )
            record["checkpointing"] = checkpointing
            print(
                f"{name} (checkpoint every "
                f"{checkpointing['checkpoint_every']}): "
                f"{checkpointing['moves_per_sec']:.1f} moves/s, overhead "
                f"{checkpointing['overhead_frac']:+.1%} vs plain"
            )
            if not checkpointing["metrics_identical"]:
                print(
                    f"FAIL: {name}: checkpointed run diverged from plain run",
                    file=sys.stderr,
                )
                ok = False
            if checkpointing["overhead_frac"] > args.max_checkpoint_overhead:
                print(
                    f"FAIL: {name}: checkpoint overhead "
                    f"{checkpointing['overhead_frac']:.1%} exceeds limit "
                    f"{args.max_checkpoint_overhead:.0%}",
                    file=sys.stderr,
                )
                ok = False
        if not args.no_ledger_overhead:
            ledgering = measure_ledger_overhead(
                case, calibration_s, record, reps=overhead_reps,
            )
            record["ledger"] = ledgering
            print(
                f"{name} (ledger recording): "
                f"{ledgering['moves_per_sec']:.1f} moves/s, overhead "
                f"{ledgering['overhead_frac']:+.1%} vs plain"
            )
            if not ledgering["metrics_identical"]:
                print(
                    f"FAIL: {name}: ledger-recording run diverged from "
                    f"plain run",
                    file=sys.stderr,
                )
                ok = False
            if ledgering["overhead_frac"] > args.max_ledger_overhead:
                print(
                    f"FAIL: {name}: ledger overhead "
                    f"{ledgering['overhead_frac']:.1%} exceeds limit "
                    f"{args.max_ledger_overhead:.0%}",
                    file=sys.stderr,
                )
                ok = False
        if not args.no_heartbeat:
            heartbeat = measure_heartbeat_overhead(
                case, calibration_s, record, reps=overhead_reps,
                min_interval_s=args.heartbeat_interval,
            )
            record["heartbeat"] = heartbeat
            print(
                f"{name} (heartbeat every {heartbeat['min_interval_s']}s): "
                f"{heartbeat['moves_per_sec']:.1f} moves/s, overhead "
                f"{heartbeat['overhead_frac']:+.1%} vs plain"
            )
            if not heartbeat["metrics_identical"]:
                print(
                    f"FAIL: {name}: heartbeating run diverged from "
                    f"plain run",
                    file=sys.stderr,
                )
                ok = False
            if heartbeat["overhead_frac"] > args.max_heartbeat_overhead:
                print(
                    f"FAIL: {name}: heartbeat overhead "
                    f"{heartbeat['overhead_frac']:.1%} exceeds limit "
                    f"{args.max_heartbeat_overhead:.0%}",
                    file=sys.stderr,
                )
                ok = False
        if args.ledger:
            from repro.obs.ledger import append_record

            append_record(args.ledger, case_ledger_record(
                case, record, tag=args.ledger_tag,
            ))
            print(f"{name}: ledger record -> {args.ledger}")

    Path(args.output).write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.output}")

    if args.check:
        try:
            baseline = json.loads(Path(args.check).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"FAIL: cannot read baseline {args.check}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"regression check vs {args.check} "
              f"(limit {args.max_regression:.0%}):")
        failures = check_regression(report, baseline, args.max_regression)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        ok = ok and not failures
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
