"""One supervised anneal job, run inside a worker process.

The worker is deliberately thin: it rebuilds the netlist/architecture/
config from the job's :class:`~repro.service.journal.JobSpec` (a pure
value, so every attempt builds the *same* run), switches checkpointing
and heartbeating on unconditionally, runs the simultaneous flow, and
reports its outcome purely through its **exit code** plus two files —
the checkpoint (the supervisor's resume handle) and ``result.json``
(the completed job's metrics and layout digest, written atomically).
The journal is single-writer (the supervisor); a worker never touches
it, so a SIGKILLed worker cannot leave the queue state torn.

Exit-code contract (see :data:`WORKER_DONE` ...):

====  ==============================================================
code  meaning
====  ==============================================================
0     job completed; ``result.json`` is on disk
10    drained: run interrupted (signal or budget) with a final
      checkpoint flushed — reschedule with resume
11    permanent setup error (bad spec); retrying cannot help
12    crashed in flight (an exception escaped the run)
====  ==============================================================

plus whatever the kernel reports for ungraceful death (e.g. ``-9``
after a SIGKILL); the supervisor treats any other nonzero code as a
retryable crash.
"""

from __future__ import annotations

import json
import signal
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .journal import JobSpec, TINY_DESIGN

#: Worker exit codes (see module docstring).
WORKER_DONE = 0
WORKER_DRAINED = 10
WORKER_SETUP = 11
WORKER_CRASH = 12

#: Version of the ``result.json`` vocabulary.
RESULT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class JobPaths:
    """Where one job's artifacts live under the service workdir."""

    root: Path
    checkpoint: Path
    heartbeat: Path
    result: Path


def job_paths(workdir: Union[str, Path], job_id: str) -> JobPaths:
    """The conventional per-job artifact layout: ``<workdir>/<job>/``."""
    root = Path(workdir) / job_id
    return JobPaths(
        root=root,
        checkpoint=root / "checkpoint.json",
        heartbeat=root / "heartbeat.json",
        result=root / "result.json",
    )


# ----------------------------------------------------------------------
# Spec -> run materialization
# ----------------------------------------------------------------------
def build_netlist(spec: JobSpec):
    """The job's netlist: a paper benchmark or the ``tiny`` generator."""
    from ..netlist import paper_benchmark, tiny

    if spec.design == TINY_DESIGN:
        return tiny(
            seed=spec.netlist_seed,
            num_cells=spec.num_cells,
            depth=spec.depth,
        )
    return paper_benchmark(spec.design)


def _effort_config(effort: str, seed: int):
    from ..core import (
        AnnealerConfig,
        ScheduleConfig,
        fast_config,
        thorough_config,
    )

    if effort == "micro":
        # Sub-second anneal for service tests and CI smokes: big enough
        # to cross several stage boundaries (so periodic checkpoints
        # and mid-run kills are meaningful), small enough to batch.
        return AnnealerConfig(
            seed=seed,
            attempts_per_cell=3,
            initial="clustered",
            greedy_rounds=2,
            schedule=ScheduleConfig(
                lambda_=2.0, max_temperatures=8, freeze_patience=2
            ),
        )
    if effort == "fast":
        return fast_config(seed)
    if effort == "thorough":
        return thorough_config(seed)
    if effort == "normal":
        return AnnealerConfig(seed=seed)
    raise ValueError(
        f"unknown effort {effort!r} "
        "(expected micro, fast, normal, or thorough)"
    )


def job_config(
    spec: JobSpec,
    paths: JobPaths,
    checkpoint_every: int = 1,
    heartbeat_min_interval_s: float = 0.2,
):
    """The attempt's :class:`~repro.core.AnnealerConfig`.

    Deterministic in ``spec`` — checkpoint cadence, heartbeat path, and
    signal handling are all
    :data:`~repro.obs.tracer.NON_IDENTITY_FIELDS`, so every attempt of a job shares one resume
    digest and a retried trajectory is the submitted trajectory.
    """
    import dataclasses

    from ..core import ScheduleConfig

    config = _effort_config(spec.effort, spec.seed)
    overrides = dict(spec.overrides)
    schedule = overrides.pop("schedule", None)
    if isinstance(schedule, dict):
        overrides["schedule"] = ScheduleConfig(**schedule)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return dataclasses.replace(
        config,
        checkpoint_path=str(paths.checkpoint),
        checkpoint_every=checkpoint_every,
        heartbeat_path=str(paths.heartbeat),
        heartbeat_min_interval_s=heartbeat_min_interval_s,
        handle_signals=True,
    )


def layout_sha256(result, netlist) -> str:
    """Content digest of a flow result's final layout.

    Canonical-JSON sha256 over the exact layout dict
    ``flows/layout_io.py`` serializes, so "bit-identical layouts" is a
    string equality between any two runs — faulted, resumed, or plain.
    """
    import hashlib

    from ..resilience.checkpoint import LayoutSnapshot

    snapshot = LayoutSnapshot.capture(result.placement, result.state)
    canonical = json.dumps(
        snapshot.to_layout_dict(netlist),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# The job body
# ----------------------------------------------------------------------
def run_job(
    job_id: str,
    spec: JobSpec,
    workdir: Union[str, Path],
    attempt: int = 1,
    resume: bool = False,
    chaos: Optional[str] = None,
    checkpoint_every: int = 1,
    heartbeat_min_interval_s: float = 0.2,
    tag: str = "",
) -> int:
    """Run one attempt of one job; returns a worker exit code.

    ``resume`` continues from the job's checkpoint file when it holds a
    valid checkpoint; an unreadable/torn checkpoint falls back to a
    fresh start, which is always safe — resume is a wall-clock
    optimization, never a semantic one, because a resumed trajectory is
    bit-identical to a from-scratch run of the same spec.

    ``chaos`` is a :meth:`~repro.resilience.faults.FaultPlan.parse`
    spec armed for the duration of the run (the supervisor only passes
    it on first attempts, so a chaos batch still converges).
    """
    from contextlib import ExitStack

    from ..flows import run_simultaneous
    from ..obs.ledger import record_from_result
    from ..resilience import CheckpointError, read_checkpoint
    from ..resilience.atomic import atomic_write_text
    from ..resilience.faults import FaultInjector, FaultPlan

    paths = job_paths(workdir, job_id)
    try:
        netlist = build_netlist(spec)
        from .. import architecture_for

        architecture = architecture_for(
            netlist,
            tracks_per_channel=spec.tracks,
            vtracks_per_column=spec.vtracks,
        )
        config = job_config(
            spec,
            paths,
            checkpoint_every=checkpoint_every,
            heartbeat_min_interval_s=heartbeat_min_interval_s,
        )
    except (KeyError, TypeError, ValueError):
        return WORKER_SETUP
    paths.root.mkdir(parents=True, exist_ok=True)
    resume_payload = None
    if resume:
        try:
            resume_payload = read_checkpoint(paths.checkpoint)
        except CheckpointError:
            resume_payload = None  # fresh start is always safe
    try:
        with ExitStack() as stack:
            if chaos:
                stack.enter_context(
                    FaultInjector(FaultPlan.parse(chaos))
                )
            result = run_simultaneous(
                netlist, architecture, config, resume_from=resume_payload
            )
    except KeyboardInterrupt:
        # Escalated double-signal: the annealer flushed its final
        # checkpoint on the first signal iff it reached a boundary;
        # report a crash so the supervisor re-validates the file.
        return WORKER_CRASH
    except Exception:
        return WORKER_CRASH
    if result.extra.get("interrupted"):
        # Budget stop or single graceful signal: the final checkpoint
        # was flushed; the supervisor resumes from it.
        return WORKER_DRAINED
    record = {
        "schema_version": RESULT_SCHEMA_VERSION,
        "job_id": job_id,
        "attempt": attempt,
        "design": spec.design,
        "seed": spec.seed,
        "metrics": result.metrics(),
        "layout_sha256": layout_sha256(result, netlist),
        "ledger_record": record_from_result(
            result,
            config=config,
            tag=tag,
            artifacts={
                "checkpoint": str(paths.checkpoint),
                "result": str(paths.result),
            },
        ),
    }
    atomic_write_text(
        paths.result,
        json.dumps(record, sort_keys=True) + "\n",
        kind="result",
    )
    return WORKER_DONE


def read_result(path: Union[str, Path]) -> Optional[dict]:
    """Load a worker's ``result.json`` (None when absent/unreadable)."""
    try:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(record, dict):
        return None
    if record.get("schema_version") != RESULT_SCHEMA_VERSION:
        return None
    return record


def worker_entry(
    job_id: str,
    spec_record: dict,
    workdir: str,
    attempt: int,
    resume: bool,
    chaos: Optional[str],
    checkpoint_every: int,
    heartbeat_min_interval_s: float,
    tag: str,
) -> None:
    """``multiprocessing.Process`` target (module-level, picklable).

    Resets inherited signal dispositions first: under the fork start
    method the child would otherwise share the supervisor's drain
    handlers, and a drain SIGTERM must reach the *annealer's* handler
    (installed by ``handle_signals``) — or default-kill the worker
    during setup, which the supervisor counts as a crash.
    """
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    sys.exit(run_job(
        job_id,
        JobSpec.from_record(spec_record),
        workdir,
        attempt=attempt,
        resume=resume,
        chaos=chaos,
        checkpoint_every=checkpoint_every,
        heartbeat_min_interval_s=heartbeat_min_interval_s,
        tag=tag,
    ))
