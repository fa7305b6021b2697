"""The event tracer and the shared instrumentation hook point.

:class:`Tracer` is the event half of the observability layer.  It
follows the guarded-probe discipline: when tracing is off the hot loop
pays one ``is not None`` test per probe site and nothing else; when it
is on, recording is append-only accumulation of already-computed
values — no wall-clock reads, no RNG, no layout state — so a traced
run is bit-identical to an untraced run with the same seed
(``tests/test_obs.py`` guards this).

:class:`Instrumentation` is the one place the observability facilities
(``--trace``, ``--sanitize``, ``--heartbeat``, snapshots and
checkpoints) are constructed from an
:class:`~repro.core.AnnealerConfig`-shaped config.  The annealer asks
it for everything instead of growing independent wiring paths.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Optional

from .events import TRACE_SCHEMA_VERSION, RunTrace
from .metrics import MetricsRegistry, counter_delta


#: Config fields that do not shape the annealing trajectory: the
#: resilience knobs (a resumed run may use different budgets or
#: checkpoint cadence), the instrumentation flags (tracing, heartbeat,
#: sanitizing and snapshotting are all proven bit-identical) and the
#: repair-path switch (proven bit-identical to its oracle).  The one
#: list behind both the checkpoint's resume identity
#: (:func:`repro.resilience.checkpoint.resume_digest`) and the ledger's
#: family identity (:data:`repro.obs.ledger.FAMILY_EXCLUDE`).
NON_IDENTITY_FIELDS = (
    "fast_path",
    "checkpoint_path",
    "checkpoint_every",
    "max_seconds",
    "max_stages",
    "max_moves",
    "handle_signals",
    "trace",
    "trace_stream",
    "heartbeat_path",
    "heartbeat_min_interval_s",
    "sanitize",
    "sanitize_every",
    "snapshot_every",
)


def config_digest(config: Any, exclude: tuple = ()) -> str:
    """Short, stable digest of a (possibly nested) config dataclass.

    Two runs with equal digests ran under identical knobs; trace
    diffing uses this to tell "same config, different seed" apart from
    "different experiment".  The seed is part of the digest input —
    callers that want a coarser identity pass the top-level field names
    to drop via ``exclude`` (the run ledger's ``family_digest`` drops
    the seed and every proven-non-identity knob this way, see
    :data:`repro.obs.ledger.FAMILY_EXCLUDE`).
    """
    record = dataclasses.asdict(config) if dataclasses.is_dataclass(config) else dict(config)
    for name in exclude:
        record.pop(name, None)
    canonical = json.dumps(record, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def build_manifest(
    config: Any,
    netlist: Any = None,
    flow: str = "simultaneous",
    extra: Optional[dict] = None,
) -> dict:
    """The run manifest carried by the opening ``run_start`` event.

    Everything needed to interpret (and re-run) the trace: package
    version, flow, seed, the full config with its digest, and the
    netlist's summary statistics.
    """
    from .. import __version__

    record = (
        dataclasses.asdict(config) if dataclasses.is_dataclass(config) else {}
    )
    manifest: dict = {
        "package_version": __version__,
        "flow": flow,
        "seed": getattr(config, "seed", None),
        "config_digest": config_digest(config),
        "config": record,
    }
    if netlist is not None:
        manifest["netlist"] = {"name": netlist.name, **netlist.stats()}
    if extra:
        manifest.update(extra)
    return manifest


class Tracer:
    """Mutable event accumulator for one run (see module docstring).

    With ``stream_path`` set, every emitted event is *also* appended to
    that file as one compact JSON line, flushed immediately, using the
    exact serialization :meth:`RunTrace.to_jsonl` uses — so the stream
    a live watcher tail-follows (see :mod:`repro.obs.live`) is
    byte-identical to the final atomic trace written at run end.
    Streaming writes already-computed values on the cool stage-boundary
    path — no RNG, no clock — so a streamed run stays bit-identical.
    """

    __slots__ = ("events", "metrics", "stream_path", "_move_counts",
                 "_metrics_mark", "_stream")

    def __init__(self, stream_path: Optional[str] = None) -> None:
        self.events: list[dict] = []
        self.metrics = MetricsRegistry()
        self.stream_path = stream_path
        # Truncate eagerly: a fresh run must not leave a stale stream
        # tail from a previous run for a watcher to misread.
        self._stream = (
            open(stream_path, "w", encoding="utf-8")
            if stream_path is not None else None
        )
        # Per-stage move-kind accept/reject counts, reset every stage.
        self._move_counts: dict[str, list[int]] = {}
        self._metrics_mark: dict = self.metrics.snapshot()

    # -- hot-path probe (call only under an ``is not None`` guard) -----
    def count_move(self, kind: str, accepted: bool) -> None:
        """Tally one proposed move of ``kind`` into the current stage."""
        counts = self._move_counts.get(kind)
        if counts is None:
            counts = self._move_counts[kind] = [0, 0]
        counts[0 if accepted else 1] += 1

    # -- stage-boundary emission ---------------------------------------
    def emit(self, kind: str, **fields: Any) -> dict:
        """Append one event (cool path: once per stage / run phase)."""
        event = {"type": kind, **fields}
        self.events.append(event)
        stream = self._stream
        if stream is not None:
            stream.write(
                json.dumps(event, sort_keys=True, separators=(",", ":"))
                + "\n"
            )
            stream.flush()
        return event

    def run_start(self, manifest: dict) -> None:
        """Open the trace with the schema version and run manifest."""
        self.emit(
            "run_start",
            schema_version=TRACE_SCHEMA_VERSION,
            manifest=manifest,
        )

    def stage(self, **fields: Any) -> None:
        """Emit one per-temperature stage event.

        Attaches (and resets) the stage's move-kind tallies and the
        metric counter deltas since the previous stage boundary.
        """
        if self._move_counts:
            fields["moves"] = {
                kind: {"accepted": counts[0], "rejected": counts[1]}
                for kind, counts in sorted(self._move_counts.items())
            }
            self._move_counts = {}
        mark = self.metrics.snapshot()
        delta = counter_delta(self._metrics_mark, mark)
        if delta:
            fields["metrics"] = delta
        self._metrics_mark = mark
        self.emit("stage", **fields)

    def snapshot(self, payload: dict, **fields: Any) -> None:
        """Emit one layout ``snapshot`` event.

        ``payload`` is a :mod:`repro.obs.snapshot` capture (its own
        ``SNAPSHOT_SCHEMA_VERSION`` rides inside); optional fields like
        ``stage`` mark where in the run it was taken.
        """
        self.emit("snapshot", snapshot=payload, **fields)

    def sanitizer_violation(self, phase: str, move: Any,
                            problems: list[str]) -> None:
        """Record a sanitizer violation (emitted just before it raises)."""
        self.emit(
            "sanitizer_violation",
            phase=phase,
            move=repr(move),
            problems=list(problems),
        )

    def run_end(self, **fields: Any) -> None:
        """Close the trace with final terms and the full metrics snapshot."""
        fields["metrics_snapshot"] = self.metrics.snapshot()
        self.emit("run_end", **fields)

    def finish(self) -> RunTrace:
        """Freeze the accumulated events into a :class:`RunTrace`.

        Closes the live stream, if one was open — the finished trace is
        about to be written atomically over it (or kept as-is).
        """
        stream = self._stream
        if stream is not None:
            self._stream = None
            stream.close()
        return RunTrace(list(self.events))


def maybe_tracer(
    enabled: bool, stream_path: Optional[str] = None
) -> Optional[Tracer]:
    """Tracer when enabled, None otherwise (guarded-probe pattern)."""
    return Tracer(stream_path=stream_path) if enabled else None


@dataclasses.dataclass
class Instrumentation:
    """The bundle of per-run observability hooks, built in one place.

    ``tracer`` records structured events and owns the metrics registry,
    whose section timers also time the move transaction;
    ``sanitizer`` cross-checks move-transaction invariants
    (:mod:`repro.lint.runtime`).  Every hook is optional and they are
    mutually composable — any subset can be on, and none of them may
    perturb the run's results.
    """

    tracer: Optional[Tracer] = None
    sanitizer: Optional[Any] = None
    #: Live heartbeat sidecar writer (see :mod:`repro.obs.live`);
    #: None when ``config.heartbeat_path`` is unset.  Like the others,
    #: it never perturbs results: telemetry is a pure read and the
    #: writer touches only monotonic clocks.
    heartbeat: Optional[Any] = None
    #: Emit a layout ``snapshot`` event every N stages (0 = never).
    #: Only meaningful when ``tracer`` is present.
    snapshot_every: int = 0
    #: Write a resumable checkpoint every N stages (0 = only the final
    #: one); requires ``checkpoint_path`` (see :mod:`repro.resilience`).
    checkpoint_every: int = 0
    #: Destination for periodic and final checkpoints (None = none).
    checkpoint_path: Optional[str] = None

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        """The tracer's metrics registry (None when tracing is off)."""
        return self.tracer.metrics if self.tracer is not None else None

    @classmethod
    def from_config(cls, config: Any) -> "Instrumentation":
        """Build every requested hook from one annealer-style config.

        Reads ``config.trace``, ``config.sanitize``,
        ``config.sanitize_every``, ``config.snapshot_every``,
        ``config.checkpoint_every``, ``config.checkpoint_path``,
        ``config.trace_stream``, ``config.heartbeat_path`` and
        ``config.heartbeat_min_interval_s`` (each optional, default
        off) — the single shared wiring point behind
        ``--trace``, ``--sanitize``, ``--snapshot-every``,
        ``--checkpoint`` and ``--heartbeat``.
        """
        sanitizer = None
        if getattr(config, "sanitize", False):
            from ..lint.runtime import MoveSanitizer

            sanitizer = MoveSanitizer(getattr(config, "sanitize_every", 1))
        heartbeat = None
        heartbeat_path = getattr(config, "heartbeat_path", None)
        if heartbeat_path is not None:
            from .live import HeartbeatWriter

            heartbeat = HeartbeatWriter(
                heartbeat_path,
                float(getattr(config, "heartbeat_min_interval_s", 2.0)),
            )
        checkpoint_path = getattr(config, "checkpoint_path", None)
        stream_path = getattr(config, "trace_stream", None)
        return cls(
            tracer=maybe_tracer(
                getattr(config, "trace", False),
                stream_path=(
                    str(stream_path) if stream_path is not None else None
                ),
            ),
            sanitizer=sanitizer,
            heartbeat=heartbeat,
            snapshot_every=int(getattr(config, "snapshot_every", 0) or 0),
            checkpoint_every=int(getattr(config, "checkpoint_every", 0) or 0),
            checkpoint_path=(
                str(checkpoint_path) if checkpoint_path is not None else None
            ),
        )
