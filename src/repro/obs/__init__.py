"""repro.obs — structured observability for anneal runs.

Three cooperating pieces (see docs/OBSERVABILITY.md):

* :mod:`repro.obs.tracer` — the event tracer the annealer, transaction
  layer, routers, and timing engine emit structured events into, plus
  :class:`Instrumentation`, the single hook point that builds the
  tracer/sanitizer/heartbeat bundle from a config;
* :mod:`repro.obs.metrics` — counters/gauges/histograms with explicit
  snapshots, plus the volatile move-transaction section timers, safe
  to probe from hot loops under an ``is not None`` guard;
* :mod:`repro.obs.events` / :mod:`repro.obs.summary` — the
  schema-versioned JSONL trace format and the offline analysis behind
  ``repro-fpga trace``;
* :mod:`repro.obs.ledger` / :mod:`repro.obs.report` — the append-only
  cross-run ledger and the HTML observatory behind ``repro-fpga runs``;
* :mod:`repro.obs.live` — the heartbeat sidecar, tail-follow trace
  reader, and incremental anomaly engine behind ``repro-fpga watch``.

Everything is off by default and free when off: disabled tracing costs
the hot loop one ``is not None`` test per probe site, and an enabled
tracer never reads clocks or RNG, so traced runs are bit-identical to
untraced ones.

This package must stay importable without :mod:`repro.core` — the core
imports *us*.  Analysis-side modules (summary, cli, xray) are therefore
not imported here; load them explicitly.  The snapshot API
(:mod:`repro.obs.snapshot`), which depends on the route/timing layers
but not on core, is re-exported lazily via module ``__getattr__`` so
that plain ``import repro.obs`` stays as light as before.
"""

from .console import Console, DEFAULT_CONSOLE, get_console
from .events import (
    EVENT_REQUIRED,
    TRACE_SCHEMA_VERSION,
    RunTrace,
    read_trace,
    reconstructed_cost,
    schema_descriptor,
    validate_events,
)
from .metrics import (
    HISTOGRAM_BOUNDS,
    Histogram,
    MetricsRegistry,
    counter_delta,
    maybe_metrics,
)
from .tracer import (
    Instrumentation,
    Tracer,
    build_manifest,
    config_digest,
    maybe_tracer,
)

_SNAPSHOT_EXPORTS = (
    "SNAPSHOT_SCHEMA_VERSION",
    "capture_snapshot",
    "diff_snapshots",
    "read_snapshot",
    "validate_snapshot",
    "write_snapshot",
)

#: Live observability API (repro.obs.live), re-exported lazily for the
#: same reason as the ledger: writers pull in the resilience layer.
_LIVE_EXPORTS = (
    "HEARTBEAT_SCHEMA_VERSION",
    "Alarm",
    "AnomalyEngine",
    "HeartbeatWriter",
    "TraceFollower",
    "WatchState",
    "follow_trace",
    "heartbeat_path",
    "heartbeat_pid_dead",
    "local_host",
    "maybe_heartbeat",
    "pid_alive",
    "read_heartbeat",
    "watch_once",
)

#: Cross-run ledger API (repro.obs.ledger), re-exported lazily like the
#: snapshot API: it pulls in the resilience layer on write, which plain
#: ``import repro.obs`` should not pay for.
_LEDGER_EXPORTS = (
    "LEDGER_SCHEMA_VERSION",
    "Ledger",
    "LedgerError",
    "append_record",
    "make_record",
    "read_ledger",
    "record_from_result",
)


def __getattr__(name: str):
    if name in _SNAPSHOT_EXPORTS:
        from . import snapshot as _snapshot

        return getattr(_snapshot, name)
    if name in _LEDGER_EXPORTS:
        from . import ledger as _ledger

        return getattr(_ledger, name)
    if name in _LIVE_EXPORTS:
        from . import live as _live

        return getattr(_live, name)
    if name == "render_report":
        from .report import render_report

        return render_report
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Console",
    "DEFAULT_CONSOLE",
    "get_console",
    "EVENT_REQUIRED",
    "TRACE_SCHEMA_VERSION",
    "RunTrace",
    "read_trace",
    "reconstructed_cost",
    "schema_descriptor",
    "validate_events",
    "HISTOGRAM_BOUNDS",
    "Histogram",
    "MetricsRegistry",
    "counter_delta",
    "maybe_metrics",
    "Instrumentation",
    "Tracer",
    "build_manifest",
    "config_digest",
    "maybe_tracer",
    *_SNAPSHOT_EXPORTS,
    *_LEDGER_EXPORTS,
    *_LIVE_EXPORTS,
    "render_report",
]
