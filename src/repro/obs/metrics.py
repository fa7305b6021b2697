"""Lightweight metrics registry: counters, gauges, histograms, timers.

The registry is the *numeric* half of the observability layer (the
tracer in :mod:`repro.obs.tracer` is the *event* half).  Hot paths
carry a guarded probe::

    mx = self.metrics            # None unless tracing was requested
    if mx is not None:
        mx.count("repair.detail_ok")

Two hard rules keep instrumented runs bit-identical to plain runs
(the sanitizer's determinism contract):

* **no wall-clock reads** — nothing in this module ever touches a
  timer.  Section timers (:meth:`MetricsRegistry.add_time`) take
  durations their callers measured, and land in a volatile table that
  :meth:`MetricsRegistry.snapshot` never includes, so trace events
  stay byte-identical across hosts.  Everything else recorded here is
  an already-computed integer/float of the run itself;
* **no RNG, no layout state** — recording is pure accumulation into
  plain dicts and lists.

``snapshot()`` is the read API for the deterministic part: an
explicit, JSON-ready copy of everything accumulated so far.  The
tracer snapshots at stage boundaries and emits per-stage *deltas*, so
trace consumers see rates (cache hits per temperature, repairs per
temperature) without the hot loop ever doing subtraction.
``timings()`` reads the volatile section table, which feeds
``AnnealResult.profile`` and the ledger's ``profile`` block.
"""

from __future__ import annotations

import math
from typing import Optional, Union

Number = Union[int, float]

#: Histogram bucket upper bounds: powers of two up to 2**15, then +inf.
#: Fixed bounds (rather than adaptive ones) keep snapshots comparable
#: across runs and machines.
HISTOGRAM_BOUNDS: tuple[int, ...] = tuple(2 ** i for i in range(16))


class Histogram:
    """Fixed-bucket histogram over non-negative values."""

    __slots__ = ("buckets", "count", "total")

    def __init__(self) -> None:
        # One bucket per bound plus one overflow bucket.
        self.buckets: list[int] = [0] * (len(HISTOGRAM_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: Number) -> None:
        """Record one sample."""
        index = len(HISTOGRAM_BOUNDS)
        for i, bound in enumerate(HISTOGRAM_BOUNDS):
            if value <= bound:
                index = i
                break
        self.buckets[index] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        """Mean of the observed samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile sample.

        Fixed buckets make this a conservative (rounded-up) estimate:
        the true sample lies at or below the returned bound.  Returns
        ``0.0`` for an empty histogram and ``math.inf`` when the
        quantile lands in the overflow bucket.  Raises ``ValueError``
        for ``q`` outside ``[0, 1]``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil(q * self.count))
        cumulative = 0
        for i, tally in enumerate(self.buckets):
            cumulative += tally
            if cumulative >= target:
                if i < len(HISTOGRAM_BOUNDS):
                    return float(HISTOGRAM_BOUNDS[i])
                break
        return math.inf

    def summary(self) -> dict:
        """Count/sum/mean plus bucketed p50/p90/p99, JSON-ready.

        A quantile landing in the overflow bucket is ``math.inf`` from
        :meth:`quantile`, which ``json.dumps`` would emit as the
        non-standard token ``Infinity`` (strict parsers reject it) —
        summaries report it as ``None`` instead, meaning "beyond the
        top finite bound".
        """
        def finite(value: float) -> Optional[float]:
            return value if math.isfinite(value) else None

        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "p50": finite(self.quantile(0.5)),
            "p90": finite(self.quantile(0.9)),
            "p99": finite(self.quantile(0.99)),
        }

    def as_dict(self) -> dict:
        """JSON-ready snapshot of this histogram."""
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "buckets": list(self.buckets),
        }


class MetricsRegistry:
    """Named counters, gauges, histograms, and section timers."""

    __slots__ = ("counters", "gauges", "histograms", "section_s",
                 "section_calls")

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        #: Volatile per-section seconds and call counts (see
        #: :meth:`add_time`); never part of :meth:`snapshot`.
        self.section_s: dict[str, float] = {}
        self.section_calls: dict[str, int] = {}

    # -- hot-path probes (call only under an ``is not None`` guard) ----
    def count(self, name: str, n: int = 1) -> None:
        """Bump a monotonically increasing counter."""
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: Number) -> None:
        """Set a point-in-time value (last write wins)."""
        self.gauges[name] = float(value)

    def observe(self, name: str, value: Number) -> None:
        """Record one histogram sample."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate one timed section sample measured by the caller."""
        self.section_s[name] = self.section_s.get(name, 0.0) + seconds
        self.section_calls[name] = self.section_calls.get(name, 0) + 1

    # -- reads ---------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready copy of everything accumulated so far.

        The one read API: callers diff successive snapshots to turn the
        monotone counters into per-interval rates (see
        :func:`counter_delta`).
        """
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: histogram.as_dict()
                for name, histogram in sorted(self.histograms.items())
            },
        }

    def timings(self) -> dict:
        """JSON-ready copy of the volatile section table."""
        return {
            "section_s": dict(self.section_s),
            "section_calls": dict(self.section_calls),
        }


def format_timings(timings: dict, wall_time_s: float) -> str:
    """Per-section table of a :meth:`MetricsRegistry.timings` copy.

    Sections are listed slowest first, each with its share of
    ``wall_time_s``; whatever no section covers is ``other``.
    """
    seconds = timings["section_s"]
    calls = timings["section_calls"]
    denom = wall_time_s if wall_time_s > 0 else 1e-12
    lines = [f"section timings (of {wall_time_s:.2f}s wall):"]
    for name in sorted(seconds, key=lambda name: (-seconds[name], name)):
        lines.append(
            f"  {name:>10}: {seconds[name]:8.3f}s "
            f"({100.0 * seconds[name] / denom:5.1f}%) "
            f"over {calls[name]} calls"
        )
    other = max(0.0, wall_time_s - sum(seconds.values()))
    lines.append(f"  {'other':>10}: {other:8.3f}s "
                 f"({100.0 * other / denom:5.1f}%)")
    return "\n".join(lines)


def counter_delta(before: dict, after: dict) -> dict[str, int]:
    """Counter increments between two :meth:`MetricsRegistry.snapshot` calls.

    Only counters that moved appear in the result, so per-stage trace
    events stay compact on stages where nothing interesting happened.
    """
    old = before.get("counters", {})
    new = after.get("counters", {})
    return {
        name: value - old.get(name, 0)
        for name, value in sorted(new.items())
        if value != old.get(name, 0)
    }


def maybe_metrics(enabled: bool) -> Optional[MetricsRegistry]:
    """Registry when enabled, None otherwise (guarded-probe pattern)."""
    return MetricsRegistry() if enabled else None
