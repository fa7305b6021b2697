"""Outside-in tracing for the benchmark's traced run.

:class:`SpanRecorder` keeps one span per call (name, start, end, parent)
in flat arrays and writes them out once, when the run ends.  Times are
CPU seconds from ``time.process_time``.

:func:`installed` wraps the program's public functions and methods for
the duration of a ``with`` block and puts the originals back afterwards.
Each name is patched where its caller looks it up: module functions in
the calling module's namespace, methods on their class.  The wrappers
only read arguments and results, so a traced run follows the same
trajectory as a plain one.

:func:`layer_metrics` turns the spans and counters into the per-layer
metrics.  Durations are self times: a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional

import repro.core.annealer as annealer_module
import repro.route.incremental as incremental_module
from repro.arch.presets import Architecture
from repro.core.cost import CostEvaluator
from repro.route.incremental import IncrementalRouter
from repro.route.state import RoutingState
from repro.timing.incremental import IncrementalTiming

#: Spans the benchmark opens itself, one per call it makes into the
#: program; they partition a flow, so counters are attributed to them.
STAGES = (
    "netlist.generate", "core.setup", "core.anneal", "timing.sta",
    "place.setup", "place.seq_anneal", "route.batch_global",
    "route.batch_detail",
)


class SpanRecorder:
    """In-memory span store plus counters keyed by the enclosing stage."""

    def __init__(self) -> None:
        self.clock = time.process_time
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = [-1]
        #: (stage, counter) -> count; ``stage`` is the innermost open
        #: span named in :data:`STAGES`.
        self.counts: Counter = Counter()
        self.stage = ""

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark's own code."""
        index = len(self.start)
        self.name_id.append(self.intern(name))
        self.parent.append(self.stack[-1])
        self.start.append(self.clock())
        self.end.append(0.0)
        self.stack.append(index)
        outer_stage = self.stage
        if name in STAGES:
            self.stage = name
        try:
            yield
        finally:
            self.end[index] = self.clock()
            self.stack.pop()
            self.stage = outer_stage

    def count(self, key: str, n: int = 1) -> None:
        self.counts[(self.stage, key)] += n

    def total(self, key: str, stage: Optional[str] = None) -> int:
        """A counter summed over every stage, or read in one stage."""
        return sum(
            n for (s, k), n in self.counts.items()
            if k == key and (stage is None or s == stage)
        )

    def __len__(self) -> int:
        return len(self.start)

    def write(self, directory: Path, stem: str) -> Path:
        """Write the spans as four flat binary arrays plus a JSON index."""
        directory.mkdir(parents=True, exist_ok=True)
        for field in ("name_id", "parent", "start", "end"):
            with open(directory / f"{stem}.{field}.bin", "wb") as out:
                getattr(self, field).tofile(out)
        index = {
            "spans": len(self),
            "names": self.names,
            "arrays": {"name_id": "i", "parent": "i", "start": "d", "end": "d"},
            "counts": [[s, k, n] for (s, k), n in sorted(self.counts.items())],
        }
        path = directory / f"{stem}.json"
        path.write_text(json.dumps(index, indent=1) + "\n", encoding="utf-8")
        return path


def _wrap(recorder: SpanRecorder, name: str, fn: Callable,
          note: Optional[Callable] = None) -> Callable:
    """``fn`` recording one span per call; ``note(args, result)`` adds
    counters from what the call returned."""
    nid = recorder.intern(name)
    clock = recorder.clock
    name_ids, parents = recorder.name_id, recorder.parent
    starts, ends, stack = recorder.start, recorder.end, recorder.stack

    def wrapper(*args, **kwargs):
        index = len(starts)
        name_ids.append(nid)
        parents.append(stack[-1])
        starts.append(clock())
        ends.append(0.0)
        stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[index] = clock()
            stack.pop()
        if note is not None:
            note(args, result)
        return result

    return wrapper


def _counting(recorder: SpanRecorder, key: str, fn: Callable) -> Callable:
    """``fn`` counting the calls that return True (no span: these are
    cheap cache probes, called about as often as the repairs)."""

    def wrapper(*args):
        result = fn(*args)
        if result:
            recorder.count(key)
        return result

    return wrapper


def _patches(rec: SpanRecorder) -> list[tuple[object, str, Callable]]:
    """(owner, attribute, replacement) for every wrapped name."""

    def outcome(prefix):
        ok_key, fail_key = f"{prefix}_ok", f"{prefix}_fail"

        def note(args, ok):
            rec.count(ok_key if ok else fail_key)
        return note

    def journaled(args, record):
        rec.count("core.nets_journaled", record.nets_touched)
        if record.nets_touched == 0:
            rec.count("core.zero_net_moves")

    def ripped(args, result):
        rec.count("route.nets_ripped", len(args[1]))

    def repaired(args, result):
        rec.count("route.repair_calls")

    def updated(args, result):
        rec.count("timing.update_calls")
        rec.count("timing.nets_updated", len(args[1]))

    def span(owner, attr, name, note=None):
        return owner, attr, _wrap(rec, name, getattr(owner, attr), note)

    return [
        span(annealer_module, "apply_move", "core.apply_move", journaled),
        span(annealer_module, "rollback", "core.rollback"),
        span(annealer_module, "clustered_placement", "place.initial"),
        span(annealer_module, "random_placement", "place.initial"),
        span(CostEvaluator, "terms", "core.cost"),
        span(Architecture, "build", "arch.build"),
        span(IncrementalRouter, "rip_up_nets", "route.ripup", ripped),
        span(IncrementalRouter, "refresh_nets", "route.ripup"),
        span(IncrementalRouter, "repair", "route.repair", repaired),
        span(IncrementalRouter, "route_all_from_scratch", "route.initial"),
        span(incremental_module, "route_net_global", "route.global",
             outcome("route.global")),
        span(incremental_module, "route_net_in_channel", "route.detail",
             outcome("route.detail")),
        (RoutingState, "global_attempt_is_hopeless",
         _counting(rec, "route.global_cache_hits",
                   RoutingState.global_attempt_is_hopeless)),
        (RoutingState, "detail_attempt_is_hopeless",
         _counting(rec, "route.detail_cache_hits",
                   RoutingState.detail_attempt_is_hopeless)),
        span(IncrementalTiming, "__init__", "timing.build"),
        span(IncrementalTiming, "update_nets", "timing.update", updated),
        span(IncrementalTiming, "restore", "timing.restore"),
    ]


@contextmanager
def installed(recorder: SpanRecorder):
    """Wrap the program's layer boundaries for the ``with`` block."""
    patches = _patches(recorder)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield recorder
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


#: Spans whose self time is reported, by the name of the metric.
SELF_TIME_METRICS = {
    "netlist.generate_s": "netlist.generate",
    "arch.build_s": "arch.build",
    "place.initial_s": "place.initial",
    "route.initial_s": "route.initial",
    "timing.build_s": "timing.build",
    "core.apply_move_s": "core.apply_move",
    "core.rollback_s": "core.rollback",
    "core.cost_s": "core.cost",
    "core.other_s": "core.anneal",
    "route.ripup_s": "route.ripup",
    "route.repair_s": "route.repair",
    "route.global_s": "route.global",
    "route.detail_s": "route.detail",
    "route.batch_global_s": "route.batch_global",
    "route.batch_detail_s": "route.batch_detail",
    "timing.update_s": "timing.update",
    "timing.restore_s": "timing.restore",
    "timing.sta_s": "timing.sta",
    "place.seq_anneal_s": "place.seq_anneal",
}

def self_times(recorder: SpanRecorder) -> dict[str, float]:
    """Self time per span name.

    The initial routing pass is one set-up step, so spans under
    ``route.initial`` (its repair and route attempts) count toward
    ``route.initial``; every ``route.*`` repair time is then anneal time.
    """
    names, name_id, parent = recorder.names, recorder.name_id, recorder.parent
    start, end = recorder.start, recorder.end
    n = len(start)
    duration = [end[i] - start[i] for i in range(n)]
    child = [0.0] * n
    folded_into = [-1] * n
    initial = recorder._ids.get("route.initial", -2)
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        child[p] += duration[i]
        if folded_into[p] >= 0:
            folded_into[i] = folded_into[p]
        elif name_id[p] == initial:
            folded_into[i] = p
    totals: dict[str, float] = {name: 0.0 for name in names}
    for i in range(n):
        owner = i if folded_into[i] < 0 else folded_into[i]
        totals[names[name_id[owner]]] += duration[i] - child[i]
    return totals


def _durations(recorder: SpanRecorder, name: str) -> list[float]:
    nid = recorder._ids.get(name)
    start, end = recorder.start, recorder.end
    return [
        end[i] - start[i]
        for i, value in enumerate(recorder.name_id) if value == nid
    ]


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(recorder: SpanRecorder, moves_attempted: int,
                  moves_accepted: int) -> dict[str, float]:
    """Every per-layer metric of one traced flow (anneal counts are
    counted in the ``core.anneal`` stage only)."""
    own = self_times(recorder)
    metrics = {key: own.get(name, 0.0) for key, name in SELF_TIME_METRICS.items()}

    def anneal(key):
        return recorder.total(key, stage="core.anneal")

    apply_us = [d * 1e6 for d in _durations(recorder, "core.apply_move")]
    metrics.update({
        "core.anneal_s": sum(_durations(recorder, "core.anneal")),
        "core.moves_attempted": moves_attempted,
        "core.moves_accepted": moves_accepted,
        "core.acceptance": moves_accepted / moves_attempted if moves_attempted else 0.0,
        "core.zero_net_moves": anneal("core.zero_net_moves"),
        "core.nets_journaled": anneal("core.nets_journaled"),
        "core.apply_move_p50_us": _quantile(apply_us, 0.50),
        "core.apply_move_p99_us": _quantile(apply_us, 0.99),
        "route.nets_ripped": anneal("route.nets_ripped"),
        "route.repair_calls": anneal("route.repair_calls"),
        "timing.update_calls": anneal("timing.update_calls"),
    })
    for kind in ("global", "detail"):
        ok = anneal(f"route.{kind}_ok")
        fail = anneal(f"route.{kind}_fail")
        metrics[f"route.{kind}_ok"] = ok
        metrics[f"route.{kind}_fail"] = fail
        metrics[f"route.{kind}_cache_hits"] = anneal(f"route.{kind}_cache_hits")
        metrics[f"route.{kind}_futility"] = fail / (ok + fail) if ok + fail else 0.0
    calls = metrics["timing.update_calls"]
    metrics["timing.nets_per_update"] = (
        anneal("timing.nets_updated") / calls if calls else 0.0
    )
    return metrics
