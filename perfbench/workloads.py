"""The benchmark's workloads and the flows it drives through the public APIs.

Each workload turns a seed into circuit specs and a flow configuration,
runs the flow, checks every layout the flow produced, and returns a
:class:`FlowRun` with CPU timings and the run's fingerprint.

The flows are driven here rather than through ``run_simultaneous`` /
``run_sequential`` so that set-up, anneal (or placement) and routing can
be timed apart without patching the program, and so that the annealer
object survives for :meth:`SimultaneousAnnealer.audit`.  Each runner
here makes the library function's calls, in order; the self-tests pin
both against the library functions.

When a :class:`spans.SpanRecorder` is passed, the runner opens a span
around each call it makes into the program (netlist build, set-up,
anneal, placement, batch routing, STA).  Spans inside those calls come
from the wrappers in :mod:`spans`, installed only for traced runs.
"""

from __future__ import annotations

import dataclasses
import random
import time
from contextlib import nullcontext
from typing import Callable

from repro import architecture_for
from repro.core import AnnealerConfig, ScheduleConfig, SimultaneousAnnealer, fast_config
from repro.flows import SequentialPlacer, fast_sequential_config
from repro.netlist import TABLE_DESIGNS, CircuitSpec, generate, paper_benchmark
from repro.place.initial import clustered_placement, random_placement
from repro.route.channel_router import detail_route_all
from repro.route.global_router import global_route_all
from repro.route.state import RoutingState
from repro.route.verify import verify_layout
from repro.timing.analyzer import analyze

import spans

#: Table 1's track budget: both flows route every design completely.
TABLE1_TRACKS = 26
#: ``bench_moves_per_sec``'s ``large`` tier width.
LARGE_TRACKS = 44
#: ``table1_s1`` cuts ``fast_config``'s anneal at this many temperatures.
#: Uncut, the freeze test ends seeds anywhere from 27 to 41 stages
#: (15-23 CPU s), which spreads flow time across seeds by more than any
#: bound worth having; at 16 no seed freezes early, so every seed runs
#: the same number of moves and still finishes fully routed.
TABLE1_S1_TEMPERATURES = 16


@dataclasses.dataclass(frozen=True)
class Design:
    """One circuit of a workload: how to build it and at what width."""

    name: str
    build: Callable[[], object]
    tracks: int


@dataclasses.dataclass(frozen=True)
class Workload:
    """A named benchmark workload: its circuits and its flow."""

    name: str
    flow: str  # "simultaneous" or "sequential"
    designs: Callable[[int], list[Design]]
    config: Callable[[int], object]


def _table1_s1_designs(seed: int) -> list[Design]:
    return [Design("s1", lambda: paper_benchmark("s1"), TABLE1_TRACKS)]


def _table1_s1_config(seed: int) -> AnnealerConfig:
    config = fast_config(seed)
    return dataclasses.replace(
        config,
        schedule=dataclasses.replace(
            config.schedule, max_temperatures=TABLE1_S1_TEMPERATURES
        ),
    )


#: The circuit of BENCH_moves.json's ``large`` tiers and of ROADMAP's
#: futility measurement.  It stays fixed while the anneal seed varies:
#: with the circuit seed following the workload seed, moves/s spread
#: over ten seeds by 20% of its median (interquartile range), close to
#: its 0.25 bound; with the circuit fixed, by 11%.
LARGE_SPEC = CircuitSpec("large", num_cells=500, seed=42, depth=9)


def _large_500_designs(seed: int) -> list[Design]:
    return [Design("large", lambda: generate(LARGE_SPEC), LARGE_TRACKS)]


def _large_500_config(seed: int) -> AnnealerConfig:
    # bench_moves_per_sec.py's ``large_smoke`` anneal settings.
    return AnnealerConfig(
        seed=seed,
        attempts_per_cell=4,
        initial="clustered",
        greedy_rounds=1,
        schedule=ScheduleConfig(lambda_=2.0, max_temperatures=3, freeze_patience=2),
    )


def _seq_table1_designs(seed: int) -> list[Design]:
    return [
        Design(name, lambda name=name: paper_benchmark(name), TABLE1_TRACKS)
        for name in TABLE_DESIGNS
    ]


WORKLOADS = {
    "table1_s1": Workload(
        "table1_s1", "simultaneous", _table1_s1_designs, _table1_s1_config
    ),
    "large_500": Workload(
        "large_500", "simultaneous", _large_500_designs, _large_500_config
    ),
    "seq_table1": Workload(
        "seq_table1", "sequential", _seq_table1_designs, fast_sequential_config
    ),
}


@dataclasses.dataclass
class DesignRun:
    """What one design of a flow produced."""

    design: str
    moves_attempted: int
    moves_accepted: int
    worst_delay_ns: float
    routed_nets: int
    nets: int
    problems: list[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class FlowRun:
    """One flow over all of a workload's designs."""

    workload: str
    seed: int
    flow_s: float  # CPU seconds, circuit spec to finished result
    anneal_s: float  # CPU seconds inside the anneal / placer
    wall_s: float  # for reference only
    designs: list[DesignRun]

    @property
    def moves_attempted(self) -> int:
        return sum(d.moves_attempted for d in self.designs)

    @property
    def moves_accepted(self) -> int:
        return sum(d.moves_accepted for d in self.designs)

    @property
    def worst_delay_ns(self) -> float:
        """Worst delay, averaged over the workload's designs."""
        return sum(d.worst_delay_ns for d in self.designs) / len(self.designs)

    @property
    def routed_frac(self) -> float:
        """Share of nets, over all designs, with a complete detailed route."""
        return sum(d.routed_nets for d in self.designs) / sum(
            d.nets for d in self.designs
        )

    @property
    def problems(self) -> list[str]:
        return [f"{d.design}: {p}" for d in self.designs for p in d.problems]

    @property
    def fingerprint(self) -> tuple:
        """Determinism fingerprint: equal for every run of one seed."""
        return (self.moves_attempted, self.worst_delay_ns, self.routed_frac)


def _span(recorder, name: str):
    return nullcontext() if recorder is None else recorder.span(name)


def _check_layout(state: RoutingState) -> list[str]:
    """Output checks every flow's layout must pass."""
    problems = list(state.check_consistency())
    problems.extend(verify_layout(state, require_complete=state.is_complete()))
    return problems


def _routed_nets(state: RoutingState) -> int:
    return sum(1 for route in state.routes if route.fully_routed)


def _setup_simultaneous(design: Design, config: AnnealerConfig, recorder=None):
    with _span(recorder, "netlist.generate"):
        netlist = design.build()
    architecture = architecture_for(netlist, tracks_per_channel=design.tracks)
    with _span(recorder, "core.setup"):
        annealer = SimultaneousAnnealer(netlist, architecture, config)
    return architecture, annealer


def _run_simultaneous(design: Design, config: AnnealerConfig, recorder):
    """``run_simultaneous``'s body, timed by phase.  Returns the design
    run, its output checks (run later, outside the timed and traced
    part), the flow CPU time and the anneal CPU time."""
    t0 = time.process_time()
    architecture, annealer = _setup_simultaneous(design, config, recorder)
    t1 = time.process_time()
    with _span(recorder, "core.anneal"):
        result = annealer.run()
    t2 = time.process_time()
    with _span(recorder, "timing.sta"):
        report = analyze(result.state, architecture.technology)
    t3 = time.process_time()

    def check() -> list[str]:
        problems = _check_layout(result.state)
        problems.extend(f"audit: {p}" for p in annealer.audit())
        if report.worst_delay != result.worst_delay:
            problems.append(
                f"post-layout STA {report.worst_delay!r} ns != anneal T "
                f"{result.worst_delay!r} ns"
            )
        return problems

    run = DesignRun(
        design.name, result.moves_attempted, result.moves_accepted,
        report.worst_delay, _routed_nets(result.state), len(result.state.routes),
    )
    return run, check, t3 - t0, t2 - t1


def sequential_attempts(placer: SequentialPlacer) -> int:
    """Moves :meth:`SequentialPlacer.run` attempted: the T0 random walk,
    every temperature stage, and the one greedy pass."""
    num_cells = placer.netlist.num_cells
    per_temperature = placer.config.attempts_per_cell * num_cells
    walk = max(24, num_cells // 2)
    return walk + (placer.schedule.temperatures_done + 1) * per_temperature


def _setup_sequential(design: Design, config, recorder=None):
    with _span(recorder, "netlist.generate"):
        netlist = design.build()
    architecture = architecture_for(netlist, tracks_per_channel=design.tracks)
    with _span(recorder, "place.setup"):
        netlist.freeze()
        fabric = architecture.build()
        rng = random.Random(config.seed)
        with _span(recorder, "place.initial"):
            if config.initial == "clustered":
                placement = clustered_placement(netlist, fabric, rng)
            else:
                placement = random_placement(netlist, fabric, rng)
        placer = SequentialPlacer(netlist, placement, config)
    return architecture, placer


def _run_sequential(design: Design, config, recorder):
    """``run_sequential``'s body, timed by phase."""
    t0 = time.process_time()
    architecture, placer = _setup_sequential(design, config, recorder)
    t1 = time.process_time()
    with _span(recorder, "place.seq_anneal"):
        placement = placer.run()
    t2 = time.process_time()
    state = RoutingState(placement)
    with _span(recorder, "route.batch_global"):
        global_route_all(state)
    with _span(recorder, "route.batch_detail"):
        detail_route_all(state, config.segment_weight)
    with _span(recorder, "timing.sta"):
        report = analyze(state, architecture.technology)
    t3 = time.process_time()

    run = DesignRun(
        design.name, sequential_attempts(placer), 0, report.worst_delay,
        _routed_nets(state), len(state.routes),
    )
    return run, lambda: _check_layout(state), t3 - t0, t2 - t1


def run_flow(workload: Workload, seed: int, recorder=None) -> FlowRun:
    """Run ``workload`` once at ``seed`` and check every layout it produced.

    With a ``recorder``, the program's layer boundaries are wrapped for
    the flow itself and unwrapped before the output checks run.  Raises
    whatever the program raises; the caller counts that as a failed flow.
    """
    config = workload.config(seed)
    run_design = (
        _run_simultaneous if workload.flow == "simultaneous" else _run_sequential
    )
    wall0 = time.perf_counter()
    outcomes = []
    with nullcontext() if recorder is None else spans.installed(recorder):
        for design in workload.designs(seed):
            outcomes.append(run_design(design, config, recorder))
    wall_s = time.perf_counter() - wall0
    for run, check, _, _ in outcomes:
        run.problems = check()
    return FlowRun(
        workload.name, seed,
        flow_s=sum(outcome[2] for outcome in outcomes),
        anneal_s=sum(outcome[3] for outcome in outcomes),
        wall_s=wall_s,
        designs=[outcome[0] for outcome in outcomes],
    )


def setup_only(workload: Workload, seed: int) -> None:
    """Everything a flow does before its anneal or placer starts, for
    every design of the workload; used by the cold set-up probe."""
    config = workload.config(seed)
    setup = (
        _setup_simultaneous if workload.flow == "simultaneous" else _setup_sequential
    )
    for design in workload.designs(seed):
        setup(design, config)
