"""Frontier-based incremental worst-case delay maintenance.

"Rather than relying on the user to supply a set of critical paths to
evaluate, the worst-case critical path is incrementally updated after
each perturbation. ... a frontier of affected cells is maintained ...
At any stage, the cell in the frontier with the minimum level is
processed.  Processing a cell involves two parts: updating the output
delay of the cell based on the new input delays, and if output delay
changes, putting new cells in the frontier by examining the fanout
cells." (paper, Section 3.5)

:class:`IncrementalTiming` keeps, between moves:

* per-cell output arrival times,
* per-boundary-cell input arrival times (whose max is ``T``),
* a per-net cache of sink interconnect delays (exact Elmore when the
  net is embedded, the crude estimate otherwise).

:meth:`update_nets` re-evaluates the nets a move touched and propagates
arrival changes forward with a min-level heap; it returns a
:class:`TimingDelta` that :meth:`restore` applies to undo everything if
the annealer rejects the move.  Processing min-level-first over the
(once-computed) levelization guarantees each affected cell is visited
exactly once with settled inputs.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..arch.technology import Technology
from ..route.state import RoutingState
from .analyzer import net_sink_delays, sink_positions
from .levelize import cells_in_level_order, levelize

#: Arrival changes below this are not propagated (pure float noise).
EPSILON = 1e-12


@dataclass
class TimingDelta:
    """Undo record for one :meth:`IncrementalTiming.update_nets` call."""

    arrival: dict[int, float] = field(default_factory=dict)
    boundary_in: dict[int, float] = field(default_factory=dict)
    delay_cache: dict[int, Optional[list[float]]] = field(default_factory=dict)

    def save_arrival(self, cell_index: int, value: float) -> None:
        """Record a cell's prior arrival (first write wins)."""
        self.arrival.setdefault(cell_index, value)

    def save_boundary(self, cell_index: int, value: float) -> None:
        """Record a boundary input's prior arrival."""
        self.boundary_in.setdefault(cell_index, value)

    def save_cache(self, net_index: int, value: Optional[list[float]]) -> None:
        """Record a net's prior delay-cache entry."""
        self.delay_cache.setdefault(net_index, value)


class IncrementalTiming:
    """Maintains arrival times and worst-case delay across moves."""

    def __init__(self, state: RoutingState, tech: Technology) -> None:
        self.state = state
        self.tech = tech
        self.netlist = state.netlist
        #: Trace metrics registry (frontier-propagation counters); None
        #: unless tracing was requested.  Recording never perturbs the
        #: incremental trajectory.
        self.metrics = None
        self.levels = levelize(self.netlist)
        self._positions = sink_positions(state)
        self._delay_cache: list[Optional[list[float]]] = [None] * self.netlist.num_nets
        #: Route version (see ``RoutingState.route_version``) each cache
        #: entry was computed at; 0 = never (versions start at 1).
        #: :meth:`update_nets` skips a touched net whose entry is still
        #: at the net's current version.
        self._cache_version = array("Q", bytes(8 * self.netlist.num_nets))
        self.arrival: list[float] = [0.0] * self.netlist.num_cells
        self.boundary_in: dict[int, float] = {}
        # Hot-path adjacency, precomputed once: for every cell, the
        # (net index, driver cell index, sink position) triple of each
        # connected input port, so :meth:`_input_arrival` runs without
        # any name->cell or (cell, port)->position dict lookups; and for
        # every net, its sink cell indices for frontier seeding.
        cell_inputs: list[tuple[tuple[int, int, int], ...]] = []
        for cell in self.netlist.cells:
            entries = []
            for port in cell.input_ports:
                net_index = self.netlist.sink_net(cell.index, port)
                if net_index is None:
                    continue
                driver = self.netlist.cell(
                    self.netlist.nets[net_index].driver[0]
                ).index
                position = self._positions[net_index][(cell.index, port)]
                entries.append((net_index, driver, position))
            cell_inputs.append(tuple(entries))
        self._cell_inputs = cell_inputs
        self._net_sink_cells: list[tuple[int, ...]] = [
            tuple(self.netlist.cell(cell_name).index for cell_name, _ in net.sinks)
            for net in self.netlist.nets
        ]
        # More hot-path tables: per-cell boundary flags (so the frontier
        # loop never touches Cell objects) and the fanout adjacency as a
        # plain list (so propagation skips the method dispatch of
        # ``Netlist.fanout_cells``).
        self._is_boundary: list[bool] = [
            cell.is_boundary for cell in self.netlist.cells
        ]
        self._boundary_has_inputs: list[bool] = [
            cell.is_boundary and bool(cell.input_ports)
            for cell in self.netlist.cells
        ]
        self._fanout: list[tuple[int, ...]] = [
            self.netlist.fanout_cells(cell.index) for cell in self.netlist.cells
        ]
        self.full_update()

    # ------------------------------------------------------------------
    # Net interconnect delays (cached)
    # ------------------------------------------------------------------
    def sink_delays(self, net_index: int) -> list[float]:
        """Cached interconnect delays to each sink."""
        cached = self._delay_cache[net_index]
        if cached is None:
            cached = net_sink_delays(self.state, self.tech, net_index)
            self._delay_cache[net_index] = cached
            self._cache_version[net_index] = self.state.route_version[net_index]
        return cached

    def sink_delay(self, net_index: int, cell_index: int, port: str) -> float:
        """Interconnect delay to one specific sink pin."""
        position = self._positions[net_index][(cell_index, port)]
        return self.sink_delays(net_index)[position]

    # ------------------------------------------------------------------
    # Arrival computation
    # ------------------------------------------------------------------
    def _input_arrival(self, cell_index: int) -> float:
        best = 0.0
        arrival = self.arrival
        cache = self._delay_cache
        for net_index, driver, position in self._cell_inputs[cell_index]:
            delays = cache[net_index]
            if delays is None:
                delays = self.sink_delays(net_index)
            value = arrival[driver] + delays[position]
            if value > best:
                best = value
        return best

    def _recompute(
        self,
    ) -> tuple[list[float], dict[int, float], list[Optional[list[float]]]]:
        """From-scratch arrival computation with no side effects.

        Returns ``(arrival, boundary_in, delay_cache)`` computed against
        the current routing state without touching the incremental
        fields — the foundation of both :meth:`full_update` (which
        adopts the result) and :meth:`audit` (which only compares, so
        the sanitizer can audit after every move without perturbing the
        incremental trajectory).
        """
        arrival = [0.0] * self.netlist.num_cells
        cache: list[Optional[list[float]]] = [None] * self.netlist.num_nets

        def sink_delays(net_index: int) -> list[float]:
            delays = cache[net_index]
            if delays is None:
                delays = net_sink_delays(self.state, self.tech, net_index)
                cache[net_index] = delays
            return delays

        def input_arrival(cell_index: int) -> float:
            best = 0.0
            for net_index, driver, position in self._cell_inputs[cell_index]:
                value = arrival[driver] + sink_delays(net_index)[position]
                if value > best:
                    best = value
            return best

        for cell in self.netlist.cells:
            if cell.is_boundary:
                arrival[cell.index] = self.tech.cell_delay(cell.delay_class)
        for cell_index in cells_in_level_order(self.netlist, self.levels):
            arrival[cell_index] = input_arrival(cell_index) + self.tech.t_comb
        boundary_in: dict[int, float] = {}
        for cell in self.netlist.boundary_cells():
            if cell.input_ports:
                boundary_in[cell.index] = input_arrival(cell.index)
        return arrival, boundary_in, cache

    def full_update(self) -> None:
        """Recompute everything from scratch and adopt the result."""
        arrival, boundary_in, cache = self._recompute()
        self.arrival = arrival
        self.boundary_in = boundary_in
        self._delay_cache = cache
        self._revalidate_cache_versions()

    def _revalidate_cache_versions(self) -> None:
        """Stamp every non-None cache entry as valid for the current route.

        Called whenever the cache is wholesale adopted from a source
        known to match the current routing state (a from-scratch
        recompute, a checkpoint restore of matching provenance).
        """
        route_version = self.state.route_version
        cache = self._delay_cache
        self._cache_version = array(
            "Q",
            (
                route_version[net_index] if cache[net_index] is not None else 0
                for net_index in range(self.netlist.num_nets)
            ),
        )

    def worst_delay(self) -> float:
        """T: the maximum arrival at any boundary input."""
        return max(self.boundary_in.values()) if self.boundary_in else 0.0

    def export_state(self) -> dict:
        """The incrementally-maintained arrays, for checkpointing.

        Serialized *verbatim* rather than recomputed on restore:
        incremental propagation clips sub-``EPSILON`` changes, so the
        maintained values can differ from a from-scratch recompute in
        the last float bits — and resume must reproduce the maintained
        trajectory exactly, not an equally-valid fresh one.
        """
        return {
            "arrival": list(self.arrival),
            "boundary_in": {
                str(cell_index): self.boundary_in[cell_index]
                for cell_index in sorted(self.boundary_in)
            },
            "delay_cache": [
                None if cached is None else list(cached)
                for cached in self._delay_cache
            ],
        }

    def adopt_state(self, record: dict) -> None:
        """Restore the arrays exported by :meth:`export_state`.

        Mutates: this analyzer's arrival/boundary/cache arrays.  Raises
        ValueError when the record's shape does not match the netlist.
        """
        arrival = [float(value) for value in record["arrival"]]
        if len(arrival) != self.netlist.num_cells:
            raise ValueError(
                f"arrival record has {len(arrival)} cells, "
                f"netlist has {self.netlist.num_cells}"
            )
        cache_record = record["delay_cache"]
        if len(cache_record) != self.netlist.num_nets:
            raise ValueError(
                f"delay-cache record has {len(cache_record)} nets, "
                f"netlist has {self.netlist.num_nets}"
            )
        boundary_in = {
            int(key): float(value)
            for key, value in record["boundary_in"].items()
        }
        for cell_index in boundary_in:
            if not 0 <= cell_index < self.netlist.num_cells:
                raise ValueError(f"boundary cell index {cell_index} out of range")
        self.arrival = arrival
        self.boundary_in = boundary_in
        self._delay_cache = [
            None if cached is None else [float(value) for value in cached]
            for cached in cache_record
        ]
        # A checkpointed cache was valid for the checkpointed routing
        # state, which the caller restores alongside it.
        self._revalidate_cache_versions()

    # ------------------------------------------------------------------
    # Incremental propagation
    # ------------------------------------------------------------------
    def update_nets(self, net_indices: Iterable[int]) -> TimingDelta:
        """Re-evaluate the given nets and propagate; returns the undo record.

        The hottest loop in the annealer's timing phase, so the
        ``consider`` / :meth:`_input_arrival` bodies are inlined with
        everything hoisted to locals.  Boundary-input evaluation is
        *deferred*: a considered boundary cell is collected in a set and
        evaluated once after the frontier drains, instead of on every
        consider.  That yields bit-identical values — each driver change
        re-considers the boundary cell, so the last (surviving) eager
        evaluation would already have seen every driver's settled
        arrival, which is exactly what the deferred evaluation sees —
        while skipping the intermediate evaluations nothing observes.
        """
        delta = TimingDelta()
        frontier: list[tuple[int, int]] = []
        queued: set[int] = set()
        boundary_pending: set[int] = set()

        levels = self.levels
        is_boundary = self._is_boundary
        boundary_has_inputs = self._boundary_has_inputs
        net_sink_cells = self._net_sink_cells
        push = heapq.heappush
        cache = self._delay_cache
        save_cache = delta.save_cache

        cache_version = self._cache_version
        route_version = self.state.route_version
        for net_index in net_indices:
            # A touched net whose cache entry was computed at the net's
            # current route version is provably unchanged: sink delays
            # are a pure function of the net's own route record, so a
            # recompute would reproduce the entry bit-for-bit and
            # propagate nothing (sub-EPSILON guard).  Skip it.
            if (
                cache[net_index] is not None
                and cache_version[net_index] == route_version[net_index]
            ):
                continue
            save_cache(net_index, cache[net_index])
            cache[net_index] = None
            for sink_cell in net_sink_cells[net_index]:
                if is_boundary[sink_cell]:
                    if boundary_has_inputs[sink_cell]:
                        boundary_pending.add(sink_cell)
                elif sink_cell not in queued:
                    queued.add(sink_cell)
                    push(frontier, (levels[sink_cell], sink_cell))

        pop = heapq.heappop
        arrival = self.arrival
        cell_inputs = self._cell_inputs
        fanout_of = self._fanout
        t_comb = self.tech.t_comb
        sink_delays = self.sink_delays
        save_arrival = delta.save_arrival
        while frontier:
            _, cell_index = pop(frontier)
            queued.discard(cell_index)
            best = 0.0
            for net_index, driver, position in cell_inputs[cell_index]:
                delays = cache[net_index]
                if delays is None:
                    delays = sink_delays(net_index)
                value = arrival[driver] + delays[position]
                if value > best:
                    best = value
            new_arrival = best + t_comb
            if abs(new_arrival - arrival[cell_index]) <= EPSILON:
                continue
            save_arrival(cell_index, arrival[cell_index])
            arrival[cell_index] = new_arrival
            for fanout in fanout_of[cell_index]:
                if is_boundary[fanout]:
                    if boundary_has_inputs[fanout]:
                        boundary_pending.add(fanout)
                elif fanout not in queued:
                    queued.add(fanout)
                    push(frontier, (levels[fanout], fanout))

        boundary_in = self.boundary_in
        save_boundary = delta.save_boundary
        for cell_index in sorted(boundary_pending):
            save_boundary(cell_index, boundary_in[cell_index])
            best = 0.0
            for net_index, driver, position in cell_inputs[cell_index]:
                delays = cache[net_index]
                if delays is None:
                    delays = sink_delays(net_index)
                value = arrival[driver] + delays[position]
                if value > best:
                    best = value
            boundary_in[cell_index] = best
        mx = self.metrics
        if mx is not None:
            mx.count("timing.updates")
            mx.count("timing.cells_propagated", len(delta.arrival))
        return delta

    def restore(self, delta: TimingDelta) -> None:
        """Undo one :meth:`update_nets` call (for rejected moves).

        Runs after the placement and routing rollback, so the restored
        cache entries — captured before the move — are valid for the
        (bit-exactly restored) pre-move routes; stamping them with the
        nets' current (final post-rollback) route versions re-arms the
        version-keyed reuse in :meth:`update_nets`.
        """
        for cell_index, value in delta.arrival.items():
            self.arrival[cell_index] = value
        for cell_index, value in delta.boundary_in.items():
            self.boundary_in[cell_index] = value
        route_version = self.state.route_version
        cache_version = self._cache_version
        for net_index, value in delta.delay_cache.items():
            self._delay_cache[net_index] = value
            if value is not None:
                cache_version[net_index] = route_version[net_index]

    # ------------------------------------------------------------------
    # Audits
    # ------------------------------------------------------------------
    def audit(self) -> list[str]:
        """Compare incremental state against a from-scratch recompute.

        Non-mutating: the incremental fields (arrival times, boundary
        arrivals, delay cache) are left exactly as found, so the
        sanitizer can audit after every move without perturbing the
        annealing trajectory.
        """
        problems: list[str] = []
        fresh_arrival, fresh_boundary, _ = self._recompute()
        for cell_index, value in enumerate(self.arrival):
            if abs(value - fresh_arrival[cell_index]) > 1e-6:
                problems.append(
                    f"arrival[{self.netlist.cells[cell_index].name}] drifted: "
                    f"incremental {value:.6f} vs full {fresh_arrival[cell_index]:.6f}"
                )
        for cell_index, value in self.boundary_in.items():
            if abs(value - fresh_boundary[cell_index]) > 1e-6:
                problems.append(
                    f"boundary_in[{self.netlist.cells[cell_index].name}] drifted"
                )
        return problems
