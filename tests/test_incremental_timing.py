"""Tests for the frontier-based incremental timing engine.

The key property is exactness: after any sequence of net updates, the
incremental arrival times must match a from-scratch recompute, and
restore() must undo an update bit-exactly.
"""

import random

import pytest

from repro.place import clustered_placement
from repro.route import IncrementalRouter, NetJournal, RoutingState
from repro.timing import IncrementalTiming, analyze


@pytest.fixture
def engine(routed_tiny, tech):
    _, state = routed_tiny
    return state, IncrementalTiming(state, tech)


class TestInitialState:
    def test_matches_full_analyzer(self, engine, tech):
        state, timing = engine
        report = analyze(state, tech)
        assert timing.worst_delay() == pytest.approx(report.worst_delay)
        for cell_index, value in report.boundary_in.items():
            assert timing.boundary_in[cell_index] == pytest.approx(value)

    def test_audit_clean(self, engine):
        _, timing = engine
        assert timing.audit() == []


class TestUpdateNets:
    def test_update_after_reroute_matches_full(self, engine, tech):
        state, timing = engine
        router = IncrementalRouter(state)
        nets = [r.net_index for r in state.routes[:3]]
        router.rip_up_nets(nets)
        router.refresh_nets(nets)
        router.repair()
        timing.update_nets(nets)
        assert timing.audit() == []

    def test_update_after_placement_move(self, engine, tech):
        state, timing = engine
        placement = state.placement
        netlist = placement.netlist
        router = IncrementalRouter(state)

        cell = next(c for c in netlist.cells if c.slot_class == "logic")
        nets = list(netlist.nets_of_cell(cell.index))
        empties = [
            s
            for s in placement.fabric.slots_of_kind("logic")
            if placement.cell_at(s) is None
        ]
        if not empties:
            pytest.skip("fabric full")
        journal = NetJournal(state)
        router.rip_up_nets(nets, journal)
        placement.swap_slots(placement.slot_of(cell.index), empties[0])
        router.refresh_nets(nets)
        touched = router.repair(journal)
        timing.update_nets(journal.touched())
        assert timing.audit() == []

    def test_worst_delay_tracks_analyzer(self, engine, tech):
        state, timing = engine
        router = IncrementalRouter(state)
        rng = random.Random(5)
        all_nets = [r.net_index for r in state.routes]
        for _ in range(10):
            nets = rng.sample(all_nets, k=2)
            router.rip_up_nets(nets)
            router.refresh_nets(nets)
            router.repair()
            timing.update_nets(nets)
            report = analyze(state, tech)
            assert timing.worst_delay() == pytest.approx(report.worst_delay)


class TestRestore:
    def test_restore_undoes_update(self, engine):
        state, timing = engine
        router = IncrementalRouter(state)
        before_arrival = list(timing.arrival)
        before_boundary = dict(timing.boundary_in)
        before_worst = timing.worst_delay()

        journal = NetJournal(state)
        nets = [r.net_index for r in state.routes[:4]]
        router.rip_up_nets(nets, journal)
        router.refresh_nets(nets)
        router.repair(journal)
        delta = timing.update_nets(journal.touched())

        journal.restore_all()
        timing.restore(delta)
        assert timing.arrival == before_arrival
        assert timing.boundary_in == before_boundary
        assert timing.worst_delay() == before_worst
        assert timing.audit() == []

    def test_many_update_restore_cycles(self, engine):
        state, timing = engine
        router = IncrementalRouter(state)
        rng = random.Random(17)
        all_nets = [r.net_index for r in state.routes]
        reference = list(timing.arrival)
        for _ in range(20):
            journal = NetJournal(state)
            nets = rng.sample(all_nets, k=rng.randint(1, 3))
            router.rip_up_nets(nets, journal)
            router.refresh_nets(nets)
            router.repair(journal)
            delta = timing.update_nets(journal.touched())
            journal.restore_all()
            timing.restore(delta)
        assert timing.arrival == reference
        assert timing.audit() == []


class TestCache:
    def test_sink_delays_cached(self, engine):
        _, timing = engine
        a = timing.sink_delays(0)
        b = timing.sink_delays(0)
        assert a is b

    def test_update_invalidates_cache(self, engine):
        state, timing = engine
        cached = timing.sink_delays(0)
        state.rip_up(0)
        state.refresh_geometry(0)
        timing.update_nets([0])
        assert timing.sink_delays(0) is not cached

    def test_version_current_skip_matches_forced_recompute(
        self, routed_tiny, tech
    ):
        # update_nets skips a touched net whose cached delays are at
        # the net's current route version.  A twin analyzer forced to
        # recompute those nets must reach the same arrivals and record
        # the same arrival and boundary deltas.  Its delta may hold
        # extra cache entries, but only ones that equal the current
        # values, so undoing either delta gives the same state.
        _, state = routed_tiny
        skipping = IncrementalTiming(state, tech)
        forced = IncrementalTiming(state, tech)
        router = IncrementalRouter(state)
        changed = [r.net_index for r in state.routes[:3]]
        current = [r.net_index for r in state.routes[3:9]]
        router.rip_up_nets(changed)
        router.refresh_nets(changed)
        router.repair()
        for net_index in current:
            skipping.sink_delays(net_index)
            forced.sink_delays(net_index)
            forced._cache_version[net_index] = 0
        skipped = skipping.update_nets(changed + current)
        recomputed = forced.update_nets(changed + current)
        assert skipping.arrival == forced.arrival
        assert skipping.boundary_in == forced.boundary_in
        assert skipping._delay_cache == forced._delay_cache
        assert skipping.audit() == [] and forced.audit() == []
        assert skipped.arrival == recomputed.arrival
        assert set(recomputed.delay_cache) - set(skipped.delay_cache) == set(
            current
        )
        assert skipped.boundary_in == recomputed.boundary_in
        for cell_index, saved in skipped.boundary_in.items():
            assert saved != skipping.boundary_in[cell_index]
        for key, value in recomputed.delay_cache.items():
            if key in skipped.delay_cache:
                assert skipped.delay_cache[key] == value
            else:
                assert value == forced._delay_cache[key]
        skipping.restore(skipped)
        forced.restore(recomputed)
        assert skipping.arrival == forced.arrival
        assert skipping.boundary_in == forced.boundary_in
