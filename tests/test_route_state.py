"""Unit tests for repro.route.state (NetRoute / RoutingState)."""

import random

import pytest

from repro.arch import mixed_segmentation
from repro.arch.channel import Channel
from repro.arch.vertical import VerticalColumn
from repro.route import (
    IncrementalRouter,
    NetJournal,
    RoutingState,
    route_net_global,
    route_net_in_channel,
)
from repro.route.global_router import column_scan_order
from repro.place import clustered_placement


@pytest.fixture
def state(tiny_netlist, tiny_arch, rng):
    placement = clustered_placement(tiny_netlist, tiny_arch.build(), rng)
    return RoutingState(placement)


class TestGeometry:
    def test_initial_geometry_populated(self, state):
        for route in state.routes:
            assert route.pin_channels
            assert route.cmin <= route.cmax
            assert route.xmin <= route.xmax

    def test_single_channel_net_trivially_global(self, state):
        singles = [r for r in state.routes if not r.needs_vertical]
        for route in singles:
            assert route.globally_routed
            assert route.vertical is None

    def test_multi_channel_net_needs_vertical(self, state):
        multis = [r for r in state.routes if r.needs_vertical]
        assert multis, "expected at least one multi-channel net"
        for route in multis:
            assert not route.globally_routed
            assert route.net_index in state.unrouted_global

    def test_requirements_need_global_route(self, state):
        multi = next(r for r in state.routes if r.needs_vertical)
        with pytest.raises(RuntimeError, match="no global route"):
            multi.requirements()

    def test_requirements_include_trunk(self, state):
        multi = next(r for r in state.routes if r.needs_vertical)
        assert route_net_global(state, multi.net_index)
        trunk = multi.vertical.column
        for channel, (lo, hi) in multi.requirements().items():
            assert lo <= trunk <= hi
            pins = multi.pin_channels[channel]
            assert lo <= min(pins) and hi >= max(pins)

    def test_refresh_with_claims_rejected(self, state):
        multi = next(r for r in state.routes if r.needs_vertical)
        route_net_global(state, multi.net_index)
        with pytest.raises(RuntimeError, match="rip it up"):
            state.refresh_geometry(multi.net_index)


class TestCounters:
    def test_initial_counts(self, state):
        num_nets = state.netlist.num_nets
        assert state.count_detail_unrouted() == num_nets
        assert 0 < state.count_global_unrouted() <= num_nets
        assert not state.is_complete()

    def test_counts_drop_after_routing(self, state):
        router = IncrementalRouter(state)
        router.repair()
        assert state.count_global_unrouted() == 0
        assert state.count_detail_unrouted() < state.netlist.num_nets

    def test_counter_matches_bruteforce(self, state):
        IncrementalRouter(state).repair()
        assert state.check_consistency() == []

    def test_fully_routed_fraction(self, state):
        assert state.fully_routed_fraction() == 0.0
        IncrementalRouter(state).repair()
        assert 0 < state.fully_routed_fraction() <= 1.0


class TestRipUp:
    def test_rip_up_frees_segments(self, state):
        router = IncrementalRouter(state)
        router.repair()
        routed = next(r for r in state.routes if r.fully_routed and r.needs_vertical)
        fabric = state.fabric
        h_used_before = sum(ch.segments_used() for ch in fabric.channels)
        state.rip_up(routed.net_index)
        h_used_after = sum(ch.segments_used() for ch in fabric.channels)
        assert h_used_after < h_used_before
        assert routed.vertical is None
        assert routed.claims == {}
        assert not routed.fully_routed

    def test_rip_up_restores_queues(self, state):
        IncrementalRouter(state).repair()
        routed = next(r for r in state.routes if r.fully_routed)
        state.rip_up(routed.net_index)
        for channel in routed.pin_channels:
            assert routed.net_index in state.unrouted_detail[channel]

    def test_rip_up_idempotent_on_unrouted(self, state):
        net = state.routes[0].net_index
        state.rip_up(net)
        state.rip_up(net)  # must not raise
        assert state.check_consistency() == []


class TestAntifuseAccounting:
    def test_total_antifuses_counts_pins(self, state):
        IncrementalRouter(state).repair()
        total = state.total_antifuses()
        pins = sum(net.num_terminals for net in state.netlist.nets)
        assert total >= pins  # at least one cross antifuse per pin

    def test_route_antifuse_fields(self, state):
        IncrementalRouter(state).repair()
        for route in state.routes:
            if not route.fully_routed:
                continue
            assert route.horizontal_antifuses() >= 0
            assert route.vertical_antifuses() >= 0
            assert route.cross_antifuses() >= sum(
                len(cols) for cols in route.pin_channels.values()
            )


class TestCommitGuards:
    def test_double_vertical_commit_rejected(self, state):
        multi = next(r for r in state.routes if r.needs_vertical)
        assert route_net_global(state, multi.net_index)
        claim = multi.vertical
        with pytest.raises(RuntimeError, match="already has"):
            state.commit_vertical(multi.net_index, claim)

    def test_double_detail_commit_rejected(self, state):
        single = next(r for r in state.routes if not r.needs_vertical)
        channel = next(iter(single.pin_channels))
        assert route_net_in_channel(state, single.net_index, channel)
        claim = single.claims[channel]
        with pytest.raises(RuntimeError, match="already routed"):
            state.commit_detail(single.net_index, claim)


# ----------------------------------------------------------------------
# Place-aware negative caches
# ----------------------------------------------------------------------
#: Owner id of the segments tests claim to congest the fabric; it is no
#: net, so only the nets' own rip-ups ever release (and log) capacity.
BLOCKER = 10**6


def block_columns(state, cmin, cmax):
    """Claim every free vertical run covering channels [cmin, cmax]."""
    for vcolumn in state.fabric.vcolumns:
        while (candidate := vcolumn.best_candidate(cmin, cmax)) is not None:
            vcolumn.claim(BLOCKER, candidate, cmin, cmax)


def block_tracks(channel, lo, hi):
    """Claim every free track run covering columns [lo, hi]."""
    while (candidate := channel.best_weighted(lo, hi, 4.0)) is not None:
        channel.claim(BLOCKER, candidate, lo, hi)


def hold_column(state, holder, net_index, column):
    """Give ``holder`` the vertical run ``net_index`` would use at ``column``."""
    route = state.routes[net_index]
    vcolumn = state.fabric.vcolumns[column]
    candidate = vcolumn.best_candidate(route.cmin, route.cmax)
    claim = vcolumn.claim(holder, candidate, route.cmin, route.cmax)
    state.commit_vertical(holder, claim)
    return claim


def hold_track(state, holder, channel, lo, hi):
    """Give ``holder`` the best free run for [lo, hi] in ``channel``."""
    chan = state.fabric.channels[channel]
    candidate = chan.best_weighted(lo, hi, 4.0)
    claim = chan.claim(holder, candidate, lo, hi)
    state.commit_detail(holder, claim)
    return claim


@pytest.fixture
def global_failure(state):
    """A multi-channel net whose global attempt failed while two other
    nets held the only runs it could use, far and near its centre."""
    net = next(r for r in state.routes if r.needs_vertical)
    near, far = [r.net_index for r in state.routes if r is not net][:2]
    center = (net.xmin + net.xmax) // 2
    cols = state.fabric.cols
    near_column = center
    far_column = 0 if center >= cols // 2 else cols - 1
    hold_column(state, near, net.net_index, near_column)
    hold_column(state, far, net.net_index, far_column)
    block_columns(state, net.cmin, net.cmax)
    assert not route_net_global(state, net.net_index)
    assert state.global_attempt_is_hopeless(net.net_index)
    assert state.global_retry_columns(net.net_index) == 0
    return net.net_index, (near, near_column), (far, far_column)


@pytest.fixture
def detail_failure(state):
    """A single-channel net whose detail attempt failed while another
    net held the one run it could use."""
    net = next(
        r for r in state.routes
        if not r.needs_vertical and r.xmax > r.xmin
    )
    channel = net.cmin
    holder = next(r.net_index for r in state.routes if r is not net)
    claim = hold_track(state, holder, channel, net.xmin, net.xmax)
    block_tracks(state.fabric.channels[channel], net.xmin, net.xmax)
    assert not route_net_in_channel(state, net.net_index, channel)
    assert state.detail_attempt_is_hopeless(net.net_index, channel)
    return net.net_index, channel, holder, claim


class TestPlaceAwareCaches:
    def test_global_release_retests_only_that_column(
        self, state, global_failure, monkeypatch
    ):
        net, _, (far, far_column) = global_failure
        state.rip_up(far)
        tested = []
        original = VerticalColumn.best_candidate

        def spy(vcolumn, cmin, cmax):
            tested.append(vcolumn.column)
            return original(vcolumn, cmin, cmax)

        monkeypatch.setattr(VerticalColumn, "best_candidate", spy)
        assert not state.global_attempt_is_hopeless(net)
        assert tested == [far_column]
        assert state.global_retry_columns(net) == 1 << far_column

    def test_detail_release_retests_only_that_track(
        self, state, detail_failure, monkeypatch
    ):
        net, channel, holder, claim = detail_failure
        state.rip_up(holder)
        tested = []
        original = Channel.free_tracks

        def spy(chan, lo, hi, tracks):
            tested.append(tracks)
            return original(chan, lo, hi, tracks)

        monkeypatch.setattr(Channel, "free_tracks", spy)
        assert not state.detail_attempt_is_hopeless(net, channel)
        assert tested == [1 << claim.track]

    def test_global_release_then_reclaim_stays_hopeless(
        self, state, global_failure
    ):
        net, _, (far, far_column) = global_failure
        claim = state.routes[far].vertical
        state.rip_up(far)
        state.fabric.vcolumns[far_column].reclaim(far, claim)
        state.commit_vertical(far, claim)
        assert state.global_attempt_is_hopeless(net)
        assert state.global_retry_columns(net) == 0

    def test_detail_release_then_reclaim_stays_hopeless(
        self, state, detail_failure
    ):
        net, channel, holder, claim = detail_failure
        state.rip_up(holder)
        state.fabric.channels[channel].reclaim(holder, claim)
        state.commit_detail(holder, claim)
        assert state.detail_attempt_is_hopeless(net, channel)

    def test_global_retry_picks_the_full_scan_column(
        self, state, global_failure
    ):
        net, (near, near_column), (far, far_column) = global_failure
        state.rip_up(far)
        state.rip_up(near)
        assert not state.global_attempt_is_hopeless(net)
        columns = state.global_retry_columns(net)
        assert columns == (1 << near_column) | (1 << far_column)
        assert state.audit_global_cache(net) == []
        route = state.routes[net]
        center = (route.xmin + route.xmax) // 2
        vcolumns = state.fabric.vcolumns
        expected = next(
            (column, vcolumns[column].best_candidate(route.cmin, route.cmax))
            for column in column_scan_order(center, len(vcolumns))
            if vcolumns[column].best_candidate(route.cmin, route.cmax)
        )
        assert route_net_global(state, net, columns)
        assert (route.vertical.column, route.vertical.track) == (
            expected[0], expected[1].track
        )
        assert route.vertical.column == near_column
        assert state.global_retry_columns(net) is None

    def test_detail_retry_picks_the_full_scan_track(
        self, state, detail_failure
    ):
        net, channel, holder, claim = detail_failure
        state.rip_up(holder)
        assert not state.detail_attempt_is_hopeless(net, channel)
        assert state.audit_negative_caches(channel) == []
        route = state.routes[net]
        expected = state.fabric.channels[channel].best_weighted(
            route.xmin, route.xmax, 4.0
        )
        assert route_net_in_channel(state, net, channel)
        assert route.claims[channel].track == expected.track == claim.track

    def test_free_tracks_matches_candidates(self):
        rng = random.Random(9)
        channel = Channel(0, mixed_segmentation(40, 12))
        for net in range(200):
            lo = rng.randrange(40)
            hi = rng.randrange(lo, 40)
            if rng.random() < 0.7:
                candidate = channel.best_weighted(lo, hi, 4.0)
                if candidate is not None:
                    channel.claim(net, candidate, lo, hi)
            lo = rng.randrange(40)
            hi = rng.randrange(lo, 40)
            free = channel.free_tracks(lo, hi, (1 << 12) - 1)
            assert free == sum(
                1 << c.track for c in channel.candidates(lo, hi)
            )

    def test_global_log_compaction_forces_full_retry(
        self, state, global_failure
    ):
        net, _, (far, far_column) = global_failure
        state.RELEASE_LOG_CAP = 0
        state.rip_up(far)
        assert not state.global_attempt_is_hopeless(net)
        assert state.global_retry_columns(net) is None
        assert route_net_global(state, net)
        assert state.routes[net].vertical.column == far_column

    def test_detail_log_compaction_forces_full_retry(
        self, state, detail_failure
    ):
        net, channel, holder, claim = detail_failure
        state.RELEASE_LOG_CAP = 0
        state.rip_up(holder)
        assert not state.detail_attempt_is_hopeless(net, channel)
        assert route_net_in_channel(state, net, channel)
        assert state.routes[net].claims[channel].track == claim.track


# ----------------------------------------------------------------------
# Phantom releases
# ----------------------------------------------------------------------
class TestPhantomReleases:
    """A journaled net whose route version did not change is restored
    by :meth:`RoutingState.log_phantom_releases` instead of a rip-up,
    reclaim and commit.  The shortcut must leave the release logs and
    every net's cached failures exactly as that round trip does."""

    @staticmethod
    def routed(tiny_netlist, tiny_arch):
        placement = clustered_placement(
            tiny_netlist, tiny_arch.build(), random.Random(1234)
        )
        state = RoutingState(placement)
        IncrementalRouter(state).route_all_from_scratch()
        for route in state.routes:  # cached failures on every net
            for channel in route.pin_channels:
                state.note_detail_failure(
                    route.net_index, channel, route.xmin, route.xmax
                )
            if route.needs_vertical:
                state.note_global_failure(
                    route.net_index, route.cmin, route.cmax
                )
        return state

    @staticmethod
    def books(state):
        return (
            [list(log) for log in state._channel_releases],
            list(state._vertical_releases),
            [dict(fails) for fails in state._detail_fail],
            list(state._global_fail),
        )

    @pytest.mark.parametrize("log_cap", [None, 1])
    def test_phantom_restore_matches_round_trip(
        self, tiny_netlist, tiny_arch, log_cap
    ):
        phantom = self.routed(tiny_netlist, tiny_arch)
        real = self.routed(tiny_netlist, tiny_arch)
        if log_cap is not None:  # every release compacts its log
            phantom.RELEASE_LOG_CAP = real.RELEASE_LOG_CAP = log_cap
        assert self.books(phantom) == self.books(real)
        nets = [
            route.net_index for route in phantom.routes
            if route.vertical is not None and len(route.claims) > 1
        ][:3]
        assert nets, "expected globally and detail routed nets"

        journal = NetJournal(phantom)
        for net in nets:
            journal.snapshot(net)
        versions = [phantom.route_version[net] for net in nets]
        journal.restore_all()
        assert [phantom.route_version[net] for net in nets] == versions

        saved = {
            net: (real.routes[net].vertical,
                  tuple(real.routes[net].claims.values()))
            for net in nets
        }
        for net in nets:
            real.rip_up(net)
        for net in nets:
            real.refresh_geometry(net)
            vertical, claims = saved[net]
            real.fabric.vcolumns[vertical.column].reclaim(net, vertical)
            real.commit_vertical(net, vertical)
            for claim in claims:
                real.fabric.channels[claim.channel].reclaim(net, claim)
                real.commit_detail(net, claim)

        assert phantom.summary() == real.summary()
        assert self.books(phantom) == self.books(real)
        # The logged places feed every bystander's cached failure alike.
        for route in phantom.routes:
            net = route.net_index
            for channel in sorted(route.pin_channels):
                assert phantom.detail_attempt_is_hopeless(net, channel) == \
                    real.detail_attempt_is_hopeless(net, channel)
            assert phantom.global_attempt_is_hopeless(net) == \
                real.global_attempt_is_hopeless(net)
        assert self.books(phantom) == self.books(real)
        assert phantom.check_consistency() == []
