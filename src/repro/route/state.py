"""Routing state: per-net vertical and horizontal segment assignments.

The paper's state representation (Section 3.2) tracks every net as a
pair of segment sets ``(Vn, Hn)``:

* *unrouted*: ``Vn = {} and Hn = {}``;
* *globally routed*: vertical segments assigned, horizontal pending;
* *completely routed*: both assigned.

:class:`NetRoute` is that record for one net, plus the geometry that
defines the routing problem under the current placement:

* the net's pin positions group into channels; ``cmin..cmax`` is the
  channel span;
* a net whose pins sit in one channel needs no vertical wire (a
  "trivially null global routing", Section 3.3);
* a multi-channel net must claim vertical segments at one *trunk
  column* covering ``[cmin, cmax]`` — that claim IS its global route;
* once the trunk is known, the net needs one horizontal claim in every
  channel that contains pins, spanning from its pins to the trunk.

:class:`RoutingState` owns all :class:`NetRoute` records against one
fabric, maintains the unrouted sets (``U_G`` and per-channel ``U_DR``),
and exposes the counters ``G`` and ``D`` of the cost function.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Optional

from ..arch.channel import ChannelClaim, iter_bits
from ..arch.fabric import Fabric
from ..arch.vertical import VerticalClaim
from ..place.placement import Placement

Interval = tuple[int, int]
#: A logged release: ``(place, lo, hi)`` — the track (or vertical
#: column) released into, and the column (or channel) span freed there.
Release = tuple[int, int, int]
#: A cached failure: ``(log position, lo, hi, places)`` — the release
#: log read so far, the needed interval, and the bitmask of places
#: (tracks or columns) that may have become feasible since the failure.
Failure = tuple[int, int, int, int]


@dataclass
class NetRoute:
    """Route record for one net under the current placement.

    ``pin_channels`` maps channel -> sorted pin columns in that channel.
    ``vertical`` is the global-routing claim (None if absent or not
    needed); ``claims`` maps channel -> committed detailed claim.
    ``requirements`` maps channel -> the column interval the net needs
    there; it is only defined when the net's trunk is decided (or no
    trunk is needed).
    """

    net_index: int
    pin_channels: dict[int, list[int]] = field(default_factory=dict)
    cmin: int = 0
    cmax: int = 0
    xmin: int = 0
    xmax: int = 0
    vertical: Optional[VerticalClaim] = None
    claims: dict[int, ChannelClaim] = field(default_factory=dict)

    @property
    def needs_vertical(self) -> bool:
        """Whether the net spans more than one channel."""
        return self.cmax > self.cmin

    @property
    def globally_routed(self) -> bool:
        """True when the net's vertical requirement is satisfied."""
        return not self.needs_vertical or self.vertical is not None

    def requirements(self) -> dict[int, Interval]:
        """Channel -> needed column interval; requires a global route."""
        if not self.globally_routed:
            raise RuntimeError(
                f"net {self.net_index} has no global route; "
                "detailed requirements are undefined"
            )
        trunk = self.vertical.column if self.vertical is not None else None
        needs: dict[int, Interval] = {}
        for channel, columns in self.pin_channels.items():
            lo, hi = columns[0], columns[-1]
            if trunk is not None:
                lo, hi = min(lo, trunk), max(hi, trunk)
            needs[channel] = (lo, hi)
        return needs

    def missing_channels(self) -> list[int]:
        """Pin channels that still lack a committed detailed claim."""
        if not self.globally_routed:
            return sorted(self.pin_channels)
        return sorted(c for c in self.pin_channels if c not in self.claims)

    @property
    def fully_routed(self) -> bool:
        """Whether every net is completely routed.

        O(1): equivalent to ``not missing_channels()`` — a claim exists
        for every pin channel (dict-keys superset test) and the global
        route, if needed, is committed.  ``globally_routed`` is inlined
        (hot: called per net per timing recompute).
        """
        return (
            self.vertical is not None or self.cmax <= self.cmin
        ) and self.claims.keys() >= self.pin_channels.keys()

    def horizontal_antifuses(self) -> int:
        """Programmed horizontal antifuses across all claims."""
        return sum(claim.num_antifuses for claim in self.claims.values())

    def vertical_antifuses(self) -> int:
        """Programmed vertical antifuses on the trunk."""
        return self.vertical.num_antifuses if self.vertical is not None else 0

    def cross_antifuses(self) -> int:
        """Programmed cross antifuses: one per pin, two per trunk/channel tap."""
        pins = sum(len(columns) for columns in self.pin_channels.values())
        taps = 2 * len(self.claims) if self.vertical is not None else 0
        return pins + taps


class RoutingState:
    """All net routes plus the unrouted bookkeeping (U_G, U_DR)."""

    def __init__(self, placement: Placement) -> None:
        self.placement = placement
        self.fabric: Fabric = placement.fabric
        self.netlist = placement.netlist
        self.routes: list[NetRoute] = [
            NetRoute(net.index) for net in self.netlist.nets
        ]
        #: Nets lacking a (needed) global route.
        self.unrouted_global: set[int] = set()
        #: Per channel: nets lacking a detailed claim they need there.
        self.unrouted_detail: list[set[int]] = [
            set() for _ in range(self.fabric.num_channels)
        ]
        #: Channels whose pending set is non-empty; the repair fast path
        #: iterates this instead of every channel.
        self.dirty_channels: set[int] = set()
        # Per-net mirror of the channels it is pending in, so rip-up /
        # re-mark touches only those channels instead of scanning all.
        # Kept as a *sorted list* per net: the hot re-mark path iterates
        # it in order (no per-call ``sorted``), and removal is O(n) on a
        # list of at most a handful of channels.
        self._pending_channels: list[list[int]] = [
            [] for _ in range(len(self.routes))
        ]
        # O(1) D-counter support: per-net count of missing channel claims,
        # per-net "counts toward D" flag, and the running total.
        self._missing: list[int] = [0] * len(self.routes)
        self._counts_d: list[bool] = [False] * len(self.routes)
        self._d_count = 0
        # Negative-result caches for the repair fast path (see
        # "Negative-result caches" below).  Each channel keeps an
        # append-only log of ``(track, lo, hi)`` releases and the
        # vertical plane one of ``(column, cmin, cmax)`` releases; a
        # cached failure is ``(log position, lo, hi, places)``.
        self._channel_releases: list[list[Release]] = [
            [] for _ in range(self.fabric.num_channels)
        ]
        self._vertical_releases: list[Release] = []
        self._detail_fail: list[dict[int, Failure]] = [
            {} for _ in range(len(self.routes))
        ]
        self._global_fail: list[Optional[Failure]] = [None] * len(self.routes)
        #: Per-net monotonic route-version counter, bumped by every
        #: mutation of the net's route record (geometry refresh, rip-up,
        #: vertical/detail commit).  Version equality between two
        #: observations proves the record — claims, vertical, geometry —
        #: is untouched in between; the flat-array core keys its journal
        #: fast-restore and timing-cache reuse on it.  Starts at 0 and
        #: is ≥ 1 after construction (the initial geometry pass bumps
        #: every net), so 0 doubles as a "never valid" sentinel.
        self.route_version = array("Q", bytes(8 * len(self.routes)))
        #: Flat-array mirror bundle (:class:`repro.core.arraystate.ArrayState`)
        #: when the annealer runs with ``array_core=True``; None under
        #: the legacy object-graph core.
        self.arrays = None
        for net in self.netlist.nets:
            self.refresh_geometry(net.index)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def refresh_geometry(self, net_index: int) -> NetRoute:
        """Recompute pin channels/columns from the current placement.

        Must only be called while the net holds no claims (it redefines
        what the claims would have to cover).  Marks the net unrouted.
        """
        route = self.routes[net_index]
        if route.vertical is not None or route.claims:
            raise RuntimeError(
                f"net {net_index} still holds claims; rip it up before "
                "refreshing geometry"
            )
        positions = self.placement.net_pin_positions(net_index)
        pin_channels: dict[int, list[int]] = {}
        for channel, column in positions:
            pin_channels.setdefault(channel, []).append(column)
        for columns in pin_channels.values():
            columns.sort()
        route.pin_channels = pin_channels
        route.cmin = min(pin_channels)
        route.cmax = max(pin_channels)
        route.xmin = min(columns[0] for columns in pin_channels.values())
        route.xmax = max(columns[-1] for columns in pin_channels.values())
        self.route_version[net_index] += 1
        self._mark_unrouted(route)
        return route

    def adopt_geometry(
        self,
        net_index: int,
        pin_channels: dict[int, list[int]],
        cmin: int,
        cmax: int,
        xmin: int,
        xmax: int,
    ) -> NetRoute:
        """Restore previously captured geometry by assignment.

        Move rollback's replacement for :meth:`refresh_geometry`: the
        journal snapshot holds the pre-move geometry (by reference —
        geometry fields are replaced wholesale, never mutated in
        place), so restoring is an assignment instead of a
        placement-wide pin recompute.  Same contract and side effects
        as :meth:`refresh_geometry`: the net must hold no claims, and
        it is re-marked unrouted.

        Mutates: the net's route record, unrouted books, fail caches.
        """
        route = self.routes[net_index]
        if route.vertical is not None or route.claims:
            raise RuntimeError(
                f"net {net_index} still holds claims; rip it up before "
                "adopting geometry"
            )
        route.pin_channels = pin_channels
        route.cmin = cmin
        route.cmax = cmax
        route.xmin = xmin
        route.xmax = xmax
        self.route_version[net_index] += 1
        self._mark_unrouted(route)
        return route

    def _mark_unrouted(self, route: NetRoute) -> None:
        net_index = route.net_index
        if route.cmax > route.cmin:  # needs_vertical, sans property call
            self.unrouted_global.add(net_index)
        else:
            self.unrouted_global.discard(net_index)
        # The mirror lists are maintained sorted, so iterating them keeps
        # the mutation order (and hence any downstream observation of
        # it) a function of contents, not of set insertion history —
        # both fast and exhaustive repair paths must be order-invariant
        # by construction.
        unrouted_detail = self.unrouted_detail
        dirty_channels = self.dirty_channels
        old_pending = self._pending_channels[net_index]
        pending_channels = sorted(route.pin_channels)
        if pending_channels != old_pending:
            for channel in old_pending:
                pending = unrouted_detail[channel]
                pending.discard(net_index)
                if not pending:
                    dirty_channels.discard(channel)
            self._pending_channels[net_index] = pending_channels
            for channel in pending_channels:
                unrouted_detail[channel].add(net_index)
                dirty_channels.add(channel)
        # else: the mirror is exact (the consistency audit pins it), so
        # discarding and re-adding the same memberships is a no-op —
        # common when an unrouted net is ripped up again.
        self._missing[net_index] = len(pending_channels)
        # Geometry (and hence requirements) may have changed: forget
        # every cached routing failure for this net.
        self._detail_fail[net_index].clear()
        self._global_fail[net_index] = None
        self._refresh_d(net_index)

    def _refresh_d(self, net_index: int) -> None:
        """Keep the O(1) D counter in sync for one net."""
        route = self.routes[net_index]
        counting = (
            self._missing[net_index] > 0
            or (route.cmax > route.cmin and route.vertical is None)
        )
        if counting and not self._counts_d[net_index]:
            self._d_count += 1
        elif not counting and self._counts_d[net_index]:
            self._d_count -= 1
        self._counts_d[net_index] = counting

    # ------------------------------------------------------------------
    # Claims
    # ------------------------------------------------------------------
    def commit_vertical(self, net_index: int, claim: VerticalClaim) -> None:
        """Record a vertical claim for a net."""
        route = self.routes[net_index]
        if route.vertical is not None:
            raise RuntimeError(f"net {net_index} already has a vertical claim")
        route.vertical = claim
        self.route_version[net_index] += 1
        self.unrouted_global.discard(net_index)
        self._global_fail[net_index] = None
        self._refresh_d(net_index)

    def commit_detail(self, net_index: int, claim: ChannelClaim) -> None:
        """Record a detailed channel claim for a net."""
        route = self.routes[net_index]
        if claim.channel in route.claims:
            raise RuntimeError(
                f"net {net_index} already routed in channel {claim.channel}"
            )
        route.claims[claim.channel] = claim
        self.route_version[net_index] += 1
        self._detail_fail[net_index].pop(claim.channel, None)
        self._drop_pending(net_index, claim.channel)

    def rip_up(self, net_index: int) -> None:
        """Release all of the net's segments and mark it unrouted.

        This is the paper's move side effect: "each move that alters
        cells removes any routing associated with the pins on the moved
        cells" (Section 3.2).
        """
        route = self.routes[net_index]
        if route.vertical is not None:
            claim = route.vertical
            self.fabric.vcolumns[claim.column].release(net_index, claim)
            segs = self.fabric.vcolumns[claim.column].segmentation.tracks[
                claim.track
            ]
            self._log_vertical_release(
                claim.column, segs[claim.first_seg][0], segs[claim.last_seg][1] - 1
            )
            route.vertical = None
        # Channel-sorted release order keeps the release logs (which
        # the negative caches replay) independent of claim insertion
        # history.
        for channel in sorted(route.claims):
            claim = route.claims[channel]
            self.fabric.channels[claim.channel].release(net_index, claim)
            segs = self.fabric.channels[claim.channel].segmentation.tracks[
                claim.track
            ]
            self._log_channel_release(
                claim.channel, claim.track,
                segs[claim.first_seg][0], segs[claim.last_seg][1] - 1,
            )
        route.claims = {}
        self.route_version[net_index] += 1
        self._mark_unrouted(route)

    def log_phantom_releases(self, net_index: int) -> None:
        """Log the releases a rip-up of this net *would* produce.

        The journal fast-restore path skips rip-up + re-commit for a
        net whose route record is provably untouched since snapshot
        (route version unchanged), but the release logs — which the
        negative caches replay, and whose compaction events clear
        cached failures channel-wide — must evolve exactly as if the
        rip-up/re-claim round trip had happened.  This appends the
        identical log entries in the identical order (vertical first,
        then channels in sorted order) and applies the same per-net
        fail-cache clears :meth:`_mark_unrouted` would, without
        touching occupancy, geometry, or the pending books.

        Mutates: release logs (and, via compaction, every net's fail
        caches), this net's fail caches.
        """
        route = self.routes[net_index]
        vertical = route.vertical
        if vertical is not None:
            segs = self.fabric.vcolumns[vertical.column].segmentation.tracks[
                vertical.track
            ]
            self._log_vertical_release(
                vertical.column,
                segs[vertical.first_seg][0], segs[vertical.last_seg][1] - 1,
            )
        for channel in sorted(route.claims):
            claim = route.claims[channel]
            segs = self.fabric.channels[claim.channel].segmentation.tracks[
                claim.track
            ]
            self._log_channel_release(
                claim.channel, claim.track,
                segs[claim.first_seg][0], segs[claim.last_seg][1] - 1,
            )
        self._detail_fail[net_index].clear()
        self._global_fail[net_index] = None

    # ------------------------------------------------------------------
    # Cost-function counters and diagnostics
    # ------------------------------------------------------------------
    def _drop_pending(self, net_index: int, channel: int) -> None:
        pending = self.unrouted_detail[channel]
        if net_index in pending:
            pending.discard(net_index)
            if not pending:
                self.dirty_channels.discard(channel)
            # Invariantly present: the mirror tracks unrouted_detail
            # membership exactly (remove raises on drift, as an audit).
            self._pending_channels[net_index].remove(channel)
            self._missing[net_index] -= 1
            self._refresh_d(net_index)

    def discard_detail_pending(self, net_index: int, channel: int) -> None:
        """Drop a stale pending entry while keeping the D counter exact."""
        self._drop_pending(net_index, channel)

    # ------------------------------------------------------------------
    # Negative-result caches (repair fast path)
    # ------------------------------------------------------------------
    # Claims only ever shrink the free segment set, so a failed attempt
    # to cover ``[lo, hi]`` stays failed in every track until a segment
    # of that track's covering run is released.  Every segment of the
    # run contains at least one column of [lo, hi], so only a release
    # *on that track* whose span overlaps [lo, hi] can unblock it.  The
    # cache is therefore place-aware: each release is logged with its
    # track (or, for global routing, its vertical column), and a cached
    # failure accumulates the places released into over its interval
    # since it was recorded.  Every other place was infeasible at the
    # failure and still is.
    #
    # The hopeless probes test only the accumulated places against the
    # occupancy bitmasks, drop those found blocked (a later release
    # re-adds them), and report hopeless when none is free.  Otherwise
    # the attempt runs: a detailed retry uses the ordinary presorted
    # ``(cost, track)`` scan, whose first free entry is necessarily on
    # a surviving track; a global retry walks the centre-outward column
    # order skipping columns outside the surviving set.  Every place
    # skipped is infeasible, so both pick what the full scan would.
    # Cached failures are
    # cleared by a commit for the net and in :meth:`_mark_unrouted`
    # (the single place a net's geometry or trunk — and hence its
    # needed intervals — can change).

    #: Release-log length at which a log is compacted (all cached
    #: failures referencing it are dropped, forcing one full retry).
    RELEASE_LOG_CAP = 65536

    def _log_channel_release(self, channel: int, track: int,
                             lo: int, hi: int) -> None:
        log = self._channel_releases[channel]
        log.append((track, lo, hi))
        if len(log) > self.RELEASE_LOG_CAP:
            for fails in self._detail_fail:
                fails.pop(channel, None)
            log.clear()

    def _log_vertical_release(self, column: int, cmin: int, cmax: int) -> None:
        log = self._vertical_releases
        log.append((column, cmin, cmax))
        if len(log) > self.RELEASE_LOG_CAP:
            self._global_fail = [None] * len(self.routes)
            log.clear()

    @staticmethod
    def _released_into(releases: list[Release], entry: Failure) -> Failure:
        """``entry`` advanced to the log's end, adding overlapping places."""
        position, lo, hi, places = entry
        end = len(releases)
        for i in range(position, end):
            place, first, last = releases[i]
            if first <= hi and lo <= last:
                places |= 1 << place
        return end, lo, hi, places

    def detail_attempt_is_hopeless(self, net_index: int, channel: int) -> bool:
        """Whether a detail attempt is known to fail.

        Tests only the tracks released into since the cached failure;
        those found blocked are dropped from the entry.
        """
        fails = self._detail_fail[net_index]
        entry = fails.get(channel)
        if entry is None:
            return False
        releases = self._channel_releases[channel]
        if entry[0] != len(releases):
            entry = self._released_into(releases, entry)
        elif not entry[3]:
            return True
        position, lo, hi, tracks = entry
        if tracks:
            tracks = self.fabric.channels[channel].free_tracks(lo, hi, tracks)
        fails[channel] = (position, lo, hi, tracks)
        return not tracks

    def note_detail_failure(self, net_index: int, channel: int,
                            lo: int, hi: int) -> None:
        """Record a no-candidate detail failure for ``[lo, hi]``.

        Only meaningful for a globally-routed net (whose requirement in
        the channel is pinned until the next rip-up); callers must not
        record failures caused by a missing global route.
        """
        self._detail_fail[net_index][channel] = (
            len(self._channel_releases[channel]), lo, hi, 0
        )

    def global_attempt_is_hopeless(self, net_index: int) -> bool:
        """Whether a global attempt is known to fail.

        Tests only the columns released into since the cached failure;
        those found blocked are dropped from the entry.  When some are
        free, :meth:`global_retry_columns` names them.
        """
        entry = self._global_fail[net_index]
        if entry is None:
            return False
        releases = self._vertical_releases
        if entry[0] != len(releases):
            entry = self._released_into(releases, entry)
        elif not entry[3]:
            return True
        position, cmin, cmax, columns = entry
        if columns:
            vcolumns = self.fabric.vcolumns
            remaining = columns
            while remaining:  # iter_bits, inlined (hot: every cache probe)
                low = remaining & -remaining
                remaining ^= low
                if vcolumns[low.bit_length() - 1].best_candidate(
                    cmin, cmax
                ) is None:
                    columns ^= low
        self._global_fail[net_index] = (position, cmin, cmax, columns)
        return not columns

    def global_retry_columns(self, net_index: int) -> Optional[int]:
        """Bitmask of the only columns a global retry can use.

        None when no failure is cached (scan every column).  Exact right
        after :meth:`global_attempt_is_hopeless` returned False.
        """
        entry = self._global_fail[net_index]
        return None if entry is None else entry[3]

    def note_global_failure(self, net_index: int, cmin: int, cmax: int) -> None:
        """Record an all-columns-infeasible global failure for the span."""
        self._global_fail[net_index] = (
            len(self._vertical_releases), cmin, cmax, 0
        )

    # ------------------------------------------------------------------
    # Sanitizer probes (repro.lint.runtime)
    # ------------------------------------------------------------------
    def audit_negative_caches(self, channel: int) -> list[str]:
        """Cross-check one channel's cached detail failures.

        Brings each net's cached failure in ``channel`` up to date, then
        re-probes every track from scratch: a feasible track outside
        the entry's recorded set means the cache would have wrongly
        skipped (or restricted) a routable net.  The probe itself is
        side-effect-free (``candidates`` only reads occupancy); the
        refresh drops blocked places, which is semantics-preserving
        amortization, never a behavioral change.
        """
        problems: list[str] = []
        for net_index in range(len(self.routes)):
            if channel not in self._detail_fail[net_index]:
                continue
            self.detail_attempt_is_hopeless(net_index, channel)
            _, lo, hi, tracks = self._detail_fail[net_index][channel]
            for probe in self.fabric.channels[channel].candidates(lo, hi):
                if not (tracks >> probe.track) & 1:
                    problems.append(
                        f"negative detail cache incoherent: net {net_index} "
                        f"is cached with tracks {list(iter_bits(tracks))} "
                        f"for [{lo}, {hi}] in channel {channel} but track "
                        f"{probe.track} has a feasible candidate"
                    )
                    break
        return problems

    def audit_global_cache(self, net_index: int) -> list[str]:
        """Cross-check one net's cached global-routing failure.

        Brings the cached failure up to date, then scans every column
        outside its recorded set; a feasible vertical candidate there
        means the cache would have wrongly skipped (or restricted) a
        globally-routable net.
        """
        if self._global_fail[net_index] is None:
            return []
        self.global_attempt_is_hopeless(net_index)
        _, cmin, cmax, columns = self._global_fail[net_index]
        for column in range(self.fabric.cols):
            if (columns >> column) & 1:
                continue
            if self.fabric.vcolumns[column].best_candidate(cmin, cmax) is not None:
                return [
                    f"negative global cache incoherent: net {net_index} is "
                    f"cached with columns {list(iter_bits(columns))} for "
                    f"channels [{cmin}, {cmax}] but column {column} has a "
                    f"feasible vertical candidate"
                ]
        return []

    def count_global_unrouted(self) -> int:
        """G: nets that need but lack a global route."""
        return len(self.unrouted_global)

    def count_detail_unrouted(self) -> int:
        """D: nets lacking a complete detailed routing (O(1)).

        Includes globally-unrouted nets, which "automatically cannot be
        detail routed" (Section 3.4).
        """
        return self._d_count

    def fully_routed_fraction(self) -> float:
        """Fraction of nets completely routed."""
        total = len(self.routes)
        if not total:
            return 1.0
        return sum(1 for route in self.routes if route.fully_routed) / total

    def is_complete(self) -> bool:
        """Whether every cell is placed / every net routed."""
        return (
            not self.unrouted_global
            and all(not pending for pending in self.unrouted_detail)
        )

    def summary(self) -> dict:
        """Compact JSON-ready digest (carried by trace ``run_end`` events)."""
        return {
            "nets": len(self.routes),
            "global_unrouted": self.count_global_unrouted(),
            "detail_unrouted": self.count_detail_unrouted(),
            "fully_routed": self.is_complete(),
            "total_antifuses": self.total_antifuses(),
        }

    def used_track_segments(self) -> dict:
        """Claim-side used-segment totals, for occupancy cross-checks.

        Counts segments from the per-net :class:`NetRoute` records (the
        claim side of the books); the fabric's per-channel
        ``segments_used()`` counts the same wire from the owner arrays.
        The two must agree — snapshot tests assert it.
        """
        horizontal = [0] * self.fabric.num_channels
        vertical = 0
        for route in self.routes:
            for channel, claim in route.claims.items():
                horizontal[channel] += claim.num_segments
            if route.vertical is not None:
                vertical += route.vertical.num_segments
        return {
            "horizontal": horizontal,
            "horizontal_total": sum(horizontal),
            "vertical": vertical,
        }

    def total_antifuses(self) -> int:
        """All programmed antifuses in the layout."""
        return sum(
            route.horizontal_antifuses()
            + route.vertical_antifuses()
            + route.cross_antifuses()
            for route in self.routes
        )

    def check_consistency(self) -> list[str]:
        """Invariant audit used by tests: claims and occupancy must agree."""
        problems: list[str] = []
        pending: set[int] = set(self.unrouted_global)
        for channel_sets in self.unrouted_detail:
            pending.update(channel_sets)
        if len(pending) != self._d_count:
            problems.append(
                f"D counter drift: counter {self._d_count}, actual {len(pending)}"
            )
        actual_dirty = {
            channel
            for channel, channel_sets in enumerate(self.unrouted_detail)
            if channel_sets
        }
        if actual_dirty != self.dirty_channels:
            problems.append(
                f"dirty-channel drift: tracked {sorted(self.dirty_channels)}, "
                f"actual {sorted(actual_dirty)}"
            )
        for net_index, route in enumerate(self.routes):
            actual_channels = {
                channel
                for channel, channel_sets in enumerate(self.unrouted_detail)
                if net_index in channel_sets
            }
            if sorted(actual_channels) != self._pending_channels[net_index]:
                problems.append(
                    f"net {net_index} pending-channel drift: mirror "
                    f"{self._pending_channels[net_index]}, actual "
                    f"{sorted(actual_channels)}"
                )
            if len(actual_channels) != self._missing[net_index]:
                problems.append(
                    f"net {net_index} missing-count drift: counter "
                    f"{self._missing[net_index]}, actual {len(actual_channels)}"
                )
        for route in self.routes:
            for channel, claim in route.claims.items():
                ch = self.fabric.channels[channel]
                for seg in range(claim.first_seg, claim.last_seg + 1):
                    owner = ch.owner_of(claim.track, seg)
                    if owner != route.net_index:
                        problems.append(
                            f"net {route.net_index} claims ch{channel} "
                            f"t{claim.track} s{seg} but owner is {owner}"
                        )
            if route.vertical is not None:
                vc = self.fabric.vcolumns[route.vertical.column]
                chan = vc._channel  # test-only access to occupancy
                for seg in range(
                    route.vertical.first_seg, route.vertical.last_seg + 1
                ):
                    owner = chan.owner_of(route.vertical.track, seg)
                    if owner != route.net_index:
                        problems.append(
                            f"net {route.net_index} vertical claim at column "
                            f"{route.vertical.column} s{seg} owner is {owner}"
                        )
            if route.globally_routed:
                needs = route.requirements()
                for channel, (lo, hi) in needs.items():
                    claim = route.claims.get(channel)
                    if claim is not None and not (
                        claim.lo == lo and claim.hi == hi
                    ):
                        problems.append(
                            f"net {route.net_index} claim in ch{channel} covers "
                            f"[{claim.lo},{claim.hi}], needs [{lo},{hi}]"
                        )
        # Every owned segment must belong to a recorded claim.
        claimed: set[tuple[int, int, int]] = set()
        for route in self.routes:
            for channel, claim in route.claims.items():
                for seg in range(claim.first_seg, claim.last_seg + 1):
                    claimed.add((channel, claim.track, seg))
        for channel_index, channel in enumerate(self.fabric.channels):
            for track in range(channel.num_tracks):
                for seg in range(len(channel.segmentation.tracks[track])):
                    owner = channel.owner_of(track, seg)
                    if owner is not None and (
                        channel_index, track, seg
                    ) not in claimed:
                        problems.append(
                            f"orphan segment ch{channel_index} t{track} s{seg} "
                            f"owned by net {owner}"
                        )
        # The flat occupancy bitmasks must mirror the owner arrays
        # bit-for-bit (horizontal channels and vertical columns alike).
        for label, channel in [
            (f"ch{i}", ch) for i, ch in enumerate(self.fabric.channels)
        ] + [
            (f"vcol{vc.column}", vc._channel) for vc in self.fabric.vcolumns
        ]:
            for track, owners in enumerate(channel._owner):
                expected = 0
                for seg, owner in enumerate(owners):
                    if owner is not None:
                        expected |= 1 << seg
                if channel._occ[track] != expected:
                    problems.append(
                        f"occupancy bitmask drift: {label} t{track} mask "
                        f"{channel._occ[track]:#x}, owners imply {expected:#x}"
                    )
        return problems
