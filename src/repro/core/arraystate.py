"""Flat-array core state and its coherence probes.

The move loop's hot state lives in flat arrays rather than object-graph
walks:

* **occupancy** — every channel (and vertical column) keeps one integer
  bitmask per track (bit ``s`` set = segment ``s`` owned), so route
  feasibility is a single ``occ & run_mask`` test against the shared
  per-segmentation candidate tables
  (:class:`repro.arch.channel.SegmentationTables`);
* **route versions** — one monotonic counter per net
  (``RoutingState.route_version``, a stdlib ``array('Q')``), bumped by
  every route mutation; version equality proves a net's record is
  untouched, which keys the journal's phantom-restore fast path and the
  timing layer's delay-cache reuse;
* **RC kernels** — Elmore delays run over flattened parent-pointer /
  cap / resistance arrays with two prefix passes
  (:func:`repro.timing.elmore.routed_sink_delays`), no per-node objects.

Those arrays are not mirrors to keep in sync — they *are* the hot-path
state, maintained by the same mutation points as the object books
(``Channel.claim/release/reclaim``, the ``RoutingState`` commit/rip-up
methods).  :class:`ArrayState` is a read-only view over one routing
state and its timing analyzer that carries the cross-validation probes
the ``array-coherence`` sanitizer rule runs: array occupancy vs owner
arrays vs per-net claims, and version-valid delay-cache entries vs a
bit-exact recompute.  Building one is O(1); the sanitizer and
:func:`repro.lint.runtime.check_all` make one per check.

numpy policy: auto-detected (:data:`HAVE_NUMPY`) and used only for
exact integer bulk work in audits — never in float kernels, whose
operation order defines the bit-identical results contract.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from ..route.state import RoutingState
    from ..timing.incremental import IncrementalTiming

try:  # pragma: no cover - exercised via HAVE_NUMPY both ways in CI
    import numpy as _np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    _np = None
    HAVE_NUMPY = False


def _expected_occ_masks(channel) -> list[int]:
    """Per-track occupancy bitmasks recomputed from the owner arrays."""
    masks = []
    for owners in channel._owner:
        expected = 0
        for seg, owner in enumerate(owners):
            if owner is not None:
                expected |= 1 << seg
        masks.append(expected)
    return masks


class ArrayState:
    """Read-only view of one routing state's flat arrays, with probes."""

    def __init__(
        self, state: "RoutingState", timing: Optional["IncrementalTiming"]
    ) -> None:
        self.state = state
        self.timing = timing
        self.num_nets = state.netlist.num_nets
        self.num_channels = state.fabric.num_channels
        self.num_vcolumns = len(state.fabric.vcolumns)
        self.route_version = state.route_version

    # ------------------------------------------------------------------
    # Coherence probes (the sanitizer's array-coherence rule)
    # ------------------------------------------------------------------
    def _channel_problems(self, label: str, channel, claims) -> list[str]:
        """Cross-validate one channel plane: bitmask vs owners vs claims.

        ``claims`` maps net index -> claim-like record with ``track``,
        ``first_seg``, ``last_seg``.
        """
        problems: list[str] = []
        expected = _expected_occ_masks(channel)
        for track, mask in enumerate(channel._occ):
            if mask != expected[track]:
                problems.append(
                    f"array-coherence: {label} t{track} occupancy mask "
                    f"{mask:#x} but owners imply {expected[track]:#x}"
                )
        claim_mask = [0] * channel.num_tracks
        for net_idx, claim in claims:
            run = (1 << (claim.last_seg + 1)) - (1 << claim.first_seg)
            if claim_mask[claim.track] & run:
                problems.append(
                    f"array-coherence: {label} t{claim.track} has "
                    f"overlapping claims (net {net_idx})"
                )
            claim_mask[claim.track] |= run
            for seg in range(claim.first_seg, claim.last_seg + 1):
                owner = channel._owner[claim.track][seg]
                if owner != net_idx:
                    problems.append(
                        f"array-coherence: {label} t{claim.track} s{seg} "
                        f"owned by {owner}, claim says net {net_idx}"
                    )
        for track in range(channel.num_tracks):
            if claim_mask[track] != channel._occ[track]:
                problems.append(
                    f"array-coherence: {label} t{track} occupancy mask "
                    f"{channel._occ[track]:#x} but committed claims imply "
                    f"{claim_mask[track]:#x}"
                )
        return problems

    def probe_channel(self, channel_index: int) -> list[str]:
        """Cross-validate one horizontal channel's occupancy arrays."""
        channel = self.state.fabric.channels[channel_index]
        claims = [
            (route.net_index, claim)
            for route in self.state.routes
            for claim_channel, claim in route.claims.items()
            if claim_channel == channel_index
        ]
        return self._channel_problems(f"ch{channel_index}", channel, claims)

    def probe_vcolumn(self, column: int) -> list[str]:
        """Cross-validate one vertical column's occupancy arrays."""
        vcolumn = self.state.fabric.vcolumns[column]
        claims = [
            (route.net_index, route.vertical)
            for route in self.state.routes
            if route.vertical is not None and route.vertical.column == column
        ]
        return self._channel_problems(f"vcol{column}", vcolumn._channel, claims)

    def probe_net_timing(self, net_index: int) -> list[str]:
        """Cross-validate one net's version-valid delay-cache entry.

        A cache entry whose version matches the net's route version is
        the one :meth:`IncrementalTiming.update_nets` trusts without
        recomputing; this probe recomputes it and demands bit-exact
        agreement.
        """
        timing = self.timing
        if timing is None:
            return []
        cached = timing._delay_cache[net_index]
        if cached is None:
            return []
        if timing._cache_version[net_index] != self.route_version[net_index]:
            return []
        from ..timing.analyzer import net_sink_delays

        fresh = net_sink_delays(self.state, timing.tech, net_index)
        if fresh != cached:
            return [
                f"array-coherence: net {net_index} version-valid delay "
                f"cache {cached!r} != recompute {fresh!r}"
            ]
        return []

    def probe(self, counter: int) -> list[str]:
        """Bounded round-robin probe for the every-move sanitizer hook.

        Checks one channel, one vertical column, and one net's timing
        cache per call, cycling with ``counter`` so a long run sweeps
        everything repeatedly at O(1) channels per move.
        """
        problems: list[str] = []
        if self.num_channels:
            problems += self.probe_channel(counter % self.num_channels)
        if self.num_vcolumns:
            problems += self.probe_vcolumn(counter % self.num_vcolumns)
        if self.num_nets:
            problems += self.probe_net_timing(counter % self.num_nets)
        return problems

    def check_all(self) -> list[str]:
        """Exhaustive coherence sweep (tests and ``annealer.audit``)."""
        problems: list[str] = []
        for channel_index in range(self.num_channels):
            problems += self.probe_channel(channel_index)
        for column in range(self.num_vcolumns):
            problems += self.probe_vcolumn(column)
        for net_index in range(self.num_nets):
            problems += self.probe_net_timing(net_index)
        problems += self.audit_column_occupancy()
        return problems

    # ------------------------------------------------------------------
    # Bulk integer audits (numpy-accelerated when available)
    # ------------------------------------------------------------------
    def audit_column_occupancy(self) -> list[str]:
        """Check every channel's column-occupancy histogram two ways.

        The object-graph side walks owner arrays
        (:meth:`Channel.column_occupancy`); the array side expands the
        occupancy bitmasks over the segment geometry — vectorized with
        numpy when available, pure integer Python otherwise.  Both are
        exact integer computations, so they must agree everywhere.
        """
        problems: list[str] = []
        for channel in self.state.fabric.channels:
            expected = channel.column_occupancy()
            width = channel.width
            if HAVE_NUMPY:
                counts = _np.zeros(width, dtype=_np.int64)
                for track, segs in enumerate(channel.segmentation.tracks):
                    occ = channel._occ[track]
                    if not occ:
                        continue
                    for seg, (start, end) in enumerate(segs):
                        if occ >> seg & 1:
                            counts[start:end] += 1
                got = counts.tolist()
            else:
                got = [0] * width
                for track, segs in enumerate(channel.segmentation.tracks):
                    occ = channel._occ[track]
                    if not occ:
                        continue
                    for seg, (start, end) in enumerate(segs):
                        if occ >> seg & 1:
                            for col in range(start, end):
                                got[col] += 1
            if got != expected:
                problems.append(
                    f"array-coherence: ch{channel.index} column occupancy "
                    f"from bitmasks {got} != owner walk {expected}"
                )
        return problems
