"""Global routing: vertical-segment (feedthrough) assignment.

"Global routing for row-based FPGAs consists primarily of assigning
feedthroughs to nets that need them" (paper, Section 3.3).  A net whose
pins span channels ``[cmin, cmax]`` needs, at some column, a run of free
vertical segments covering that span; the heuristic of the paper is to
use "the available set of vertical segments that are closest to the
center of a net's bounding box".

:func:`route_net_global` implements exactly that: scan columns outward
from the bounding-box center and take the first column with a feasible
(least-wasteful) vertical candidate.  :func:`global_route_all` is the
batch version used by the sequential baseline flow; the simultaneous
annealer instead calls :func:`route_net_global` from the incremental
repair loop.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from .state import RoutingState


def column_scan_order(center: int, num_columns: int) -> Iterator[int]:
    """Columns ordered by distance from ``center`` (ties: left first)."""
    if not 0 <= center < num_columns:
        center = min(max(center, 0), num_columns - 1)
    yield center
    for distance in range(1, num_columns):
        left = center - distance
        right = center + distance
        if left >= 0:
            yield left
        if right < num_columns:
            yield right
        if left < 0 and right >= num_columns:
            return


def route_net_global(state: RoutingState, net_index: int,
                     columns: Optional[int] = None) -> bool:
    """Try to give ``net_index`` a global route.  True on success.

    Single-channel nets succeed trivially ("a trivially null global
    routing now suffices", Section 3.3).  Multi-channel nets claim
    vertical segments at the feasible column nearest their bounding-box
    center; within a column, the least-wasteful track run is used.

    ``columns``, when given, is a bitmask outside which no column is
    feasible (the negative cache's retry set); only those columns are
    scanned, in the same centre-outward order, so the pick is the same.

    Mutates: the routing state (commits the vertical claim or records
    the failure in the negative cache).
    """
    route = state.routes[net_index]
    if route.vertical is not None or route.cmax <= route.cmin:
        # globally_routed, inlined (hot path).
        state.unrouted_global.discard(net_index)
        return True
    center = (route.xmin + route.xmax) // 2
    vcolumns = state.fabric.vcolumns
    cmin, cmax = route.cmin, route.cmax
    order: Iterable[int] = column_scan_order(center, len(vcolumns))
    if columns is not None:
        order = (c for c in order if (columns >> c) & 1)
    for column in order:
        candidate = vcolumns[column].best_candidate(cmin, cmax)
        if candidate is None:
            continue
        claim = vcolumns[column].claim(net_index, candidate, cmin, cmax)
        state.commit_vertical(net_index, claim)
        return True
    state.note_global_failure(net_index, cmin, cmax)
    return False


def ripup_order(state: RoutingState, net_indices: Sequence[int]) -> list[int]:
    """Nets sorted longest-estimated-first (the U_G / U_DR queue order).

    Hot path: called once per pending queue per repair.  Queues of zero
    or one net (the common case late in an anneal) skip the sort, and
    longer queues decorate-and-sort without per-key lambda dispatch.
    Equal-length nets order by index, so the queue is a pure function
    of the pending *contents* — never of set iteration order, which
    varies with each set's mutation history and would make otherwise
    identical layouts repair differently.
    """
    if len(net_indices) <= 1:
        return list(net_indices)
    routes = state.routes
    decorated = []
    for net_index in net_indices:
        route = routes[net_index]
        # Negated length so the plain ascending sort puts longest first.
        decorated.append(
            (
                (route.xmin - route.xmax) + 0.5 * (route.cmin - route.cmax),
                net_index,
            )
        )
    decorated.sort()
    return [entry[1] for entry in decorated]


def global_route_all(
    state: RoutingState, net_indices: Optional[Sequence[int]] = None
) -> list[int]:
    """Globally route the given nets (default: all pending).

    Nets are processed longest first, "giving priority to the longer
    unroutable nets".  Returns the nets that remain globally unroutable.

    Mutates: the routing state, via :func:`route_net_global`.
    """
    if net_indices is None:
        net_indices = sorted(state.unrouted_global)
    failed: list[int] = []
    for net_index in ripup_order(state, net_indices):
        if not route_net_global(state, net_index):
            failed.append(net_index)
    return failed
