"""Runtime counterpart of the static pass: one checker, one sanitizer.

:func:`check_all` consolidates the invariant checkers that grew up
independently — ``RoutingState.check_consistency`` (bookkeeping),
``route.verify.verify_layout`` (electrical),
``ArrayState.check_all`` (flat-array coherence), and
``IncrementalTiming.audit`` (incremental-vs-fresh STA) — behind a
single entry point that the annealer's ``audit()``, the sanitizer, and
the tests all share.

:class:`MoveSanitizer` is the paranoid mode behind
``AnnealerConfig(sanitize=True)``.  After every move transaction it
cross-checks the three things the hot path silently depends on:

1. **Rollback completeness** — a rejected move must restore placement,
   routing claims, unrouted bookkeeping, and timing state bit-exactly.
   The sanitizer digests the semantic state before the move and
   compares after the rollback (memoization side-state — negative
   caches and release logs — is deliberately excluded: it may advance,
   never lie).
2. **Negative-cache coherence** — a cached "this net cannot route
   here" entry that still reads hopeless must agree with a fresh,
   side-effect-free feasibility probe.  One channel (and one net's
   global entry) is sampled per move, round-robin, so the cost stays
   bounded and no RNG is consumed — the sanitizer must be invisible to
   the random stream.
3. **Audit cleanliness** — :func:`check_all` after every accepted move.

Violations raise a structured :class:`SanitizerError` naming the
offending move, the phase, and every problem found.
"""

from __future__ import annotations

from typing import Any, Optional

from ..route.state import RoutingState
from ..route.verify import verify_layout


def check_all(
    state: RoutingState,
    timing: Optional[Any] = None,
    require_complete: bool = False,
) -> list[str]:
    """Every invariant problem across routing bookkeeping, electrical
    structure, flat-array coherence, and (when ``timing`` is given)
    incremental timing.

    Empty list = clean.  ``require_complete`` additionally reports
    unrouted nets; intermediate annealer layouts are legally incomplete
    ("unroutability is cost, not an error"), so it defaults to False.
    """
    problems = state.check_consistency()
    problems.extend(verify_layout(state, require_complete=require_complete))
    if timing is not None:
        problems.extend(timing.audit())
    from ..core.arraystate import ArrayState

    problems.extend(ArrayState(state, timing).check_all())
    return problems


class SanitizerError(RuntimeError):
    """A move transaction broke an invariant the sanitizer watches.

    Attributes
    ----------
    phase: ``"initial"``, ``"commit"``, or ``"rollback"``.
    move: the offending move (None for the initial state check).
    problems: human-readable descriptions, one per violation.
    """

    def __init__(self, phase: str, move: Any, problems: list[str]) -> None:
        self.phase = phase
        self.move = move
        self.problems = list(problems)
        detail = "\n".join(f"  - {problem}" for problem in self.problems)
        super().__init__(
            f"sanitizer caught {len(self.problems)} problem(s) at "
            f"{phase} of move {move!r}:\n{detail}"
        )


def layout_digest(ctx: Any) -> dict[str, Any]:
    """Hashable snapshot of every *semantic* field of the layout state.

    Excludes memoization side-state (negative caches, release logs,
    net delay caches): those are allowed to advance across a rejected
    move because they are pure functions of the semantic state.
    """
    placement = ctx.placement
    state = ctx.state
    timing = ctx.timing
    num_cells = placement.netlist.num_cells
    routes = tuple(
        (
            route.vertical,
            tuple(sorted(route.claims.items())),
            tuple(
                (channel, tuple(columns))
                for channel, columns in sorted(route.pin_channels.items())
            ),
            route.cmin, route.cmax, route.xmin, route.xmax,
        )
        for route in state.routes
    )
    return {
        "placement": (
            tuple(placement.slot_of(index) for index in range(num_cells)),
            tuple(placement.pinmap_index(index) for index in range(num_cells)),
        ),
        "routing": routes,
        "unrouted": (
            frozenset(state.unrouted_global),
            tuple(frozenset(pending) for pending in state.unrouted_detail),
            frozenset(state.dirty_channels),
        ),
        "timing": (
            tuple(timing.arrival),
            tuple(sorted(timing.boundary_in.items())),
        ),
    }


class MoveSanitizer:
    """Per-move invariant cross-checker (see module docstring).

    ``check_every`` thins the full :func:`check_all` sweep to every
    N-th accepted move; the cheap rollback digest and the sampled cache
    probes still run on every move.
    """

    def __init__(self, check_every: int = 1) -> None:
        if check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {check_every}")
        self.check_every = check_every
        self._moves = 0

    # -- hooks the annealer calls --------------------------------------
    def check_initial(self, ctx: Any) -> None:
        """Validate the freshly-constructed layout before any move."""
        problems = check_all(ctx.state, ctx.timing)
        if problems:
            raise SanitizerError("initial", None, problems)

    def capture(self, ctx: Any) -> dict[str, Any]:
        """Digest the semantic state before a move is applied."""
        return layout_digest(ctx)

    def check_commit(self, ctx: Any, move: Any) -> None:
        """Cross-check invariants after an accepted move."""
        self._moves += 1
        problems = self._cache_probe(ctx)
        if self._moves % self.check_every == 0:
            problems.extend(check_all(ctx.state, ctx.timing))
        if problems:
            raise SanitizerError("commit", move, problems)

    def check_rollback(
        self, ctx: Any, move: Any, before: dict[str, Any]
    ) -> None:
        """Verify a rejected move was undone bit-exactly."""
        self._moves += 1
        after = layout_digest(ctx)
        problems = [
            f"rollback failed to restore {name} state bit-exactly"
            for name in before
            if before[name] != after[name]
        ]
        problems.extend(self._cache_probe(ctx))
        if problems:
            raise SanitizerError("rollback", move, problems)

    # -- sampled probes ------------------------------------------------
    def _cache_probe(self, ctx: Any) -> list[str]:
        """One channel's detail cache + one net's global cache, round-robin,
        plus one array-coherence sample: occupancy bitmasks vs owner
        arrays vs committed claims, and one version-valid delay-cache
        entry vs a bit-exact recompute.

        Deterministic sampling (a move counter, never an RNG) keeps the
        sanitizer invisible to the annealer's random stream.
        """
        from ..core.arraystate import ArrayState

        state = ctx.state
        problems: list[str] = []
        num_channels = state.fabric.num_channels
        if num_channels:
            problems.extend(
                state.audit_negative_caches(self._moves % num_channels)
            )
        num_nets = len(state.routes)
        if num_nets:
            problems.extend(state.audit_global_cache(self._moves % num_nets))
        problems.extend(ArrayState(state, ctx.timing).probe(self._moves))
        return problems
