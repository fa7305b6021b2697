"""Transitive per-function effect inference over the call graph.

Built on :class:`repro.lint.callgraph.Program`: the scanner there
records, for every function, its *direct* effect sites (field writes,
container mutators, entropy/wall-clock/filesystem/stdout calls) and its
call sites with argument origins.  This module propagates those effects
transitively — a function that calls ``state.rip_up(...)`` inherits
"mutates param:state" with the callee's ``mutates self`` mapped through
the receiver binding — until a fixed point is reached.

Effect vocabulary (normalized tuples):

``("mutates", "self" | "param:<name>" | "global")``
    A caller-visible object is definitely written.
``("maybe_mutates", ...)``
    Same targets, but the write is only *possible* — an unresolved call
    received the object.  Deep rules never promote a maybe to a
    finding; they only use it to *suppress* stale-declaration findings
    (imprecision costs recall, never precision).
``("entropy",) / ("wallclock",) / ("filesystem",) / ("stdout",)``
    Environment effects.  Seeded ``random.Random`` instances and the
    telemetry clocks (``perf_counter`` / ``monotonic`` family) are
    whitelisted at the extraction layer and never appear here.

Mutations of freshly constructed objects (origin ``new``) are dropped
at the call site: building and populating a local journal is not an
effect the caller's caller can observe.
"""

from __future__ import annotations

from typing import Optional

from .callgraph import (
    ORIGIN_GLOBAL,
    ORIGIN_NEW,
    ORIGIN_SELF,
    ORIGIN_UNKNOWN,
    CallSite,
    Program,
)

#: Effect kinds that carry no target payload.
ENVIRONMENT_KINDS = ("entropy", "wallclock", "filesystem", "stdout")


def _origin_target(origin: Optional[tuple]) -> Optional[str]:
    """Mutation-target token for an origin, or None when unobservable."""
    if origin is None or origin == ORIGIN_NEW:
        return None
    if origin == ORIGIN_SELF:
        return "self"
    if origin == ORIGIN_GLOBAL:
        return "global"
    if origin == ORIGIN_UNKNOWN:
        return "unknown"
    if origin[0] == "param":
        return f"param:{origin[1]}"
    return "unknown"


class EffectAnalysis:
    """Fixed-point effect propagation over a :class:`Program`."""

    def __init__(self, program: Program) -> None:
        self.program = program
        #: fn id -> frozen set of normalized direct effects.
        self.direct: dict[str, set] = {}
        #: fn id -> full transitive effect set.
        self.effects: dict[str, set] = {}
        #: (fn id, effect) -> (callee id, lineno) that introduced it,
        #: or None when the effect is direct.  First writer wins, which
        #: combined with the sorted iteration order makes provenance
        #: deterministic.
        self.via: dict[tuple, Optional[tuple]] = {}
        self._propagate()

    # ------------------------------------------------------------------
    # Direct effects
    # ------------------------------------------------------------------
    def _direct_effects(self, fn_id: str) -> set:
        out = set()
        for site in self.program.functions[fn_id].effect_sites:
            if site.kind in ("mutates", "maybe_mutates"):
                out.add((site.kind, site.target))
            else:
                out.add((site.kind,))
        return out

    # ------------------------------------------------------------------
    # Call-site mapping
    # ------------------------------------------------------------------
    def map_effect(self, effect: tuple, site: CallSite) -> Optional[tuple]:
        """Translate one callee effect into the caller's frame."""
        kind = effect[0]
        if kind in ENVIRONMENT_KINDS:
            return effect
        if kind not in ("mutates", "maybe_mutates"):
            return None
        target = effect[1]
        if target == "self":
            origin = site.receiver_origin
        elif target.startswith("param:"):
            origin = site.arg_origins.get(target[6:])
            if origin is None:
                # Bound through *args/**kwargs or left at its default:
                # anything escaping in the loose bucket might be it.
                loose = [
                    _origin_target(o)
                    for o in site.loose_origins
                    if _origin_target(o) not in (None, "unknown")
                ]
                if loose:
                    return ("maybe_mutates", sorted(loose)[0])
                return None
        elif target == "global":
            return (kind, "global")
        else:  # "unknown"
            return ("maybe_mutates", "unknown")
        mapped = _origin_target(origin)
        if mapped is None:
            return None
        if mapped == "unknown":
            return ("maybe_mutates", "unknown")
        if kind == "maybe_mutates":
            return ("maybe_mutates", mapped)
        return ("mutates", mapped)

    def map_call(self, site: CallSite) -> set:
        """Caller-frame effects contributed by one call site."""
        if site.callee is None:
            return set()
        callee_effects = self.effects.get(site.callee, set())
        out = set()
        for effect in callee_effects:
            mapped = self.map_effect(effect, site)
            if mapped is not None:
                out.add(mapped)
        return out

    # ------------------------------------------------------------------
    # Fixed point
    # ------------------------------------------------------------------
    def _propagate(self) -> None:
        order = sorted(self.program.functions)
        for fn_id in order:
            direct = self._direct_effects(fn_id)
            self.direct[fn_id] = direct
            self.effects[fn_id] = set(direct)
            for effect in direct:
                self.via.setdefault((fn_id, effect), None)
        changed = True
        while changed:
            changed = False
            for fn_id in order:
                current = self.effects[fn_id]
                for site in self.program.functions[fn_id].call_sites:
                    if site.callee is None:
                        continue
                    for effect in sorted(self.effects.get(site.callee, ())):
                        mapped = self.map_effect(effect, site)
                        if mapped is not None and mapped not in current:
                            current.add(mapped)
                            self.via.setdefault(
                                (fn_id, mapped), (site.callee, site.lineno)
                            )
                            changed = True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def mutated_targets(self, fn_id: str) -> set:
        """Definite mutation targets (``self`` / ``param:x`` / ``global``)."""
        return {
            e[1] for e in self.effects.get(fn_id, ()) if e[0] == "mutates"
        }

    def maybe_targets(self, fn_id: str) -> set:
        """Possible mutation targets via unresolved calls."""
        return {
            e[1]
            for e in self.effects.get(fn_id, ())
            if e[0] == "maybe_mutates"
        }

    def provenance_chain(self, fn_id: str, effect: tuple) -> list:
        """``[(fn, lineno), ...]`` from ``fn_id`` down to the direct site."""
        chain = []
        current = fn_id
        seen = set()
        while current not in seen:
            seen.add(current)
            step = self.via.get((current, effect))
            if step is None:
                break
            callee, lineno = step
            chain.append((current, lineno))
            current = callee
        chain.append((current, None))
        return chain
