"""Tests for the runtime sanitizer (repro.lint.runtime).

Two properties matter: the sanitizer must *catch* real invariant
violations (injected corruption raises a structured SanitizerError),
and it must be *invisible* (a sanitized anneal consumes no extra RNG
and lands on bit-identical metrics to an unsanitized same-seed run).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import AnnealerConfig, MoveGenerator, SimultaneousAnnealer
from repro.core.schedule import ScheduleConfig
from repro.core.transaction import LayoutContext, apply_move, rollback
from repro.lint.runtime import (
    MoveSanitizer,
    SanitizerError,
    check_all,
    layout_digest,
)
from repro.netlist import tiny
from repro.place import clustered_placement
from repro.route import IncrementalRouter, RoutingState
from repro.timing import IncrementalTiming

from conftest import architecture_for


@pytest.fixture
def ctx(tiny_netlist, tiny_arch, tech, rng):
    placement = clustered_placement(tiny_netlist, tiny_arch.build(), rng)
    state = RoutingState(placement)
    router = IncrementalRouter(state)
    router.route_all_from_scratch()
    timing = IncrementalTiming(state, tech)
    return LayoutContext(placement, state, router, timing)


def micro_config(**overrides):
    base = dict(
        seed=3,
        attempts_per_cell=3,
        initial="clustered",
        greedy_rounds=1,
        schedule=ScheduleConfig(
            lambda_=2.0, max_temperatures=8, freeze_patience=2
        ),
    )
    base.update(overrides)
    return AnnealerConfig(**base)


def comparable_metrics(result):
    return {k: v for k, v in result.metrics().items() if k != "wall_time_s"}


# ----------------------------------------------------------------------
# check_all: the consolidated checker
# ----------------------------------------------------------------------
class TestCheckAll:
    def test_fresh_state_is_clean(self, ctx):
        assert check_all(ctx.state, ctx.timing) == []

    def test_timing_is_optional(self, ctx):
        assert check_all(ctx.state) == []

    def test_detects_timing_corruption(self, ctx):
        ctx.timing.arrival[0] += 5.0
        problems = check_all(ctx.state, ctx.timing)
        assert problems
        assert any("drifted" in p for p in problems)

    def test_require_complete_reports_unrouted(self, ctx):
        for route in ctx.state.routes:
            if route.claims:
                ctx.state.rip_up(route.net_index)
                ctx.state.refresh_geometry(route.net_index)
                break
        assert check_all(ctx.state, require_complete=True)

    def test_annealer_audit_delegates(self, tiny_netlist, tiny_arch):
        annealer = SimultaneousAnnealer(tiny_netlist, tiny_arch, micro_config())
        assert annealer.audit() == []
        annealer.ctx.timing.arrival[0] += 5.0
        assert annealer.audit()


# ----------------------------------------------------------------------
# Negative-cache coherence probes
# ----------------------------------------------------------------------
class TestCacheProbes:
    def test_clean_caches_pass(self, ctx):
        state = ctx.state
        for channel in range(state.fabric.num_channels):
            assert state.audit_negative_caches(channel) == []
        for net_index in range(len(state.routes)):
            assert state.audit_global_cache(net_index) == []

    def test_bogus_detail_failure_is_caught(self, ctx):
        # Cache a "cannot route [0, 1] in channel 0" entry that a fresh
        # probe trivially refutes (the span is tiny and tracks exist).
        state = ctx.state
        state.note_detail_failure(0, 0, 0, 1)
        problems = state.audit_negative_caches(0)
        assert problems
        assert "incoherent" in problems[0]

    def test_bogus_global_failure_is_caught(self, ctx):
        state = ctx.state
        route = state.routes[0]
        state.note_global_failure(0, route.cmin, route.cmin)
        problems = state.audit_global_cache(0)
        assert problems
        assert "incoherent" in problems[0]

    def test_congested_sanitized_run_is_clean(self, monkeypatch):
        # A fabric congested enough that attempts fail, hit the caches
        # and are re-tested over the places released into since: every
        # probe must find no feasible place outside an entry's recorded
        # set, and the run must match the unsanitized one.  The spies
        # count probes of entries whose recorded set is non-empty when
        # the probe starts (the probe then drops the blocked places).
        audited = {"global": 0, "detail": 0}
        audit_global = RoutingState.audit_global_cache
        audit_detail = RoutingState.audit_negative_caches

        def recorded(state, releases, entry):
            return state._released_into(releases, entry)[3]

        def spy_global(state, net_index):
            entry = state._global_fail[net_index]
            audited["global"] += entry is not None and recorded(
                state, state._vertical_releases, entry
            ) != 0
            return audit_global(state, net_index)

        def spy_detail(state, channel):
            releases = state._channel_releases[channel]
            audited["detail"] += any(
                recorded(state, releases, fails[channel])
                for fails in state._detail_fail if channel in fails
            )
            return audit_detail(state, channel)

        monkeypatch.setattr(RoutingState, "audit_global_cache", spy_global)
        monkeypatch.setattr(
            RoutingState, "audit_negative_caches", spy_detail
        )
        netlist = tiny(seed=4, num_cells=32, depth=4)
        arch = architecture_for(netlist, tracks=7, vtracks=2)
        plain = SimultaneousAnnealer(netlist, arch, micro_config()).run()
        sanitized = SimultaneousAnnealer(
            netlist, arch, micro_config(sanitize=True, trace=True)
        ).run()
        assert comparable_metrics(plain) == comparable_metrics(sanitized)
        counters = sanitized.trace.of_type("run_end")[0]["metrics_snapshot"][
            "counters"
        ]
        for name in ("repair.global_fail", "repair.detail_fail",
                     "cache.global_hit", "cache.detail_hit"):
            assert counters.get(name, 0) > 0, name
        assert audited["global"] > 0 and audited["detail"] > 0, audited

    def test_probe_has_no_side_effects(self, ctx):
        state = ctx.state
        before = layout_digest(ctx)
        for channel in range(state.fabric.num_channels):
            state.audit_negative_caches(channel)
        for net_index in range(len(state.routes)):
            state.audit_global_cache(net_index)
        assert layout_digest(ctx) == before


# ----------------------------------------------------------------------
# layout_digest
# ----------------------------------------------------------------------
class TestLayoutDigest:
    def test_stable_across_apply_plus_rollback(self, ctx, rng):
        generator = MoveGenerator(ctx.placement, rng)
        before = layout_digest(ctx)
        for _ in range(10):
            move = generator.propose()
            if move is None:
                continue
            record = apply_move(ctx, move)
            rollback(ctx, record)
        assert layout_digest(ctx) == before

    def test_changes_when_a_move_commits(self, ctx, rng):
        generator = MoveGenerator(ctx.placement, rng, pinmap_probability=0.0)
        before = layout_digest(ctx)
        move = None
        while move is None:
            move = generator.propose()
        apply_move(ctx, move)
        assert layout_digest(ctx)["placement"] != before["placement"]

    def test_has_all_semantic_components(self, ctx):
        digest = layout_digest(ctx)
        assert set(digest) == {"placement", "routing", "unrouted", "timing"}


# ----------------------------------------------------------------------
# MoveSanitizer + SanitizerError
# ----------------------------------------------------------------------
class TestMoveSanitizer:
    def test_check_initial_passes_on_fresh_layout(self, ctx):
        MoveSanitizer().check_initial(ctx)

    def test_check_initial_raises_on_corruption(self, ctx):
        ctx.timing.arrival[0] += 5.0
        with pytest.raises(SanitizerError) as excinfo:
            MoveSanitizer().check_initial(ctx)
        assert excinfo.value.phase == "initial"
        assert excinfo.value.move is None
        assert excinfo.value.problems

    def test_incomplete_rollback_is_caught(self, ctx, rng):
        sanitizer = MoveSanitizer()
        generator = MoveGenerator(ctx.placement, rng, pinmap_probability=0.0)
        move = None
        while move is None:
            move = generator.propose()
        before = sanitizer.capture(ctx)
        apply_move(ctx, move)
        # "Forget" to roll back: the digest comparison must name the
        # un-restored component and the offending move.
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.check_rollback(ctx, move, before)
        assert excinfo.value.phase == "rollback"
        assert excinfo.value.move is move
        assert any("placement" in p for p in excinfo.value.problems)

    def test_clean_rollback_passes(self, ctx, rng):
        sanitizer = MoveSanitizer()
        generator = MoveGenerator(ctx.placement, rng)
        for _ in range(5):
            move = generator.propose()
            if move is None:
                continue
            before = sanitizer.capture(ctx)
            record = apply_move(ctx, move)
            rollback(ctx, record)
            sanitizer.check_rollback(ctx, move, before)

    def test_commit_with_corrupted_cache_raises(self, ctx, rng):
        sanitizer = MoveSanitizer()
        generator = MoveGenerator(ctx.placement, rng)
        move = None
        while move is None:
            move = generator.propose()
        apply_move(ctx, move)
        # Poison every channel's cache so the round-robin probe must hit
        # one regardless of which channel this move's counter samples.
        for channel in range(ctx.state.fabric.num_channels):
            ctx.state.note_detail_failure(0, channel, 0, 1)
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.check_commit(ctx, move)
        assert excinfo.value.phase == "commit"

    def test_check_every_thins_full_audit(self, ctx, rng):
        # With check_every=1000 the expensive audit is skipped, so a
        # timing corruption goes unnoticed at commit (the cheap probes
        # still run and stay clean).
        sanitizer = MoveSanitizer(check_every=1000)
        generator = MoveGenerator(ctx.placement, rng)
        move = None
        while move is None:
            move = generator.propose()
        apply_move(ctx, move)
        ctx.timing.arrival[0] += 5.0
        sanitizer.check_commit(ctx, move)  # no raise: audit thinned away

    def test_error_message_is_structured(self):
        err = SanitizerError("commit", "move-repr", ["a broke", "b broke"])
        assert err.phase == "commit"
        assert err.problems == ["a broke", "b broke"]
        assert "commit" in str(err) and "a broke" in str(err)

    def test_check_every_validation(self):
        with pytest.raises(ValueError):
            MoveSanitizer(check_every=0)


# ----------------------------------------------------------------------
# Config + end-to-end invisibility
# ----------------------------------------------------------------------
class TestSanitizedAnneal:
    def test_sanitize_every_validation(self):
        with pytest.raises(ValueError):
            AnnealerConfig(sanitize_every=0)

    def test_sanitized_run_is_bit_identical(self, tiny_netlist, tiny_arch):
        plain = SimultaneousAnnealer(
            tiny_netlist, tiny_arch, micro_config()
        ).run()
        sanitized = SimultaneousAnnealer(
            tiny_netlist, tiny_arch, micro_config(sanitize=True)
        ).run()
        assert comparable_metrics(plain) == comparable_metrics(sanitized)

    def test_sanitized_thinned_run_is_bit_identical(
        self, tiny_netlist, tiny_arch
    ):
        plain = SimultaneousAnnealer(
            tiny_netlist, tiny_arch, micro_config()
        ).run()
        sanitized = SimultaneousAnnealer(
            tiny_netlist, tiny_arch,
            micro_config(sanitize=True, sanitize_every=7),
        ).run()
        assert comparable_metrics(plain) == comparable_metrics(sanitized)

    def test_sanitizer_constructed_only_when_enabled(
        self, tiny_netlist, tiny_arch
    ):
        annealer = SimultaneousAnnealer(tiny_netlist, tiny_arch, micro_config())
        assert annealer.sanitizer is None
        sanitized = SimultaneousAnnealer(
            tiny_netlist, tiny_arch, micro_config(sanitize=True)
        )
        assert sanitized.sanitizer is not None
