"""Tests for the move-transaction section timers and the hot-loop fast path.

Two layers:

1. integration: a traced anneal attaches populated per-section timings
   (``AnnealResult.profile``) to its result without perturbing the
   layout or the trace, and the registry the move core is handed
   (``LayoutContext.metrics``) carries its per-move counters;
2. the golden-determinism guard — the whole point of the fast path is
   that it is *invisible*: identical seeds must give bit-identical
   metrics with the fast path on or off, and with the timers on or off.
"""

from __future__ import annotations

import json

import pytest

import repro.route.incremental as incremental
from repro.arch.channel import Channel
from repro.core import AnnealerConfig, ScheduleConfig, SimultaneousAnnealer
from repro.core.cost import CostTerms, TermAccumulator
from repro.lint.runtime import layout_digest
from repro.netlist import tiny
from repro.obs.metrics import MetricsRegistry, format_timings

from conftest import architecture_for


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


def run_anneal(**overrides):
    netlist = tiny(seed=4, num_cells=32, depth=4)
    arch = architecture_for(netlist, tracks=10, vtracks=5)
    annealer = SimultaneousAnnealer(netlist, arch, micro_config(**overrides))
    return annealer, annealer.run()


def comparable_metrics(result):
    """Result metrics minus the one legitimately nondeterministic field."""
    return {k: v for k, v in result.metrics().items() if k != "wall_time_s"}


class TestMeanTermsExactness:
    def test_mean_terms_keeps_fractional_unrouted_counts(self):
        # Regression: int() truncation of the unrouted means silently
        # biased weight recalibration (3 samples averaging 1.67 -> 1).
        acc = TermAccumulator()
        acc.add(CostTerms(1, 2, 1.0))
        acc.add(CostTerms(2, 3, 2.0))
        acc.add(CostTerms(2, 0, 3.0))
        mean = acc.mean_terms()
        assert mean.global_unrouted == pytest.approx(5 / 3)
        assert mean.detail_unrouted == pytest.approx(5 / 3)
        assert mean.worst_delay == pytest.approx(2.0)


@pytest.fixture(scope="module")
def profiled_outcome():
    return run_anneal(trace=True)


class TestProfiledAnneal:
    def test_profile_attached_and_populated(self, profiled_outcome):
        _, result = profiled_outcome
        profile = result.profile
        assert profile is not None
        for name in ("ripup", "repair", "timing", "cost"):
            assert profile["section_s"][name] > 0
            assert profile["section_calls"][name] > 0
        # Every attempted move is costed, so the cost section counts
        # the attempts; rip-up skips the moves that touch no net.
        assert profile["section_calls"]["cost"] == result.moves_attempted
        assert (profile["section_calls"]["ripup"]
                <= result.moves_attempted)

    def test_profile_off_by_default(self):
        _, result = run_anneal()
        assert result.profile is None

    def test_format_is_printable(self, profiled_outcome):
        _, result = profiled_outcome
        text = format_timings(result.profile, result.wall_time_s)
        assert "repair" in text
        assert "other" in text

    def test_trace_carries_no_timer(self, profiled_outcome):
        _, result = profiled_outcome
        text = json.dumps(result.trace.events)
        for name in ("section_s", "section_calls"):
            assert name not in text


class TestProfiler:
    """The move core's profile is the trace registry it is handed."""

    def test_counters_accumulate(self, profiled_outcome):
        annealer, result = profiled_outcome
        mx = annealer.ctx.metrics
        timed = mx.section_calls["timing"]
        # One timing update and one journal sample per move that
        # touched a net; the moves that touched none are counted apart.
        assert mx.counters["timing.updates"] == timed
        assert mx.histograms["transaction.nets_journaled"].count == timed
        assert (mx.section_calls["ripup"]
                + mx.counters.get("transaction.zero_net", 0)
                == result.moves_attempted)

    def test_maybe_profiler(self, profiled_outcome):
        plain, _ = run_anneal()
        assert plain.ctx.metrics is None
        traced, _ = profiled_outcome
        assert isinstance(traced.ctx.metrics, MetricsRegistry)


class TestGoldenDeterminism:
    """The fast path and the section timers must be invisible to results."""

    def test_fast_path_matches_exhaustive_path(self):
        ann_fast, fast = run_anneal(fast_path=True)
        ann_slow, slow = run_anneal(fast_path=False)
        assert comparable_metrics(fast) == comparable_metrics(slow)
        assert ann_fast.audit() == []
        assert ann_slow.audit() == []

    def test_profile_does_not_perturb_results(self):
        _, plain = run_anneal(trace=False)
        _, profiled = run_anneal(trace=True)
        assert profiled.profile is not None
        assert comparable_metrics(plain) == comparable_metrics(profiled)

    def test_fast_path_routing_state_consistent(self):
        annealer, result = run_anneal(fast_path=True)
        assert annealer.audit() == []
        assert result.fully_routed


def scrubbed_events(trace):
    """Trace events minus what legitimately differs by repair path: the
    ``fast_path`` flag (and the config digest over it) and the repair
    counters, since the exhaustive path makes the attempts the caches
    skip."""
    events = json.loads(json.dumps(trace.events))
    for event in events:
        if event.get("type") == "run_start":
            event["manifest"].pop("config_digest", None)
            event["manifest"]["config"].pop("fast_path", None)
        event.pop("metrics", None)
        event.pop("metrics_snapshot", None)
    return events


class TestCongestedOracle:
    """The negative caches against the exhaustive path on a fabric
    congested enough that attempts fail, hit the cache, and are re-tried
    once a column or track freed since is found free."""

    @pytest.mark.parametrize("netlist_seed", [4, 5, 6])
    @pytest.mark.parametrize("anneal_seed", [3, 7])
    def test_caches_match_exhaustive_path(
        self, monkeypatch, netlist_seed, anneal_seed
    ):
        retests = {"global": 0, "detail": 0}
        route_global = incremental.route_net_global
        free_tracks = Channel.free_tracks

        def counting_global(state, net_index, columns=None):
            retests["global"] += columns is not None
            return route_global(state, net_index, columns)

        def counting_free_tracks(channel, lo, hi, tracks):
            free = free_tracks(channel, lo, hi, tracks)
            retests["detail"] += free != 0
            return free

        monkeypatch.setattr(incremental, "route_net_global", counting_global)
        monkeypatch.setattr(Channel, "free_tracks", counting_free_tracks)

        def anneal(fast_path):
            netlist = tiny(seed=netlist_seed, num_cells=32, depth=4)
            arch = architecture_for(netlist, tracks=7, vtracks=2)
            annealer = SimultaneousAnnealer(
                netlist, arch,
                micro_config(seed=anneal_seed, fast_path=fast_path,
                             greedy_rounds=1, trace=True),
            )
            result = annealer.run()
            assert annealer.audit() == []
            return result

        fast = anneal(True)
        counters = fast.trace.of_type("run_end")[0]["metrics_snapshot"][
            "counters"
        ]
        for name in ("repair.global_fail", "repair.detail_fail",
                     "cache.global_hit", "cache.detail_hit"):
            assert counters.get(name, 0) > 0, name
        assert retests["global"] > 0 and retests["detail"] > 0

        slow = anneal(False)
        assert comparable_metrics(fast) == comparable_metrics(slow)
        assert fast.terms == slow.terms
        assert layout_digest(fast) == layout_digest(slow)
        assert scrubbed_events(fast.trace) == scrubbed_events(slow.trace)
