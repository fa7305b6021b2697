"""Tests for the repro.obs observability layer.

Four layers:

1. unit tests of the metrics registry and tracer accumulators;
2. schema stability — the golden descriptor file pins the event
   vocabulary so any change forces an explicit version decision;
3. integration: a traced anneal attaches a structurally valid trace
   whose recorded series reconstruct the run's final cost bit-exactly,
   without perturbing the run (the determinism contract);
4. the trace CLI (summary / diff / validate) end to end on real traces.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import pytest

from repro.core import AnnealerConfig, ScheduleConfig, SimultaneousAnnealer
from repro.flows import fast_sequential_config, run_sequential
from repro.lint.runtime import MoveSanitizer, SanitizerError
from repro.netlist import tiny
from repro.obs import (
    HISTOGRAM_BOUNDS,
    Histogram,
    Instrumentation,
    MetricsRegistry,
    RunTrace,
    TRACE_SCHEMA_VERSION,
    Tracer,
    counter_delta,
    maybe_metrics,
    maybe_tracer,
    read_trace,
    reconstructed_cost,
    schema_descriptor,
    validate_events,
)
from repro.obs.cli import main as trace_main
from repro.obs.metrics import format_timings

from conftest import architecture_for

GOLDEN_SCHEMA = Path(__file__).parent / "data" / "trace_schema_v2.json"


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


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        mx = MetricsRegistry()
        mx.count("repair.detail_ok")
        mx.count("repair.detail_ok", 4)
        mx.count("cache.global_hit", 2)
        assert mx.counters == {"repair.detail_ok": 5, "cache.global_hit": 2}

    def test_gauge_last_write_wins(self):
        mx = MetricsRegistry()
        mx.gauge("window", 4)
        mx.gauge("window", 2.5)
        assert mx.gauges == {"window": 2.5}

    def test_snapshot_is_a_copy(self):
        mx = MetricsRegistry()
        mx.count("moves")
        snap = mx.snapshot()
        mx.count("moves", 9)
        assert snap["counters"] == {"moves": 1}
        assert mx.snapshot()["counters"] == {"moves": 10}

    def test_counter_delta_reports_only_movement(self):
        mx = MetricsRegistry()
        mx.count("steady", 5)
        before = mx.snapshot()
        mx.count("busy", 3)
        delta = counter_delta(before, mx.snapshot())
        assert delta == {"busy": 3}

    def test_maybe_metrics(self):
        assert maybe_metrics(False) is None
        assert isinstance(maybe_metrics(True), MetricsRegistry)

    def test_add_time_accumulates_and_counts_calls(self):
        mx = MetricsRegistry()
        mx.add_time("repair", 0.5)
        mx.add_time("repair", 0.25)
        mx.add_time("timing", 1.0)
        assert mx.section_s["repair"] == pytest.approx(0.75)
        assert mx.section_calls == {"repair": 2, "timing": 1}

    def test_timings_is_a_copy(self):
        mx = MetricsRegistry()
        mx.add_time("repair", 2.0)
        timings = mx.timings()
        mx.add_time("repair", 1.0)  # must not leak into the copy
        assert timings == {"section_s": {"repair": 2.0},
                           "section_calls": {"repair": 1}}

    def test_timings_are_volatile_and_json_ready(self):
        # Section seconds are wall-clock telemetry: they must never
        # reach a snapshot, or trace events would differ between hosts.
        mx = MetricsRegistry()
        mx.count("moves")
        before = mx.snapshot()
        mx.add_time("ripup", 0.125)
        assert mx.snapshot() == before
        assert json.loads(json.dumps(mx.timings())) == mx.timings()

    def test_format_timings_lists_sections_slowest_first(self):
        timings = {
            "section_s": {"ripup": 0.1, "repair": 0.5, "timing": 0.3},
            "section_calls": {"ripup": 4, "repair": 4, "timing": 4},
        }
        text = format_timings(timings, wall_time_s=1.0)
        rows = [line.split(":")[0].strip() for line in text.splitlines()[1:]]
        assert rows == ["repair", "timing", "ripup", "other"]
        assert "50.0%" in text and "over 4 calls" in text

    def test_format_timings_zero_wall_time_is_safe(self):
        text = format_timings({"section_s": {}, "section_calls": {}}, 0.0)
        assert "other" in text


class TestHistogram:
    def test_bucketing_and_mean(self):
        h = Histogram()
        h.observe(1)
        h.observe(2)
        h.observe(3)
        assert h.count == 3
        assert h.mean == pytest.approx(2.0)
        # 1 -> bound 1 (index 0), 2 -> bound 2 (index 1), 3 -> bound 4.
        assert h.buckets[0] == 1
        assert h.buckets[1] == 1
        assert h.buckets[2] == 1

    def test_overflow_bucket(self):
        h = Histogram()
        h.observe(HISTOGRAM_BOUNDS[-1] + 1)
        assert h.buckets[-1] == 1

    def test_empty_mean_is_zero(self):
        assert Histogram().mean == 0.0

    def test_quantile_returns_bucket_bounds(self):
        h = Histogram()
        for value in (1, 2, 3, 4):
            h.observe(value)
        # 3 and 4 share the (2, 4] bucket, so quantiles snap to its
        # upper bound: a conservative, rounded-up estimate.
        assert h.quantile(0.0) == 1.0
        assert h.quantile(0.25) == 1.0
        assert h.quantile(0.5) == 2.0
        assert h.quantile(0.75) == 4.0
        assert h.quantile(1.0) == 4.0

    def test_quantile_overflow_is_inf(self):
        h = Histogram()
        h.observe(HISTOGRAM_BOUNDS[-1] + 1)
        assert h.quantile(0.5) == math.inf

    def test_quantile_empty_is_zero(self):
        assert Histogram().quantile(0.9) == 0.0

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)
        with pytest.raises(ValueError):
            Histogram().quantile(-0.1)

    def test_summary_is_json_ready(self):
        h = Histogram()
        for value in (1, 2, 3, 4):
            h.observe(value)
        summary = h.summary()
        assert summary == json.loads(json.dumps(summary))
        assert summary["count"] == 4
        assert summary["sum"] == pytest.approx(10.0)
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["p50"] == 2.0
        assert summary["p90"] == 4.0
        assert summary["p99"] == 4.0

    def test_summary_of_empty_histogram(self):
        summary = Histogram().summary()
        assert summary["count"] == 0
        assert summary["p50"] == 0.0
        assert summary["p99"] == 0.0

    def test_summary_with_overflow_is_strict_json(self):
        # Overflow quantiles are +inf in Python; the JSON summary maps
        # them to null so the output never carries the non-standard
        # ``Infinity`` token that strict parsers reject.
        h = Histogram()
        h.observe(HISTOGRAM_BOUNDS[-1] + 1)
        summary = h.summary()
        assert summary["p50"] is None
        assert summary["p90"] is None
        assert summary["p99"] is None
        text = json.dumps(summary, allow_nan=False)  # must not raise
        assert "Infinity" not in text
        assert json.loads(text) == summary

    def test_summary_mixed_overflow_keeps_finite_quantiles(self):
        h = Histogram()
        for _ in range(9):
            h.observe(1)
        h.observe(HISTOGRAM_BOUNDS[-1] + 1)
        summary = h.summary()
        assert summary["p50"] == 1.0
        assert summary["p99"] is None
        json.dumps(summary, allow_nan=False)

    def test_registry_observe_round_trips_as_dict(self):
        mx = MetricsRegistry()
        mx.observe("transaction.nets_journaled", 3)
        mx.observe("transaction.nets_journaled", 5)
        snap = mx.snapshot()["histograms"]["transaction.nets_journaled"]
        assert snap["count"] == 2
        assert snap["mean"] == pytest.approx(4.0)


class TestTracer:
    def test_maybe_tracer(self):
        assert maybe_tracer(False) is None
        assert isinstance(maybe_tracer(True), Tracer)

    def test_stage_attaches_and_resets_move_tallies(self):
        tracer = Tracer()
        tracer.count_move("swap", True)
        tracer.count_move("swap", False)
        tracer.count_move("pinmap", True)
        tracer.stage(index=0, temperature=1.0, attempts=3, accepted=2,
                     acceptance=2 / 3)
        tracer.stage(index=1, temperature=0.5, attempts=0, accepted=0,
                     acceptance=0.0)
        first, second = tracer.events
        assert first["moves"] == {
            "pinmap": {"accepted": 1, "rejected": 0},
            "swap": {"accepted": 1, "rejected": 1},
        }
        assert "moves" not in second

    def test_stage_attaches_metric_deltas(self):
        tracer = Tracer()
        tracer.metrics.count("repair.detail_ok", 2)
        tracer.stage(index=0, temperature=1.0, attempts=1, accepted=1,
                     acceptance=1.0)
        tracer.metrics.count("repair.detail_ok", 5)
        tracer.stage(index=1, temperature=0.5, attempts=1, accepted=0,
                     acceptance=0.0)
        assert tracer.events[0]["metrics"] == {"repair.detail_ok": 2}
        assert tracer.events[1]["metrics"] == {"repair.detail_ok": 5}

    def test_run_end_carries_full_metrics_snapshot(self):
        tracer = Tracer()
        tracer.metrics.count("timing.updates", 7)
        tracer.run_end(moves_attempted=1, moves_accepted=1, temperatures=1)
        snap = tracer.events[-1]["metrics_snapshot"]
        assert snap["counters"] == {"timing.updates": 7}

    def test_finish_freezes_events(self):
        tracer = Tracer()
        tracer.emit("note", message="hello")
        trace = tracer.finish()
        tracer.emit("note", message="late")
        assert len(trace.events) == 1

    def test_instrumentation_from_config(self):
        inst = Instrumentation.from_config(
            micro_config(trace=True, sanitize=True)
        )
        assert isinstance(inst.tracer, Tracer)
        assert isinstance(inst.sanitizer, MoveSanitizer)
        assert inst.metrics is inst.tracer.metrics

    def test_instrumentation_all_off_by_default(self):
        inst = Instrumentation.from_config(micro_config())
        assert inst.tracer is None
        assert inst.sanitizer is None
        assert inst.metrics is None


def valid_events():
    return [
        {"type": "run_start", "schema_version": TRACE_SCHEMA_VERSION,
         "manifest": {"seed": 1}},
        {"type": "stage", "index": 0, "temperature": 1.0, "attempts": 4,
         "accepted": 2, "acceptance": 0.5},
        {"type": "run_end", "moves_attempted": 4, "moves_accepted": 2,
         "temperatures": 1},
    ]


class TestValidation:
    def test_valid_stream_passes(self):
        assert validate_events(valid_events()) == []

    def test_must_open_with_run_start(self):
        problems = validate_events(valid_events()[1:])
        assert any("must open with run_start" in p for p in problems)

    def test_unsupported_schema_version(self):
        events = valid_events()
        events[0]["schema_version"] = 999
        problems = validate_events(events)
        assert any("unsupported schema_version" in p for p in problems)

    def test_unknown_event_type(self):
        events = valid_events() + [{"type": "mystery"}]
        problems = validate_events(events)
        assert any("unknown event type 'mystery'" in p for p in problems)

    def test_missing_required_field(self):
        events = valid_events()
        del events[1]["acceptance"]
        problems = validate_events(events)
        assert any("missing required field 'acceptance'" in p
                   for p in problems)

    def test_empty_trace_invalid(self):
        assert validate_events([]) == ["trace is empty (no events)"]

    def test_snapshot_event_in_vocabulary(self):
        events = valid_events()
        events.insert(2, {"type": "snapshot", "snapshot": {}, "stage": 0})
        assert validate_events(events) == []

    def test_snapshot_event_requires_payload(self):
        events = valid_events()
        events.insert(2, {"type": "snapshot", "stage": 0})
        problems = validate_events(events)
        assert any("missing required field 'snapshot'" in p
                   for p in problems)

    def test_golden_schema_descriptor(self):
        """Any vocabulary change must be an explicit versioning decision.

        If this fails because you *intentionally* changed the schema,
        bump TRACE_SCHEMA_VERSION and regenerate the golden file (see
        docs/OBSERVABILITY.md).
        """
        golden = json.loads(GOLDEN_SCHEMA.read_text(encoding="utf-8"))
        assert schema_descriptor() == golden


@pytest.fixture(scope="module")
def traced_outcome():
    return run_anneal(trace=True)


class TestTracedAnneal:
    def test_trace_attached_and_structurally_valid(self, traced_outcome):
        _, result = traced_outcome
        trace = result.trace
        assert trace is not None
        assert trace.validate() == []
        assert trace.events[0]["type"] == "run_start"
        assert trace.events[-1]["type"] == "run_end"
        assert trace.schema_version == TRACE_SCHEMA_VERSION

    def test_trace_off_by_default(self):
        _, result = run_anneal()
        assert result.trace is None

    def test_manifest_identifies_the_run(self, traced_outcome):
        _, result = traced_outcome
        manifest = result.trace.manifest
        assert manifest["seed"] == 3
        assert manifest["flow"] == "simultaneous"
        assert manifest["netlist"]["name"].startswith("tiny")
        assert len(manifest["config_digest"]) == 16
        assert manifest["config"]["attempts_per_cell"] == 3

    def test_one_stage_event_per_temperature(self, traced_outcome):
        _, result = traced_outcome
        trace = result.trace
        assert len(trace.stages) == result.temperatures
        assert [s["index"] for s in trace.stages] == list(
            range(result.temperatures)
        )

    def test_stage_series_track_the_run(self, traced_outcome):
        _, result = traced_outcome
        trace = result.trace
        temps = trace.series("temperature")
        assert temps == sorted(temps, reverse=True)
        # Stage + greedy attempts account for the run minus the initial
        # temperature-setting walk (which precedes the first stage).
        attempts = trace.series("attempts")
        greedy = trace.of_type("greedy")
        staged = sum(attempts) + sum(g["attempts"] for g in greedy)
        assert 0 < staged <= result.moves_attempted
        assert all(0.0 <= a <= 1.0 for a in trace.series("acceptance"))

    def test_final_cost_reconstructs_bit_exactly(self, traced_outcome):
        """The acceptance criterion: recorded G/D/T and Wg/Wd/Wt must
        rebuild the exact final scalar cost the annealer computed."""
        _, result = traced_outcome
        end = result.trace.run_end
        assert reconstructed_cost(end) == end["final_cost"]
        last_stage = result.trace.stages[-1]
        assert last_stage["weights"] == end["weights"]

    def test_traced_run_is_bit_identical_to_untraced(self):
        _, plain = run_anneal(trace=False)
        _, traced = run_anneal(trace=True)
        assert comparable_metrics(plain) == comparable_metrics(traced)

    def test_all_three_instruments_compose_without_perturbing(self):
        _, plain = run_anneal()
        _, instrumented = run_anneal(trace=True, sanitize=True,
                                     snapshot_every=2)
        assert comparable_metrics(plain) == comparable_metrics(instrumented)
        assert instrumented.trace is not None
        assert instrumented.profile is not None

    def test_stage_metrics_expose_repair_counters(self, traced_outcome):
        _, result = traced_outcome
        merged: dict[str, int] = {}
        for stage in result.trace.stages:
            for name, value in stage.get("metrics", {}).items():
                merged[name] = merged.get(name, 0) + value
        assert merged.get("repair.detail_ok", 0) > 0
        assert merged.get("timing.updates", 0) > 0
        # The final snapshot covers everything, including the greedy
        # cleanup that runs after the last stage boundary.
        end_counters = result.trace.run_end["metrics_snapshot"]["counters"]
        for name, value in merged.items():
            assert end_counters[name] >= value

    def test_jsonl_round_trip(self, traced_outcome, tmp_path):
        _, result = traced_outcome
        path = tmp_path / "run.jsonl"
        result.trace.write_jsonl(path)
        loaded = read_trace(path)
        assert loaded.events == result.trace.events
        assert loaded.validate() == []

    def test_read_trace_rejects_malformed_jsonl(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "run_start"\nnot json\n', encoding="utf-8")
        with pytest.raises(ValueError, match="malformed JSONL"):
            read_trace(path)


class TestSanitizerViolationEvent:
    def test_violation_traced_before_raise(self, monkeypatch):
        def boom(self, ctx, move):
            raise SanitizerError("commit", move, ["injected for test"])

        monkeypatch.setattr(MoveSanitizer, "check_commit", boom)
        netlist = tiny(seed=4, num_cells=32, depth=4)
        arch = architecture_for(netlist, tracks=10, vtracks=5)
        annealer = SimultaneousAnnealer(
            netlist, arch, micro_config(trace=True, sanitize=True)
        )
        with pytest.raises(SanitizerError):
            annealer.run()
        violations = [e for e in annealer.tracer.events
                      if e["type"] == "sanitizer_violation"]
        assert violations, "violation must be traced before the raise"
        assert violations[0]["phase"] == "commit"
        assert violations[0]["problems"] == ["injected for test"]


class TestSequentialTrace:
    def test_sequential_flow_emits_cost_only_stages(self):
        netlist = tiny(seed=4, num_cells=32, depth=4)
        arch = architecture_for(netlist, tracks=10, vtracks=5)
        config = dataclasses.replace(
            fast_sequential_config(seed=3), trace=True
        )
        result = run_sequential(netlist, arch, config=config)
        trace = result.extra["trace"]
        assert isinstance(trace, RunTrace)
        assert trace.validate() == []
        assert trace.manifest["flow"] == "sequential"
        stages = trace.stages
        assert stages
        assert all("cost" in s and "terms" not in s for s in stages)
        assert trace.run_end is not None


class TestSparkline:
    def test_short_series_passes_through(self):
        from repro.obs.summary import sparkline

        assert len(sparkline([1.0, 2.0, 3.0], width=60)) == 3
        assert sparkline([], width=60) == ""

    def test_single_value_renders_flat(self):
        from repro.obs.summary import sparkline

        line = sparkline([5.0], width=60)
        assert len(line) == 1

    def test_constant_series_renders_flat_at_lowest_level(self):
        from repro.obs.summary import sparkline

        line = sparkline([7.0] * 10, width=60)
        assert len(line) == 10
        assert len(set(line)) == 1

    def test_bucketing_covers_every_sample(self):
        from repro.obs.summary import sparkline

        # 119 samples over 60 buckets: len % width != 0, which the old
        # float-stepped bucketing mishandled by dropping the tail.  A
        # spike placed in the final sample must survive downsampling.
        values = [0.0] * 118 + [100.0]
        line = sparkline(values, width=60)
        assert len(line) == 60
        assert line[-1] != line[0]

    def test_bucketing_is_width_sized_for_any_length(self):
        from repro.obs.summary import sparkline

        for n in (61, 100, 119, 120, 121, 600, 601):
            line = sparkline([float(i) for i in range(n)], width=60)
            assert len(line) == 60, n


class TestTraceCli:
    @pytest.fixture(scope="class")
    def trace_paths(self, tmp_path_factory):
        """Two real traces from different seeds, written as JSONL."""
        root = tmp_path_factory.mktemp("traces")
        paths = []
        for seed in (3, 5):
            _, result = (lambda s: run_anneal(trace=True, seed=s))(seed)
            path = root / f"seed{seed}.jsonl"
            result.trace.write_jsonl(path)
            paths.append(str(path))
        return paths

    def test_summary(self, trace_paths, capsys):
        assert trace_main(["summary", trace_paths[0]]) == 0
        out = capsys.readouterr().out
        assert "temperature" in out
        assert "acceptance" in out
        assert "cost reconstruction: recorded" in out
        assert "[ok]" in out

    def test_diff_flags_divergence(self, trace_paths, capsys):
        assert trace_main(["diff", *trace_paths]) == 0
        out = capsys.readouterr().out
        assert "seed" in out
        assert "divergence" in out

    def test_diff_of_identical_traces_is_quiet(self, trace_paths, capsys):
        assert trace_main(["diff", trace_paths[0], trace_paths[0]]) == 0
        out = capsys.readouterr().out
        assert "manifest: identical" in out
        assert "dynamics: identical across all" in out

    def test_validate_ok(self, trace_paths, capsys):
        assert trace_main(["validate", trace_paths[0]]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_rejects_schema_violation(self, trace_paths, tmp_path,
                                               capsys):
        trace = read_trace(trace_paths[0])
        del trace.events[0]["schema_version"]
        bad = tmp_path / "bad.jsonl"
        trace.write_jsonl(bad)
        with pytest.raises(SystemExit) as excinfo:
            trace_main(["validate", str(bad)])
        assert excinfo.value.code == 1

    def test_validate_rejects_cost_mismatch(self, trace_paths, tmp_path,
                                            capsys):
        trace = read_trace(trace_paths[0])
        trace.run_end["final_cost"] += 1.0
        bad = tmp_path / "tampered.jsonl"
        trace.write_jsonl(bad)
        assert trace_main(["validate", str(bad)]) == 1
        assert "mismatch" in capsys.readouterr().err

    def test_missing_file_is_an_error(self, capsys):
        assert trace_main(["summary", "/nonexistent/trace.jsonl"]) == 2


class TestTraceDiffEdgeCases:
    """diff must not crash on degenerate but schema-valid traces."""

    @staticmethod
    def _write(tmp_path, name, events):
        trace = RunTrace(events=events)
        assert trace.validate() == []
        path = tmp_path / name
        trace.write_jsonl(path)
        return str(path)

    def test_diff_of_stageless_traces(self, tmp_path, capsys):
        events = [
            {"type": "run_start", "schema_version": TRACE_SCHEMA_VERSION,
             "manifest": {"seed": 1}},
            {"type": "run_end", "moves_attempted": 0, "moves_accepted": 0,
             "temperatures": 0},
        ]
        path = self._write(tmp_path, "empty.jsonl", events)
        assert trace_main(["diff", path, path]) == 0
        out = capsys.readouterr().out
        assert "manifest: identical" in out
        assert "divergence" not in out

    def test_diff_of_single_stage_traces(self, tmp_path, capsys):
        def events(cost):
            return [
                {"type": "run_start",
                 "schema_version": TRACE_SCHEMA_VERSION,
                 "manifest": {"seed": 1}},
                {"type": "stage", "index": 0, "temperature": 1.0,
                 "attempts": 4, "accepted": 2, "acceptance": 0.5,
                 "cost": cost},
                {"type": "run_end", "moves_attempted": 4,
                 "moves_accepted": 2, "temperatures": 1},
            ]

        a = self._write(tmp_path, "a.jsonl", events(10.0))
        b = self._write(tmp_path, "b.jsonl", events(11.0))
        assert trace_main(["diff", a, a]) == 0
        assert "identical across all 1 shared stages" in (
            capsys.readouterr().out
        )
        assert trace_main(["diff", a, b]) == 0
        assert "first divergence at stage 0" in capsys.readouterr().out

    def test_diff_of_mismatched_stage_counts(self, tmp_path, capsys):
        base = [
            {"type": "run_start", "schema_version": TRACE_SCHEMA_VERSION,
             "manifest": {"seed": 1}},
            {"type": "stage", "index": 0, "temperature": 1.0,
             "attempts": 4, "accepted": 2, "acceptance": 0.5},
        ]
        a = self._write(tmp_path, "one.jsonl", base + [
            {"type": "run_end", "moves_attempted": 4, "moves_accepted": 2,
             "temperatures": 1},
        ])
        b = self._write(tmp_path, "two.jsonl", base + [
            {"type": "stage", "index": 1, "temperature": 0.9,
             "attempts": 4, "accepted": 1, "acceptance": 0.25},
            {"type": "run_end", "moves_attempted": 8, "moves_accepted": 3,
             "temperatures": 2},
        ])
        assert trace_main(["diff", a, b]) == 0
        assert "stage count differs: 1 vs 2" in capsys.readouterr().out


class TestValidateSnapshotEvents:
    """trace validate deep-checks in-trace snapshot payloads."""

    @pytest.fixture(scope="class")
    def snapshot_trace(self, tmp_path_factory):
        _, result = run_anneal(trace=True, snapshot_every=3)
        path = tmp_path_factory.mktemp("snaptrace") / "run.jsonl"
        result.trace.write_jsonl(path)
        return str(path)

    def test_validate_deep_checks_snapshots(self, snapshot_trace, capsys):
        assert trace_main(["validate", snapshot_trace]) == 0
        out = capsys.readouterr().out
        assert "snapshot events deep-checked" in out
        assert "ok" in out

    def test_validate_rejects_tampered_snapshot(self, snapshot_trace,
                                                tmp_path, capsys):
        trace = read_trace(snapshot_trace)
        event = trace.of_type("snapshot")[0]
        event["snapshot"]["timing"]["T"] += 1.0
        bad = tmp_path / "tampered.jsonl"
        trace.write_jsonl(bad)
        assert trace_main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "snapshot event 0" in err
        assert "re-sum" in err

    def test_validate_rejects_snapshot_missing_payload_fields(
            self, snapshot_trace, tmp_path, capsys):
        trace = read_trace(snapshot_trace)
        event = trace.of_type("snapshot")[0]
        del event["snapshot"]["channels"]
        bad = tmp_path / "clipped.jsonl"
        trace.write_jsonl(bad)
        assert trace_main(["validate", str(bad)]) == 1
        assert "missing top-level field 'channels'" in (
            capsys.readouterr().err
        )


class TestRunCliTrace:
    @pytest.fixture(autouse=True)
    def small_benchmark(self, monkeypatch):
        from repro import cli

        monkeypatch.setattr(
            cli, "paper_benchmark", lambda name: tiny(seed=3, num_cells=30)
        )

    def test_run_writes_trace_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "run.jsonl"
        code = main(
            ["run", "s1", "--tracks", "12", "--effort", "fast",
             "--trace", str(path)]
        )
        assert code == 0
        trace = read_trace(path)
        assert trace.validate() == []
        assert trace.stages
        assert "trace:" in capsys.readouterr().err

    def test_trace_subcommand_delegates(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "run.jsonl"
        main(["run", "s1", "--tracks", "12", "--trace", str(path)])
        capsys.readouterr()
        assert main(["trace", "validate", str(path)]) == 0
        assert "ok" in capsys.readouterr().out
