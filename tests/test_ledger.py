"""Tests for the run ledger and the cross-run analytics stack.

Five layers:

1. unit tests of record construction and the identity digest (volatile
   wall-clock telemetry stays outside identity);
2. persistence: atomic appends, tolerant reads of torn final lines,
   hard failures on mid-file corruption (damage injected with the
   resilience fault harness);
3. selection/aggregation/regression gates over record slices;
4. integration with the flows: ``record_from_result`` on real runs,
   and the determinism contract — identical runs collide on identity,
   and recording never perturbs the anneal;
5. the ``repro-fpga runs`` CLI end to end: typed exit codes, empty /
   missing / torn ledgers, and the golden byte-identical HTML
   observatory against the committed fixtures.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro import architecture_for
from repro.core import AnnealerConfig, ScheduleConfig
from repro.flows import run_simultaneous
from repro.netlist import tiny
from repro.obs.cli import (
    RUNS_EXIT_LEDGER,
    RUNS_EXIT_NO_DATA,
    RUNS_EXIT_OK,
    RUNS_EXIT_REGRESSION,
    RUNS_EXIT_USAGE,
    runs_main,
)
from repro.obs.ledger import (
    FAMILY_EXCLUDE,
    LEDGER_SCHEMA_VERSION,
    LedgerError,
    append_record,
    group_records,
    make_record,
    read_ledger,
    record_from_result,
    record_identity,
    regress_slices,
    resolve_artifact,
    select,
    slice_stats,
)
from repro.obs.report import render_report, svg_overlay, svg_sparkline
from repro.obs.tracer import config_digest
from repro.resilience.faults import corrupt_file, truncate_file

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "ledger_fixture.jsonl"
GOLDEN = DATA / "ledger_report_golden.html"


#: Fields older ledger records carry that new records do not write:
#: the move-core label (gone with the object-graph core; the committed
#: smoke baseline carries it) and the profile block in the deleted
#: profiling module's shape (new traced records carry only per-section
#: seconds and calls).
RETIRED_RECORD_FIELDS = {
    "core": "array",
    "profile": {
        "wall_time_s": 0.72, "moves_attempted": 1710,
        "moves_accepted": 1515, "moves_per_sec": 2361.6,
        "mean_nets_journaled": 3.1,
        "section_s": {"ripup": 0.05, "repair": 0.31, "timing": 0.18},
        "section_calls": {"ripup": 1600, "repair": 1600, "timing": 1600},
        "counters": {"moves": 1710, "moves_zero_net": 110},
    },
}


def basic_record(**overrides) -> dict:
    fields = dict(
        flow="simultaneous", design="tiny", seed=3,
        worst_delay_ns=21.5, fully_routed=True,
        config_digest="abc123", moves_attempted=1000, moves_accepted=400,
    )
    fields.update(overrides)
    return make_record(**fields)


# ----------------------------------------------------------------------
# Record construction and identity
# ----------------------------------------------------------------------
class TestRecordIdentity:
    def test_record_carries_schema_version_and_digest(self):
        record = basic_record()
        assert record["schema_version"] == LEDGER_SCHEMA_VERSION
        assert record["record_digest"] == record_identity(record)

    def test_volatile_fields_stay_outside_identity(self):
        slow = basic_record(wall_time_s=99.0, moves_per_sec=10.1,
                            normalized_score=1.0, tag="slow-host",
                            profile={"section_s": {"ripup": 9.0}},
                            artifacts={"trace": "elsewhere.jsonl"},
                            overheads={"tracing": {"overhead_frac": 0.5}})
        fast = basic_record(wall_time_s=0.1, moves_per_sec=9999.0)
        assert slow["record_digest"] == fast["record_digest"]

    def test_identity_fields_change_the_digest(self):
        base = basic_record()
        for overrides in (
            {"seed": 4}, {"worst_delay_ns": 30.0}, {"fully_routed": False},
            {"moves_attempted": 1001}, {"design": "other"},
        ):
            assert basic_record(**overrides)["record_digest"] != \
                base["record_digest"], overrides

    def test_optional_fields_omitted_not_null_padded(self):
        record = make_record(flow="bench", design="d", seed=None,
                             worst_delay_ns=1.0, fully_routed=True)
        assert "terms" not in record
        assert "wall_time_s" not in record
        assert "tag" not in record

    def test_record_json_round_trips(self):
        record = basic_record(terms={"G": 0, "D": 0, "T": 21.5})
        again = json.loads(json.dumps(record))
        assert record_identity(again) == record["record_digest"]


# ----------------------------------------------------------------------
# Persistence: atomic appends and tolerant reads
# ----------------------------------------------------------------------
class TestPersistence:
    def test_append_and_read_round_trip(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        first, second = basic_record(), basic_record(seed=4)
        append_record(path, first)
        append_record(path, second)
        ledger = read_ledger(path)
        assert ledger.records == [first, second]
        assert ledger.problems == []

    def test_missing_ledger_raises(self, tmp_path):
        with pytest.raises(LedgerError, match="no such ledger"):
            read_ledger(tmp_path / "absent.jsonl")

    def test_empty_ledger_reads_as_zero_records(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text("", encoding="utf-8")
        ledger = read_ledger(path)
        assert ledger.records == []
        assert ledger.problems == []

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        append_record(path, basic_record())
        append_record(path, basic_record(seed=4))
        truncate_file(path, keep_fraction=0.9)  # tears the last record
        ledger = read_ledger(path)
        assert len(ledger.records) == 1
        assert ledger.records[0]["seed"] == 3
        assert any("torn final" in problem for problem in ledger.problems)

    def test_interior_corruption_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        append_record(path, basic_record())
        append_record(path, basic_record(seed=4))
        # Flip a structural byte inside the FIRST record's line.
        text = path.read_text(encoding="utf-8")
        offset = text.index('"flow"')
        corrupt_file(path, offset=offset, flip=0x7B)
        with pytest.raises(LedgerError, match="corrupted ledger record"):
            read_ledger(path)

    def test_non_object_record_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('[1, 2]\n{"flow": "x"}\n', encoding="utf-8")
        with pytest.raises(LedgerError, match="not a JSON object"):
            read_ledger(path)

    def test_append_tolerates_missing_trailing_newline(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"flow": "old"}', encoding="utf-8")  # no newline
        append_record(path, basic_record())
        ledger = read_ledger(path)
        assert len(ledger.records) == 2

    def test_resolve_artifact_relative_to_ledger(self, tmp_path):
        ledger = tmp_path / "runs" / "ledger.jsonl"
        assert resolve_artifact(ledger, "t.jsonl") == ledger.parent / "t.jsonl"
        absolute = tmp_path / "abs.jsonl"
        assert resolve_artifact(ledger, str(absolute)) == absolute
        assert resolve_artifact(None, "t.jsonl") == Path("t.jsonl")


# ----------------------------------------------------------------------
# Selection, grouping, aggregation, the regression gate
# ----------------------------------------------------------------------
class TestSliceAnalytics:
    RECORDS = [
        basic_record(seed=1, worst_delay_ns=20.0, normalized_score=30.0,
                     tag="base"),
        basic_record(seed=2, worst_delay_ns=22.0, normalized_score=28.0,
                     tag="base"),
        basic_record(flow="sequential", seed=1, worst_delay_ns=29.0,
                     config_digest="def456", tag="base"),
    ]

    def test_select_filters_compose(self):
        assert len(select(self.RECORDS, flow="simultaneous")) == 2
        assert len(select(self.RECORDS, flow="simultaneous", seed=1)) == 1
        assert select(self.RECORDS, design="missing") == []
        assert len(select(self.RECORDS, tag="base")) == 3
        assert select(self.RECORDS, tag="") == []

    def test_group_records_aliases_digests(self):
        groups = group_records(self.RECORDS, "digest")
        assert set(groups) == {"abc123", "def456"}
        by_flow = group_records(self.RECORDS, "flow")
        assert [len(v) for v in by_flow.values()] == [2, 1]

    def test_group_records_missing_value_buckets_none(self):
        groups = group_records([{"flow": "x"}], "family")
        assert set(groups) == {"(none)"}

    def test_slice_stats_variance(self):
        stats = slice_stats(select(self.RECORDS, flow="simultaneous"))
        assert stats["runs"] == 2
        assert stats["seeds"] == [1, 2]
        assert stats["delay_mean"] == pytest.approx(21.0)
        assert stats["delay_stdev"] == pytest.approx(2 ** 0.5)
        assert stats["delay_min"] == 20.0
        assert stats["delay_max"] == 22.0
        assert stats["routed_fraction"] == 1.0
        assert stats["best_score"] == 30.0

    def test_regress_identical_slices_pass(self):
        rows, failures = regress_slices(self.RECORDS, self.RECORDS)
        assert failures == []
        assert all(row[-1] == "ok" for row in rows)

    def test_regress_catches_slowed_run(self):
        slowed = [dict(record) for record in self.RECORDS]
        for record in slowed:
            if record.get("normalized_score"):
                record["normalized_score"] = record["normalized_score"] / 2
        rows, failures = regress_slices(self.RECORDS, slowed)
        assert any("normalized_score regressed" in f for f in failures)

    def test_regress_catches_delay_and_routing(self):
        worse = [dict(record) for record in self.RECORDS]
        worse[0]["worst_delay_ns"] = 40.0
        worse[2]["fully_routed"] = False
        _, failures = regress_slices(self.RECORDS, worse)
        assert any("worst_delay_ns worsened" in f for f in failures)
        assert any("lost full routing" in f for f in failures)

    def test_regress_gates_overhead_ratios(self):
        candidate = [dict(record) for record in self.RECORDS]
        candidate[0]["overheads"] = {"tracing": {"overhead_frac": 0.20}}
        _, failures = regress_slices(self.RECORDS, candidate)
        assert any("tracing overhead" in f for f in failures)
        _, ok = regress_slices(self.RECORDS, self.RECORDS,
                               max_overhead=0.5)
        assert ok == []

    def test_regress_one_sided_designs_never_fail(self):
        only_base = [basic_record(design="lonely")]
        rows, failures = regress_slices(only_base, self.RECORDS)
        assert failures == []
        assert any("baseline only" in row for row in rows
                   for row in [row])

    def test_records_with_retired_core_field_read_and_regress(
        self, tmp_path
    ):
        # Old ledgers carry fields new records no longer write (every
        # entry of RETIRED_RECORD_FIELDS; the committed smoke baseline
        # already carries ``core``).  They still load, keep their
        # identity digests, slice, and gate new runs.
        committed = (Path(__file__).parents[1] / "benchmarks"
                     / "baselines" / "ledger_smoke.jsonl")
        path = tmp_path / "old.jsonl"
        for record in read_ledger(committed).records:
            for field, value in RETIRED_RECORD_FIELDS.items():
                record.setdefault(field, value)
            append_record(path, record)
        baseline = read_ledger(path).records
        assert baseline and all(
            record[field] == value for record in baseline
            for field, value in RETIRED_RECORD_FIELDS.items()
        )
        for record in baseline:
            assert record["record_digest"] == record_identity(record)
        assert select(baseline, design="smoke", flow="bench") == baseline
        candidate = make_record(
            flow="bench", design="smoke", seed=1,
            worst_delay_ns=baseline[0]["worst_delay_ns"],
            fully_routed=True,
            normalized_score=baseline[0]["normalized_score"],
        )
        assert not set(RETIRED_RECORD_FIELDS) & set(candidate)
        rows, failures = regress_slices(baseline, [candidate])
        assert failures == []
        assert rows[0][0] == "bench/smoke" and rows[0][-1] == "ok"
        slowed = dict(candidate, normalized_score=1.0)
        _, failures = regress_slices(baseline, [slowed])
        assert any("normalized_score regressed" in f for f in failures)


# ----------------------------------------------------------------------
# Flow integration and determinism
# ----------------------------------------------------------------------
def short_config(seed: int, trace: bool = False) -> AnnealerConfig:
    return AnnealerConfig(
        seed=seed, attempts_per_cell=2, initial="clustered",
        greedy_rounds=1, trace=trace,
        schedule=ScheduleConfig(lambda_=1.4, max_temperatures=6,
                                freeze_patience=2),
    )


class TestFlowIntegration:
    @pytest.fixture(scope="class")
    def flow_result(self):
        netlist = tiny(seed=9, num_cells=24, depth=3)
        arch = architecture_for(netlist, tracks_per_channel=10)
        return run_simultaneous(netlist, arch, short_config(11, trace=True))

    def test_flows_stash_identity_extras(self, flow_result):
        extra = flow_result.extra
        assert extra["seed"] == 11
        assert len(extra["config_digest"]) == 16
        assert len(extra["family_digest"]) == 16
        assert "core" not in extra
        assert extra["netlist"]["cells"] == 24

    def test_family_digest_is_seed_independent(self):
        a = config_digest(short_config(1), exclude=FAMILY_EXCLUDE)
        b = config_digest(short_config(2), exclude=FAMILY_EXCLUDE)
        assert a == b
        assert config_digest(short_config(1)) != config_digest(short_config(2))
        other = AnnealerConfig(seed=1, attempts_per_cell=9)
        assert config_digest(other, exclude=FAMILY_EXCLUDE) != a

    def test_record_from_result_fills_terms_and_cost(self, flow_result):
        record = record_from_result(flow_result, tag="t",
                                    artifacts={"trace": "x.jsonl"})
        metrics = flow_result.metrics()
        assert record["flow"] == "simultaneous"
        assert record["terms"]["T"] == metrics["worst_delay_ns"]
        assert record["final_cost"] == \
            flow_result.extra["trace"].run_end["final_cost"]
        assert record["moves_attempted"] == \
            flow_result.extra["moves_attempted"]
        assert "core" not in record
        assert record["artifacts"] == {"trace": "x.jsonl"}
        assert record["tag"] == "t"

    def test_traced_record_carries_section_profile(self, flow_result):
        # The traced run's section timings land in the volatile
        # ``profile`` block, outside the record's identity.
        record = record_from_result(flow_result)
        profile = record["profile"]
        for name in ("ripup", "repair", "timing", "cost"):
            assert profile["section_s"][name] > 0
            assert profile["section_calls"][name] > 0
        assert record["record_digest"] == record_identity(
            {k: v for k, v in record.items() if k != "profile"}
        )

    def test_identical_runs_collide_on_identity(self, flow_result):
        netlist = tiny(seed=9, num_cells=24, depth=3)
        arch = architecture_for(netlist, tracks_per_channel=10)
        again = run_simultaneous(netlist, arch, short_config(11, trace=True))
        first = record_from_result(flow_result, tag="one")
        second = record_from_result(again, tag="two")
        # Wall clock and tags differ; trajectories (and digests) must not.
        assert first["record_digest"] == second["record_digest"]

    def test_recording_never_perturbs_the_anneal(self, flow_result, tmp_path):
        netlist = tiny(seed=9, num_cells=24, depth=3)
        arch = architecture_for(netlist, tracks_per_channel=10)
        recorded = run_simultaneous(netlist, arch,
                                    short_config(11, trace=True))
        append_record(tmp_path / "ledger.jsonl",
                      record_from_result(recorded))
        baseline = {k: v for k, v in flow_result.metrics().items()
                    if k != "wall_time_s"}
        after = {k: v for k, v in recorded.metrics().items()
                 if k != "wall_time_s"}
        assert baseline == after


# ----------------------------------------------------------------------
# The runs CLI: typed exit codes and damaged ledgers
# ----------------------------------------------------------------------
class TestRunsCli:
    def test_missing_ledger_exits_4(self, tmp_path, capsys):
        code = runs_main(["list", str(tmp_path / "absent.jsonl")])
        assert code == RUNS_EXIT_LEDGER
        assert "no such ledger" in capsys.readouterr().err

    def test_corrupt_ledger_exits_4(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        append_record(path, basic_record())
        append_record(path, basic_record(seed=4))
        corrupt_file(path, offset=3, flip=0x7B)
        assert runs_main(["list", str(path)]) == RUNS_EXIT_LEDGER

    def test_torn_ledger_warns_and_lists_survivors(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        append_record(path, basic_record())
        append_record(path, basic_record(seed=4))
        truncate_file(path, keep_fraction=0.9)
        assert runs_main(["list", str(path)]) == RUNS_EXIT_OK
        out = capsys.readouterr()
        assert "torn final" in out.err
        assert "1 records" in out.out

    def test_empty_slice_exits_3(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        path.write_text("", encoding="utf-8")
        assert runs_main(["list", str(path)]) == RUNS_EXIT_NO_DATA
        append_record(path, basic_record())
        code = runs_main(["list", str(path), "--design", "nothere"])
        assert code == RUNS_EXIT_NO_DATA

    def test_show_out_of_range_exits_3(self, capsys):
        code = runs_main(["show", str(FIXTURE), "99"])
        assert code == RUNS_EXIT_NO_DATA

    def test_show_dumps_record(self, capsys):
        assert runs_main(["show", str(FIXTURE), "0"]) == RUNS_EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["flow"] == "simultaneous"
        assert record["record_digest"]

    def test_bad_usage_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runs_main(["list"])  # missing ledger argument
        assert excinfo.value.code == RUNS_EXIT_USAGE

    def test_list_and_compare_on_fixture(self, capsys):
        assert runs_main(["list", str(FIXTURE)]) == RUNS_EXIT_OK
        assert "3 records" in capsys.readouterr().out
        assert runs_main(["compare", str(FIXTURE)]) == RUNS_EXIT_OK
        out = capsys.readouterr().out
        assert "2 with traces" in out
        assert "per-seed variance" in out

    def test_regress_requires_a_baseline(self, capsys):
        code = runs_main(["regress", str(FIXTURE)])
        assert code == RUNS_EXIT_USAGE

    def test_regress_self_vs_self_passes(self, capsys):
        code = runs_main([
            "regress", str(FIXTURE), "--baseline", str(FIXTURE),
        ])
        assert code == RUNS_EXIT_OK
        assert "gate: ok" in capsys.readouterr().out

    def test_regress_catches_synthetic_slowdown(self, tmp_path, capsys):
        slowed_path = tmp_path / "slowed.jsonl"
        for record in read_ledger(FIXTURE).records:
            slowed = dict(record)
            if slowed.get("normalized_score"):
                slowed["normalized_score"] = slowed["normalized_score"] / 2
            slowed["worst_delay_ns"] = slowed["worst_delay_ns"] * 2
            append_record(slowed_path, slowed)
        code = runs_main([
            "regress", str(slowed_path), "--baseline", str(FIXTURE),
        ])
        assert code == RUNS_EXIT_REGRESSION
        assert "worst_delay_ns worsened" in capsys.readouterr().err

    def test_regress_empty_baseline_exits_3(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code = runs_main([
            "regress", str(FIXTURE), "--baseline", str(empty),
        ])
        assert code == RUNS_EXIT_NO_DATA


# ----------------------------------------------------------------------
# The HTML observatory: golden byte-identity
# ----------------------------------------------------------------------
class TestReport:
    def test_committed_fixtures_match_their_generator(self, tmp_path):
        # Regenerate every fixture into a scratch directory: generated
        # test data that drifted from its generator would pin stale
        # behaviour.
        spec = importlib.util.spec_from_file_location(
            "make_ledger_fixture", DATA / "make_ledger_fixture.py"
        )
        generator = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generator)
        generator.main(tmp_path)
        for name in generator.OUTPUTS:
            assert (tmp_path / name).read_bytes() == \
                (DATA / name).read_bytes(), (
                f"{name} is stale; regenerate with PYTHONPATH=src "
                f"python tests/data/make_ledger_fixture.py"
            )

    def test_report_matches_committed_golden(self):
        ledger = read_ledger(FIXTURE)
        from repro.obs.cli import _load_run_traces

        traces = _load_run_traces(ledger)
        assert len(traces) == 2
        html = render_report(ledger.records, traces, title="Ledger fixture")
        assert html == GOLDEN.read_text(encoding="utf-8"), (
            "observatory drifted from the golden file; if intentional, "
            "regenerate with PYTHONPATH=src python "
            "tests/data/make_ledger_fixture.py"
        )

    def test_cli_report_is_byte_identical_across_runs(self, tmp_path,
                                                      capsys):
        out_a = tmp_path / "a.html"
        out_b = tmp_path / "b.html"
        args = ["report", str(FIXTURE), "--title", "Ledger fixture"]
        assert runs_main(args + ["--out", str(out_a)]) == RUNS_EXIT_OK
        assert runs_main(args + ["--out", str(out_b)]) == RUNS_EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()
        assert out_a.read_text(encoding="utf-8") == \
            GOLDEN.read_text(encoding="utf-8")

    def test_report_degrades_without_traces(self, tmp_path):
        html = render_report([basic_record()], {}, title="No traces")
        assert "no trace" in html.lower() or "convergence" in html.lower()
        assert "NaN" not in html

    def test_report_empty_slice_exits_3(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        path.write_text("", encoding="utf-8")
        code = runs_main(["report", str(path), "--out", "-"])
        assert code == RUNS_EXIT_NO_DATA

    def test_svg_helpers_handle_degenerate_series(self):
        assert "svg" in svg_sparkline([1.0])
        assert "svg" in svg_sparkline([2.0, 2.0, 2.0])  # constant
        assert "–" in svg_sparkline([])
        empty = svg_overlay([])
        assert "no convergence data" in empty
        constant = svg_overlay([("run", 0, [0.0, 1.0], [5.0, 5.0])])
        assert "polyline" in constant and "NaN" not in constant
