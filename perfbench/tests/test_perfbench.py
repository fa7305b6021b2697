"""Self-tests of the benchmark: tracing, flow runners and BENCHMARK.json.

Run from the root of the checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro import architecture_for  # noqa: E402
from repro.core import AnnealerConfig, ScheduleConfig, SimultaneousAnnealer  # noqa: E402
from repro.flows import run_sequential, run_simultaneous  # noqa: E402
from repro.netlist import tiny  # noqa: E402

TINY_TRACKS = 5


def _tiny_design(seed: int) -> list[workloads.Design]:
    return [workloads.Design(
        "tiny", lambda: tiny(seed=4, num_cells=32, depth=4), TINY_TRACKS
    )]


def _tiny_config(seed: int, trace: bool = False) -> AnnealerConfig:
    return AnnealerConfig(
        seed=seed, attempts_per_cell=3, initial="clustered", greedy_rounds=1,
        trace=trace,
        schedule=ScheduleConfig(lambda_=2.0, max_temperatures=4, freeze_patience=2),
    )


TINY = workloads.Workload("tiny", "simultaneous", _tiny_design, _tiny_config)
TINY_SEQ = workloads.Workload(
    "tiny_seq", "sequential", _tiny_design,
    lambda seed: workloads.fast_sequential_config(seed),
)


#: Every span the anneal opens: their self times plus ``core.other_s``
#: make up the anneal.
ANNEAL_LAYERS = (
    "core.apply_move", "core.rollback", "core.cost", "route.ripup",
    "route.repair", "route.global", "route.detail", "timing.update",
    "timing.restore",
)


def _traced(workload, seed=3):
    recorder = spans.SpanRecorder()
    flow = workloads.run_flow(workload, seed, recorder)
    return recorder, flow


def test_layer_self_times_sum_to_the_anneal():
    recorder, flow = _traced(TINY)
    metrics = spans.layer_metrics(
        recorder, flow.moves_attempted, flow.moves_accepted
    )
    parts = sum(
        metrics[key] for key, name in spans.SELF_TIME_METRICS.items()
        if name in ANNEAL_LAYERS
    )
    assert metrics["core.anneal_s"] > 0
    assert math.isclose(
        parts + metrics["core.other_s"], metrics["core.anneal_s"], rel_tol=1e-9
    )
    assert metrics["core.moves_attempted"] == flow.moves_attempted
    assert metrics["route.repair_calls"] + metrics["core.zero_net_moves"] \
        == flow.moves_attempted


def test_wrappers_are_removed_and_runs_stay_bit_identical():
    originals = {
        (owner, attr): owner.__dict__[attr]
        for owner, attr, _ in spans._patches(spans.SpanRecorder())
    }
    plain = workloads.run_flow(TINY, 3)
    recorder, traced = _traced(TINY)
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original, f"{owner}.{attr} still wrapped"
    after = workloads.run_flow(TINY, 3)
    assert len(recorder) > 0
    assert not plain.problems and not traced.problems
    assert traced.fingerprint == plain.fingerprint == after.fingerprint
    assert traced.moves_accepted == plain.moves_accepted == after.moves_accepted


def test_outside_in_counts_equal_the_programs_registry():
    netlist = _tiny_design(3)[0].build()
    recorder = spans.SpanRecorder()
    # Two vertical tracks per column: narrow enough that global repairs
    # fail and the global negative cache gets hits.
    architecture = architecture_for(
        netlist, tracks_per_channel=TINY_TRACKS, vtracks_per_column=2
    )
    with spans.installed(recorder):
        annealer = SimultaneousAnnealer(
            netlist, architecture, _tiny_config(3, trace=True)
        )
        annealer.run()
    counters = annealer.instrumentation.metrics.snapshot()["counters"]
    pairs = {
        "route.global_ok": "repair.global_ok",
        "route.global_fail": "repair.global_fail",
        "route.global_cache_hits": "cache.global_hit",
        "route.detail_ok": "repair.detail_ok",
        "route.detail_fail": "repair.detail_fail",
        "route.detail_cache_hits": "cache.detail_hit",
        "core.zero_net_moves": "transaction.zero_net",
    }
    for ours, theirs in pairs.items():
        assert recorder.total(ours) == counters.get(theirs, 0), ours
    for key in pairs:
        if key != "core.zero_net_moves":
            assert recorder.total(key) > 0, key


def test_simultaneous_runner_matches_run_simultaneous():
    flow = workloads.run_flow(TINY, 3)
    netlist = _tiny_design(3)[0].build()
    result = run_simultaneous(
        netlist, architecture_for(netlist, tracks_per_channel=TINY_TRACKS),
        _tiny_config(3),
    )
    assert flow.moves_attempted == result.extra["moves_attempted"]
    assert flow.worst_delay_ns == result.timing.worst_delay
    assert flow.routed_frac == result.state.fully_routed_fraction()


def test_sequential_runner_matches_run_sequential():
    flow = workloads.run_flow(TINY_SEQ, 3)
    netlist = _tiny_design(3)[0].build()
    config = workloads.fast_sequential_config(3)
    config.trace = True
    result = run_sequential(
        netlist, architecture_for(netlist, tracks_per_channel=TINY_TRACKS), config
    )
    run_end = result.extra["trace"].events[-1]
    assert flow.moves_attempted == run_end["moves_attempted"]
    assert flow.worst_delay_ns == result.timing.worst_delay
    assert flow.routed_frac == result.state.fully_routed_fraction()
    assert not flow.problems


def test_sequential_trace_covers_the_batch_layers():
    recorder, flow = _traced(TINY_SEQ)
    metrics = spans.layer_metrics(recorder, 0, 0)
    for key in ("place.seq_anneal_s", "route.batch_global_s",
                "route.batch_detail_s", "timing.sta_s", "arch.build_s"):
        assert metrics[key] > 0, key
    assert metrics["core.anneal_s"] == 0 and metrics["route.repair_calls"] == 0


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1_s1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert child.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_lists_every_metric(trace, monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "measure_setup", lambda name, seed: [0.5])
    assert run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    table = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == {k: unit for k, (unit, _) in table.items()}
