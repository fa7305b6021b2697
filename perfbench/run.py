"""End-to-end and per-layer benchmark of both layout flows.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload table1_s1 --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics: cold set-up probes in
fresh interpreters, then untraced flows one after another until
``--seconds`` of flow time is spent; timings are medians over those.
``--trace 1`` runs one untraced and one traced flow and reports the
per-layer metrics.  Either way every layout is checked, a summary is
printed, a run record goes to ``.perfbench_out/``, and the last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See ``perfbench/README.md`` for the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
#: Cold set-up probes per run; set-up time is their median.
SETUP_PROBES = 3

#: name -> (unit, better)
END_TO_END = {
    "flow_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "moves_per_s": ("moves/s", "higher"),
    "worst_delay_ns": ("ns", "lower"),
    "routed_frac": ("1", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "ok_frac": ("1", "higher"),
}

_S, _N = ("s", "lower"), ("count", "lower")
PER_LAYER = {
    "netlist.generate_s": _S,
    "arch.build_s": _S,
    "place.initial_s": _S,
    "route.initial_s": _S,
    "timing.build_s": _S,
    "core.anneal_s": _S,
    "core.apply_move_s": _S,
    "core.rollback_s": _S,
    "core.cost_s": _S,
    "core.other_s": _S,
    "core.moves_attempted": ("count", "higher"),
    "core.moves_accepted": ("count", "higher"),
    "core.acceptance": ("1", "higher"),
    "core.zero_net_moves": ("count", "higher"),
    "core.nets_journaled": _N,
    "core.apply_move_p50_us": ("us", "lower"),
    "core.apply_move_p99_us": ("us", "lower"),
    "route.ripup_s": _S,
    "route.nets_ripped": _N,
    "route.repair_s": _S,
    "route.repair_calls": _N,
    "route.global_s": _S,
    "route.global_ok": ("count", "higher"),
    "route.global_fail": _N,
    "route.global_cache_hits": ("count", "higher"),
    "route.global_futility": ("1", "lower"),
    "route.detail_s": _S,
    "route.detail_ok": ("count", "higher"),
    "route.detail_fail": _N,
    "route.detail_cache_hits": ("count", "higher"),
    "route.detail_futility": ("1", "lower"),
    "route.batch_global_s": _S,
    "route.batch_detail_s": _S,
    "timing.update_s": _S,
    "timing.update_calls": _N,
    "timing.nets_per_update": ("count", "lower"),
    "timing.restore_s": _S,
    "timing.sta_s": _S,
    "place.seq_anneal_s": _S,
    "trace.overhead_s": _S,
    "trace.spans": _N,
}


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and check that
    ``repro`` really comes from there; exit non-zero when it does not."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import repro

    if src.resolve() not in Path(repro.__file__).resolve().parents:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def setup_probe(workload: str, seed: int) -> None:
    """Child-process mode: one cold set-up, CPU seconds on stdout."""
    started = time.process_time()
    import_program()
    import workloads

    workloads.setup_only(workloads.WORKLOADS[workload], seed)
    print(json.dumps({"setup_s": time.process_time() - started}))


def measure_setup(workload: str, seed: int) -> list[float]:
    """Cold set-up CPU seconds from :data:`SETUP_PROBES` fresh interpreters,
    run one at a time."""
    samples = []
    for _ in range(SETUP_PROBES):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{child.stderr}")
        samples.append(json.loads(child.stdout.splitlines()[-1])["setup_s"])
    return samples


def checked_flow(workload, seed: int, recorder=None):
    """One flow, or None when it raised; prints what went wrong."""
    import workloads

    try:
        flow = workloads.run_flow(workload, seed, recorder)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None
    for problem in flow.problems:
        print(f"perfbench: {workload.name} seed {seed}: {problem}", file=sys.stderr)
    return flow


def flow_record(flow) -> dict:
    return {
        "flow_s": flow.flow_s, "anneal_s": flow.anneal_s, "wall_s": flow.wall_s,
        "fingerprint": list(flow.fingerprint), "problems": flow.problems,
    }


def run_untraced(workload, seed: int, seconds: float) -> tuple[dict, dict]:
    setup_samples = measure_setup(workload.name, seed)
    flows, attempted, failed = [], 0, 0
    started = time.perf_counter()
    while attempted == 0 or time.perf_counter() - started < seconds:
        attempted += 1
        flow = checked_flow(workload, seed)
        if attempted == 1:
            # Report the first flow's peak: each later flow in this
            # process can raise it a little, and how many flows run
            # depends on timing.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if flow is None or flow.problems:
            failed += 1
        if flow is not None:
            flows.append(flow)
    if not flows:
        sys.exit("perfbench: every flow raised")
    reference = flows[0].fingerprint
    for flow in flows[1:]:
        if flow.fingerprint != reference and not flow.problems:
            print(f"perfbench: fingerprint {flow.fingerprint} != {reference}",
                  file=sys.stderr)
            failed += 1
    metrics = {
        "flow_s": statistics.median(f.flow_s for f in flows),
        "setup_s": statistics.median(setup_samples),
        "moves_per_s": statistics.median(f.moves_attempted / f.anneal_s for f in flows),
        "worst_delay_ns": flows[0].worst_delay_ns,
        "routed_frac": flows[0].routed_frac,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": (attempted - failed) / attempted,
    }
    record = {
        "setup_s_samples": setup_samples,
        "flows": [flow_record(f) for f in flows],
        "attempted": attempted, "failed": failed, "metrics": metrics,
    }
    return metrics, record


def run_traced(workload, seed: int) -> tuple[dict, dict]:
    import spans

    plain = checked_flow(workload, seed)
    recorder = spans.SpanRecorder()
    traced = checked_flow(workload, seed, recorder)
    if plain is None or traced is None:
        sys.exit("perfbench: the traced or the untraced flow raised")
    failed = sum(1 for flow in (plain, traced) if flow.problems)
    if traced.fingerprint != plain.fingerprint:
        print(f"perfbench: traced fingerprint {traced.fingerprint} != "
              f"untraced {plain.fingerprint}", file=sys.stderr)
        failed += 1
    simultaneous = workload.flow == "simultaneous"
    metrics = spans.layer_metrics(
        recorder,
        traced.moves_attempted if simultaneous else 0,
        traced.moves_accepted if simultaneous else 0,
    )
    metrics["trace.overhead_s"] = traced.flow_s - plain.flow_s
    metrics["trace.spans"] = len(recorder)
    spans_path = recorder.write(OUT, f"spans-{workload.name}")
    record = {
        "untraced": flow_record(plain), "traced": flow_record(traced),
        "spans": spans_path.name,
        "attempted": 2, "failed": failed, "metrics": metrics,
    }
    return metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        metrics, record = run_traced(workload, args.seed)
        units = PER_LAYER
    else:
        metrics, record = run_untraced(workload, args.seed, args.seconds)
        units = END_TO_END

    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name, value in metrics.items():
        print(f"{args.workload} seed {args.seed}: {name} = {value:.6g} {units[name][0]}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, (unit, _) in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
