"""Regenerate the committed run-ledger fixtures in this directory.

Produces, next to this file (or in the directory given as the only
argument):

* ``ledger_fixture.jsonl`` — three records (two simultaneous seeds of
  one tiny design plus a sequential baseline) with trace artifacts;
* ``ledger_trace_seed3.jsonl`` / ``ledger_trace_seed5.jsonl`` — the
  simultaneous runs' traces, referenced relatively from the ledger;
* ``ledger_report_golden.html`` — the observatory page rendered from
  exactly those inputs, pinned byte-for-byte by
  ``tests/test_ledger.py``.

Volatile telemetry (wall-clock fields) is frozen to fixed values, and
the traced runs' section timings are dropped, so regeneration on any
host reproduces the same bytes; everything else is deterministic by
the seeds.  ``tests/test_ledger.py`` regenerates into a scratch
directory and byte-compares against the committed files.  Run from
the repo root::

    PYTHONPATH=src python tests/data/make_ledger_fixture.py
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Optional

from repro import architecture_for
from repro.core import AnnealerConfig, ScheduleConfig
from repro.flows import SequentialConfig, run_sequential, run_simultaneous
from repro.netlist import tiny
from repro.obs.cli import _load_run_traces
from repro.obs.ledger import append_record, read_ledger, record_from_result
from repro.obs.report import render_report

HERE = Path(__file__).parent
#: Files :func:`main` writes, all compared byte for byte by the tests.
OUTPUTS = (
    "ledger_fixture.jsonl",
    "ledger_trace_seed3.jsonl",
    "ledger_trace_seed5.jsonl",
    "ledger_report_golden.html",
)
#: Frozen stand-ins for the host-dependent telemetry, keyed by record
#: position, so regeneration is byte-stable.
FROZEN_WALL = ((0.25, 8000.0), (0.30, 7500.0), (0.20, None))


def sim_config(seed: int) -> AnnealerConfig:
    return AnnealerConfig(
        seed=seed,
        attempts_per_cell=4,
        initial="clustered",
        greedy_rounds=1,
        schedule=ScheduleConfig(
            lambda_=1.4, max_temperatures=12, freeze_patience=2
        ),
        trace=True,
    )


def main(out_dir: Optional[Path] = None) -> None:
    out = Path(out_dir) if out_dir is not None else HERE
    netlist = tiny(seed=7, num_cells=28, depth=4)
    arch = architecture_for(netlist, tracks_per_channel=10)

    ledger_path = out / "ledger_fixture.jsonl"
    ledger_path.unlink(missing_ok=True)

    results = []
    for seed in (3, 5):
        result = run_simultaneous(netlist, arch, sim_config(seed))
        trace_name = f"ledger_trace_seed{seed}.jsonl"
        result.extra["trace"].write_jsonl(out / trace_name)
        results.append((result, {"trace": trace_name}))
    seq = run_sequential(netlist, arch, SequentialConfig(
        seed=3, attempts_per_cell=4, initial="clustered",
    ))
    results.append((seq, None))

    for position, (result, artifacts) in enumerate(results):
        record = record_from_result(
            result, tag="fixture", artifacts=artifacts,
        )
        record.pop("profile", None)
        wall, mps = FROZEN_WALL[position]
        record["wall_time_s"] = wall
        if mps is not None:
            record["moves_per_sec"] = mps
        else:
            record.pop("moves_per_sec", None)
        append_record(ledger_path, record)

    ledger = read_ledger(ledger_path)
    traces = _load_run_traces(ledger)
    html = render_report(ledger.records, traces, title="Ledger fixture")
    (out / "ledger_report_golden.html").write_text(html, encoding="utf-8")
    print(f"wrote {ledger_path} ({len(ledger.records)} records), "
          f"{len(traces)} traces, golden report")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else None)
