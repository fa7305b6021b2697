"""The paper's flow: one simultaneous place-and-route anneal.

Thin wrapper that runs :class:`repro.core.SimultaneousAnnealer` and
scores the final layout with the same post-layout STA used for the
sequential baseline, so Table-1 comparisons are apples to apples.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Optional

from ..arch.presets import Architecture
from ..core.annealer import AnnealerConfig, SimultaneousAnnealer
from ..netlist.netlist import Netlist
from ..timing.analyzer import analyze
from .common import FlowResult


def run_simultaneous(
    netlist: Netlist,
    architecture: Architecture,
    config: Optional[AnnealerConfig] = None,
    profile: Optional[bool] = None,
    trace: Optional[bool] = None,
    resume_from: Optional[dict] = None,
) -> FlowResult:
    """Run the simultaneous flow end to end.

    ``profile`` / ``trace`` override the matching config flags when
    given — this is the instrumentation entry point the CLI and the
    benchmark harnesses share.  The run's
    :class:`~repro.perf.RunProfile` rides in ``extra["profile"]`` and
    its :class:`~repro.obs.RunTrace` in ``extra["trace"]`` (None when
    the facility is off).

    ``resume_from`` is a verified checkpoint payload (see
    :func:`repro.resilience.read_checkpoint`): the anneal continues the
    recorded trajectory instead of starting fresh.  Interrupted runs
    (signal or budget, see the resilience fields on
    :class:`~repro.core.AnnealerConfig`) report why in
    ``extra["interrupted"]`` and the resumable checkpoint in
    ``extra["checkpoint"]``.
    """
    started = time.perf_counter()
    overrides = {}
    if profile is not None:
        overrides["profile"] = profile
    if trace is not None:
        overrides["trace"] = trace
    if overrides:
        config = dataclasses.replace(config or AnnealerConfig(), **overrides)
    annealer = SimultaneousAnnealer(
        netlist, architecture, config, resume_from=resume_from
    )
    result = annealer.run()
    report = analyze(result.state, architecture.technology)
    # Run-identity digests for the ledger (repro.obs.ledger): the full
    # config digest and the seed-independent family digest, both
    # derived from the annealer's resolved config.
    from ..obs.ledger import FAMILY_EXCLUDE
    from ..obs.tracer import config_digest

    resolved = annealer.config
    return FlowResult(
        flow="simultaneous",
        design=netlist.name,
        placement=result.placement,
        state=result.state,
        timing=report,
        wall_time_s=time.perf_counter() - started,
        extra={
            "dynamics": result.dynamics,
            "moves_attempted": result.moves_attempted,
            "moves_accepted": result.moves_accepted,
            "temperatures": result.temperatures,
            "internal_worst_delay": result.worst_delay,
            "profile": result.profile,
            "trace": result.trace,
            "interrupted": result.interrupted,
            "checkpoint": result.checkpoint_path,
            "seed": resolved.seed,
            "config_digest": config_digest(resolved),
            "family_digest": config_digest(resolved, exclude=FAMILY_EXCLUDE),
            "netlist": {"name": netlist.name, **netlist.stats()},
        },
    )
