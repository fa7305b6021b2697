"""The paper's contribution: simultaneous place / global route / detail
route under a single simulated-annealing optimization.

The annealer manipulates *all* the design variables concurrently
(Section 3.1): every move perturbs the placement or a pinmap, rips up
the nets it touches, lets the fast incremental routers repair what they
can, updates the worst-case delay incrementally, and accepts or rejects
the whole cascade against ``Cost = Wg*G + Wd*D + Wt*T`` under the
adaptive Huang/Romeo/Sangiovanni-Vincentelli cooling schedule.

Intermediate layouts are deliberately *incomplete* — cells are always
legally placed but nets may be unrouted at any point; unroutability is
cost, not an error.  The run converges exactly the way the paper's
Figure 6 shows: hot = placement search, warm = global-routing
stabilization, cold = detailed-routing convergence.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from ..arch.presets import Architecture
from ..arch.technology import Technology
from ..netlist.netlist import Netlist
from ..obs import Instrumentation, RunTrace, build_manifest
from ..place.initial import clustered_placement, random_placement
from ..place.placement import Placement
from ..route.channel_router import DEFAULT_SEGMENT_WEIGHT
from ..route.incremental import IncrementalRouter
from ..lint.runtime import SanitizerError, check_all
from ..route.state import RoutingState
from ..timing.incremental import IncrementalTiming
from .cost import CostEvaluator, CostTerms, CostWeights, TermAccumulator
from .dynamics import DynamicsTrace, TemperatureSample
from .moves import MoveGenerator, PinmapMove
from .schedule import CoolingSchedule, ScheduleConfig
from .transaction import LayoutContext, apply_move, rollback


@dataclass
class AnnealerConfig:
    """Everything that parameterizes one simultaneous P&R run."""

    seed: int = 0
    attempts_per_cell: int = 8
    pinmap_probability: float = 0.15
    importance_global: float = 1.0
    importance_detail: float = 1.0
    importance_timing: float = 1.0
    segment_weight: float = DEFAULT_SEGMENT_WEIGHT
    initial: str = "random"  # or "clustered"
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    #: Acceptance band for the TimberWolf-style range limiter.
    target_acceptance: float = 0.44
    #: Hill-climbing clean-up rounds after the anneal freezes.
    greedy_rounds: int = 2
    #: Criticality-directed moves (the paper's "current work" speed
    #: direction): fraction of swap proposals drawn from the current
    #: near-zero-slack cells instead of uniformly.  0 disables.
    critical_bias: float = 0.0
    #: Repair fast path (dirty-channel iteration + negative-result
    #: caches + zero-net-move short circuit).  Bit-identical results
    #: either way; off is the exhaustive repair path, kept only as the
    #: oracle the determinism tests check every exact shortcut against.
    fast_path: bool = True
    #: Runtime sanitizer: after every move transaction, cross-check
    #: rollback completeness, negative-cache coherence, and the full
    #: invariant audit (see :mod:`repro.lint.runtime`).  Slow but
    #: invisible: a sanitized run consumes no extra RNG and produces
    #: bit-identical metrics to an unsanitized run with the same seed.
    sanitize: bool = False
    #: Thin the full invariant audit to every N-th move when sanitizing
    #: (the cheap rollback digest and cache probes still run every move).
    sanitize_every: int = 1
    #: Structured event tracing (see :mod:`repro.obs`): per-stage cost
    #: terms, adaptive weights, move-type accept/reject counts, and
    #: repair/cache/timing metric deltas into ``AnnealResult.trace``.
    #: A traced run also times the move transaction's sections into
    #: ``AnnealResult.profile``.  Never affects results: a traced run
    #: is bit-identical to an untraced run with the same seed.
    trace: bool = False
    #: With tracing on, also append every event to this file as it is
    #: emitted (same serialization as the final JSONL trace), so a live
    #: watcher (``repro-fpga watch``) can tail-follow the run.  The
    #: stream is flushed per event at stage boundaries — never from the
    #: per-move hot path — and a streamed run stays bit-identical.
    trace_stream: Optional[str] = None
    #: Live heartbeat sidecar (see :mod:`repro.obs.live`): rewrite this
    #: file atomically with wall-clock telemetry (pid, counters,
    #: acceptance, moves/sec, ETA, last checkpoint) at stage boundaries
    #: and at least every ``heartbeat_min_interval_s`` seconds.  The
    #: telemetry is deliberately kept *out* of the deterministic trace
    #: (the ledger's VOLATILE_FIELDS discipline); the writer reads only
    #: monotonic clocks, so a heartbeating run is bit-identical to a
    #: plain run.  None disables.
    heartbeat_path: Optional[str] = None
    #: Heartbeat rewrite throttle in seconds (forced beats — phase
    #: transitions and the final status — ignore it).
    heartbeat_min_interval_s: float = 2.0
    #: With tracing on, emit a layout ``snapshot`` event (channel
    #: occupancy, per-net routes, critical-path attribution; see
    #: :mod:`repro.obs.snapshot`) every N temperatures, plus one final
    #: snapshot before ``run_end``.  0 disables.  Capture is a pure
    #: read — no RNG, no clock, no state mutation — so a snapshotted
    #: run is bit-identical to a plain run with the same seed.
    snapshot_every: int = 0
    #: Write a digest-protected, resumable checkpoint (see
    #: :mod:`repro.resilience`) to this path: every ``checkpoint_every``
    #: stages and always once at the end of the run (completed or
    #: interrupted).  Writing is a pure read of annealer state — no RNG,
    #: no clock — so a checkpointed run is bit-identical to a plain run.
    checkpoint_path: Optional[str] = None
    #: Periodic checkpoint cadence in temperature stages; 0 means only
    #: the final checkpoint is written.  Requires ``checkpoint_path``.
    checkpoint_every: int = 0
    #: Stop cleanly at the next stage boundary once this much wall-clock
    #: time has elapsed (0 = unlimited).  Budgets do not change the
    #: trajectory up to the stop point: a resumed run is bit-identical
    #: to one that never stopped.
    max_seconds: float = 0.0
    #: Stop before running global stage index N (0 = unlimited).  The
    #: index is global, so a resumed run continues the original count.
    max_stages: int = 0
    #: Stop at the next stage boundary after N total move attempts
    #: (0 = unlimited); like ``max_stages``, counted across resumes.
    max_moves: int = 0
    #: Install SIGINT/SIGTERM handlers for the duration of :meth:`run`
    #: so the first signal stops the run cleanly at a stage boundary
    #: (a second SIGINT raises KeyboardInterrupt as usual).  Opt-in so
    #: library embedders keep their own handlers.
    handle_signals: bool = False

    def __post_init__(self) -> None:
        if self.attempts_per_cell <= 0:
            raise ValueError("attempts_per_cell must be positive")
        if self.initial not in ("random", "clustered"):
            raise ValueError(f"initial must be random|clustered, got {self.initial!r}")
        if not 0 <= self.critical_bias <= 1:
            raise ValueError(
                f"critical_bias must be in [0, 1], got {self.critical_bias}"
            )
        if self.sanitize_every < 1:
            raise ValueError(
                f"sanitize_every must be >= 1, got {self.sanitize_every}"
            )
        if self.snapshot_every < 0:
            raise ValueError(
                f"snapshot_every must be >= 0, got {self.snapshot_every}"
            )
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.checkpoint_every > 0 and not self.checkpoint_path:
            raise ValueError("checkpoint_every requires checkpoint_path")
        if self.max_seconds < 0 or self.max_stages < 0 or self.max_moves < 0:
            raise ValueError("run budgets must be >= 0 (0 = unlimited)")
        if self.trace_stream is not None and not self.trace:
            raise ValueError("trace_stream requires trace=True")
        if self.heartbeat_min_interval_s <= 0:
            raise ValueError(
                f"heartbeat_min_interval_s must be > 0, got "
                f"{self.heartbeat_min_interval_s}"
            )


def fast_config(seed: int = 0) -> AnnealerConfig:
    """Reduced-effort preset for tests and quick benchmarks."""
    return AnnealerConfig(
        seed=seed,
        attempts_per_cell=4,
        initial="clustered",
        greedy_rounds=1,
        schedule=ScheduleConfig(lambda_=1.4, max_temperatures=60,
                                freeze_patience=2),
    )


def thorough_config(seed: int = 0) -> AnnealerConfig:
    """High-effort preset (closest to the paper's multi-hour runs)."""
    return AnnealerConfig(
        seed=seed,
        attempts_per_cell=14,
        schedule=ScheduleConfig(lambda_=0.5, max_temperatures=400),
    )


@dataclass
class AnnealResult:
    """Outcome of one simultaneous place-and-route run."""

    placement: Placement
    state: RoutingState
    timing: IncrementalTiming
    terms: CostTerms
    dynamics: DynamicsTrace
    moves_attempted: int
    moves_accepted: int
    temperatures: int
    wall_time_s: float
    #: Per-section seconds and call counts of the move transaction
    #: (:meth:`repro.obs.MetricsRegistry.timings`); present only when
    #: tracing was on.  Wall-clock telemetry, never part of results.
    profile: Optional[dict] = None
    #: Structured event trace; present only when tracing was on.
    trace: Optional[RunTrace] = None
    #: Why the run stopped early ("signal SIGINT", "stage budget (40)",
    #: ...), or None when the schedule ran to completion.  Interrupted
    #: results hold the *best-so-far* layout, not the last one visited.
    interrupted: Optional[str] = None
    #: Path of the last checkpoint written, when checkpointing was on;
    #: resume from it to continue the interrupted trajectory.
    checkpoint_path: Optional[str] = None

    @property
    def fully_routed(self) -> bool:
        """Whether every net is completely routed."""
        return self.state.is_complete()

    @property
    def worst_delay(self) -> float:
        """Worst-case critical-path delay (ns)."""
        return self.terms.worst_delay

    def metrics(self) -> dict[str, float]:
        """Summary metrics as a flat name -> value dict."""
        return {
            "worst_delay_ns": self.terms.worst_delay,
            "global_unrouted": self.terms.global_unrouted,
            "detail_unrouted": self.terms.detail_unrouted,
            "fully_routed": float(self.fully_routed),
            "moves_attempted": self.moves_attempted,
            "moves_accepted": self.moves_accepted,
            "temperatures": self.temperatures,
            "wall_time_s": self.wall_time_s,
            "total_antifuses": self.state.total_antifuses(),
        }


class SimultaneousAnnealer:
    """One-shot driver: construct, then :meth:`run`."""

    def __init__(
        self,
        netlist: Netlist,
        architecture: Architecture,
        config: Optional[AnnealerConfig] = None,
        resume_from: Optional[dict] = None,
    ) -> None:
        self.netlist = netlist.freeze()
        self.architecture = architecture
        self.technology: Technology = architecture.technology
        self.config = config or AnnealerConfig()
        self.rng = random.Random(self.config.seed)

        # One shared hook point builds every requested observability
        # facility (--trace / --sanitize / --heartbeat) together.
        self.instrumentation = Instrumentation.from_config(self.config)
        self.tracer = self.instrumentation.tracer
        self.sanitizer = self.instrumentation.sanitizer
        metrics = self.instrumentation.metrics

        fabric = architecture.build()
        if self.config.initial == "clustered":
            placement = clustered_placement(netlist, fabric, self.rng)
        else:
            placement = random_placement(netlist, fabric, self.rng)
        state = RoutingState(placement)
        router = IncrementalRouter(
            state, self.config.segment_weight, fast_path=self.config.fast_path
        )
        router.metrics = metrics
        router.route_all_from_scratch()
        timing = IncrementalTiming(state, self.technology)
        timing.metrics = metrics
        self.ctx = LayoutContext(placement, state, router, timing,
                                 metrics=metrics)
        self.weights = CostWeights(
            self.config.importance_global,
            self.config.importance_detail,
            self.config.importance_timing,
        )
        self.evaluator = CostEvaluator(state, timing, self.weights)
        self.moves = MoveGenerator(
            placement, self.rng, self.config.pinmap_probability
        )
        self.schedule = CoolingSchedule(self.config.schedule)
        self.dynamics = DynamicsTrace()
        self._attempted = 0
        self._accepted = 0
        # Trajectory cursor for checkpoint/resume (see
        # :mod:`repro.resilience`): which phase the run is in, the
        # global stage index, and the greedy round already completed.
        self._phase = "walk"
        self._stage_index = 0
        self._greedy_round = 0
        self._resumed = False
        self._last_checkpoint: Optional[str] = None
        # Heartbeat telemetry cursors (wall-clock side only — never fed
        # back into the anneal): when this run() started, and the last
        # completed stage's acceptance for mid-stage beats.
        self._run_started: float = 0.0
        self._last_acceptance: Optional[float] = None
        # Best-so-far tracking: noted at stage boundaries with a pure
        # structural capture (no RNG, no clock), so plain runs remain
        # bit-identical.  Interrupted runs return this layout.
        self.best_snapshot = None
        self.best_terms: Optional[CostTerms] = None
        self._best_key: Optional[tuple] = None
        # Imported lazily: keeps repro.core importable without loading
        # the resilience package (mirrors the snapshot imports below).
        from ..resilience.interrupt import InterruptController

        self.interrupt = InterruptController(
            max_seconds=self.config.max_seconds,
            max_stages=self.config.max_stages,
            max_moves=self.config.max_moves,
            handle_signals=self.config.handle_signals,
        )
        if resume_from is not None:
            self._restore(resume_from)
        if self.sanitizer is not None:
            self._sanitizer_check(self.sanitizer.check_initial, self.ctx)

    @classmethod
    def resume(
        cls,
        netlist: Netlist,
        architecture: Architecture,
        checkpoint,
        config: Optional[AnnealerConfig] = None,
    ) -> "SimultaneousAnnealer":
        """Rebuild an annealer mid-trajectory from a checkpoint.

        ``checkpoint`` is a path (read and digest-verified) or an
        already-validated payload dict.  ``config`` defaults to the
        configuration recorded in the checkpoint; a config passed
        explicitly may change budgets, checkpoint cadence, and
        instrumentation, but every trajectory-shaping knob must match
        the writing run (enforced by the config digest) — so calling
        :meth:`run` afterwards continues exactly the interrupted
        trajectory: the combined runs are bit-identical to one that
        was never interrupted.

        Mutates: ``netlist`` — frozen on first use while the restored
        layout is rebuilt (idempotent, same as the normal constructor).
        """
        from ..resilience.checkpoint import config_from_payload, read_checkpoint

        payload = (
            checkpoint
            if isinstance(checkpoint, dict)
            else read_checkpoint(checkpoint)
        )
        if config is None:
            config = config_from_payload(payload)
        return cls(netlist, architecture, config, resume_from=payload)

    def _sanitizer_check(self, check, *args) -> None:
        """Run one sanitizer check, tracing the violation before it raises."""
        try:
            check(*args)
        except SanitizerError as exc:
            tracer = self.tracer
            if tracer is not None:
                tracer.sanitizer_violation(exc.phase, exc.move, exc.problems)
            raise

    # ------------------------------------------------------------------
    # Checkpoint / resume / best-so-far
    # ------------------------------------------------------------------
    def checkpoint_payload(self) -> dict:
        """The complete trajectory state, as a checkpoint payload dict.

        A pure read of annealer state — building it consumes no RNG and
        reads no clock, so writing checkpoints never perturbs the run.
        """
        import dataclasses

        from ..flows.layout_io import layout_to_dict
        from ..resilience.checkpoint import (
            CHECKPOINT_KIND,
            CHECKPOINT_SCHEMA_VERSION,
            encode_rng_state,
            resume_digest,
        )

        terms = self.evaluator.terms()
        best = None
        if self.best_snapshot is not None and self.best_terms is not None:
            best = {
                "layout": self.best_snapshot.to_layout_dict(self.netlist),
                "terms": {"G": self.best_terms.global_unrouted,
                          "D": self.best_terms.detail_unrouted,
                          "T": self.best_terms.worst_delay},
            }
        return {
            "format": CHECKPOINT_SCHEMA_VERSION,
            "kind": CHECKPOINT_KIND,
            "circuit": self.netlist.name,
            "seed": self.config.seed,
            "config_digest": resume_digest(self.config),
            "config": dataclasses.asdict(self.config),
            "phase": self._phase,
            "stage_index": self._stage_index,
            "greedy_round": self._greedy_round,
            "moves_attempted": self._attempted,
            "moves_accepted": self._accepted,
            "rng_state": encode_rng_state(self.rng.getstate()),
            "schedule": self.schedule.export_state(),
            "weights": {"wg": self.weights.wg, "wd": self.weights.wd,
                        "wt": self.weights.wt},
            "window": self.moves.window,
            "terms": {"G": terms.global_unrouted,
                      "D": terms.detail_unrouted,
                      "T": terms.worst_delay},
            "layout": layout_to_dict(self.ctx.placement, self.ctx.state),
            "timing": self.ctx.timing.export_state(),
            # Route and delay-cache version counters (schema-compatible
            # addition: checkpoints written before the section existed
            # restore fine without it, see _restore).
            "arrays": {
                "route_version": list(self.ctx.state.route_version),
                "delay_cache_version": list(self.ctx.timing._cache_version),
            },
            "dynamics": [
                dataclasses.asdict(sample) for sample in self.dynamics.samples
            ],
            "best": best,
        }

    def _restore(self, payload: dict) -> None:
        """Adopt a validated checkpoint payload into this annealer.

        Mutates: every layer — placement, routing state, timing arrays,
        RNG, schedule, weights, window, dynamics, counters, and the
        phase cursor.  Raises CheckpointError when the payload does not
        fit this netlist/config.
        """
        from ..resilience.checkpoint import (
            CheckpointError,
            LayoutSnapshot,
            decode_rng_state,
            validate_payload,
        )

        validate_payload(payload, circuit=self.netlist.name,
                         config=self.config)
        snapshot = LayoutSnapshot.from_layout_dict(
            self.netlist, payload["layout"]
        )
        snapshot.restore(self.ctx.placement, self.ctx.state)
        try:
            self.ctx.timing.adopt_state(payload["timing"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint timing record is invalid: {exc}"
            ) from exc
        arrays_record = payload.get("arrays")
        if arrays_record is not None:
            # Adopt the writing run's version counters verbatim so the
            # resumed trajectory's version comparisons — and hence its
            # fast-path decisions — match an uninterrupted run exactly.
            # Checkpoints without the section (pre-array writers) fall
            # back to adopt_state's revalidation, which is equivalent:
            # every non-None cache entry in a live run is version-valid.
            try:
                route_version = [int(v) for v in arrays_record["route_version"]]
                cache_version = [
                    int(v) for v in arrays_record["delay_cache_version"]
                ]
                if len(route_version) != len(self.ctx.state.route_version):
                    raise ValueError(
                        f"route_version has {len(route_version)} nets, "
                        f"expected {len(self.ctx.state.route_version)}"
                    )
                if len(cache_version) != len(self.ctx.timing._cache_version):
                    raise ValueError(
                        f"delay_cache_version has {len(cache_version)} nets, "
                        f"expected {len(self.ctx.timing._cache_version)}"
                    )
                from array import array

                self.ctx.state.route_version[:] = array("Q", route_version)
                self.ctx.timing._cache_version[:] = array("Q", cache_version)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise CheckpointError(
                    f"checkpoint arrays record is invalid: {exc}"
                ) from exc
        self.rng.setstate(decode_rng_state(payload["rng_state"]))
        try:
            self.schedule.adopt_state(payload["schedule"])
            weights = payload["weights"]
            self.weights.wg = float(weights["wg"])
            self.weights.wd = float(weights["wd"])
            self.weights.wt = float(weights["wt"])
            self.moves.set_window(float(payload["window"]))
            for record in payload["dynamics"]:
                self.dynamics.record(TemperatureSample(**record))
            self._attempted = int(payload["moves_attempted"])
            self._accepted = int(payload["moves_accepted"])
            self._phase = payload["phase"]
            self._stage_index = int(payload["stage_index"])
            self._greedy_round = int(payload["greedy_round"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint trajectory record is invalid: {exc}"
            ) from exc
        best = payload.get("best")
        if best is not None:
            try:
                self.best_snapshot = LayoutSnapshot.from_layout_dict(
                    self.netlist, best["layout"]
                )
                record = best["terms"]
                self.best_terms = CostTerms(
                    float(record["G"]), float(record["D"]), float(record["T"])
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(
                    f"checkpoint best-layout record is invalid: {exc}"
                ) from exc
            self._best_key = (
                self.best_terms.global_unrouted
                + self.best_terms.detail_unrouted,
                self.best_terms.worst_delay,
            )
        self._resumed = True

    def _note_best(self, current: CostTerms) -> None:
        """Keep the best layout seen at any stage boundary.

        Better means strictly fewer unrouted nets, with worst-case
        delay as the tie-break — lexicographic on ``(G + D, T)``.  The
        capture is a pure structural read, so plain runs with and
        without an eventual interruption walk identical trajectories.
        """
        key = (
            current.global_unrouted + current.detail_unrouted,
            current.worst_delay,
        )
        if self._best_key is not None and not key < self._best_key:
            return
        from ..resilience.checkpoint import LayoutSnapshot

        self.best_snapshot = LayoutSnapshot.capture(
            self.ctx.placement, self.ctx.state
        )
        self.best_terms = current
        self._best_key = key

    def _write_checkpoint(self, path) -> None:
        """Write one atomic, digest-protected checkpoint now."""
        from ..resilience.checkpoint import write_checkpoint

        digest = write_checkpoint(self.checkpoint_payload(), path)
        self._last_checkpoint = str(path)
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                "checkpoint", stage=self._stage_index, phase=self._phase,
                path=str(path), sha256=digest,
            )

    def _checkpoint_if_due(self) -> None:
        """Periodic checkpoint at the cadence the config asked for."""
        every = self.instrumentation.checkpoint_every
        path = self.instrumentation.checkpoint_path
        if every > 0 and path is not None and self._stage_index % every == 0:
            self._write_checkpoint(path)

    def _beat(
        self,
        current: CostTerms,
        status: str = "running",
        force: bool = False,
        acceptance: Optional[float] = None,
    ) -> None:
        """Write one heartbeat sidecar update, if one is configured.

        Telemetry assembly is a pure read of already-computed state
        plus the monotonic clock — no RNG, no wall-clock — so the
        anneal trajectory is untouched (the determinism golden test
        and the bench bit-identity gate both pin this).
        """
        hb = self.instrumentation.heartbeat
        if hb is None or not (force or hb.due()):
            return
        elapsed = time.perf_counter() - self._run_started
        budget = self.config.schedule.max_temperatures
        done = self.schedule.temperatures_done
        eta = None
        if status == "running" and self._phase == "anneal" \
                and done > 0 and budget > done and elapsed > 0:
            # Budget-based upper bound: the adaptive schedule usually
            # freezes earlier, so this is a worst-case remaining time.
            eta = round(elapsed / done * (budget - done), 1)
        best = None
        if self.best_terms is not None:
            best = {"G": self.best_terms.global_unrouted,
                    "D": self.best_terms.detail_unrouted,
                    "T": self.best_terms.worst_delay}
        if acceptance is None:
            acceptance = self._last_acceptance
        hb.beat({
            "flow": "simultaneous",
            "design": self.netlist.name,
            "seed": self.config.seed,
            "status": status,
            "phase": self._phase,
            "stage": self._stage_index,
            "stage_budget": budget,
            "moves_attempted": self._attempted,
            "moves_accepted": self._accepted,
            "acceptance": (
                round(acceptance, 4) if acceptance is not None else None
            ),
            "terms": {"G": current.global_unrouted,
                      "D": current.detail_unrouted,
                      "T": current.worst_delay},
            "cost": self.weights.scalar(current),
            "best": best,
            "elapsed_s": round(elapsed, 3),
            "moves_per_sec": (
                round(self._attempted / elapsed, 1) if elapsed > 0 else None
            ),
            "eta_s": eta,
            "last_checkpoint": self._last_checkpoint,
            "trace": self.config.trace_stream,
        }, force=True)

    def _should_stop(self, started: float) -> Optional[str]:
        """Poll the interrupt controller with this run's counters."""
        return self.interrupt.should_stop(
            self._stage_index, self._attempted, time.perf_counter() - started
        )

    # ------------------------------------------------------------------
    # Pieces of the run
    # ------------------------------------------------------------------
    def _attempt(
        self, temperature: float, current: CostTerms
    ) -> tuple[bool, CostTerms, list[int]]:
        """Propose + apply + accept/reject one move.

        Returns (accepted, resulting terms, cells the move touched if
        accepted else an empty list).
        """
        move = self.moves.propose()
        if move is None:
            return False, current, []
        cells_touched = move.cells_involved(self.ctx.placement)
        self._attempted += 1
        sanitizer = self.sanitizer
        before = sanitizer.capture(self.ctx) if sanitizer is not None else None
        record = apply_move(self.ctx, move)
        mx = self.ctx.metrics
        if mx is not None:
            t0 = perf_counter()
        new_terms = self.evaluator.terms()
        delta = self.weights.scalar(new_terms) - self.weights.scalar(current)
        if mx is not None:
            mx.add_time("cost", perf_counter() - t0)
        if delta <= 0:
            accept = True
        elif temperature <= 0:
            accept = False
        else:
            exponent = -delta / temperature
            accept = exponent > -60 and self.rng.random() < math.exp(exponent)
        tracer = self.tracer
        if accept:
            self._accepted += 1
            if tracer is not None:
                tracer.count_move(
                    "pinmap" if isinstance(move, PinmapMove) else "swap", True
                )
            if sanitizer is not None:
                self._sanitizer_check(sanitizer.check_commit, self.ctx, move)
            return True, new_terms, cells_touched
        rollback(self.ctx, record)
        if tracer is not None:
            tracer.count_move(
                "pinmap" if isinstance(move, PinmapMove) else "swap", False
            )
        if sanitizer is not None:
            self._sanitizer_check(
                sanitizer.check_rollback, self.ctx, move, before
            )
        return False, current, []

    def _random_walk(self, moves: int) -> tuple[list[float], CostTerms]:
        """Accept-everything walk to seed T0 and the first weights.

        Term samples are collected first and the weights recalibrated
        from their means, then the walk's scalar costs are computed with
        the *calibrated* weights so T0 lives on the same scale as the
        anneal it starts.
        """
        samples: list[CostTerms] = []
        accumulator = TermAccumulator()
        current = self.evaluator.terms()
        for _ in range(moves):
            accepted, current, _ = self._attempt(float("inf"), current)
            accumulator.add(current)
            samples.append(current)
        self.weights.recalibrate(accumulator.mean_terms())
        return [self.weights.scalar(terms) for terms in samples], current

    def _greedy_cleanup(
        self, current: CostTerms, started: float
    ) -> tuple[CostTerms, Optional[str]]:
        """Zero-temperature improvement rounds after the freeze.

        Resumes from ``self._greedy_round`` (nonzero only when restored
        from a greedy-phase checkpoint) and polls the interrupt
        controller between rounds; returns the terms plus the stop
        reason (None when the rounds ran to completion).
        """
        attempts = self.config.attempts_per_cell * self.netlist.num_cells
        tracer = self.tracer
        round_index = self._greedy_round
        while round_index < self.config.greedy_rounds:
            stop_reason = self._should_stop(started)
            if stop_reason is not None:
                return current, stop_reason
            accepted_here = 0
            for _ in range(attempts):
                accepted, current, _ = self._attempt(0.0, current)
                if accepted:
                    accepted_here += 1
            if tracer is not None:
                tracer.emit(
                    "greedy", round=round_index, attempts=attempts,
                    accepted=accepted_here,
                )
            round_index += 1
            self._greedy_round = round_index
            self._note_best(current)
            self._beat(current, acceptance=accepted_here / attempts)
            if not accepted_here:
                break
            if round_index < self.config.greedy_rounds:
                # Periodic checkpoint only when another round will run:
                # the early-exit decision above already happened, so a
                # resume from this checkpoint repeats exactly the rounds
                # the uninterrupted run would have run.
                every = self.instrumentation.checkpoint_every
                path = self.instrumentation.checkpoint_path
                if every > 0 and path is not None:
                    self._write_checkpoint(path)
        return current, None

    # ------------------------------------------------------------------
    # The run
    # ------------------------------------------------------------------
    def run(self) -> AnnealResult:
        """Execute to completion — or to the first budget/signal stop —
        and return the result.

        Interrupted runs stop at a stage boundary, write a final
        checkpoint (when one was configured), and return the
        best-so-far layout with ``result.interrupted`` set; completed
        runs return the final layout exactly as before this machinery
        existed.
        """
        started = time.perf_counter()
        self._run_started = started
        num_cells = self.netlist.num_cells

        tracer = self.tracer
        if tracer is not None:
            extra = None
            if self._resumed:
                extra = {"resumed_from_stage": self._stage_index,
                         "resumed_phase": self._phase}
            tracer.run_start(
                build_manifest(self.config, self.netlist, flow="simultaneous",
                               extra=extra)
            )

        stop_reason: Optional[str] = None
        with self.interrupt:
            if self._resumed:
                current = self.evaluator.terms()
            else:
                walk_costs, current = self._random_walk(max(24, num_cells // 2))
                self.schedule.start(walk_costs)
                self._phase = "anneal"
            self._note_best(current)
            self._beat(current, force=True)

            if self._phase == "anneal":
                while not self.schedule.frozen:
                    stop_reason = self._should_stop(started)
                    if stop_reason is not None:
                        break
                    current = self._run_stage(current)
                    self._stage_index += 1
                    self._note_best(current)
                    self._checkpoint_if_due()
                    self._beat(current)
                if stop_reason is None:
                    self._phase = "greedy"
                    self._beat(current, force=True)

            if self._phase == "greedy":
                current, stop_reason = self._greedy_cleanup(current, started)
                if stop_reason is None:
                    self._phase = "done"

            # The final checkpoint records *trajectory* state, so it
            # must be written before any best-so-far restore below —
            # resuming from it continues the interrupted walk
            # bit-exactly, wherever the best happened to be.
            final_path = self.instrumentation.checkpoint_path
            if final_path is not None:
                self._write_checkpoint(final_path)

            if stop_reason is not None and self.best_snapshot is not None:
                # Interrupted: hand back the best layout seen at any
                # stage boundary, not wherever the walk happened to be.
                self.best_snapshot.restore(self.ctx.placement, self.ctx.state)
                self.ctx.timing.full_update()
                current = self.evaluator.terms()

        wall_time = time.perf_counter() - started
        if self.instrumentation.heartbeat is not None:
            # Terminal beat: always forced so watchers (and the watch
            # --gate watchdog) see the final status even on short runs.
            self._beat(
                current,
                status=("completed" if stop_reason is None
                        else f"interrupted: {stop_reason}"),
                force=True,
            )
        profile = None
        trace = None
        if tracer is not None:
            profile = tracer.metrics.timings()
            if self.instrumentation.snapshot_every > 0:
                from ..obs.snapshot import capture_snapshot

                tracer.snapshot(
                    capture_snapshot(
                        self.ctx.state, self.ctx.timing, label="final"
                    ),
                )
            end_fields = dict(
                moves_attempted=self._attempted,
                moves_accepted=self._accepted,
                temperatures=self.schedule.temperatures_done,
                terms={"G": current.global_unrouted,
                       "D": current.detail_unrouted,
                       "T": current.worst_delay},
                weights={"wg": self.weights.wg,
                         "wd": self.weights.wd,
                         "wt": self.weights.wt},
                final_cost=self.weights.scalar(current),
                state=self.ctx.state.summary(),
            )
            if stop_reason is not None:
                # Only present on interrupted runs, so plain traces are
                # byte-identical to what pre-resilience runs emitted.
                end_fields["interrupted"] = stop_reason
            tracer.run_end(**end_fields)
            trace = tracer.finish()
        return AnnealResult(
            placement=self.ctx.placement,
            state=self.ctx.state,
            timing=self.ctx.timing,
            terms=current,
            dynamics=self.dynamics,
            moves_attempted=self._attempted,
            moves_accepted=self._accepted,
            temperatures=self.schedule.temperatures_done,
            wall_time_s=wall_time,
            profile=profile,
            trace=trace,
            interrupted=stop_reason,
            checkpoint_path=self._last_checkpoint,
        )

    def _run_stage(self, current: CostTerms) -> CostTerms:
        """One temperature stage: attempts, dynamics, adaptation, cooling.

        Mutates: every layer the accepted moves touch, plus the
        schedule, weights, move window, and dynamics trace — exactly
        the old inline loop body, extracted so resume and the stage-
        boundary stop checks share one definition.
        """
        num_cells = self.netlist.num_cells
        num_nets = max(1, self.netlist.num_nets)
        attempts_per_temp = self.config.attempts_per_cell * num_cells
        temperature = self.schedule.temperature
        stage_index = self._stage_index
        tracer = self.tracer

        if self.config.critical_bias > 0:
            self._refocus_moves()
        accumulator = TermAccumulator()
        costs: list[float] = []
        perturbed_cells: set[int] = set()
        accepted_here = 0
        hb = self.instrumentation.heartbeat
        for attempt_index in range(attempts_per_temp):
            accepted, current, cells_touched = self._attempt(
                temperature, current
            )
            if accepted:
                accepted_here += 1
                perturbed_cells.update(cells_touched)
            accumulator.add(current)
            costs.append(self.weights.scalar(current))
            # Mid-stage heartbeat: on large designs one stage can run
            # minutes, so probe the throttle every 256 attempts (off =
            # one ``is not None`` test; on = one monotonic read).
            if hb is not None and attempt_index % 256 == 255 and hb.due():
                self._beat(
                    current,
                    acceptance=accepted_here / (attempt_index + 1),
                )
        acceptance = accepted_here / attempts_per_temp
        self._last_acceptance = acceptance
        sample = TemperatureSample(
            temperature=temperature,
            attempts=attempts_per_temp,
            accepted=accepted_here,
            cells_perturbed_frac=len(perturbed_cells) / num_cells,
            global_unrouted_frac=current.global_unrouted / num_nets,
            unrouted_frac=current.detail_unrouted / num_nets,
            worst_delay=current.worst_delay,
            mean_cost=(sum(costs) / len(costs)) if costs else 0.0,
        )
        self.dynamics.record(sample)
        self.weights.recalibrate(accumulator.mean_terms())
        current = self.evaluator.terms()  # same raw terms, fresh object
        self._adjust_window(acceptance)
        self.schedule.observe(acceptance, costs)
        if tracer is not None:
            # Stage-end terms under the *post-recalibration* weights:
            # the last stage's (terms, weights) pair reconstructs the
            # run's final cost bit-exactly (greedy never recalibrates).
            tracer.stage(
                index=stage_index,
                **sample.as_dict(),
                terms={"G": current.global_unrouted,
                       "D": current.detail_unrouted,
                       "T": current.worst_delay},
                weights={"wg": self.weights.wg,
                         "wd": self.weights.wd,
                         "wt": self.weights.wt},
                window=self.moves.window,
                calm_streak=self.schedule.calm_streak,
            )
            every = self.instrumentation.snapshot_every
            if every > 0 and stage_index % every == 0:
                # Imported lazily: repro.obs.snapshot pulls the
                # route/timing layers, which must not load as a side
                # effect of importing repro.core.
                from ..obs.snapshot import capture_snapshot

                tracer.snapshot(
                    capture_snapshot(
                        self.ctx.state, self.ctx.timing,
                        label=f"stage {stage_index}",
                    ),
                    stage=stage_index,
                )
        self.schedule.next_temperature(costs)
        return current

    def _refocus_moves(self) -> None:
        """Point the move generator at the current near-critical cells.

        Recomputed once per temperature: cells whose slack is within 10%
        of the worst delay of zero become preferred swap candidates with
        probability ``critical_bias``.
        """
        from ..timing.analyzer import TimingReport
        from ..timing.slack import compute_slacks

        timing = self.ctx.timing
        report = TimingReport(
            worst_delay=timing.worst_delay(),
            arrival=list(timing.arrival),
            boundary_in=dict(timing.boundary_in),
            critical_path=[],
            critical_endpoint=None,
        )
        slacks = compute_slacks(self.ctx.state, self.technology, report)
        threshold = 0.10 * max(report.worst_delay, 1e-9)
        focus = [
            index for index, slack in enumerate(slacks) if slack <= threshold
        ]
        self.moves.set_focus(focus, self.config.critical_bias)

    def _adjust_window(self, acceptance: float) -> None:
        """Range limiting: shrink the swap window toward the acceptance target."""
        target = self.config.target_acceptance
        if acceptance > target + 0.1:
            self.moves.set_window(self.moves.window * 0.9)
        elif acceptance < target - 0.1:
            self.moves.set_window(self.moves.window * 1.1)

    # ------------------------------------------------------------------
    # Audits (tests call this after runs)
    # ------------------------------------------------------------------
    def audit(self) -> list[str]:
        """Invariant check; returns problems (empty = clean).

        Delegates to :func:`repro.lint.runtime.check_all`, the single
        consolidated entry point over routing bookkeeping, electrical
        verification, and incremental-timing drift.
        """
        return check_all(self.ctx.state, self.ctx.timing)
