"""Tests for repro.resilience: atomic writes, checkpoint/resume
determinism, graceful interruption, and the fault-injection harness.

The centerpiece is the golden determinism guard: interrupting a run at
stage k (by budget, signal, or injected fault) and resuming from its
checkpoint must produce a final layout and metrics bit-identical to a
run that was never interrupted — for multiple interrupt points and
seeds.  Everything else (digest rejection of corrupted files, crash
windows, typed errors) defends the machinery that guarantee rests on.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import signal

import pytest

from repro.core import AnnealerConfig, ScheduleConfig, SimultaneousAnnealer
from repro.lint.runtime import layout_digest
from repro.netlist import tiny
from repro.resilience import (
    CheckpointError,
    FaultInjector,
    FaultPlan,
    InterruptController,
    LayoutSnapshot,
    RouterFault,
    SimulatedCrash,
    atomic_write_text,
    corrupt_file,
    read_checkpoint,
    resume_digest,
    truncate_file,
    write_checkpoint,
)
from repro.obs.ledger import FAMILY_EXCLUDE
from repro.obs.tracer import NON_IDENTITY_FIELDS
from repro.resilience.checkpoint import (
    CHECKPOINT_KIND,
    CHECKPOINT_SCHEMA_VERSION,
    RETIRED_CONFIG_FIELDS,
    config_from_payload,
)

from conftest import architecture_for


def micro_config(seed=3, **overrides):
    base = dict(
        seed=seed,
        attempts_per_cell=3,
        initial="clustered",
        greedy_rounds=2,
        schedule=ScheduleConfig(
            lambda_=2.0, max_temperatures=8, freeze_patience=2
        ),
    )
    base.update(overrides)
    return AnnealerConfig(**base)


def make_design(seed=4):
    netlist = tiny(seed=seed, num_cells=32, depth=4)
    return netlist, architecture_for(netlist, tracks=10, vtracks=5)


def run_anneal(config, design_seed=4):
    netlist, arch = make_design(design_seed)
    annealer = SimultaneousAnnealer(netlist, arch, config)
    return annealer, annealer.run()


def comparable_metrics(result):
    """Result metrics minus the one legitimately nondeterministic field."""
    return {k: v for k, v in result.metrics().items() if k != "wall_time_s"}


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------
class TestAtomicWrite:
    def test_writes_content_and_cleans_tmp(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_text(path, '{"x": 1}')
        assert path.read_text() == '{"x": 1}'
        assert list(tmp_path.iterdir()) == [path]

    def test_overwrites_existing(self, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_text("old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_crash_hook_fires_before_rename(self, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_text("old")
        with FaultInjector(FaultPlan(crash_write=1, crash_kind="test")):
            with pytest.raises(SimulatedCrash):
                atomic_write_text(path, "new", kind="test")
        # Destination untouched; the durable temp file is left behind.
        assert path.read_text() == "old"
        assert (tmp_path / "artifact.json.tmp").read_text() == "new"

    def test_crash_hook_ignores_other_kinds(self, tmp_path):
        path = tmp_path / "artifact.json"
        with FaultInjector(FaultPlan(crash_write=1, crash_kind="checkpoint")):
            atomic_write_text(path, "fine", kind="layout")
        assert path.read_text() == "fine"


# ----------------------------------------------------------------------
# Checkpoint file format
# ----------------------------------------------------------------------
@pytest.fixture
def checkpointed(tmp_path):
    """A short interrupted run that left a checkpoint behind."""
    path = tmp_path / "anneal.ckpt"
    config = micro_config(
        checkpoint_path=str(path), checkpoint_every=1, max_stages=3
    )
    annealer, result = run_anneal(config)
    assert result.interrupted is not None
    return path, config, result


class TestCheckpointFormat:
    def test_roundtrip(self, tmp_path):
        payload = {"format": 1, "kind": "repro-anneal-checkpoint",
                   "data": [1.5, 2.25], "phase": "anneal"}
        path = tmp_path / "ck.json"
        digest = write_checkpoint(payload, path)
        assert len(digest) == 64
        assert read_checkpoint(path) == payload

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_checkpoint(tmp_path / "nope.json")

    def test_truncated_file_rejected(self, checkpointed):
        path, _, _ = checkpointed
        truncate_file(path, keep_fraction=0.5)
        with pytest.raises(CheckpointError, match="not valid JSON"):
            read_checkpoint(path)

    def test_corrupted_byte_rejected(self, checkpointed):
        path, _, _ = checkpointed
        corrupt_file(path)
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_tampered_payload_fails_digest(self, checkpointed):
        path, _, _ = checkpointed
        envelope = json.loads(path.read_text())
        envelope["payload"]["stage_index"] += 1  # edit, keep the old sha
        path.write_text(json.dumps(envelope, separators=(",", ":")))
        with pytest.raises(CheckpointError, match="digest"):
            read_checkpoint(path)

    def test_wrong_format_version_rejected(self, checkpointed, tmp_path):
        path, _, _ = checkpointed
        payload = read_checkpoint(path)
        payload["format"] = 999
        bad = tmp_path / "future.ckpt"
        write_checkpoint(payload, bad)  # re-signed, so digest passes
        with pytest.raises(CheckpointError, match="unsupported checkpoint"):
            read_checkpoint(bad)

    def test_wrong_kind_rejected(self, checkpointed, tmp_path):
        path, _, _ = checkpointed
        payload = read_checkpoint(path)
        payload["kind"] = "something-else"
        bad = tmp_path / "other.ckpt"
        write_checkpoint(payload, bad)
        with pytest.raises(CheckpointError, match="not an anneal checkpoint"):
            read_checkpoint(bad)

    def test_resume_digest_ignores_non_identity_fields(self):
        base = micro_config()
        relaxed = dataclasses.replace(
            base, max_stages=7, checkpoint_every=2, checkpoint_path="x.ckpt",
            trace=True, handle_signals=True,
        )
        changed = dataclasses.replace(base, attempts_per_cell=5)
        reseeded = dataclasses.replace(base, seed=99)
        assert resume_digest(base) == resume_digest(relaxed)
        assert resume_digest(base) != resume_digest(changed)
        assert resume_digest(base) != resume_digest(reseeded)

    def test_identity_lists_name_live_config_fields(self):
        # One list of run options serves the checkpoint and the ledger;
        # a stale entry (a field since deleted) would silently exclude
        # nothing.  Retired fields must really be gone.
        fields = {f.name for f in dataclasses.fields(AnnealerConfig)}
        assert set(NON_IDENTITY_FIELDS) <= fields
        assert len(set(NON_IDENTITY_FIELDS)) == len(NON_IDENTITY_FIELDS)
        assert FAMILY_EXCLUDE == ("seed",) + NON_IDENTITY_FIELDS
        assert not set(RETIRED_CONFIG_FIELDS) & fields


class TestResumeValidation:
    def test_config_mismatch_rejected(self, checkpointed):
        path, _, _ = checkpointed
        netlist, arch = make_design()
        other = micro_config(attempts_per_cell=5)
        with pytest.raises(CheckpointError, match="different configuration"):
            SimultaneousAnnealer.resume(netlist, arch, path, config=other)

    def test_wrong_circuit_rejected(self, checkpointed, tmp_path):
        path, _, _ = checkpointed
        payload = read_checkpoint(path)
        payload["circuit"] = "someone-else"
        bad = tmp_path / "wrong.ckpt"
        write_checkpoint(payload, bad)
        netlist, arch = make_design()
        with pytest.raises(CheckpointError, match="circuit"):
            SimultaneousAnnealer.resume(netlist, arch, bad)

    def test_tampered_layout_rejected(self, checkpointed, tmp_path):
        path, _, _ = checkpointed
        payload = read_checkpoint(path)
        payload["layout"]["cells"]["ghost"] = {"slot": [0, 0], "pinmap": 0}
        bad = tmp_path / "ghost.ckpt"
        write_checkpoint(payload, bad)
        netlist, arch = make_design()
        with pytest.raises(CheckpointError, match="unknown cell"):
            SimultaneousAnnealer.resume(netlist, arch, bad)


# ----------------------------------------------------------------------
# Golden determinism: interrupt + resume == uninterrupted
# ----------------------------------------------------------------------
class TestResumeDeterminism:
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("interrupt_at", [2, 5])
    def test_interrupt_and_resume_is_bit_identical(
        self, tmp_path, seed, interrupt_at
    ):
        _, reference = run_anneal(micro_config(seed=seed))
        ref_metrics = comparable_metrics(reference)
        ref_digest = layout_digest(reference)

        path = tmp_path / f"ck_{seed}_{interrupt_at}.ckpt"
        interrupted_cfg = micro_config(
            seed=seed, checkpoint_path=str(path), checkpoint_every=1,
            max_stages=interrupt_at,
        )
        _, partial = run_anneal(interrupted_cfg)
        assert partial.interrupted == f"stage budget ({interrupt_at})"
        assert partial.checkpoint_path == str(path)

        netlist, arch = make_design()
        resumed = SimultaneousAnnealer.resume(
            netlist, arch, path, config=micro_config(seed=seed)
        ).run()
        assert resumed.interrupted is None
        assert comparable_metrics(resumed) == ref_metrics
        assert layout_digest(resumed) == ref_digest

    def test_exhaustive_path_checkpoint_resumes_on_fast_path(self, tmp_path):
        # fast_path only picks the repair path, and both paths are
        # bit-identical, so it must not be part of checkpoint identity.
        _, reference = run_anneal(micro_config())
        path = tmp_path / "ck.ckpt"
        _, partial = run_anneal(micro_config(
            fast_path=False, checkpoint_path=str(path), checkpoint_every=1,
            max_stages=3,
        ))
        assert partial.interrupted == "stage budget (3)"
        netlist, arch = make_design()
        resumed = SimultaneousAnnealer.resume(
            netlist, arch, path, config=micro_config(fast_path=True)
        ).run()
        assert resumed.terms == reference.terms
        assert comparable_metrics(resumed) == comparable_metrics(reference)
        assert layout_digest(resumed) == layout_digest(reference)

    @pytest.mark.parametrize("retired_value", [True, False])
    def test_checkpoint_with_retired_core_switch_resumes(
        self, tmp_path, retired_value
    ):
        # Checkpoints written while the config still had a since
        # retired switch (the move core, profiling) carry it in their
        # config record, with either value.  No retired switch shaped
        # the trajectory, so such a checkpoint must resume from its own
        # config record, bit-identically.
        _, reference = run_anneal(micro_config())
        path = tmp_path / "ck.ckpt"
        _, partial = run_anneal(micro_config(
            checkpoint_path=str(path), checkpoint_every=1, max_stages=3,
        ))
        assert partial.interrupted == "stage budget (3)"
        payload = read_checkpoint(path)
        for name in RETIRED_CONFIG_FIELDS:
            assert name not in payload["config"]
            payload["config"][name] = retired_value
        write_checkpoint(payload, path)  # re-seal the envelope digest
        sealed = read_checkpoint(path)["config"]
        assert all(sealed[name] is retired_value
                   for name in RETIRED_CONFIG_FIELDS)
        config = config_from_payload(read_checkpoint(path))
        assert config == micro_config(
            checkpoint_path=str(path), checkpoint_every=1, max_stages=3,
        )
        netlist, arch = make_design()
        result = SimultaneousAnnealer.resume(
            netlist, arch, path,
            config=dataclasses.replace(config, max_stages=0),
        ).run()
        assert result.terms == reference.terms
        assert comparable_metrics(result) == comparable_metrics(reference)
        assert layout_digest(result) == layout_digest(reference)

    def test_checkpointing_is_invisible_to_plain_runs(self, tmp_path):
        _, plain = run_anneal(micro_config())
        path = tmp_path / "ck.ckpt"
        _, checkpointed = run_anneal(
            micro_config(checkpoint_path=str(path), checkpoint_every=2)
        )
        assert comparable_metrics(checkpointed) == comparable_metrics(plain)
        assert layout_digest(checkpointed) == layout_digest(plain)
        # And the run-to-completion checkpoint is itself resumable.
        payload = read_checkpoint(path)
        assert payload["phase"] == "done"

    def test_resume_of_completed_run_returns_same_layout(self, tmp_path):
        path = tmp_path / "ck.ckpt"
        _, done = run_anneal(micro_config(checkpoint_path=str(path)))
        netlist, arch = make_design()
        resumed = SimultaneousAnnealer.resume(
            netlist, arch, path, config=micro_config()
        ).run()
        assert comparable_metrics(resumed) == comparable_metrics(done)
        assert layout_digest(resumed) == layout_digest(done)

    def test_move_budget_interrupt_resumes_bit_identical(self, tmp_path):
        """A move budget that lands mid-anneal (stop is only taken at
        stage boundaries, so the budget must fall before the final
        stretch to actually interrupt)."""
        _, reference = run_anneal(micro_config())
        path = tmp_path / "ck.ckpt"
        budget = reference.moves_attempted // 2
        cfg = micro_config(
            checkpoint_path=str(path), checkpoint_every=1, max_moves=budget
        )
        _, partial = run_anneal(cfg)
        assert partial.interrupted == f"move budget ({budget})"
        netlist, arch = make_design()
        resumed = SimultaneousAnnealer.resume(
            netlist, arch, path, config=micro_config()
        ).run()
        assert comparable_metrics(resumed) == comparable_metrics(reference)
        assert layout_digest(resumed) == layout_digest(reference)

    def test_checkpoint_events_ride_in_trace(self, tmp_path):
        path = tmp_path / "ck.ckpt"
        cfg = micro_config(
            checkpoint_path=str(path), checkpoint_every=2, trace=True
        )
        _, result = run_anneal(cfg)
        events = result.trace.of_type("checkpoint")
        assert events, "expected checkpoint events in the trace"
        for event in events:
            assert event["path"] == str(path)
            assert len(event["sha256"]) == 64
        assert result.trace.validate() == []


# ----------------------------------------------------------------------
# Graceful interruption
# ----------------------------------------------------------------------
class TestInterruptedResult:
    def test_budget_stop_returns_usable_best_so_far(self, tmp_path):
        path = tmp_path / "ck.ckpt"
        cfg = micro_config(
            checkpoint_path=str(path), checkpoint_every=1, max_stages=3
        )
        annealer, result = run_anneal(cfg)
        assert result.interrupted == "stage budget (3)"
        assert result.checkpoint_path == str(path)
        # The returned layout is complete and internally consistent.
        assert result.state.check_consistency() == []
        assert annealer.audit() == []
        for cell in annealer.netlist.cells:
            assert result.placement.slot_of(cell.index) is not None
        # The checkpoint on disk is genuinely resumable.
        payload = read_checkpoint(path)
        assert payload["phase"] in ("anneal", "greedy")

    def test_interrupted_flag_reaches_trace_run_end(self, tmp_path):
        path = tmp_path / "ck.ckpt"
        cfg = micro_config(
            checkpoint_path=str(path), max_stages=2, trace=True
        )
        _, result = run_anneal(cfg)
        assert result.trace.run_end["interrupted"] == "stage budget (2)"
        _, plain = run_anneal(micro_config(trace=True))
        assert "interrupted" not in plain.trace.run_end


class TestInterruptController:
    def test_budgets(self):
        ctl = InterruptController(max_seconds=10.0, max_stages=5, max_moves=100)
        assert ctl.should_stop(0, 0, 0.0) is None
        assert ctl.should_stop(5, 0, 0.0) == "stage budget (5)"
        ctl = InterruptController(max_moves=100)
        assert ctl.should_stop(99, 100, 999.0) == "move budget (100)"
        ctl = InterruptController(max_seconds=1.5)
        assert ctl.should_stop(0, 0, 1.5) == "wall-clock budget (1.5s)"

    def test_zero_means_unlimited(self):
        ctl = InterruptController()
        assert ctl.should_stop(10**6, 10**9, 10**6) is None

    def test_first_reason_wins(self):
        ctl = InterruptController(max_stages=1)
        ctl.request_stop("signal SIGINT")
        assert ctl.should_stop(5, 0, 0.0) == "signal SIGINT"

    def test_first_signal_requests_stop(self):
        ctl = InterruptController(handle_signals=True)
        ctl._handle(signal.SIGINT, None)
        assert ctl.stop_requested == "signal SIGINT"

    def test_second_signal_raises(self):
        ctl = InterruptController(handle_signals=True)
        ctl._handle(signal.SIGINT, None)
        with pytest.raises(KeyboardInterrupt):
            ctl._handle(signal.SIGINT, None)

    def test_handlers_installed_and_restored(self):
        before = signal.getsignal(signal.SIGINT)
        with InterruptController(handle_signals=True) as ctl:
            assert signal.getsignal(signal.SIGINT) == ctl._handle
        assert signal.getsignal(signal.SIGINT) == before

    def test_no_handlers_without_opt_in(self):
        before = signal.getsignal(signal.SIGINT)
        with InterruptController():
            assert signal.getsignal(signal.SIGINT) == before


# ----------------------------------------------------------------------
# Fault injection: every recovery path recovers
# ----------------------------------------------------------------------
def count_route_attempts(config):
    """Total route attempts one run makes (the injector's own counter,
    armed with a trigger too large to ever fire)."""
    netlist, arch = make_design()
    annealer = SimultaneousAnnealer(netlist, arch, config)
    with FaultInjector(FaultPlan(router_attempt=10**9)) as injector:
        annealer.run()
        return injector.route_attempts


class TestFaultPlanParse:
    def test_parse_all_kinds(self):
        plan = FaultPlan.parse(
            "router@120, crash-rename@2, sigint@300, kill@40"
        )
        assert plan == FaultPlan(
            router_attempt=120,
            crash_write=2,
            sigint_attempt=300,
            kill_attempt=40,
        )

    def test_parse_kill_alone(self):
        assert FaultPlan.parse("kill@300") == FaultPlan(kill_attempt=300)

    @pytest.mark.parametrize("spec", ["kill", "kill@x", "kill@0"])
    def test_bad_kill_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_empty_spec(self):
        assert FaultPlan.parse("") == FaultPlan()

    @pytest.mark.parametrize(
        "spec", ["router", "router@x", "router@0", "explode@3"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_nested_injectors_rejected(self):
        with FaultInjector(FaultPlan(router_attempt=10**9)):
            with pytest.raises(RuntimeError, match="already armed"):
                with FaultInjector(FaultPlan(router_attempt=10**9)):
                    pass


class TestFaultRecovery:
    def test_sigint_mid_anneal_then_resume_matches_reference(self, tmp_path):
        _, reference = run_anneal(micro_config())
        total = count_route_attempts(micro_config())

        path = tmp_path / "ck.ckpt"
        cfg = micro_config(
            checkpoint_path=str(path), checkpoint_every=1, handle_signals=True
        )
        netlist, arch = make_design()
        annealer = SimultaneousAnnealer(netlist, arch, cfg)
        with FaultInjector(FaultPlan(sigint_attempt=total // 2)):
            result = annealer.run()
        assert result.interrupted == "signal SIGINT"

        netlist, arch = make_design()
        resumed = SimultaneousAnnealer.resume(
            netlist, arch, path, config=micro_config()
        ).run()
        assert comparable_metrics(resumed) == comparable_metrics(reference)
        assert layout_digest(resumed) == layout_digest(reference)

    def test_router_fault_then_resume_matches_reference(self, tmp_path):
        _, reference = run_anneal(micro_config())
        total = count_route_attempts(micro_config())

        path = tmp_path / "ck.ckpt"
        cfg = micro_config(checkpoint_path=str(path), checkpoint_every=1)
        netlist, arch = make_design()
        annealer = SimultaneousAnnealer(netlist, arch, cfg)
        with FaultInjector(FaultPlan(router_attempt=total // 2)):
            with pytest.raises(RouterFault, match="injected router fault"):
                annealer.run()

        # The periodic checkpoint survived the crash; resuming from it
        # reproduces the uninterrupted run bit-exactly.
        netlist, arch = make_design()
        resumed = SimultaneousAnnealer.resume(
            netlist, arch, path, config=micro_config()
        ).run()
        assert comparable_metrics(resumed) == comparable_metrics(reference)
        assert layout_digest(resumed) == layout_digest(reference)

    def test_crash_between_write_and_rename_keeps_old_checkpoint(
        self, tmp_path
    ):
        _, reference = run_anneal(micro_config())

        path = tmp_path / "ck.ckpt"
        cfg = micro_config(checkpoint_path=str(path), checkpoint_every=1)
        netlist, arch = make_design()
        annealer = SimultaneousAnnealer(netlist, arch, cfg)
        with FaultInjector(FaultPlan(crash_write=2)):
            with pytest.raises(SimulatedCrash):
                annealer.run()

        # The first checkpoint is intact under the real name; the dead
        # write survives only as the temp sibling.
        payload = read_checkpoint(path)
        assert payload["stage_index"] == 1
        assert (tmp_path / "ck.ckpt.tmp").exists()

        netlist, arch = make_design()
        resumed = SimultaneousAnnealer.resume(
            netlist, arch, path, config=micro_config()
        ).run()
        assert comparable_metrics(resumed) == comparable_metrics(reference)
        assert layout_digest(resumed) == layout_digest(reference)


# ----------------------------------------------------------------------
# Layout snapshots
# ----------------------------------------------------------------------
class TestLayoutSnapshot:
    def test_matches_layout_io_schema(self, routed_tiny, tiny_netlist):
        from repro.flows import layout_to_dict

        placement, state = routed_tiny
        snapshot = LayoutSnapshot.capture(placement, state)
        assert snapshot.to_layout_dict(tiny_netlist) == layout_to_dict(
            placement, state
        )

    def test_dict_roundtrip(self, routed_tiny, tiny_netlist):
        placement, state = routed_tiny
        snapshot = LayoutSnapshot.capture(placement, state)
        data = snapshot.to_layout_dict(tiny_netlist)
        assert LayoutSnapshot.from_layout_dict(tiny_netlist, data) == snapshot

    def test_restore_into_other_layout(
        self, routed_tiny, random_routed_tiny, tiny_netlist
    ):
        placement, state = routed_tiny
        snapshot = LayoutSnapshot.capture(placement, state)
        other_placement, other_state = random_routed_tiny
        snapshot.restore(other_placement, other_state)
        assert other_state.check_consistency() == []
        assert LayoutSnapshot.capture(other_placement, other_state) == snapshot

    def test_restore_rejects_double_booking(
        self, routed_tiny, random_routed_tiny, tiny_netlist
    ):
        placement, state = routed_tiny
        snapshot = LayoutSnapshot.capture(placement, state)
        donor, victim = [
            i for i, claims in enumerate(snapshot.claims) if claims
        ][:2]
        stolen = list(snapshot.claims)
        stolen[victim] = snapshot.claims[donor]
        bad = dataclasses.replace(snapshot, claims=tuple(stolen))
        other_placement, other_state = random_routed_tiny
        with pytest.raises(CheckpointError):
            bad.restore(other_placement, other_state)


# ----------------------------------------------------------------------
# Kill faults (real SIGKILL, delivered in a child process)
# ----------------------------------------------------------------------
def _anneal_until_killed(checkpoint_path, kill_attempt):
    """Child-process target: anneal with periodic checkpoints until the
    armed kill fault SIGKILLs us mid-run.  Never returns normally."""
    cfg = micro_config(checkpoint_path=str(checkpoint_path), checkpoint_every=1)
    netlist, arch = make_design()
    annealer = SimultaneousAnnealer(netlist, arch, cfg)
    with FaultInjector(FaultPlan(kill_attempt=kill_attempt)):
        annealer.run()


class TestKillFault:
    def test_sigkill_mid_anneal_then_resume_matches_reference(self, tmp_path):
        """A real SIGKILL — no handler, no cleanup, no final checkpoint —
        leaves the last *periodic* checkpoint intact under the real
        name, and resuming from it reproduces the uninterrupted run
        bit-exactly.  This is the exact contract the service supervisor
        leans on when it reschedules a reaped worker."""
        _, reference = run_anneal(micro_config())
        total = count_route_attempts(micro_config())

        path = tmp_path / "ck.ckpt"
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(
            target=_anneal_until_killed, args=(path, total // 2)
        )
        child.start()
        child.join(timeout=120)
        assert child.exitcode == -signal.SIGKILL

        # The periodic checkpoint survived the kill and verifies.
        payload = read_checkpoint(path)
        assert payload["kind"] == CHECKPOINT_KIND

        netlist, arch = make_design()
        resumed = SimultaneousAnnealer.resume(
            netlist, arch, path, config=micro_config()
        ).run()
        assert comparable_metrics(resumed) == comparable_metrics(reference)
        assert layout_digest(resumed) == layout_digest(reference)


# ----------------------------------------------------------------------
# Checkpoint-path races
# ----------------------------------------------------------------------
def _race_writer(path, marker, rounds):
    """Child-process target: hammer ``write_checkpoint`` on a shared
    path.  A concurrent writer may steal our temp sibling between write
    and rename (the deterministic ``.tmp`` name is shared); that
    surfaces as ``FileNotFoundError`` from ``os.replace`` and is the
    documented best-effort rename race — retry by moving on."""
    payload = {
        "format": CHECKPOINT_SCHEMA_VERSION,
        "kind": CHECKPOINT_KIND,
        "marker": marker,
    }
    done = 0
    while done < rounds:
        try:
            write_checkpoint(payload, path)
        except FileNotFoundError:
            continue
        done += 1


def _alternating_writer(path, envelope_a, envelope_b, rounds):
    """Child-process target: atomically republish two pre-serialised
    checkpoint envelopes over the same path, alternating."""
    for index in range(rounds):
        atomic_write_text(
            path, envelope_b if index % 2 else envelope_a, kind="checkpoint"
        )


class TestCheckpointPathRaces:
    def test_concurrent_writers_never_publish_silent_garbage(self, tmp_path):
        """Two processes writing the same checkpoint path: every read
        during the race either verifies (yielding one writer's intact
        payload) or fails with the typed ``CheckpointError`` — the
        digest envelope turns any torn publish into a detected one,
        never a silently-accepted one.  Once the race is over, a final
        uncontended write wins outright."""
        path = tmp_path / "shared.ckpt"
        ctx = multiprocessing.get_context("fork")
        writers = [
            ctx.Process(target=_race_writer, args=(path, marker, 150))
            for marker in ("alpha", "beta")
        ]
        for writer in writers:
            writer.start()

        seen = set()
        while any(writer.is_alive() for writer in writers):
            try:
                payload = read_checkpoint(path)
            except CheckpointError:
                continue  # not-yet-created or detected-torn: both typed
            assert payload["marker"] in ("alpha", "beta")
            seen.add(payload["marker"])
        for writer in writers:
            writer.join(timeout=60)
            assert writer.exitcode == 0
        assert seen, "reader never observed a committed checkpoint"

        # Last (uncontended) writer wins under the real name.
        final = {
            "format": CHECKPOINT_SCHEMA_VERSION,
            "kind": CHECKPOINT_KIND,
            "marker": "final",
        }
        write_checkpoint(final, path)
        assert read_checkpoint(path)["marker"] == "final"

    def test_resume_while_writer_replaces_checkpoint(self, tmp_path):
        """``resume()`` racing a single writer that keeps replacing the
        checkpoint: with one writer there is no temp-name contention,
        so every read must succeed — the reader sees one complete
        envelope or the other, never a blend — and whichever one it
        catches resumes to the bit-identical reference layout (the two
        checkpoints differ only in ``max_stages``, a non-identity
        budget field, so they share one resume digest)."""
        _, reference = run_anneal(micro_config())
        ref_metrics = comparable_metrics(reference)
        ref_digest = layout_digest(reference)

        stages = {}
        for interrupt_at in (2, 5):
            source = tmp_path / f"src_{interrupt_at}.ckpt"
            run_anneal(
                micro_config(
                    checkpoint_path=str(source),
                    checkpoint_every=1,
                    max_stages=interrupt_at,
                )
            )
            payload = read_checkpoint(source)
            stages[payload["stage_index"]] = source
        assert len(stages) == 2
        envelopes = [p.read_text(encoding="utf-8") for p in stages.values()]

        shared = tmp_path / "shared.ckpt"
        ctx = multiprocessing.get_context("fork")
        writer = ctx.Process(
            target=_alternating_writer, args=(shared, *envelopes, 400)
        )
        writer.start()

        observed = set()
        resumed_from = set()
        while writer.is_alive():
            try:
                payload = read_checkpoint(shared)
            except CheckpointError as exc:
                # Only tolerable before the very first publish.
                assert not observed, f"read tore mid-race: {exc}"
                continue
            observed.add(payload["stage_index"])
            if payload["stage_index"] not in resumed_from:
                netlist, arch = make_design()
                resumed = SimultaneousAnnealer.resume(
                    netlist, arch, dict(payload), config=micro_config()
                ).run()
                assert comparable_metrics(resumed) == ref_metrics
                assert layout_digest(resumed) == ref_digest
                resumed_from.add(payload["stage_index"])
        writer.join(timeout=60)
        assert writer.exitcode == 0
        assert observed <= set(stages)
        assert resumed_from, "never resumed from the contended checkpoint"
