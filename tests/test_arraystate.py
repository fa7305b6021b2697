"""Coherence probes of the flat-array move core.

:class:`repro.core.arraystate.ArrayState` cross-validates the hot-path
arrays (per-track occupancy bitmasks, route versions, version-keyed
delay caches) against the object books and a bit-exact recompute.  The
sanitizer and :func:`repro.lint.runtime.check_all` run these probes;
the tests here pin that they pass on settled layouts and catch a
planted divergence.
"""

import pytest

from repro.core import AnnealerConfig, ScheduleConfig, SimultaneousAnnealer
from repro.core.arraystate import HAVE_NUMPY, ArrayState
from repro.lint.runtime import MoveSanitizer, SanitizerError
from repro.netlist import tiny

from conftest import architecture_for


def _config(seed, sanitize=False):
    return AnnealerConfig(
        seed=seed,
        attempts_per_cell=3,
        initial="clustered",
        greedy_rounds=1,
        sanitize=sanitize,
        schedule=ScheduleConfig(
            lambda_=2.0, max_temperatures=6, freeze_patience=2
        ),
    )


def _anneal(netlist_seed, anneal_seed, **config_kw):
    netlist = tiny(seed=netlist_seed, num_cells=28, depth=4)
    arch = architecture_for(netlist, tracks=10, vtracks=5)
    annealer = SimultaneousAnnealer(
        netlist, arch, _config(anneal_seed, **config_kw)
    )
    result = annealer.run()
    assert annealer.audit() == []
    return annealer, result


class TestArrayStateWiring:
    def test_bundle_is_coherent_after_run(self):
        annealer, result = _anneal(31, 1)
        arrays = ArrayState(result.state, annealer.ctx.timing)
        # Post-run coherence: occupancy masks, claim books, route
        # versions, and timing caches all agree with the object graph.
        assert arrays.check_all() == []
        assert arrays.audit_column_occupancy() == []

    def test_probe_rotates_and_stays_clean(self):
        annealer, result = _anneal(32, 2)
        arrays = ArrayState(result.state, annealer.ctx.timing)
        # The sanitizer probe samples a different slice per move
        # counter; a settled state must be clean at every phase.
        for counter in range(8):
            assert arrays.probe(counter) == []

    def test_probe_detects_occupancy_divergence(self):
        annealer, result = _anneal(33, 2)
        state = result.state
        arrays = ArrayState(state, annealer.ctx.timing)
        # Flip one unowned segment bit in the occupancy bitmask behind
        # the books' back; the probe must flag the divergence.
        channel = state.fabric.channels[0]
        for track, owners in enumerate(channel._owner):
            for seg, owner in enumerate(owners):
                if owner is None:
                    channel._occ[track] |= 1 << seg
                    problems = arrays.probe_channel(0)
                    assert problems, "divergent occupancy went undetected"
                    assert any("occupancy" in p for p in problems)
                    channel._occ[track] &= ~(1 << seg)
                    assert arrays.probe_channel(0) == []
                    return
        pytest.skip("channel 0 fully occupied")  # pragma: no cover

    def test_audit_and_sanitizer_reach_timing_probe(self):
        # No switch selects the probes: the annealer's audit and the
        # sanitizer's per-move sample both run them on every state.
        annealer, _ = _anneal(35, 3)
        ctx = annealer.ctx
        timing = ctx.timing
        sanitizer = MoveSanitizer(check_every=1000)
        net = 1 % ctx.state.netlist.num_nets  # the first move's sample
        if timing._delay_cache[net] is None:
            timing.sink_delays(net)
        good = timing._delay_cache[net]
        timing._delay_cache[net] = [value + 1.0 for value in good]
        try:
            assert any(
                p.startswith("array-coherence") for p in annealer.audit()
            )
            with pytest.raises(SanitizerError) as caught:
                sanitizer.check_commit(ctx, move=None)
            assert any(
                p.startswith("array-coherence")
                for p in caught.value.problems
            )
        finally:
            timing._delay_cache[net] = good
        assert annealer.audit() == []

    def test_sanitized_array_run_matches_plain(self):
        _, plain = _anneal(34, 6)
        _, sanitized = _anneal(34, 6, sanitize=True)
        assert sanitized.moves_attempted == plain.moves_attempted
        assert sanitized.moves_accepted == plain.moves_accepted
        assert sanitized.terms == plain.terms

    def test_numpy_flag_is_a_bool(self):
        # The numpy backend is auto-detected; either way the audits
        # above must have passed, so just pin the policy surface.
        assert isinstance(HAVE_NUMPY, bool)
