"""Tests for the adversarial attack-synthesis engine (repro.security.synth).

Three layers of pinning:

* **Golden bytes**: fixed seeds must reproduce the checked-in traces under
  ``tests/golden/synth/`` byte-for-byte (``Trace.save`` format), so a
  synthesizer refactor cannot silently change the access patterns behind
  published security verdicts.
* **Generator properties**: seeded reproducibility, seed sensitivity,
  channel confinement, and the sketch-aliasing whitebox guarantees (decoys
  collide with each other in CoMeT's Counter Table but never with the
  aggressor pair).
* **Registry composition**: every pattern resolves through the workload
  registry and composes with :class:`~repro.experiment.spec.WorkloadSpec`.
"""

from pathlib import Path

import pytest

from repro.dram.address import AddressMapper
from repro.experiment.registry import registered_workload_names, workload_entry
from repro.experiment.spec import WorkloadSpec, default_experiment_config
from repro.security.synth import (
    comet_counter_groups,
    find_aliasing_decoys,
    synth_pattern_names,
    synth_refresh_wave,
    synth_sketch_aliasing,
    synth_uniform,
)

GOLDEN_DIR = Path(__file__).parent / "golden" / "synth"
GOLDEN_REQUESTS = 240
GOLDEN_SEED = 1


@pytest.fixture(scope="module")
def dram_config():
    return default_experiment_config()


class TestRegistry:
    def test_all_patterns_registered_under_synth_category(self):
        names = synth_pattern_names()
        assert names == registered_workload_names("synth")
        assert set(names) == {
            "synth_blacksmith",
            "synth_multichannel",
            "synth_refresh_wave",
            "synth_rowpress",
            "synth_sketch_aliasing",
            "synth_uniform",
        }

    @pytest.mark.parametrize("name", synth_pattern_names())
    def test_builds_through_workload_spec(self, name, dram_config):
        traces = WorkloadSpec(name=name, num_requests=64, seed=3).build_traces(
            dram_config
        )
        assert len(traces) == 1
        assert len(traces[0]) == 64
        assert traces[0].name == name

    @pytest.mark.parametrize("name", synth_pattern_names())
    def test_entry_category(self, name):
        assert workload_entry(name).category == "synth"


class TestDeterminism:
    @pytest.mark.parametrize("name", synth_pattern_names())
    def test_same_seed_same_bytes(self, name, dram_config, tmp_path):
        build = workload_entry(name).build
        first = build(num_requests=120, dram_config=dram_config, seed=7)
        second = build(num_requests=120, dram_config=dram_config, seed=7)
        a, b = tmp_path / "a.trace", tmp_path / "b.trace"
        first.save(a)
        second.save(b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("name", ["synth_uniform", "synth_blacksmith"])
    def test_different_seeds_differ(self, name, dram_config):
        build = workload_entry(name).build
        first = build(num_requests=120, dram_config=dram_config, seed=0)
        second = build(num_requests=120, dram_config=dram_config, seed=1)
        assert [e.address for e in first] != [e.address for e in second]

    @pytest.mark.parametrize("name", synth_pattern_names())
    def test_golden_bytes(self, name, dram_config, tmp_path):
        """Fixed seed -> byte-identical to the checked-in golden trace.

        Regenerate intentionally with
        ``PYTHONPATH=src python tools/gen_synth_golden.py``.
        """
        golden = GOLDEN_DIR / f"{name}.trace"
        assert golden.exists(), f"missing golden trace {golden}"
        trace = WorkloadSpec(
            name=name, num_requests=GOLDEN_REQUESTS, seed=GOLDEN_SEED
        ).build_traces(dram_config)[0]
        fresh = tmp_path / "fresh.trace"
        trace.save(fresh)
        assert fresh.read_bytes() == golden.read_bytes(), (
            f"{name} diverged from its golden trace; if the change is "
            "intentional, regenerate with tools/gen_synth_golden.py"
        )


class TestChannelConfinement:
    @pytest.mark.parametrize(
        "name",
        ["synth_uniform", "synth_blacksmith", "synth_sketch_aliasing", "synth_rowpress"],
    )
    def test_single_bank_patterns_stay_on_their_channel(self, name):
        config = default_experiment_config(channels=2)
        mapper = AddressMapper(config)
        build = workload_entry(name).build
        trace = build(num_requests=100, dram_config=config, seed=0, channel=1)
        channels = {mapper.decode(entry.address).channel for entry in trace}
        assert channels == {1}

    def test_multichannel_pattern_covers_every_channel(self):
        config = default_experiment_config(channels=2)
        mapper = AddressMapper(config)
        build = workload_entry("synth_multichannel").build
        trace = build(num_requests=100, dram_config=config, seed=0)
        channels = {mapper.decode(entry.address).channel for entry in trace}
        assert channels == {0, 1}

    def test_multichannel_pattern_is_double_sided_on_each_channel(self):
        """Every channel must alternate both rows of its pair (a regression
        guard: with the side phase-locked to the channel, each channel
        hammers one open row and issues essentially no ACTs)."""
        config = default_experiment_config(channels=2)
        mapper = AddressMapper(config)
        build = workload_entry("synth_multichannel").build
        trace = build(num_requests=100, dram_config=config, seed=0)
        rows_by_channel = {}
        per_channel_rows = {}
        for entry in trace:
            decoded = mapper.decode(entry.address)
            per_channel_rows.setdefault(decoded.channel, []).append(decoded.row)
            rows_by_channel.setdefault(decoded.channel, set()).add(decoded.row)
        for channel, rows in rows_by_channel.items():
            assert len(rows) == 2, f"channel {channel} is not double-sided: {rows}"
            low, high = sorted(rows)
            assert high - low == 2  # one victim row between the pair
        # Consecutive accesses on one channel alternate the pair's sides, so
        # every access is a row conflict (an ACT) on that channel's bank.
        for channel, sequence in per_channel_rows.items():
            assert all(a != b for a, b in zip(sequence, sequence[1:]))


class TestSketchAliasing:
    """The whitebox guarantees the sketch-aliasing attack is built on."""

    def test_decoys_collide_with_each_other_not_with_aggressors(self, dram_config):
        rows_per_bank = dram_config.organization.rows_per_bank
        bank_key = (0, 0, 0, 0)
        aggressors = [511, 513]
        decoys = find_aliasing_decoys(
            aggressors, rows_per_bank, bank_key, count=16
        )
        assert len(decoys) == 16
        assert not set(decoys) & {510, 511, 512, 513, 514}
        groups = {
            row: set(group)
            for row, group in zip(decoys, comet_counter_groups(decoys, bank_key))
        }
        aggressor_counters = {
            counter
            for group in comet_counter_groups(aggressors, bank_key)
            for counter in group
        }
        pivot_group = groups[decoys[0]]
        colliding = sum(
            1 for row in decoys[1:] if groups[row] & pivot_group
        )
        # Every decoy is invisible to the aggressors' counters...
        for row in decoys:
            assert not groups[row] & aggressor_counters
        # ... and the bank is large enough that the pivot collisions the
        # search asks for actually exist.
        assert colliding >= 8

    def test_counter_groups_match_comet_exactly(self, dram_config):
        """The whitebox reconstruction uses the very hash family a
        default-configured CoMeT builds for the same bank."""
        from repro.core.comet import CoMeT

        comet = CoMeT(nrh=125)
        bank_key = (0, 1, 1, 0)
        tracker = comet.bank_tracker(bank_key)
        rows = [7, 99, 511, 513, 2048]
        predicted = comet_counter_groups(rows, bank_key)
        for row, group in zip(rows, predicted):
            assert [column for _, column in group] == tracker.counter_table.counter_group(row)

    def test_trace_alternates_aggressors_and_decoys(self, dram_config):
        mapper = AddressMapper(dram_config)
        trace = synth_sketch_aliasing(
            num_requests=40, dram_config=dram_config, seed=0, target_row=512,
            decoys_per_round=2,
        )
        rows = [mapper.decode(entry.address).row for entry in trace]
        # Rounds of (a1, a2, decoy, decoy).
        for i in range(0, 36, 4):
            assert rows[i] == 511 and rows[i + 1] == 513
            assert rows[i + 2] not in (511, 513)
            assert rows[i + 3] not in (511, 513)


class TestWaveAndUniformShapes:
    def test_refresh_wave_gaps_span_a_reset_period(self, dram_config):
        trace = synth_refresh_wave(
            num_requests=60, dram_config=dram_config, seed=0, burst_activations=10
        )
        gaps = [e.bubble_count for e in trace if e.bubble_count > 0]
        assert gaps, "wave pattern lost its idle gaps"
        # Gap >= one counter-reset period (tREFW / 3) at the core's issue rate.
        reset_period = dram_config.tREFW // 3
        min_cycles = min(gaps) / 12.0  # Table 2 core: 4-wide x 3x clock ratio
        assert min_cycles >= reset_period

    def test_uniform_spreads_rows(self, dram_config):
        trace = synth_uniform(num_requests=500, dram_config=dram_config, seed=0)
        stats = trace.statistics()
        assert stats.unique_addresses > 400
