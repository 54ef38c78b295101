"""Tests for the channel-partitioned memory fabric.

Covers the refactor's three contracts:

* **Golden equivalence** — a 1-channel fabric reproduces the pre-fabric
  monolithic controller bit-for-bit across the whole mitigation registry
  (``tests/golden/channels1.json``, regenerated by ``tools/gen_golden.py``),
  down to the hash of the whole DRAM command stream.
* **Address mapping** — encode/decode round-trips at 2 and 4 channels, and
  non-power-of-two geometries are rejected before they can alias.
* **Isolation** — an attack confined to channel 0 never perturbs channel 1's
  mitigation counters or triggers its preventive refreshes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_runs import assert_matches_golden, load_golden
from oracle_commands import checked_runs
from repro.controller.fabric import ChannelFabric
from repro.dram.address import AddressMapper, DRAMAddress
from repro.dram.config import small_test_config
from repro.mitigations.fabric import MitigationFabric
from repro.mitigations.para import PARA
from repro.experiment.execute import run_system
from repro.experiment.registry import mitigation_names
from repro.experiment.spec import MitigationSpec, default_experiment_config
from repro.sim.system import System, SystemConfig
from repro.workloads.attacks import traditional_rowhammer_attack
from repro.workloads.suite import (
    MULTICHANNEL_SUITE,
    build_multicore_traces,
    build_trace,
    workload_names,
    workloads_by_category,
)

class TestGoldenEquivalence:
    """channels=1 must be bit-identical to the pre-fabric monolithic code."""

    @pytest.fixture(scope="class")
    def golden(self):
        return load_golden()

    @pytest.fixture(scope="class")
    def dram_config(self):
        return default_experiment_config()

    @pytest.fixture(scope="class")
    def benign_trace(self, dram_config):
        return build_trace("450.soplex", num_requests=2000, dram_config=dram_config)

    @pytest.mark.parametrize("mitigation", mitigation_names())
    def test_benign_run_matches_golden(self, golden, dram_config, benign_trace, mitigation):
        with checked_runs() as runs:
            result = run_system(
                [benign_trace],
                mitigation,
                nrh=250,
                dram_config=dram_config,
                verify_security=mitigation != "none",
            )
        assert_matches_golden(result, runs[0], golden[f"benign/{mitigation}"])

    def test_attack_run_matches_golden(self, golden, dram_config):
        attack = traditional_rowhammer_attack(
            num_requests=3000, dram_config=dram_config, aggressor_rows_per_bank=2
        )
        with checked_runs() as runs:
            result = run_system([attack], "comet", nrh=125, dram_config=dram_config)
        assert_matches_golden(result, runs[0], golden["attack/comet"])

    def test_multicore_run_matches_golden(self, golden, dram_config):
        mix = build_multicore_traces(
            "429.mcf", num_cores=2, num_requests=1200, dram_config=dram_config
        )
        with checked_runs() as runs:
            result = run_system(mix, "comet", nrh=250, dram_config=dram_config, name="mix")
        assert_matches_golden(result, runs[0], golden["multicore/comet"])


class TestAddressMappingMultiChannel:
    @pytest.mark.parametrize("channels", [2, 4])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_round_trip(self, channels, data):
        config = small_test_config(
            rows_per_bank=256,
            banks_per_bankgroup=2,
            bankgroups_per_rank=2,
            ranks_per_channel=2,
            channels=channels,
        )
        mapper = AddressMapper(config)
        org = config.organization
        address = DRAMAddress(
            channel=data.draw(st.integers(0, org.channels - 1)),
            rank=data.draw(st.integers(0, org.ranks_per_channel - 1)),
            bankgroup=data.draw(st.integers(0, org.bankgroups_per_rank - 1)),
            bank=data.draw(st.integers(0, org.banks_per_bankgroup - 1)),
            row=data.draw(st.integers(0, org.rows_per_bank - 1)),
            column=data.draw(st.integers(0, org.columns_per_row // 8 - 1)) * 8,
        )
        assert mapper.decode(mapper.encode(address)) == address

    @pytest.mark.parametrize("channels", [2, 4])
    @settings(max_examples=200, deadline=None)
    @given(raw=st.integers(min_value=0, max_value=2**62))
    def test_decode_encode_is_cacheline_stable(self, channels, raw):
        config = small_test_config(rows_per_bank=256, channels=channels)
        mapper = AddressMapper(config)
        organization = config.organization
        physical = raw % (organization.total_rows * organization.row_size_bytes)
        decoded = mapper.decode(physical)
        assert 0 <= decoded.channel < channels
        cacheline = config.organization.cacheline_bytes
        assert mapper.encode(decoded) == (physical // cacheline) * cacheline

    @pytest.mark.parametrize("channels", [3, 5, 6])
    def test_non_power_of_two_channels_rejected(self, channels):
        with pytest.raises(ValueError, match="not a power of two"):
            small_test_config(channels=channels)

    def test_non_power_of_two_rows_rejected(self):
        with pytest.raises(ValueError, match="rows_per_bank"):
            small_test_config(rows_per_bank=1000)

    def test_address_keys_are_cached(self):
        address = DRAMAddress(channel=1, rank=0, bankgroup=1, bank=0, row=7, column=0)
        assert address.bank_key == (1, 0, 1, 0)
        assert address.bank_key is address.bank_key  # cached, not rebuilt
        assert address.row_key == (1, 0, 1, 0, 7)
        assert address.row_key is address.row_key
        # The cache must not leak into equality or hashing.
        twin = DRAMAddress(channel=1, rank=0, bankgroup=1, bank=0, row=7, column=0)
        assert twin == address and hash(twin) == hash(address)


class TestFabricConstruction:
    def test_one_controller_per_channel(self):
        config = small_test_config(rows_per_bank=256, channels=4)
        fabric = ChannelFabric(config)
        assert len(fabric) == 4
        assert [ctl.channel for ctl in fabric.controllers] == [0, 1, 2, 3]
        for index, ctl in enumerate(fabric.controllers):
            assert set(ctl.dram.ranks) == {(index, 0)}

    def test_single_instance_on_multichannel_fabric_rejected(self):
        config = small_test_config(rows_per_bank=256, channels=2)
        with pytest.raises(ValueError, match="one mitigation"):
            ChannelFabric(config, mitigations=PARA(125))

    def test_shared_instance_across_channels_rejected(self):
        config = small_test_config(rows_per_bank=256, channels=2)
        shared = PARA(125)
        with pytest.raises(ValueError, match="distinct"):
            ChannelFabric(config, mitigations=[shared, shared])

    def test_wrong_instance_count_rejected(self):
        config = small_test_config(rows_per_bank=256, channels=2)
        with pytest.raises(ValueError, match="expected 2"):
            ChannelFabric(config, mitigations=[PARA(125)])

    def test_mitigation_fabric_aggregates_stats_and_storage(self):
        config = small_test_config(rows_per_bank=256, channels=2)
        fabric = ChannelFabric(config, mitigations=[PARA(125), PARA(125)])
        assert isinstance(fabric.mitigation, MitigationFabric)
        instances = fabric.mitigation.instances
        instances[0].stats.observed_activations = 3
        instances[1].stats.observed_activations = 4
        instances[0].stats.bump("x", 2)
        instances[1].stats.bump("x", 5)
        total = fabric.mitigation.stats
        assert total.observed_activations == 7
        assert total.extra["x"] == 7
        per_channel = instances[0].storage_report()["total_KiB"]
        assert fabric.mitigation.storage_report()["total_KiB"] == pytest.approx(
            2 * per_channel
        )


class TestPerChannelIsolation:
    """An attack on channel 0 must not perturb channel 1's mitigation."""

    @pytest.mark.parametrize("mitigation", ["comet", "graphene", "para", "hydra"])
    def test_attack_on_channel0_leaves_channel1_untouched(self, mitigation):
        dram_config = default_experiment_config(channels=2)
        attack = traditional_rowhammer_attack(
            num_requests=3000,
            dram_config=dram_config,
            aggressor_rows_per_bank=2,
            channel=0,
        )
        mitigations = MitigationSpec(name=mitigation, nrh=125).build_instances(2)
        system = System(
            [attack],
            mitigation=mitigations,
            config=SystemConfig(dram=dram_config, nrh_for_verification=125),
        )
        result = system.run()
        assert result.security_ok
        ch0, ch1 = system.fabric.mitigation.instances
        assert ch0.stats.observed_activations > 0
        assert ch1.stats.observed_activations == 0
        assert ch1.stats.preventive_refreshes == 0
        assert ch1.stats.mitigation_memory_requests == 0
        assert system.fabric.controllers[1].stats.preventive_refreshes == 0
        # All demand traffic landed on channel 0.
        assert system.fabric.controllers[1].stats.read_requests == 0

    def test_attacks_on_both_channels_are_both_mitigated(self):
        dram_config = default_experiment_config(channels=2)
        traces = [
            traditional_rowhammer_attack(
                num_requests=2000,
                dram_config=dram_config,
                aggressor_rows_per_bank=2,
                channel=channel,
            )
            for channel in (0, 1)
        ]
        result = run_system(
            traces, "comet", nrh=125, dram_config=dram_config, name="dual_attack"
        )
        assert result.security_ok
        assert result.preventive_refreshes > 0


class TestMultiChannelRuns:
    def test_two_channel_run_scales_heavy_workload(self):
        results = {}
        for channels in (1, 2):
            dram_config = default_experiment_config(channels=channels)
            trace = build_trace("mc_stream", num_requests=3000, dram_config=dram_config)
            results[channels] = run_system(
                [trace], "none", nrh=1, dram_config=dram_config, verify_security=False
            )
        # Same work over two independent channels finishes sooner.
        assert results[2].cycles < results[1].cycles
        assert results[2].ipc > results[1].ipc

    def test_multichannel_trace_touches_every_channel(self):
        dram_config = default_experiment_config(channels=4)
        trace = build_trace("mc_random", num_requests=2000, dram_config=dram_config)
        mapper = AddressMapper(dram_config)
        channels = {mapper.decode(entry.address).channel for entry in trace}
        assert channels == {0, 1, 2, 3}

    def test_skewed_spec_uses_half_the_channels(self):
        dram_config = default_experiment_config(channels=4)
        trace = build_trace("mc_skewed", num_requests=2000, dram_config=dram_config)
        mapper = AddressMapper(dram_config)
        channels = {mapper.decode(entry.address).channel for entry in trace}
        assert channels == {0, 1}

    def test_single_channel_traces_unchanged_by_channel_support(self):
        # The generator must not consume RNG for channel choice when there is
        # only one channel, or every pre-fabric trace would silently change.
        dram_config = default_experiment_config()
        a = build_trace("429.mcf", num_requests=500, dram_config=dram_config)
        b = build_trace("429.mcf", num_requests=500, dram_config=dram_config)
        assert [(e.bubble_count, e.address, e.is_write) for e in a] == [
            (e.bubble_count, e.address, e.is_write) for e in b
        ]

    def test_multichannel_category_registered(self):
        assert set(workload_names("multichannel")) == set(MULTICHANNEL_SUITE)
        assert workloads_by_category()["multichannel"] == list(MULTICHANNEL_SUITE)
        # The Table 3 suite stays intact.
        assert len(workload_names()) == 61

    def test_per_channel_summary_sums_to_fabric_totals(self):
        dram_config = default_experiment_config(channels=2)
        traces = [
            traditional_rowhammer_attack(
                num_requests=3000,
                dram_config=dram_config,
                aggressor_rows_per_bank=2,
                channel=channel,
            )
            for channel in (0, 1)
        ]
        system = System(
            traces,
            mitigation=MitigationSpec(name="comet", nrh=125).build_instances(2),
            config=SystemConfig(dram=dram_config, verify_security=False),
        )
        system.run()
        fabric = system.fabric
        summary = [
            {
                "acts": controller.dram.stats.acts,
                "refreshes": controller.dram.stats.refreshes,
                "read_requests": controller.stats.read_requests,
                "preventive_refreshes": controller.stats.preventive_refreshes,
            }
            for controller in fabric.controllers
        ]
        assert len(summary) == 2
        dram_stats = fabric.dram_statistics()
        ctl_stats = fabric.stats
        totals = {
            "acts": dram_stats.acts,
            "refreshes": dram_stats.refreshes,
            "read_requests": ctl_stats.read_requests,
            "preventive_refreshes": ctl_stats.preventive_refreshes,
        }
        for key, total in totals.items():
            assert sum(row[key] for row in summary) == total > 0, key
            assert all(row[key] > 0 for row in summary), key

    def test_refreshes_happen_on_idle_channel(self):
        # Channel 1 sees no demand traffic at all (the trace is confined to
        # channel 0), but its periodic refreshes must still be issued while
        # channel 0 keeps the simulation alive — the kernel's idle-channel
        # skip has to wake a channel whose refresh deadline passed.
        dram_config = default_experiment_config(channels=2)
        trace = traditional_rowhammer_attack(
            num_requests=3000, dram_config=dram_config, channel=0
        )
        system = System(
            [trace],
            config=SystemConfig(dram=dram_config, verify_security=False),
        )
        system.run()
        assert system.fabric.controllers[1].stats.read_requests == 0
        assert system.fabric.controllers[1].dram.stats.refreshes > 0
