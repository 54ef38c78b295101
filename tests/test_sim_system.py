"""Integration tests: full system simulations (cores + controller + DRAM + mitigation)."""

import pytest

from repro.experiment.execute import run_system
from repro.experiment.registry import mitigation_entry
from repro.experiment.session import Session
from repro.experiment.spec import WorkloadSpec, default_experiment_config
from repro.sim.metrics import normalized_ipc
from repro.sim.system import System, SystemConfig
from repro.workloads.attacks import traditional_rowhammer_attack
from repro.workloads.suite import build_multicore_traces, build_trace


@pytest.fixture(scope="module")
def dram_config():
    return default_experiment_config()


@pytest.fixture(scope="module")
def benign_trace(dram_config):
    return build_trace("450.soplex", num_requests=2500, dram_config=dram_config)


@pytest.fixture(scope="module")
def baseline_result(benign_trace, dram_config):
    return run_system([benign_trace], "none", nrh=1000, dram_config=dram_config)


class TestBaselineRun:
    def test_completes_and_reports(self, baseline_result, benign_trace):
        assert baseline_result.ipc > 0
        assert baseline_result.cycles > 0
        assert baseline_result.read_requests > 0
        assert baseline_result.per_core_instructions[0] == benign_trace.total_instructions

    def test_all_reads_served(self, baseline_result, benign_trace):
        stats = benign_trace.statistics()
        assert baseline_result.dram_stats["reads"] == stats.num_reads
        assert baseline_result.dram_stats["writes"] == stats.num_writes

    def test_periodic_refreshes_occur(self, baseline_result, dram_config):
        expected = baseline_result.cycles // dram_config.tREFI
        assert baseline_result.dram_stats["refreshes"] >= max(0, expected - 4)

    def test_summary_keys(self, baseline_result):
        summary = baseline_result.summary()
        assert "ipc" in summary and "energy_nj" in summary

    def test_energy_positive(self, baseline_result):
        assert baseline_result.energy.total_nj > 0


class TestMitigationRuns:
    @pytest.mark.parametrize("mitigation", ["comet", "graphene", "hydra", "para", "rega", "blockhammer"])
    def test_mitigated_run_completes_securely(self, benign_trace, dram_config, baseline_result, mitigation):
        result = run_system([benign_trace], mitigation, nrh=250, dram_config=dram_config)
        assert result.security_ok, f"{mitigation} violated the RowHammer invariant"
        assert result.per_core_instructions == baseline_result.per_core_instructions
        assert 0 < result.ipc <= baseline_result.ipc * 1.02

    def test_comet_overhead_small_for_benign_workload_at_1k(self, benign_trace, dram_config, baseline_result):
        result = run_system([benign_trace], "comet", nrh=1000, dram_config=dram_config)
        assert normalized_ipc(result, baseline_result) > 0.97

    def test_comet_overhead_grows_at_lower_threshold(self, benign_trace, dram_config, baseline_result):
        at_1k = run_system([benign_trace], "comet", nrh=1000, dram_config=dram_config)
        at_125 = run_system([benign_trace], "comet", nrh=125, dram_config=dram_config)
        assert normalized_ipc(at_125, baseline_result) <= normalized_ipc(at_1k, baseline_result) + 1e-6
        assert at_125.preventive_refreshes >= at_1k.preventive_refreshes

    def test_para_more_expensive_than_comet_at_low_threshold(self, benign_trace, dram_config):
        comet = run_system([benign_trace], "comet", nrh=125, dram_config=dram_config)
        para = run_system([benign_trace], "para", nrh=125, dram_config=dram_config)
        assert para.ipc < comet.ipc
        assert para.preventive_refreshes > comet.preventive_refreshes

    def test_hydra_generates_mitigation_traffic(self, benign_trace, dram_config):
        result = run_system([benign_trace], "hydra", nrh=125, dram_config=dram_config)
        assert result.mitigation_stats["mitigation_memory_requests"] >= 0
        # Hydra's overhead shows up as higher read latency than CoMeT's.
        comet = run_system([benign_trace], "comet", nrh=125, dram_config=dram_config)
        assert result.average_read_latency >= comet.average_read_latency * 0.95

    def test_compare_single_core_includes_baseline(self):
        results = Session(store=None, max_workers=0).compare(
            WorkloadSpec(name="450.soplex", num_requests=2500), ["comet"], nrh=500
        )
        assert set(results) == {"none", "comet"}

    def test_build_mitigation_rejects_unknown(self):
        with pytest.raises(ValueError):
            mitigation_entry("trr").build(1000)

    def test_build_mitigation_with_overrides(self):
        from repro.core.config import CoMeTConfig

        comet = mitigation_entry("comet").build(1000, config=CoMeTConfig(nrh=1000, rat_entries=64))
        assert comet.config.rat_entries == 64


class TestAttackRuns:
    def test_unprotected_attack_violates_invariant(self, dram_config):
        attack = traditional_rowhammer_attack(
            num_requests=4000, dram_config=dram_config, aggressor_rows_per_bank=2
        )
        result = run_system([attack], "none", nrh=125, dram_config=dram_config)
        assert not result.security_ok
        assert result.max_disturbance >= 125

    @pytest.mark.parametrize("mitigation", ["comet", "graphene", "para"])
    def test_mitigations_stop_traditional_attack(self, dram_config, mitigation):
        attack = traditional_rowhammer_attack(
            num_requests=4000, dram_config=dram_config, aggressor_rows_per_bank=2
        )
        result = run_system([attack], mitigation, nrh=125, dram_config=dram_config)
        assert result.security_ok
        assert result.preventive_refreshes > 0

    def test_comet_under_attack_triggers_refreshes(self, dram_config):
        attack = traditional_rowhammer_attack(num_requests=3000, dram_config=dram_config)
        result = run_system([attack], "comet", nrh=125, dram_config=dram_config)
        assert result.preventive_refreshes > 0
        assert result.max_disturbance < 125


class TestMultiCore:
    def test_multicore_run(self, dram_config):
        traces = build_multicore_traces(
            "462.libquantum", num_cores=4, num_requests=800, dram_config=dram_config
        )
        result = run_system(traces, "comet", nrh=250, dram_config=dram_config)
        assert len(result.per_core_ipc) == 4
        assert all(ipc > 0 for ipc in result.per_core_ipc)
        assert result.security_ok

    def test_shared_memory_slows_cores_down(self, dram_config):
        single = run_system(
            [build_trace("433.milc", num_requests=800, dram_config=dram_config)],
            "none",
            nrh=1000,
            dram_config=dram_config,
        )
        traces = build_multicore_traces(
            "433.milc", num_cores=4, num_requests=800, dram_config=dram_config
        )
        shared = run_system(traces, "none", nrh=1000, dram_config=dram_config)
        assert min(shared.per_core_ipc) <= single.ipc + 1e-9


class TestSystemConfigValidation:
    def test_requires_at_least_one_trace(self, dram_config):
        with pytest.raises(ValueError):
            System([], config=SystemConfig(dram=dram_config))

