"""Tests for the synthetic workload suite and attack generators."""

import pytest

from repro.dram.address import AddressMapper
from repro.workloads.attacks import (
    comet_targeted_attack,
    hydra_targeted_attack,
    single_row_hammer,
    traditional_rowhammer_attack,
)
from repro.workloads.suite import (
    WORKLOAD_SUITE,
    build_multicore_traces,
    build_trace,
    workload_names,
    workload_spec,
    workloads_by_category,
)
from repro.workloads.synthetic import SyntheticWorkloadGenerator, WorkloadSpec


class TestWorkloadSpec:
    def test_average_bubble_from_rbmpki(self):
        assert WorkloadSpec("x", rbmpki=10.0).average_bubble == pytest.approx(99.0)
        assert WorkloadSpec("x", rbmpki=1.0).average_bubble == pytest.approx(999.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            WorkloadSpec("x", rbmpki=0)
        with pytest.raises(ValueError):
            WorkloadSpec("x", rbmpki=1, row_locality=1.0)
        with pytest.raises(ValueError):
            WorkloadSpec("x", rbmpki=1, write_fraction=2.0)
        with pytest.raises(ValueError):
            WorkloadSpec("x", rbmpki=1, bank_fraction=0.0)


class TestSyntheticGenerator:
    def test_trace_length(self, small_dram_config):
        spec = WorkloadSpec("t", rbmpki=10, footprint_rows=64)
        trace = SyntheticWorkloadGenerator(spec, small_dram_config).generate(500)
        assert len(trace) == 500

    def test_deterministic_for_seed(self, small_dram_config):
        spec = WorkloadSpec("t", rbmpki=10, footprint_rows=64)
        a = SyntheticWorkloadGenerator(spec, small_dram_config, seed=1).generate(200)
        b = SyntheticWorkloadGenerator(spec, small_dram_config, seed=1).generate(200)
        assert [(e.bubble_count, e.address) for e in a] == [
            (e.bubble_count, e.address) for e in b
        ]

    def test_different_seeds_differ(self, small_dram_config):
        spec = WorkloadSpec("t", rbmpki=10, footprint_rows=64)
        a = SyntheticWorkloadGenerator(spec, small_dram_config, seed=1).generate(200)
        b = SyntheticWorkloadGenerator(spec, small_dram_config, seed=2).generate(200)
        assert [e.address for e in a] != [e.address for e in b]

    def test_rbmpki_reflected_in_bubbles(self, small_dram_config):
        high = WorkloadSpec("hi", rbmpki=25, footprint_rows=64)
        low = WorkloadSpec("lo", rbmpki=0.5, footprint_rows=64)
        high_trace = SyntheticWorkloadGenerator(high, small_dram_config).generate(500)
        low_trace = SyntheticWorkloadGenerator(low, small_dram_config).generate(500)
        def apki(trace):
            stats = trace.statistics()
            return 1000.0 * stats.num_entries / stats.total_instructions

        assert apki(high_trace) > 5 * apki(low_trace)

    def test_footprint_respected(self, small_dram_config):
        spec = WorkloadSpec("t", rbmpki=10, footprint_rows=16, row_locality=0.0)
        trace = SyntheticWorkloadGenerator(spec, small_dram_config).generate(2000)
        mapper = AddressMapper(small_dram_config)
        rows = {mapper.decode(e.address).row for e in trace}
        assert len(rows) <= 16

    def test_write_fraction(self, small_dram_config):
        spec = WorkloadSpec("t", rbmpki=10, write_fraction=0.5, footprint_rows=64)
        trace = SyntheticWorkloadGenerator(spec, small_dram_config).generate(3000)
        stats = trace.statistics()
        assert stats.num_writes / stats.num_entries == pytest.approx(0.5, abs=0.07)

    def test_locality_creates_row_hits(self, small_dram_config):
        mapper = AddressMapper(small_dram_config)

        def consecutive_same_row_fraction(locality):
            spec = WorkloadSpec("t", rbmpki=10, row_locality=locality, footprint_rows=256)
            trace = SyntheticWorkloadGenerator(spec, small_dram_config).generate(2000)
            decoded = [mapper.decode(e.address) for e in trace]
            same = sum(
                1
                for a, b in zip(decoded, decoded[1:])
                if a.row == b.row and a.bank_key == b.bank_key
            )
            return same / (len(decoded) - 1)

        assert consecutive_same_row_fraction(0.9) > consecutive_same_row_fraction(0.1) + 0.3

    def test_invalid_request_count(self, small_dram_config):
        spec = WorkloadSpec("t", rbmpki=10)
        with pytest.raises(ValueError):
            SyntheticWorkloadGenerator(spec, small_dram_config).generate(0)


class TestSuite:
    def test_61_workloads(self):
        assert len(WORKLOAD_SUITE) == 61

    def test_category_sizes_match_table3(self):
        categories = workloads_by_category()
        assert len(categories["high"]) == 14
        assert len(categories["medium"]) == 20
        assert len(categories["low"]) == 27

    def test_rbmpki_within_category_ranges(self):
        for name, spec in WORKLOAD_SUITE.items():
            if spec.category == "high":
                assert spec.rbmpki >= 10, name
            elif spec.category == "medium":
                assert 2 <= spec.rbmpki < 10, name
            else:
                assert spec.rbmpki < 2, name

    def test_workload_names_filter(self):
        assert set(workload_names("high")) == set(workloads_by_category()["high"])
        assert len(workload_names()) == 61

    def test_workload_spec_lookup(self):
        assert workload_spec("429.mcf").category == "high"
        with pytest.raises(KeyError):
            workload_spec("not_a_workload")

    def test_build_trace(self, small_dram_config):
        trace = build_trace("519.lbm", num_requests=300, dram_config=small_dram_config)
        assert len(trace) == 300
        assert trace.name == "519.lbm"

    def test_build_multicore_traces(self, small_dram_config):
        traces = build_multicore_traces(
            "450.soplex", num_cores=4, num_requests=100, dram_config=small_dram_config
        )
        assert len(traces) == 4
        # Copies use different seeds and must not be byte-identical.
        assert [e.address for e in traces[0]] != [e.address for e in traces[1]]


class TestAttacks:
    def test_traditional_attack_forces_row_conflicts(self, small_dram_config):
        mapper = AddressMapper(small_dram_config)
        trace = traditional_rowhammer_attack(
            num_requests=1000, dram_config=small_dram_config, aggressor_rows_per_bank=4
        )
        decoded = [mapper.decode(e.address) for e in trace]
        same_row_consecutive = sum(
            1
            for a, b in zip(decoded, decoded[1:])
            if a.bank_key == b.bank_key and a.row == b.row
        )
        assert same_row_consecutive == 0

    def test_traditional_attack_touches_all_banks(self, small_dram_config):
        mapper = AddressMapper(small_dram_config)
        trace = traditional_rowhammer_attack(num_requests=2000, dram_config=small_dram_config)
        banks = {mapper.decode(e.address).bank_key for e in trace}
        org = small_dram_config.organization
        assert len(banks) == org.ranks_per_channel * org.banks_per_rank

    def test_single_row_hammer_counts(self, small_dram_config):
        mapper = AddressMapper(small_dram_config)
        trace = single_row_hammer(target_row=40, activations=50, dram_config=small_dram_config)
        target_accesses = sum(1 for e in trace if mapper.decode(e.address).row == 40)
        assert target_accesses == 50

    def test_comet_targeted_attack_touches_many_rows(self, small_dram_config):
        mapper = AddressMapper(small_dram_config)
        trace = comet_targeted_attack(
            num_requests=3000, distinct_rows=64, npr=8, dram_config=small_dram_config
        )
        rows = {mapper.decode(e.address).row for e in trace}
        assert len(rows) >= 32
        assert len(trace) == 3000

    def test_hydra_targeted_attack_spreads_over_groups(self, small_dram_config):
        mapper = AddressMapper(small_dram_config)
        trace = hydra_targeted_attack(
            num_requests=2000, rows_per_group=64, dram_config=small_dram_config
        )
        groups = {mapper.decode(e.address).row // 64 for e in trace}
        assert len(groups) > 10

    def test_attack_traces_are_reads(self, small_dram_config):
        trace = traditional_rowhammer_attack(num_requests=100, dram_config=small_dram_config)
        assert all(not e.is_write for e in trace)
