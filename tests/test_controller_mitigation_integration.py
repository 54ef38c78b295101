"""Integration tests: mitigations driving the *real* memory controller.

The unit tests in test_mitigations_*.py exercise each mechanism against a
fake controller; these tests wire them into the actual FR-FCFS controller and
DRAM model and check the end-to-end effects: preventive ACT/PRE pairs reaching
DRAM, Hydra's counter traffic competing for bandwidth, BlockHammer's
throttling delaying commands, REGA's timing rewrite, and CoMeT's early
preventive refresh issuing real REF bursts.
"""

from collections import Counter

from repro.controller.controller import MemoryController
from repro.controller.request import MemoryRequest, RequestType
from repro.core.comet import CoMeT
from repro.core.config import CoMeTConfig
from repro.dram.commands import CommandKind
from repro.mitigations.blockhammer import BlockHammer, BlockHammerConfig
from repro.mitigations.graphene import Graphene
from repro.mitigations.hydra import Hydra, HydraConfig
from repro.mitigations.para import PARA
from repro.mitigations.rega import REGA


def drain(controller, cycle):
    """Issue commands until the controller has no work; returns the last cycle."""
    while controller.has_work():
        cycle = controller.issue_next(cycle)
    return cycle


def count_act_rows(controller):
    """Per-row ACT counts of every command the controller issues from now on,
    recounted from the command stream."""
    counts = Counter()

    def observe(cycle, command):
        if command.kind is CommandKind.ACT:
            counts[command.row] += 1

    controller.dram.add_command_observer(observe)
    return counts


def hammer_rows(controller, rows, repeats, bank_index=0, start_cycle=0):
    """Repeatedly activate ``rows`` one request at a time (defeating FR-FCFS
    reordering) so every request forces a fresh activation of its row."""
    cycle = start_cycle
    for _ in range(repeats):
        for row in rows:
            address = controller.mapper.decode(
                controller.mapper.address_for_row(row, bank_index=bank_index)
            )
            request = MemoryRequest(request_type=RequestType.READ, address=address)
            while not controller.enqueue(request, cycle):
                issued = controller.issue_next(cycle)
                cycle = issued if issued is not None else cycle + 1
            # Serve this request completely before issuing the next one.
            cycle = drain(controller, cycle)
    return drain(controller, cycle)


class TestCoMeTIntegration:
    def test_preventive_refreshes_reach_dram(self, tiny_dram_config):
        comet = CoMeT(nrh=64, config=CoMeTConfig(nrh=64))
        controller = MemoryController(tiny_dram_config, mitigation=comet)
        npr = comet.config.npr
        act_counts = count_act_rows(controller)
        hammer_rows(controller, rows=[50, 120], repeats=npr + 2)
        assert controller.dram.stats.preventive_acts > 0
        victims = {49, 51, 119, 121}
        assert set(act_counts) & victims

    def test_early_preventive_refresh_issues_ref_burst(self, small_dram_config):
        config = CoMeTConfig(
            nrh=40,
            rat_entries=2,
            rat_miss_history_length=8,
            early_refresh_threshold_fraction=0.25,
        )
        comet = CoMeT(nrh=40, config=config)
        controller = MemoryController(small_dram_config, mitigation=comet)
        rows = list(range(10, 34, 2))  # 12 aggressors, far more than 2 RAT entries
        # Hammer long enough for every aggressor to cross NPR at least twice
        # within one counter-reset period, producing RAT capacity misses.
        hammer_rows(controller, rows, repeats=2 * config.npr + 6)
        assert comet.stats.early_refresh_operations >= 1
        # The early refresh translated into a burst of real REF commands.
        assert controller.dram.stats.refreshes >= small_dram_config.refreshes_per_window


class TestGrapheneIntegration:
    def test_graphene_refreshes_victims_in_dram(self, tiny_dram_config):
        graphene = Graphene(nrh=64)
        controller = MemoryController(tiny_dram_config, mitigation=graphene)
        hammer_rows(controller, rows=[80, 200], repeats=graphene.config.threshold + 2)
        assert controller.dram.stats.preventive_acts >= 2


class TestHydraIntegration:
    def test_counter_traffic_reaches_dram(self, tiny_dram_config):
        hydra = Hydra(nrh=64, config=HydraConfig(nrh=64, rcc_entries=2, rows_per_group=8))
        controller = MemoryController(tiny_dram_config, mitigation=hydra)
        rows = list(range(0, 8))
        act_counts = count_act_rows(controller)
        hammer_rows(controller, rows, repeats=hydra.config.group_threshold + 4)
        assert hydra.stats.mitigation_memory_requests > 0
        assert controller.stats.mitigation_requests > 0
        # Counter reads target the reserved region at the top of the bank.
        top_rows = {
            row
            for row in act_counts
            if row >= tiny_dram_config.organization.rows_per_bank - 8
        }
        assert top_rows


class TestBlockHammerIntegration:
    def test_throttling_delays_hot_row(self, tiny_dram_config):
        blockhammer = BlockHammer(
            nrh=64, config=BlockHammerConfig(nrh=64, blacklist_fraction=0.25)
        )
        controller = MemoryController(tiny_dram_config, mitigation=blockhammer)
        final_cycle = hammer_rows(controller, rows=[5, 9], repeats=60)
        assert blockhammer.stats.throttled_activations > 0
        # The same access pattern without BlockHammer finishes much earlier.
        unprotected = MemoryController(tiny_dram_config)
        unprotected_final = hammer_rows(unprotected, rows=[5, 9], repeats=60)
        assert final_cycle > unprotected_final


class TestREGAIntegration:
    def test_timing_rewrite_applied_to_dram_model(self, tiny_dram_config):
        rega = REGA(nrh=125)
        controller = MemoryController(tiny_dram_config, mitigation=rega)
        assert controller.dram_config.timing.tRC > tiny_dram_config.timing.tRC

    def test_activations_slower_than_unprotected(self, tiny_dram_config):
        rega_controller = MemoryController(tiny_dram_config, mitigation=REGA(nrh=125))
        plain_controller = MemoryController(tiny_dram_config)
        rega_final = hammer_rows(rega_controller, rows=[3, 7], repeats=40)
        plain_final = hammer_rows(plain_controller, rows=[3, 7], repeats=40)
        assert rega_final > plain_final


class TestPARAIntegration:
    def test_para_issues_preventive_acts(self, tiny_dram_config):
        para = PARA(nrh=64, probability=0.5, seed=3)
        controller = MemoryController(tiny_dram_config, mitigation=para)
        hammer_rows(controller, rows=[30, 90], repeats=30)
        assert controller.dram.stats.preventive_acts > 0
