"""Shared fixtures for the test suite.

The fixtures provide scaled-down DRAM configurations (so complete refresh
windows fit in fast tests), a fake memory controller for unit-testing
mitigation mechanisms in isolation, and small pre-built traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import pytest

from repro.dram.address import AddressMapper, DRAMAddress
from repro.dram.config import DRAMConfig, small_test_config
from repro.dram.dram_system import DRAMSystem


class FakeDRAM:
    """Minimal stand-in for DRAMSystem used when unit-testing mitigations."""

    def __init__(self) -> None:
        self.row_refreshes: List[Tuple[int, DRAMAddress]] = []

    def notify_row_refresh(self, cycle: int, address: DRAMAddress) -> None:
        self.row_refreshes.append((cycle, address))


@dataclass
class FakeController:
    """Captures the calls a mitigation makes on the memory controller."""

    dram_config: DRAMConfig
    preventive_refreshes: List[Tuple[DRAMAddress, int]] = field(default_factory=list)
    rank_refreshes: List[Tuple[int, int, int]] = field(default_factory=list)
    mitigation_requests: List[Tuple[DRAMAddress, bool, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.mapper = AddressMapper(self.dram_config)
        self.dram = FakeDRAM()

    def schedule_preventive_refresh(self, address: DRAMAddress, cycle: int) -> None:
        self.preventive_refreshes.append((address, cycle))

    def schedule_rank_refresh(self, channel: int, rank: int, count: int) -> None:
        self.rank_refreshes.append((channel, rank, count))

    def enqueue_mitigation_request(self, address: DRAMAddress, is_write: bool, cycle: int) -> bool:
        self.mitigation_requests.append((address, is_write, cycle))
        return True


@pytest.fixture
def tiny_dram_config() -> DRAMConfig:
    """A very small DRAM: 1 rank, 4 banks, 256 rows/bank, short refresh window."""
    return small_test_config(
        rows_per_bank=256,
        banks_per_bankgroup=2,
        bankgroups_per_rank=2,
        ranks_per_channel=1,
        refresh_window_scale=1.0 / 2048.0,
    )


@pytest.fixture
def small_dram_config() -> DRAMConfig:
    """The scaled configuration the examples and benches use (2 ranks, 4K rows)."""
    return small_test_config(
        rows_per_bank=4096,
        banks_per_bankgroup=2,
        bankgroups_per_rank=2,
        ranks_per_channel=2,
        refresh_window_scale=1.0 / 512.0,
    )


@pytest.fixture
def full_dram_config() -> DRAMConfig:
    """The paper's full-size configuration (used for area/storage modelling only)."""
    return DRAMConfig()


@pytest.fixture
def mapper(tiny_dram_config) -> AddressMapper:
    return AddressMapper(tiny_dram_config)


@pytest.fixture
def dram_system(tiny_dram_config) -> DRAMSystem:
    return DRAMSystem(tiny_dram_config)


@pytest.fixture
def fake_controller(tiny_dram_config) -> FakeController:
    return FakeController(dram_config=tiny_dram_config)


@pytest.fixture
def fake_controller_small(small_dram_config) -> FakeController:
    return FakeController(dram_config=small_dram_config)


def make_address(
    config: DRAMConfig,
    row: int,
    bank: int = 0,
    bankgroup: int = 0,
    rank: int = 0,
    channel: int = 0,
    column: int = 0,
) -> DRAMAddress:
    """Convenience constructor for DRAM addresses in tests."""
    return DRAMAddress(
        channel=channel,
        rank=rank,
        bankgroup=bankgroup,
        bank=bank,
        row=row % config.organization.rows_per_bank,
        column=column,
    )


def comet_estimate(comet, bank_key, row: int) -> int:
    """A row's activation-count estimate in CoMeT: its RAT counter when it
    has one, else its Counter Table estimate."""
    tracker = comet.bank_tracker(bank_key)
    value = tracker.rat.lookup(row)
    return value if value is not None else tracker.counter_table.estimate(row)
