"""Tests for physical address <-> DRAM coordinate mapping."""

import dataclasses
import pickle

import pytest

from repro.dram.address import AddressMapper, DRAMAddress
from repro.dram.config import DRAMConfig


@pytest.fixture
def full_mapper():
    return AddressMapper(DRAMConfig())


class TestDecodeEncode:
    def test_roundtrip_sequential_addresses(self, mapper):
        line = mapper.config.organization.cacheline_bytes
        for address in range(0, 200 * line, line):
            decoded = mapper.decode(address)
            assert mapper.encode(decoded) == address

    def test_roundtrip_full_config(self, full_mapper):
        line = 64
        for address in range(0, 512 * line, 7 * line):
            decoded = full_mapper.decode(address)
            assert full_mapper.encode(decoded) == address

    def test_decode_fields_in_range(self, mapper):
        org = mapper.config.organization
        for address in range(0, 100_000, 4096 + 64):
            decoded = mapper.decode(address)
            assert 0 <= decoded.channel < org.channels
            assert 0 <= decoded.rank < org.ranks_per_channel
            assert 0 <= decoded.bankgroup < org.bankgroups_per_rank
            assert 0 <= decoded.bank < org.banks_per_bankgroup
            assert 0 <= decoded.row < org.rows_per_bank
            assert 0 <= decoded.column < org.columns_per_row

    def test_negative_address_rejected(self, mapper):
        with pytest.raises(ValueError):
            mapper.decode(-1)

    def test_consecutive_cachelines_spread_across_banks(self, full_mapper):
        """The mapping should interleave consecutive lines over banks (parallelism)."""
        line = 64
        banks = {full_mapper.decode(i * line).bank_key for i in range(16)}
        assert len(banks) > 4

    def test_same_row_lines_share_row(self, mapper):
        """Addresses differing only in column bits must decode to the same row."""
        base = mapper.address_for_row(10, bank_index=1, column=0)
        other = mapper.address_for_row(10, bank_index=1, column=8)
        a, b = mapper.decode(base), mapper.decode(other)
        assert a.row == b.row
        assert a.bank_key == b.bank_key
        assert a.column != b.column


class TestAddressForRow:
    def test_targets_requested_row_and_bank(self, mapper):
        org = mapper.config.organization
        for bank_index in mapper.all_bank_indices():
            address = mapper.address_for_row(42, bank_index=bank_index)
            decoded = mapper.decode(address)
            assert decoded.row == 42
            flat = (
                decoded.rank * org.banks_per_rank
                + decoded.bankgroup * org.banks_per_bankgroup
                + decoded.bank
            )
            assert flat == bank_index

    def test_row_wraps_around(self, mapper):
        rows = mapper.config.organization.rows_per_bank
        address = mapper.address_for_row(rows + 5, bank_index=0)
        assert mapper.decode(address).row == 5

    def test_all_bank_indices_count(self, mapper):
        org = mapper.config.organization
        assert len(mapper.all_bank_indices()) == org.ranks_per_channel * org.banks_per_rank


class TestNeighbors:
    def test_middle_row_has_two_victims(self, mapper):
        address = mapper.decode(mapper.address_for_row(100, bank_index=0))
        victims = mapper.neighbors(address)
        assert {v.row for v in victims} == {99, 101}
        assert all(v.bank_key == address.bank_key for v in victims)

    def test_edge_rows_have_one_victim(self, mapper):
        rows = mapper.config.organization.rows_per_bank
        first = mapper.decode(mapper.address_for_row(0, bank_index=0))
        last = mapper.decode(mapper.address_for_row(rows - 1, bank_index=0))
        assert {v.row for v in mapper.neighbors(first)} == {1}
        assert {v.row for v in mapper.neighbors(last)} == {rows - 2}

    def test_blast_radius_two(self, mapper):
        address = mapper.decode(mapper.address_for_row(100, bank_index=0))
        victims = mapper.neighbors(address, blast_radius=2)
        assert {v.row for v in victims} == {98, 99, 101, 102}


class TestDRAMAddress:
    def test_bank_key_and_row_key(self):
        address = DRAMAddress(channel=0, rank=1, bankgroup=2, bank=3, row=7, column=0)
        assert address.bank_key == (0, 1, 2, 3)
        assert address.row_key == (0, 1, 2, 3, 7)

    def test_ordering(self):
        a = DRAMAddress(0, 0, 0, 0, 5, 0)
        b = DRAMAddress(0, 0, 0, 0, 6, 0)
        assert a < b

    def test_positional_and_keyword_construction_agree(self):
        positional = DRAMAddress(0, 1, 2, 3, 7, 8)
        keyword = DRAMAddress(channel=0, rank=1, bankgroup=2, bank=3, row=7, column=8)
        assert positional == keyword
        assert vars(positional) == {
            "channel": 0, "rank": 1, "bankgroup": 2, "bank": 3, "row": 7, "column": 8,
        }
        with pytest.raises(TypeError):
            DRAMAddress(0, 1, 2, 3, 7)

    def test_assignment_is_rejected(self):
        address = DRAMAddress(0, 1, 2, 3, 7, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            address.row = 8
        with pytest.raises(dataclasses.FrozenInstanceError):
            address.bank_key = (9, 9, 9, 9)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del address.column

    def test_equality_ordering_and_hash_cover_the_six_fields(self):
        base = DRAMAddress(1, 0, 1, 1, 5, 0)
        same = DRAMAddress(1, 0, 1, 1, 5, 0)
        assert base == same and hash(base) == hash(same)
        assert base != (1, 0, 1, 1, 5, 0)
        # Ordering is the tuple ordering of (channel, rank, bankgroup, bank,
        # row, column), each field a tie-breaker for the one before.
        addresses = [
            DRAMAddress(*fields)
            for fields in [
                (1, 0, 1, 1, 5, 1), (0, 1, 0, 0, 0, 0), (1, 0, 1, 1, 5, 0),
                (1, 0, 0, 9, 0, 0), (0, 0, 9, 9, 9, 9), (1, 0, 1, 0, 7, 3),
            ]
        ]
        assert sorted(addresses) == sorted(
            addresses, key=lambda a: (a.channel, a.rank, a.bankgroup, a.bank, a.row, a.column)
        )
        assert len({base, same, DRAMAddress(1, 0, 1, 1, 5, 1)}) == 2

    def test_cached_keys_stay_out_of_equality_and_hash(self):
        warm = DRAMAddress(0, 1, 2, 3, 7, 0)
        cold = DRAMAddress(0, 1, 2, 3, 7, 0)
        hash_before = hash(warm)
        assert warm.bank_key is warm.bank_key  # computed once, then cached
        assert warm.row_key is warm.row_key
        assert "bank_key" in vars(warm) and "bank_key" not in vars(cold)
        assert warm == cold and hash(warm) == hash_before == hash(cold)
        assert repr(warm) == repr(cold) == (
            "DRAMAddress(channel=0, rank=1, bankgroup=2, bank=3, row=7, column=0)"
        )

    def test_pickle_round_trip(self):
        for address in (DRAMAddress(0, 1, 2, 3, 7, 8), DRAMAddress(1, 0, 0, 1, 9, 0)):
            address.row_key  # a warm cache must survive the round trip too
            restored = pickle.loads(pickle.dumps(address))
            assert restored == address and hash(restored) == hash(address)
            assert restored.bank_key == address.bank_key
            assert restored.row_key == address.row_key
            with pytest.raises(dataclasses.FrozenInstanceError):
                restored.row = 1

    def test_replace(self):
        address = DRAMAddress(0, 1, 2, 3, 7, 8)
        address.bank_key
        moved = dataclasses.replace(address, row=9)
        assert moved == DRAMAddress(0, 1, 2, 3, 9, 8)
        assert moved.row_key == (0, 1, 2, 3, 9)
        assert dataclasses.replace(address) == address
        assert [f.name for f in dataclasses.fields(address)] == [
            "channel", "rank", "bankgroup", "bank", "row", "column",
        ]
        with pytest.raises(TypeError):
            dataclasses.replace(address, bank_key=(0, 0, 0, 0))
