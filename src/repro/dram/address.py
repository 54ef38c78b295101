"""Physical-address to DRAM-coordinate mapping.

The memory controller translates cache-line-aligned physical addresses into
(channel, rank, bank group, bank, row, column) coordinates.  The default
mapping interleaves consecutive cache lines across channels, bank groups and
banks before touching rank and row bits — the standard
``Row:Rank:BankGroup:Bank:Column:Channel`` style mapping that maximizes
bank-level parallelism for streaming workloads, matching the behaviour that
Ramulator's default DDR4 mapping gives the paper's workloads.

Each :class:`AddressMapper` computes its layout once, at construction, so
encoding and decoding are a few shifts and masks: every trace generator
calls :meth:`AddressMapper.address_for_row` once per synthesized access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.dram.config import DRAMConfig


class _cached_key:
    """Lock-free per-instance cache for the address key tuples.

    ``functools.cached_property`` would do the same job, but on Python 3.11
    it takes an RLock on every first access, which measurably *loses* to
    recomputing these tiny tuples (the lock was removed in 3.12).  This is
    the lock-free variant: compute once, stash in ``__dict__`` (allowed on a
    frozen dataclass — only ``__setattr__`` is blocked), and let ordinary
    attribute lookup find the cached tuple on every later read.  Equality,
    ordering and hashing are generated from the dataclass fields, so the
    cache never leaks into them.
    """

    def __init__(self, func):
        self._func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name) -> None:
        self._name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self._func(instance)
        instance.__dict__[self._name] = value
        return value


@dataclass(frozen=True, order=True, init=False)
class DRAMAddress:
    """A fully decoded DRAM coordinate.

    ``__init__`` is hand-written, like :class:`repro.dram.commands.Command`'s:
    an address is built on every decode-memo miss, for every new row in the
    DRAM model's ACT-address memo and twice per aggressor in
    :meth:`AddressMapper.neighbors`, and the generated frozen-dataclass
    ``__init__`` routes each field through ``object.__setattr__``, which
    costs about three times as much as filling the instance ``__dict__``
    directly.  Everything else stays generated and behaves as before:
    ``__eq__``/ordering/``__hash__``/``__repr__`` over the six fields,
    :class:`dataclasses.FrozenInstanceError` on assignment,
    :func:`dataclasses.replace` and pickling.
    """

    channel: int
    rank: int
    bankgroup: int
    bank: int
    row: int
    column: int

    def __init__(
        self, channel: int, rank: int, bankgroup: int, bank: int, row: int, column: int
    ) -> None:
        state = self.__dict__
        state["channel"] = channel
        state["rank"] = rank
        state["bankgroup"] = bankgroup
        state["bank"] = bank
        state["row"] = row
        state["column"] = column

    # The keys are cached because the same address object is asked for them
    # many times: the FR-FCFS scheduler groups every queued request by
    # ``bank_key`` on *every* command selection while the request waits, and
    # each ACT's address is interrogated by the mitigation hooks on top.

    @_cached_key
    def bank_key(self) -> Tuple[int, int, int, int]:
        """Globally unique bank identifier (channel, rank, bankgroup, bank)."""
        return (self.channel, self.rank, self.bankgroup, self.bank)

    @_cached_key
    def row_key(self) -> Tuple[int, int, int, int, int]:
        """Globally unique row identifier."""
        return (self.channel, self.rank, self.bankgroup, self.bank, self.row)


def _bits(value: int) -> int:
    """Number of bits needed to index ``value`` distinct items (0 for 1 item)."""
    if value <= 1:
        return 0
    return (value - 1).bit_length()


def validate_mappable_geometry(config: DRAMConfig) -> None:
    """Check every dimension of the organization is addressable without aliasing.

    The interleaved bit layout slices the physical address into fixed-width
    fields, so each dimension must be a power of two (or 1): a field of
    ``ceil(log2(n))`` bits over a non-power-of-two ``n`` would either leave
    encodings unused or alias two coordinates onto one address, breaking the
    ``decode(encode(x)) == x`` round-trip the workload generators rely on.
    """
    org = config.organization
    dimensions = {
        "channels": org.channels,
        "ranks_per_channel": org.ranks_per_channel,
        "bankgroups_per_rank": org.bankgroups_per_rank,
        "banks_per_bankgroup": org.banks_per_bankgroup,
        "rows_per_bank": org.rows_per_bank,
        "columns_per_row / columns_per_cacheline": (
            org.columns_per_row // org.columns_per_cacheline
        ),
        "cacheline_bytes": org.cacheline_bytes,
    }
    for name, value in dimensions.items():
        if value < 1 or value & (value - 1):
            raise ValueError(
                f"DRAM organization is not address-mappable: {name}={value} "
                f"is not a power of two, so a {_bits(value)}-bit address field "
                f"would alias distinct coordinates"
            )


class AddressMapper:
    """Translates byte physical addresses to :class:`DRAMAddress` and back.

    The bit layout, from least to most significant, is::

        [cacheline offset][channel][bankgroup][bank][column][rank][row]

    which interleaves consecutive cache lines across channels and banks
    (maximizing parallelism) while keeping a row's cache lines contiguous in
    the column bits (preserving row-buffer locality within a row).

    The layout is computed once, at construction: each field's bit offset
    and mask, plus the rank|bankgroup|bank bits of every flat bank index.
    :meth:`encode`, :meth:`decode` and :meth:`address_for_row` are then
    plain shift-and-mask arithmetic.  :func:`validate_mappable_geometry` is
    what makes the masks exact: every field spans a power-of-two range.
    """

    def __init__(self, config: DRAMConfig) -> None:
        validate_mappable_geometry(config)
        self.config = config
        org = config.organization
        self._channels = org.channels
        self._rows = org.rows_per_bank
        self._columns_per_row = org.columns_per_row
        self._columns_per_cacheline = org.columns_per_cacheline
        self._banks = org.ranks_per_channel * org.banks_per_rank
        # Each field's absolute bit offset, least significant first.
        shift = _bits(org.cacheline_bytes)
        fields = {}
        for name, count in (
            ("channel", org.channels),
            ("bankgroup", org.bankgroups_per_rank),
            ("bank", org.banks_per_bankgroup),
            ("column", org.columns_per_row // org.columns_per_cacheline),
            ("rank", org.ranks_per_channel),
            ("row", org.rows_per_bank),
        ):
            fields[name] = (shift, count - 1)
            shift += _bits(count)
        self._channel_shift, self._channel_mask = fields["channel"]
        self._bankgroup_shift, self._bankgroup_mask = fields["bankgroup"]
        self._bank_shift, self._bank_mask = fields["bank"]
        self._column_shift, self._column_mask = fields["column"]
        self._rank_shift, self._rank_mask = fields["rank"]
        self._row_shift, self._row_mask = fields["row"]
        # The rank|bankgroup|bank bits of every flat bank index (rank-major,
        # as :meth:`address_for_row` enumerates them).
        self._bank_index_bits: List[int] = [
            (rank << self._rank_shift)
            | (bankgroup << self._bankgroup_shift)
            | (bank << self._bank_shift)
            for rank in range(org.ranks_per_channel)
            for bankgroup in range(org.bankgroups_per_rank)
            for bank in range(org.banks_per_bankgroup)
        ]
        # Decoded-address memo: workloads re-touch the same cache lines
        # (hammering patterns by construction, benign traces through
        # locality), DRAMAddress is frozen, and decode is pure — so decoding
        # each distinct physical address once per mapper is exact.  Bounded
        # so a pathological trace cannot grow it without limit.
        self._decode_memo: Dict[int, DRAMAddress] = {}

    _DECODE_MEMO_LIMIT = 1 << 20

    # ------------------------------------------------------------------ #
    # Decode / encode
    # ------------------------------------------------------------------ #
    def decode(self, physical_address: int) -> DRAMAddress:
        """Decode a byte-granularity physical address."""
        address = self._decode_memo.get(physical_address)
        if address is not None:
            return address
        address = self._decode_slow(physical_address)
        if len(self._decode_memo) < self._DECODE_MEMO_LIMIT:
            self._decode_memo[physical_address] = address
        return address

    def _decode_slow(self, physical_address: int) -> DRAMAddress:
        if physical_address < 0:
            raise ValueError("physical address must be non-negative")
        return DRAMAddress(
            (physical_address >> self._channel_shift) & self._channel_mask,
            (physical_address >> self._rank_shift) & self._rank_mask,
            (physical_address >> self._bankgroup_shift) & self._bankgroup_mask,
            (physical_address >> self._bank_shift) & self._bank_mask,
            (physical_address >> self._row_shift) & self._row_mask,
            ((physical_address >> self._column_shift) & self._column_mask)
            * self._columns_per_cacheline,
        )

    def encode(self, address: DRAMAddress) -> int:
        """Inverse of :meth:`decode` (returns a cache-line-aligned byte address).

        Fields are not range-checked: an out-of-range field's high bits OR
        into the fields above it.
        """
        return (
            (address.row << self._row_shift)
            | (address.rank << self._rank_shift)
            | ((address.column // self._columns_per_cacheline) << self._column_shift)
            | (address.bank << self._bank_shift)
            | (address.bankgroup << self._bankgroup_shift)
            | (address.channel << self._channel_shift)
        )

    # ------------------------------------------------------------------ #
    # Convenience constructors used by workload generators
    # ------------------------------------------------------------------ #
    def address_for_row(
        self, row: int, bank_index: int = 0, column: int = 0, channel: int = 0
    ) -> int:
        """Build a physical address hitting a particular row of a flat bank index.

        ``bank_index`` enumerates (rank, bankgroup, bank) triples in
        rank-major order; workload and attack generators use this to target
        specific banks and rows directly.  Every argument wraps around its
        dimension (``row`` modulo the rows per bank, and so on).
        """
        return (
            ((row % self._rows) << self._row_shift)
            | self._bank_index_bits[bank_index % self._banks]
            | (
                (column % self._columns_per_row // self._columns_per_cacheline)
                << self._column_shift
            )
            | ((channel % self._channels) << self._channel_shift)
        )

    def all_bank_indices(self) -> List[int]:
        """Flat bank indices for every bank in one channel."""
        return list(range(self._banks))

    def iter_rows(self, bank_index: int, start: int, count: int) -> Iterator[int]:
        """Yield physical addresses for ``count`` consecutive rows of a bank."""
        for offset in range(count):
            yield self.address_for_row(start + offset, bank_index=bank_index)

    def neighbors(self, address: DRAMAddress, blast_radius: int = 1) -> Sequence[DRAMAddress]:
        """Victim rows physically adjacent to ``address`` (within ``blast_radius``).

        The paper's mitigations refresh the two immediate neighbours of an
        aggressor row; a larger blast radius models half-double style
        configurations used in some sensitivity tests.
        """
        channel, rank = address.channel, address.rank
        bankgroup, bank = address.bankgroup, address.bank
        victims = []
        for distance in range(1, blast_radius + 1):
            for direction in (-1, 1):
                victim_row = address.row + direction * distance
                if 0 <= victim_row < self._rows:
                    victims.append(
                        DRAMAddress(channel, rank, bankgroup, bank, victim_row, 0)
                    )
        return victims
