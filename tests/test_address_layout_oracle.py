"""The address layout checked against an independent, field-by-field oracle.

The reference below is written from :class:`~repro.dram.address.AddressMapper`'s
documented bit order alone::

    [cacheline offset][channel][bankgroup][bank][column][rank][row]

least significant first, each field as wide as it needs to index its
dimension.  It places and extracts one field at a time, the slow obvious way,
and is checked against ``encode``, ``decode`` and ``address_for_row`` over
random power-of-two geometries.  A round trip alone cannot catch two fields
swapped consistently in both directions; this oracle does.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.dram.address import AddressMapper, DRAMAddress
from repro.dram.config import DRAMConfig, DRAMOrganization


def width(count: int) -> int:
    """Bits needed to index ``count`` items: the smallest w with 2**w >= count."""
    bits = 0
    while (1 << bits) < count:
        bits += 1
    return bits


def reference_fields(org: DRAMOrganization):
    """``(name, count)`` per field, least significant first, as documented."""
    return (
        ("offset", org.cacheline_bytes),
        ("channel", org.channels),
        ("bankgroup", org.bankgroups_per_rank),
        ("bank", org.banks_per_bankgroup),
        ("column", org.columns_per_row // org.columns_per_cacheline),
        ("rank", org.ranks_per_channel),
        ("row", org.rows_per_bank),
    )


def reference_encode(org: DRAMOrganization, **coordinates: int) -> int:
    """Place every in-range field at its position; the offset bits stay 0."""
    values = dict(coordinates, offset=0)
    values["column"] = coordinates["column"] // org.columns_per_cacheline
    address = 0
    position = 0
    for name, count in reference_fields(org):
        assert 0 <= values[name] < count, (name, values[name], count)
        address += values[name] * 2**position
        position += width(count)
    return address


def reference_decode(org: DRAMOrganization, address: int) -> dict:
    """Read every field back from its position; bits above the row are ignored."""
    values = {}
    position = 0
    for name, count in reference_fields(org):
        values[name] = (address // 2**position) % count
        position += width(count)
    del values["offset"]
    values["column"] *= org.columns_per_cacheline
    return values


def reference_address_for_row(
    org: DRAMOrganization, row: int, bank_index: int, column: int, channel: int
) -> int:
    """Flat bank indices run rank-major over (rank, bankgroup, bank); all wrap."""
    banks_per_rank = org.bankgroups_per_rank * org.banks_per_bankgroup
    bank_index %= org.ranks_per_channel * banks_per_rank
    return reference_encode(
        org,
        channel=channel % org.channels,
        rank=bank_index // banks_per_rank,
        bankgroup=bank_index % banks_per_rank // org.banks_per_bankgroup,
        bank=bank_index % org.banks_per_bankgroup,
        row=row % org.rows_per_bank,
        column=column % org.columns_per_row,
    )


small_power_of_two = st.sampled_from((1, 2, 4))

organizations = st.builds(
    DRAMOrganization,
    channels=small_power_of_two,
    ranks_per_channel=small_power_of_two,
    bankgroups_per_rank=small_power_of_two,
    banks_per_bankgroup=small_power_of_two,
    rows_per_bank=st.integers(min_value=0, max_value=17).map(lambda k: 1 << k),
    columns_per_row=st.sampled_from((8, 64, 1024)),
)


@st.composite
def geometry_and_coordinates(draw):
    org = draw(organizations)
    coordinates = {
        "channel": draw(st.integers(0, org.channels - 1)),
        "rank": draw(st.integers(0, org.ranks_per_channel - 1)),
        "bankgroup": draw(st.integers(0, org.bankgroups_per_rank - 1)),
        "bank": draw(st.integers(0, org.banks_per_bankgroup - 1)),
        "row": draw(st.integers(0, org.rows_per_bank - 1)),
        "column": org.columns_per_cacheline
        * draw(st.integers(0, org.columns_per_row // org.columns_per_cacheline - 1)),
    }
    return org, coordinates


def mapper_for(org: DRAMOrganization) -> AddressMapper:
    return AddressMapper(DRAMConfig(organization=org))


#: Any integer, including negative and far out-of-range ones.
wild = st.integers(min_value=-(1 << 24), max_value=1 << 24)


class TestLayoutOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=geometry_and_coordinates())
    def test_encode_matches_the_reference(self, case):
        org, coordinates = case
        mapper = mapper_for(org)
        expected = reference_encode(org, **coordinates)
        assert mapper.encode(DRAMAddress(**coordinates)) == expected
        assert mapper.decode(expected) == DRAMAddress(**coordinates)

    @settings(max_examples=150, deadline=None)
    @given(org=organizations, address=st.integers(min_value=0, max_value=1 << 40))
    def test_decode_matches_the_reference(self, org, address):
        assert mapper_for(org).decode(address) == DRAMAddress(
            **reference_decode(org, address)
        )

    @settings(max_examples=150, deadline=None)
    @given(
        org=organizations,
        row=wild,
        bank_index=st.integers(min_value=-64, max_value=256),
        column=wild,
        channel=st.integers(min_value=-8, max_value=16),
    )
    def test_address_for_row_matches_the_reference(
        self, org, row, bank_index, column, channel
    ):
        """Out-of-range rows, bank indices, columns and channels wrap."""
        assert mapper_for(org).address_for_row(
            row, bank_index=bank_index, column=column, channel=channel
        ) == reference_address_for_row(org, row, bank_index, column, channel)

    def test_reference_pins_the_default_geometry(self):
        """A hand-worked address on DDR4 defaults: 6 offset, 0 channel, 2
        bankgroup, 2 bank, 7 column, 1 rank bits, then the row."""
        org = DRAMOrganization()
        mapper = mapper_for(org)
        coordinates = dict(channel=0, rank=1, bankgroup=2, bank=3, row=5, column=16)
        expected = (5 << 18) | (1 << 17) | (2 << 10) | (3 << 8) | (2 << 6)
        assert reference_encode(org, **coordinates) == expected
        assert mapper.encode(DRAMAddress(**coordinates)) == expected
