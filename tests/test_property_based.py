"""Property-based tests (hypothesis) for the core data structures and invariants.

These check the properties the paper's security argument rests on:

* sketch structures (CMS, CMS-CU, counting Bloom filter, Misra-Gries) never
  underestimate an item's frequency for *any* update stream;
* the address mapper is a bijection between physical addresses and DRAM
  coordinates;
* CoMeT's activation-count estimate never underestimates the true per-row
  activation count within a counter-reset period, for arbitrary activation
  streams (Section 5's security claim);
* the Recent Aggressor Table never exceeds its capacity and never loses the
  row that was just allocated.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core.comet import CoMeT
from repro.core.config import CoMeTConfig
from repro.core.rat import RecentAggressorTable
from repro.dram.address import AddressMapper
from repro.dram.config import small_test_config
from repro.sketch.count_min import ConservativeCountMinSketch, CountMinSketch, SketchConfig
from repro.sketch.counting_bloom import CountingBloomFilter
from repro.sketch.misra_gries import MisraGriesSummary
from tests.conftest import FakeController, comet_estimate, make_address

# Keep row ids in a modest range so streams actually collide in the sketches.
row_ids = st.integers(min_value=0, max_value=4000)
streams = st.lists(row_ids, min_size=1, max_size=400)


class TestSketchNeverUnderestimates:
    @settings(max_examples=60, deadline=None)
    @given(stream=streams)
    def test_count_min(self, stream):
        sketch = CountMinSketch(SketchConfig(num_hashes=3, counters_per_hash=32, seed=1))
        for key in stream:
            sketch.update(key)
        truth = Counter(stream)
        assert all(sketch.estimate(k) >= c for k, c in truth.items())

    @settings(max_examples=60, deadline=None)
    @given(stream=streams)
    def test_conservative_count_min(self, stream):
        sketch = ConservativeCountMinSketch(
            SketchConfig(num_hashes=3, counters_per_hash=32, seed=1)
        )
        for key in stream:
            sketch.update(key)
        truth = Counter(stream)
        assert all(sketch.estimate(k) >= c for k, c in truth.items())

    @settings(max_examples=60, deadline=None)
    @given(stream=streams)
    def test_conservative_never_worse_than_plain(self, stream):
        plain = CountMinSketch(SketchConfig(num_hashes=3, counters_per_hash=32, seed=2))
        conservative = ConservativeCountMinSketch(
            SketchConfig(num_hashes=3, counters_per_hash=32, seed=2)
        )
        for key in stream:
            plain.update(key)
            conservative.update(key)
        for key in set(stream):
            assert conservative.estimate(key) <= plain.estimate(key)

    @settings(max_examples=60, deadline=None)
    @given(stream=streams)
    def test_counting_bloom(self, stream):
        cbf = CountingBloomFilter(num_counters=64, num_hashes=3, seed=1)
        for key in stream:
            cbf.update(key)
        truth = Counter(stream)
        assert all(cbf.estimate(k) >= c for k, c in truth.items())

    @settings(max_examples=60, deadline=None)
    @given(stream=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=300))
    def test_misra_gries(self, stream):
        summary = MisraGriesSummary(num_entries=8)
        for key in stream:
            summary.update(key)
        truth = Counter(stream)
        assert all(summary.estimate(k) >= c for k, c in truth.items())


class TestAddressMapperBijection:
    @settings(max_examples=100, deadline=None)
    @given(line_index=st.integers(min_value=0, max_value=1_000_000))
    def test_roundtrip(self, line_index):
        config = small_test_config(rows_per_bank=1024, ranks_per_channel=2)
        mapper = AddressMapper(config)
        address = line_index * config.organization.cacheline_bytes
        assert mapper.encode(mapper.decode(address)) == address

    @settings(max_examples=100, deadline=None)
    @given(
        row=st.integers(min_value=0, max_value=1023),
        bank_index=st.integers(min_value=0, max_value=7),
    )
    def test_address_for_row_decodes_back(self, row, bank_index):
        config = small_test_config(rows_per_bank=1024, ranks_per_channel=2)
        mapper = AddressMapper(config)
        decoded = mapper.decode(mapper.address_for_row(row, bank_index=bank_index))
        assert decoded.row == row


class TestRATProperties:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=100))
    def test_capacity_never_exceeded_and_latest_present(self, rows):
        rat = RecentAggressorTable(num_entries=8, seed=1)
        for row in rows:
            rat.allocate(row, 0)
            assert rat.occupancy <= 8
            assert rat.contains(row)


class TestCoMeTNeverUnderestimates:
    @settings(max_examples=30, deadline=None)
    @given(
        stream=st.lists(st.integers(min_value=1, max_value=120), min_size=1, max_size=300)
    )
    def test_estimate_covers_count_since_last_trigger(self, stream):
        """CoMeT's estimate of a row is never below the row's true activation
        count since CoMeT last preventively refreshed that row's victims —
        the never-underestimate property Section 5's security argument uses.
        """
        config = small_test_config(rows_per_bank=256, refresh_window_scale=1.0)
        controller = FakeController(dram_config=config)
        comet_config = CoMeTConfig(nrh=40, num_hashes=2, counters_per_hash=16)
        comet = CoMeT(nrh=40, config=comet_config)
        comet.attach(controller)

        since_trigger = Counter()
        for cycle, row in enumerate(stream):
            address = make_address(config, row=row)
            before = len(controller.preventive_refreshes)
            comet.on_activation(cycle, address, is_preventive=False)
            since_trigger[row] += 1
            if len(controller.preventive_refreshes) > before:
                since_trigger[row] = 0
        for row, count in since_trigger.items():
            estimate = comet_estimate(comet, (0, 0, 0, 0), row)
            assert estimate >= count

    @settings(max_examples=30, deadline=None)
    @given(
        stream=st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=400)
    )
    def test_no_row_exceeds_npr_without_refresh(self, stream):
        """No row accumulates NPR activations (since its last preventive
        refresh / reset) without CoMeT refreshing its victims."""
        config = small_test_config(rows_per_bank=128, refresh_window_scale=1.0)
        controller = FakeController(dram_config=config)
        comet_config = CoMeTConfig(nrh=40, num_hashes=2, counters_per_hash=16)
        comet = CoMeT(nrh=40, config=comet_config)
        comet.attach(controller)
        npr = comet_config.npr

        since_refresh = Counter()

        for cycle, row in enumerate(stream):
            address = make_address(config, row=row)
            before = len(controller.preventive_refreshes)
            comet.on_activation(cycle, address, is_preventive=False)
            since_refresh[row] += 1
            if len(controller.preventive_refreshes) > before:
                # CoMeT refreshed this row's victims: its slate is clean.
                since_refresh[row] = 0
            assert since_refresh[row] <= npr, (
                f"row {row} reached {since_refresh[row]} activations without a refresh"
            )
