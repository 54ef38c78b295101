"""CoMeT against an independent reference written from Section 4.1 of the paper.

:class:`ReferenceCoMeT` re-derives the mechanism from the paper's text, in
plain dicts and lists, sharing no code with :mod:`repro.core`:

* the activation count is the row's RAT counter on a RAT hit, else the
  minimum of its Counter Table (CT) counter group;
* below ``NPR`` the ACT increments the RAT counter (hit) or the counters of
  the group that hold its minimum (miss: CMS with conservative update);
* reaching ``NPR`` refreshes the row's two neighbours, saturates its CT group
  at ``NPR`` and resets (hit) or allocates (miss) its RAT entry at 0,
  evicting a uniformly random entry when the RAT is full;
* a RAT miss whose CT estimate was already ``NPR`` is a capacity miss;
  the last ``L`` misses are kept, and once the capacity misses among them
  reach the early-refresh threshold the whole rank is refreshed
  (``tREFW / tREFI`` REFs) and its tables are cleared;
* every ``tREFW / k`` cycles all tables are cleared.

Three choices the paper leaves open are taken from the model's stated
conventions, not from its code: the CT hash is CoMeT's shift-mask family
(evaluated here one function at a time through ``hash(i, row)``), the RAT's
random victim is drawn with ``random.Random(bank seed).choice`` over the
entries in allocation order, and each bank's seed is
``hash_seed + hash(bank_key) % 997`` (the CT adds ``hash_seed`` again).

Hypothesis drives both with the same ACT streams at a small NRH and a 2-4
entry RAT, so aggressors, RAT evictions, capacity misses and early and
periodic resets all happen within a few hundred ACTs, and compares after
every ACT: CT counters and update counts, RAT entries, statistics and
eviction RNG state, miss history, the mitigation statistics, and the
victim refreshes and rank refreshes queued on the controller.
"""

import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core.comet import CoMeT
from repro.core.config import CoMeTConfig
from repro.dram.address import DRAMAddress
from repro.dram.config import small_test_config
from repro.sketch.hashes import ShiftMaskHashFamily
from tests.conftest import FakeController

#: 2 ranks x 2 banks of 16 rows: edge rows have one victim, and an early
#: refresh of one rank must leave the other rank's tables alone.
DRAM = small_test_config(
    rows_per_bank=16,
    banks_per_bankgroup=2,
    bankgroups_per_rank=1,
    ranks_per_channel=2,
    refresh_window_scale=1.0 / 2048.0,
)
BANKS = [(0, rank, 0, bank) for rank in range(2) for bank in range(2)]


class _ReferenceBank:
    def __init__(self, config: CoMeTConfig, bank_key) -> None:
        seed = config.hash_seed + hash(bank_key) % 997
        self.hashes = ShiftMaskHashFamily(
            config.num_hashes, config.counters_per_hash, seed=config.hash_seed + seed
        )
        self.num_hashes = config.num_hashes
        self.counters_per_hash = config.counters_per_hash
        self.rng = random.Random(seed)
        self.rat_stats = Counter()
        self.clear()

    def clear(self) -> None:
        self.ct = [[0] * self.counters_per_hash for _ in range(self.num_hashes)]
        self.ct_updates = 0
        self.rat = {}
        self.history = []

    def group(self, row):
        return [(i, self.hashes.hash(i, row)) for i in range(self.num_hashes)]


class ReferenceCoMeT:
    """CoMeT per Section 4.1, observing one ACT at a time."""

    def __init__(self, config: CoMeTConfig, dram_config) -> None:
        self.config = config
        k = config.reset_period_divider
        self.npr = config.nrh // (k + 1)
        self.period = max(1, dram_config.tREFW // k)
        self.next_reset = self.period
        self.rows = dram_config.organization.rows_per_bank
        self.refreshes_per_rank_refresh = max(1, dram_config.tREFW // dram_config.tREFI)
        self.history_length = config.rat_miss_history_length
        self.early_threshold = max(
            1, int(config.rat_miss_history_length * config.early_refresh_threshold_fraction)
        )
        self.banks = {}
        self.stats = Counter()
        self.victims = []          # ((channel, rank, bankgroup, bank, row), cycle)
        self.rank_refreshes = []   # (channel, rank, REF count)
        self.paths = Counter()     # which rules fired, for the coverage check

    def on_activation(self, cycle: int, bank_key, row: int) -> None:
        if cycle >= self.next_reset:
            while cycle >= self.next_reset:
                self.next_reset += self.period
            for bank in self.banks.values():
                bank.clear()
            self.stats["counter_resets"] += 1
            self.paths["periodic reset"] += 1
        self.stats["observed_activations"] += 1
        if bank_key not in self.banks:
            self.banks[bank_key] = _ReferenceBank(self.config, bank_key)
        bank = self.banks[bank_key]
        group = bank.group(row)

        hit = row in bank.rat
        if hit:
            bank.rat_stats["hits"] += 1
            count = bank.rat[row]
        else:
            bank.rat_stats["misses"] += 1
            count = min(bank.ct[i][j] for i, j in group)

        if count + 1 < self.npr:
            if hit:
                bank.rat[row] += 1
                self.paths["RAT increment"] += 1
            else:
                for i, j in group:
                    if bank.ct[i][j] == count:
                        bank.ct[i][j] = count + 1
                bank.ct_updates += 1
                self.paths["CT increment"] += 1
            return

        # The row reached NPR: refresh its victims.
        for victim in (row - 1, row + 1):
            if 0 <= victim < self.rows:
                self.victims.append((bank_key + (victim,), cycle))
                self.stats["preventive_refreshes"] += 1
            else:
                self.paths["edge row"] += 1
        for i, j in group:
            bank.ct[i][j] = max(bank.ct[i][j], self.npr)
        if hit:
            bank.rat[row] = 0
            self.paths["RAT-hit aggressor"] += 1
            return

        capacity = count >= self.npr
        bank.history = (bank.history + [int(capacity)])[-self.history_length:]
        bank.rat_stats["capacity_misses" if capacity else "compulsory_misses"] += 1
        self.paths["capacity miss" if capacity else "compulsory miss"] += 1
        if len(bank.rat) >= self.config.rat_entries:
            evicted = bank.rng.choice(list(bank.rat))
            del bank.rat[evicted]
            bank.rat_stats["evictions"] += 1
            self.stats["rat_evictions"] += 1
            self.paths["RAT eviction"] += 1
        bank.rat[row] = 0
        bank.rat_stats["allocations"] += 1

        if sum(bank.history) >= self.early_threshold:
            channel, rank = bank_key[0], bank_key[1]
            self.rank_refreshes.append((channel, rank, self.refreshes_per_rank_refresh))
            self.stats["early_refresh_operations"] += 1
            for key, other in self.banks.items():
                if key[:2] == (channel, rank):
                    other.clear()
            self.paths["early refresh"] += 1


def _assert_same_state(comet: CoMeT, controller: FakeController, reference: ReferenceCoMeT):
    snapshot = comet.snapshot()
    stats = snapshot["stats"]
    for name in (
        "observed_activations",
        "preventive_refreshes",
        "early_refresh_operations",
        "counter_resets",
    ):
        assert stats[name] == reference.stats[name], name
    assert stats["extra"].get("rat_evictions", 0) == reference.stats["rat_evictions"]
    assert snapshot["state"]["next_reset_cycle"] == reference.next_reset

    banks = snapshot["state"]["banks"]
    assert set(banks) == set(reference.banks)
    for bank_key, bank in banks.items():
        expected = reference.banks[bank_key]
        assert bank["counter_table"]["counters"] == expected.ct, bank_key
        assert bank["counter_table"]["total_updates"] == expected.ct_updates, bank_key
        assert dict(bank["rat"]["entries"]) == expected.rat, bank_key
        assert bank["rat"]["rng_state"] == expected.rng.getstate(), bank_key
        rat_stats = {key: value for key, value in bank["rat"]["stats"].items() if value}
        assert rat_stats == dict(+expected.rat_stats), bank_key
        assert bank["miss_history"] == expected.history, bank_key

    queued = [(address.row_key, cycle) for address, cycle in controller.preventive_refreshes]
    assert queued == reference.victims
    assert all(address.column == 0 for address, _ in controller.preventive_refreshes)
    assert controller.rank_refreshes == reference.rank_refreshes


def _run(config: CoMeTConfig, acts):
    """Drive CoMeT and the reference with ``acts`` and compare after every ACT."""
    controller = FakeController(dram_config=DRAM)
    comet = CoMeT(nrh=config.nrh, config=config)
    comet.attach(controller)
    reference = ReferenceCoMeT(config, DRAM)
    cycle = 0
    for bank_index, row, gap, preventive in acts:
        if gap == "at reset":
            cycle = reference.next_reset
        elif gap == "before reset":
            cycle = max(cycle, reference.next_reset - 1)
        else:
            cycle += gap
        bank_key = BANKS[bank_index]
        comet.on_activation(cycle, DRAMAddress(*bank_key, row, 0), preventive)
        reference.on_activation(cycle, bank_key, row)
        _assert_same_state(comet, controller, reference)
    return reference


configs = st.builds(
    CoMeTConfig,
    nrh=st.sampled_from([8, 12, 16, 24]),
    num_hashes=st.integers(min_value=1, max_value=3),
    counters_per_hash=st.sampled_from([2, 4, 8]),
    rat_entries=st.integers(min_value=2, max_value=4),
    rat_miss_history_length=st.integers(min_value=2, max_value=8),
    early_refresh_threshold_fraction=st.sampled_from([0.25, 0.5, 1.0]),
    hash_seed=st.integers(min_value=0, max_value=3),
)
acts = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(BANKS) - 1),
        st.integers(min_value=0, max_value=DRAM.organization.rows_per_bank - 1),
        # Mostly back-to-back ACTs; now and then a jump to (or to just
        # before) the next reset boundary.
        st.one_of(
            st.integers(min_value=0, max_value=40),
            st.sampled_from(["at reset", "before reset"]),
        ),
        st.booleans(),
    ),
    min_size=1,
    max_size=250,
)


class TestCoMeTMatchesReference:
    @settings(max_examples=120, deadline=None)
    @given(config=configs, acts=acts)
    def test_every_act_matches_the_reference(self, config, acts):
        _run(config, acts)

    def test_a_long_stream_fires_every_path(self):
        """One seeded stream long enough to take every rule of the reference,
        so the comparison above is known to reach all of them."""
        rng = random.Random(2024)
        config = CoMeTConfig(
            nrh=12,
            num_hashes=2,
            counters_per_hash=4,
            rat_entries=3,
            rat_miss_history_length=6,
            early_refresh_threshold_fraction=0.5,
        )
        stream = [
            (
                rng.randrange(len(BANKS)),
                rng.choice([0, 15, *range(1, 15)]),
                "at reset" if rng.random() < 0.003 else rng.randrange(30),
                rng.random() < 0.1,
            )
            for _ in range(1_200)
        ]
        reference = _run(config, stream)
        assert set(reference.paths) == {
            "periodic reset",
            "RAT increment",
            "CT increment",
            "edge row",
            "RAT-hit aggressor",
            "capacity miss",
            "compulsory miss",
            "RAT eviction",
            "early refresh",
        }
