"""Tests for the pluggable controller-policy layer.

Covers the three policy registries and the :class:`ControllerPolicySpec`
contract (validation, param routing, serialization, default normalization),
the behavioural contracts of every non-default policy (FCFS ordering, BLISS
blacklisting, closed-page/timeout precharging, fine-granularity refresh),
and the headline equivalence promise: the default triple is bit-identical
to a controller built with no policy at all.
"""

import dataclasses

import pytest

from repro.controller.controller import MemoryController
from repro.controller.policies import (
    NEVER,
    ControllerPolicySpec,
    DEFAULT_POLICY,
    FineGranularityRefreshPolicy,
    UnknownPolicyError,
    normalize_policy,
    policy_catalog,
    refresh_policy_names,
    row_policy_names,
    scheduler_names,
)
from repro.controller.request import MemoryRequest, RequestType
from repro.experiment.execute import execute_spec
from repro.experiment.spec import (
    ExperimentSpec,
    MitigationSpec,
    PlatformSpec,
    WorkloadSpec,
)


def make_controller(dram_config, **kwargs):
    return MemoryController(dram_config, **kwargs)


def read_request(controller, row, bank_index=0, column=0, cycle=0, core_id=0):
    address = controller.mapper.decode(
        controller.mapper.address_for_row(row, bank_index=bank_index, column=column)
    )
    return MemoryRequest(
        request_type=RequestType.READ,
        address=address,
        core_id=core_id,
        arrival_cycle=cycle,
    )


def run_until_idle(controller, start=0, limit=50_000):
    """Issue until the controller has nothing left (incl. policy closes)."""
    cycle = start
    for _ in range(limit):
        issued = controller.issue_next(cycle)
        if issued is None:
            break
        cycle = issued
    return cycle


def policy(**kwargs):
    return ControllerPolicySpec(**kwargs)


# --------------------------------------------------------------------------- #
# Registry and spec contract
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_builtin_policies_registered(self):
        assert scheduler_names() == ["bliss", "fcfs", "fr_fcfs"]
        assert row_policy_names() == ["adaptive_timeout", "closed_page", "open_page"]
        assert refresh_policy_names() == ["all_bank", "fine_granularity", "rfm"]

    def test_catalog_carries_metadata(self):
        entries = {(e.kind, e.name): e for e in policy_catalog()}
        assert len(entries) == 9
        assert all(e.description for e in entries.values())
        assert "row_timeout" in entries[("row_policy", "adaptive_timeout")].params
        assert "bliss_blacklist_streak" in entries[("scheduler", "bliss")].params
        assert "raaimt" in entries[("refresh_policy", "rfm")].params

    def test_unknown_names_rejected_listing_known(self):
        with pytest.raises(UnknownPolicyError, match="fr_fcfs"):
            ControllerPolicySpec(scheduler="frfcfs")
        with pytest.raises(UnknownPolicyError, match="open_page"):
            ControllerPolicySpec(row_policy="open")
        with pytest.raises(UnknownPolicyError, match="all_bank"):
            ControllerPolicySpec(refresh_policy="per_bank")

    def test_unknown_params_rejected(self):
        with pytest.raises(ValueError, match="unknown policy params"):
            ControllerPolicySpec(params={"row_timeout": 100})  # open_page takes none
        with pytest.raises(ValueError, match="row_timeout"):
            ControllerPolicySpec(
                row_policy="adaptive_timeout", params={"row_timeut": 100}
            )


class TestPolicySpec:
    def test_default_and_label(self):
        assert DEFAULT_POLICY.is_default
        assert DEFAULT_POLICY.label() == "fr_fcfs/open_page/all_bank"
        spec = policy(scheduler="bliss", params={"bliss_blacklist_streak": 8})
        assert not spec.is_default
        assert spec.label() == "bliss/open_page/all_bank[bliss_blacklist_streak=8]"

    def test_param_routing_to_constructors(self):
        spec = policy(
            scheduler="bliss",
            row_policy="adaptive_timeout",
            refresh_policy="fine_granularity",
            params={
                "bliss_blacklist_streak": 8,
                "row_timeout": 123,
                "refresh_granularity": 4,
            },
        )
        scheduler, row, refresh = spec.build()
        assert scheduler.blacklist_streak == 8
        assert row.row_timeout == 123
        assert refresh.granularity == 4

    def test_dict_round_trip(self):
        spec = policy(scheduler="fcfs", row_policy="closed_page")
        assert ControllerPolicySpec.from_dict(spec.to_dict()) == spec

    def test_normalize_maps_default_to_none(self):
        assert normalize_policy(ControllerPolicySpec()) is None
        spec = policy(scheduler="fcfs")
        assert normalize_policy(spec) is spec

    def test_platform_normalizes_explicit_default(self):
        plain = PlatformSpec()
        explicit = PlatformSpec(controller=ControllerPolicySpec())
        assert explicit.controller is None
        assert explicit == plain

    def test_experiment_spec_json_round_trip(self):
        spec = ExperimentSpec(
            workload=WorkloadSpec(name="429.mcf", num_requests=500),
            mitigation=MitigationSpec(name="comet", nrh=125),
            platform=PlatformSpec(
                controller=policy(
                    scheduler="bliss",
                    row_policy="adaptive_timeout",
                    params={"row_timeout": 250},
                )
            ),
        )
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.content_hash() == spec.content_hash()

    def test_policy_changes_content_hash(self):
        base = ExperimentSpec(
            workload=WorkloadSpec(name="429.mcf", num_requests=500),
            mitigation=MitigationSpec(name="comet", nrh=125),
        )
        swapped = dataclasses.replace(
            base, platform=PlatformSpec(controller=policy(scheduler="fcfs"))
        )
        assert base.content_hash() != swapped.content_hash()


# --------------------------------------------------------------------------- #
# Default-triple equivalence
# --------------------------------------------------------------------------- #
class TestDefaultEquivalence:
    def test_explicit_default_policy_is_bit_identical(self):
        base = ExperimentSpec(
            workload=WorkloadSpec(name="450.soplex", num_requests=1200),
            mitigation=MitigationSpec(name="comet", nrh=250),
        )
        explicit = dataclasses.replace(
            base, platform=PlatformSpec(controller=ControllerPolicySpec())
        )
        # Normalization makes the two specs literally equal...
        assert explicit == base
        # ... and an un-normalized triple built per-controller still runs the
        # exact same simulation.
        result = execute_spec(base)
        controller = MemoryController(
            PlatformSpec().dram_config(), policy=DEFAULT_POLICY
        )
        assert controller.policy_spec.is_default
        assert result.security_ok

    def test_default_controller_uses_frfcfs_open_page(self, tiny_dram_config):
        controller = make_controller(tiny_dram_config)
        assert controller.scheduler.name == "fr_fcfs"
        assert controller.row_policy.name == "open_page"
        assert controller.refresh_policy.name == "all_bank"
        # open_page never emits close candidates: nothing to issue after the
        # read retires, and the row stays open.
        controller.enqueue(read_request(controller, 5), 0)
        run_until_idle(controller)
        assert not controller.dram.bank_for(
            read_request(controller, 5).address
        ).is_closed()


# --------------------------------------------------------------------------- #
# Scheduling policies
# --------------------------------------------------------------------------- #
class TestFCFSScheduler:
    def test_older_conflict_beats_younger_hit(self, tiny_dram_config):
        """The FR-FCFS reordering test, inverted: FCFS serves arrival order."""
        controller = make_controller(tiny_dram_config, policy=policy(scheduler="fcfs"))
        order = []
        first = read_request(controller, 1, cycle=0)
        controller.enqueue(first, 0)
        run_until_idle(controller)  # opens row 1

        conflict = read_request(controller, 2, cycle=100)
        conflict.on_complete = lambda req, cycle: order.append("conflict_row2")
        hit = read_request(controller, 1, column=8, cycle=101)
        hit.on_complete = lambda req, cycle: order.append("hit_row1")
        controller.enqueue(conflict, 100)
        controller.enqueue(hit, 101)
        run_until_idle(controller, start=101)
        assert order.index("conflict_row2") < order.index("hit_row1")


class TestBLISSScheduler:
    def _bliss_controller(self, dram_config, streak=2, interval=1_000_000):
        return make_controller(
            dram_config,
            policy=policy(
                scheduler="bliss",
                params={
                    "bliss_blacklist_streak": streak,
                    "bliss_clearing_interval": interval,
                },
            ),
        )

    def test_streak_blacklists_core(self, tiny_dram_config):
        controller = self._bliss_controller(tiny_dram_config, streak=2)
        for i in range(3):
            controller.enqueue(
                read_request(controller, 1, column=8 * i, core_id=0), 0
            )
        run_until_idle(controller)
        assert controller.scheduler.blacklist == {0}

    def test_blacklisted_core_loses_to_other_core(self, tiny_dram_config):
        controller = self._bliss_controller(tiny_dram_config, streak=1)
        # Core 0 gets one request served and is immediately blacklisted.
        controller.enqueue(read_request(controller, 1, core_id=0), 0)
        run_until_idle(controller)
        assert 0 in controller.scheduler.blacklist

        order = []
        older = read_request(controller, 1, column=8, cycle=100, core_id=0)
        older.on_complete = lambda req, cycle: order.append("core0")
        younger = read_request(controller, 1, column=16, cycle=101, core_id=1)
        younger.on_complete = lambda req, cycle: order.append("core1")
        controller.enqueue(older, 100)
        controller.enqueue(younger, 101)
        run_until_idle(controller, start=101)
        # Both are row hits to the same bank; the non-blacklisted core wins
        # despite arriving later.
        assert order == ["core1", "core0"]

    def test_clearing_boundary_invalidates_cached_decisions(self, tiny_dram_config):
        """The event kernel replays cached decisions until the select's
        ``valid_until``; a decision spanning a BLISS clearing boundary must
        be recomputed (the blacklist it ranked on is empty by then)."""
        controller = self._bliss_controller(tiny_dram_config, interval=500)
        assert controller.scheduler.next_priority_boundary(400) == 500
        # A deadline already reached is applied by the next demand scan,
        # not by time: it bounds nothing.
        assert controller.scheduler.next_priority_boundary(500) == NEVER
        assert controller.scheduler.next_priority_boundary(600) == NEVER
        # The default scheduler's priorities are time-invariant: only a
        # refresh deadline can invalidate its cached decisions.
        default = make_controller(tiny_dram_config)
        assert default.scheduler.next_priority_boundary(400) == NEVER

    def test_select_reads_the_boundary_after_the_demand_scan(self, tiny_dram_config):
        """A demand scan past a stale clearing deadline advances it, and the
        select's ``valid_until`` is the advanced deadline."""
        config = dataclasses.replace(tiny_dram_config, refresh_enabled=False)
        controller = self._bliss_controller(config, interval=500)
        assert controller.next_decision(100) == (None, 500)
        controller.enqueue(read_request(controller, 1, cycle=600), 600)
        decision, valid_until = controller.next_decision(600)
        assert decision is not None
        assert controller.scheduler._next_clear == 1000
        assert valid_until == 1000

    def test_clearing_interval_resets_blacklist(self, tiny_dram_config):
        controller = self._bliss_controller(tiny_dram_config, streak=1, interval=500)
        controller.enqueue(read_request(controller, 1, core_id=0), 0)
        run_until_idle(controller)
        assert controller.scheduler.blacklist == {0}
        controller.scheduler._maybe_clear(500)
        assert controller.scheduler.blacklist == set()


# --------------------------------------------------------------------------- #
# Row policies
# --------------------------------------------------------------------------- #
class TestClosedPage:
    def test_idle_bank_closes_after_service(self, tiny_dram_config):
        controller = make_controller(
            tiny_dram_config, policy=policy(row_policy="closed_page")
        )
        request = read_request(controller, 7)
        controller.enqueue(request, 0)
        run_until_idle(controller)
        assert controller.dram.bank_for(request.address).is_closed()
        assert controller.stats.policy_precharges == 1

    def test_pending_hits_keep_row_open(self, tiny_dram_config):
        controller = make_controller(
            tiny_dram_config, policy=policy(row_policy="closed_page")
        )
        controller.enqueue(read_request(controller, 7), 0)
        controller.enqueue(read_request(controller, 7, column=8), 0)
        # Serve ACT + first RD: a hit is still pending, so no close yet.
        for _ in range(2):
            controller.issue_next(0)
        address = read_request(controller, 7).address
        assert not controller.dram.bank_for(address).is_closed()
        run_until_idle(controller)
        assert controller.dram.bank_for(address).is_closed()


class TestAdaptiveTimeout:
    def test_row_closes_only_after_timeout(self, tiny_dram_config):
        timeout = 400
        controller = make_controller(
            tiny_dram_config,
            policy=policy(
                row_policy="adaptive_timeout", params={"row_timeout": timeout}
            ),
        )
        request = read_request(controller, 3)
        controller.enqueue(request, 0)
        cycle = 0
        # ACT + RD retire the request; the bank stays open for now.
        for _ in range(2):
            cycle = controller.issue_next(cycle)
        bank = controller.dram.bank_for(request.address)
        assert not bank.is_closed()
        # The close candidate is future-dated to the residency timeout.
        close_cycle = controller.next_decision(cycle)[0][0]
        assert close_cycle >= timeout
        issued = controller.issue_next(cycle)
        assert issued == close_cycle
        assert bank.is_closed()
        assert controller.stats.policy_precharges == 1


# --------------------------------------------------------------------------- #
# Refresh policies
# --------------------------------------------------------------------------- #
class TestFineGranularityRefresh:
    def test_invalid_granularity_rejected(self):
        with pytest.raises(ValueError, match="refresh_granularity"):
            FineGranularityRefreshPolicy(refresh_granularity=3)

    def test_config_rewrite(self, tiny_dram_config):
        controller = make_controller(
            tiny_dram_config,
            policy=policy(
                refresh_policy="fine_granularity", params={"refresh_granularity": 2}
            ),
        )
        assert controller.dram_config.tREFI == max(
            1, tiny_dram_config.timing.tREFI // 2
        )
        assert (
            controller.dram_config.timing.tRFC
            == max(1, int(round(tiny_dram_config.timing.tRFC * 260.0 / 350.0)))
        )
        # Twice the REFs, half the rows each: per-window coverage unchanged.
        assert (
            controller.dram_config.refreshes_per_window
            >= 2 * tiny_dram_config.refreshes_per_window - 1
        )

    def test_doubles_refresh_rate_end_to_end(self):
        base = ExperimentSpec(
            workload=WorkloadSpec(name="429.mcf", num_requests=2000),
            mitigation=MitigationSpec(name="comet", nrh=250),
        )
        fgr = dataclasses.replace(
            base,
            platform=PlatformSpec(controller=policy(refresh_policy="fine_granularity")),
        )
        base_result = execute_spec(base)
        fgr_result = execute_spec(fgr)
        assert fgr_result.dram_stats["refreshes"] > 1.5 * base_result.dram_stats["refreshes"]
        assert base_result.security_ok and fgr_result.security_ok


# --------------------------------------------------------------------------- #
# Statistics attribution
# --------------------------------------------------------------------------- #
class TestStatisticsAttribution:
    def test_per_core_dicts_default_to_zero(self, tiny_dram_config):
        controller = make_controller(tiny_dram_config)
        assert controller.stats.per_core_reads[99] == 0
        assert controller.stats.per_core_read_latency[99] == 0

    def test_row_outcomes_attributed_per_decision(self, tiny_dram_config):
        controller = make_controller(tiny_dram_config)
        # row 1 (miss), row 1 again (hit), row 2 (conflict -> miss after PRE).
        controller.enqueue(read_request(controller, 1), 0)
        controller.enqueue(read_request(controller, 1, column=8), 0)
        controller.enqueue(read_request(controller, 2, cycle=1), 1)
        run_until_idle(controller)
        assert controller.stats.row_hits == 3  # every column command
        assert controller.stats.row_misses == 2  # two demand ACTs
        assert controller.stats.row_conflicts == 1  # one demand PRE
        assert controller.stats.completed_reads == 3

    def test_never_sentinel_is_int(self):
        assert isinstance(NEVER, int)
        assert NEVER > 10**15


# --------------------------------------------------------------------------- #
# Refresh row-coverage scaling (the energy model's denominator)
# --------------------------------------------------------------------------- #
class TestRefreshRowCoverage:
    """Per-tREFW row coverage is granularity-invariant.

    ``rows_per_refresh`` is derived from ``tREFW // tREFI``, so FGR's
    shorter tREFI halves/quarters the per-REF coverage while doubling/
    quadrupling the REF rate: every row of a bank is refreshed exactly once
    per window (plus at most one ceil row per REF of overshoot) at every
    granularity.  This invariant is what lets the energy model charge REFs
    by rows covered (see ``TestRefreshRowAccounting`` in test_energy.py).
    """

    def test_rows_per_refresh_scales_inversely_with_granularity(self):
        from repro.dram.config import DRAMConfig

        base = DRAMConfig()
        per_refresh = {}
        for granularity in (1, 2, 4):
            config = (
                base
                if granularity == 1
                else FineGranularityRefreshPolicy(granularity).adjust_dram_config(
                    base
                )
            )
            per_refresh[granularity] = config.rows_per_refresh
        # The full-scale DDR4 channel: 16 rows per all-bank REF, halving
        # with each FGR step.
        assert per_refresh == {1: 16, 2: 8, 4: 4}

    @pytest.mark.parametrize("granularity", [1, 2, 4])
    def test_every_row_refreshed_once_per_window(self, granularity):
        from repro.dram.config import DRAMConfig

        base = DRAMConfig()
        config = (
            base
            if granularity == 1
            else FineGranularityRefreshPolicy(granularity).adjust_dram_config(base)
        )
        rows_per_window = config.refreshes_per_window * config.rows_per_refresh
        rows_per_bank = config.organization.rows_per_bank
        # Complete coverage, overshooting by strictly less than one ceil
        # row per REF command.
        assert rows_per_bank <= rows_per_window
        assert rows_per_window < rows_per_bank + config.refreshes_per_window


# --------------------------------------------------------------------------- #
# DDR5 Refresh Management (RFM)
# --------------------------------------------------------------------------- #
class TestRFMRefreshPolicy:
    def _rfm_controller(self, dram_config, raaimt=4, raammt=8, trfm=64):
        return make_controller(
            dram_config,
            policy=policy(
                refresh_policy="rfm",
                params={"raaimt": raaimt, "raammt": raammt, "trfm": trfm},
            ),
        )

    def test_invalid_thresholds_rejected(self):
        from repro.controller.policies import RFMRefreshPolicy

        with pytest.raises(ValueError, match="raaimt"):
            RFMRefreshPolicy(raaimt=0)
        with pytest.raises(ValueError, match="raammt"):
            RFMRefreshPolicy(raaimt=8, raammt=4)
        with pytest.raises(ValueError, match="trfm"):
            RFMRefreshPolicy(trfm=0)

    def test_raaimt_activations_trigger_rfm(self, tiny_dram_config):
        """Hammering one bank past RAAIMT issues an RFM that refreshes the
        hottest row's neighbours in-DRAM."""
        controller = self._rfm_controller(tiny_dram_config, raaimt=4)
        cycle = 0
        for i in range(8):
            # Alternating rows force a conflict - and therefore a fresh
            # ACT, which is what RAA counts - on every request.
            row = 10 if i % 2 == 0 else 20
            controller.enqueue(read_request(controller, row=row, cycle=cycle), cycle)
            cycle = run_until_idle(controller, start=cycle)
        assert controller.dram.stats.rfms >= 1
        assert controller.dram.stats.in_dram_refresh_rows >= 2

    def test_rfm_blocks_only_its_bank(self, tiny_dram_config):
        """An owed RFM outranks demand on its bank, but other banks keep
        issuing: tRFM is a bank-scoped blackout, not a rank one."""
        controller = self._rfm_controller(tiny_dram_config, raaimt=2, trfm=2000)
        for i in range(4):
            controller.enqueue(
                read_request(controller, row=10 + i, bank_index=0, cycle=0), 0
            )
        served_elsewhere = []
        other = read_request(controller, row=5, bank_index=1, cycle=0)
        other.on_complete = lambda req, cycle: served_elsewhere.append(cycle)
        controller.enqueue(other, 0)
        run_until_idle(controller)
        assert controller.dram.stats.rfms >= 1
        assert served_elsewhere and served_elsewhere[0] < 2000

    def test_periodic_refresh_pays_down_raa(self, tiny_dram_config):
        """REF credits RAAIMT back, so refresh-quiet banks never owe RFMs
        for activity a periodic refresh already covered."""
        from repro.controller.policies import RFMRefreshPolicy

        policy_obj = RFMRefreshPolicy(raaimt=4, raammt=8)
        controller = make_controller(tiny_dram_config)
        policy_obj.attach(controller)
        address = controller.mapper.decode(
            controller.mapper.address_for_row(3, bank_index=0)
        )
        for _ in range(3):
            policy_obj._observe_activation(0, address, False)
        bank_key = address.bank_key
        assert policy_obj._raa[bank_key] == 3
        assert not policy_obj.rfm_pending()
        policy_obj._observe_refresh(100, (address.channel, address.rank), 0, 8)
        assert policy_obj._raa[bank_key] == 0

    def test_rfm_end_to_end_secure_at_low_nrh(self):
        """The scaling-study contract in miniature: NRH-scaled RFM holds
        the invariant against blacksmith at NRH=64 (see repro.security
        .audit.rfm_policy_for_nrh for the margin argument)."""
        spec = ExperimentSpec(
            workload=WorkloadSpec(name="synth_blacksmith", num_requests=2500),
            mitigation=MitigationSpec(name="none", nrh=64),
            platform=PlatformSpec(
                controller=policy(
                    refresh_policy="rfm", params={"raaimt": 16, "raammt": 32}
                )
            ),
            verify_security="streaming",
        )
        result = execute_spec(spec)
        assert result.security_ok
        assert result.max_disturbance <= 2 * 16
        # RFM traffic shows up in the energy breakdown (dram_stats keeps
        # its golden 7-key shape; the DDR5 terms ride the energy dict).
        assert result.energy.as_dict()["rfm_nj"] > 0
