"""Tests for the declarative experiment API (repro.experiment)."""

import json

import pytest

from repro.campaign.store import ResultStore
from repro.controller.policies import ControllerPolicySpec, normalize_policy
from repro.core.config import CoMeTConfig
from repro.cpu.core import CoreConfig
from repro.dram.config import small_test_config
from repro.experiment.codec import SpecCodecError, decode_value, encode_value
from repro.experiment.registry import (
    UnknownMitigationError,
    UnknownWorkloadError,
    mitigation_entry,
    mitigation_names,
    register_mitigation,
    registered_workload_names,
    workload_entry,
)
from repro.experiment.session import RunRecord, Session
from repro.experiment.spec import (
    CampaignSpec,
    ExperimentSpec,
    MitigationSpec,
    PlatformSpec,
    SampledConfig,
    WorkloadSpec,
    expand_grid,
)
from repro.mitigations.base import RowHammerMitigation


def simple_spec(**kwargs) -> ExperimentSpec:
    defaults = dict(
        workload=WorkloadSpec(name="502.gcc", num_requests=300),
        mitigation=MitigationSpec(name="comet", nrh=250),
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_all_paper_mechanisms_registered(self):
        assert set(mitigation_names()) == {
            "none",
            "comet",
            "graphene",
            "hydra",
            "rega",
            "para",
            "blockhammer",
            "prac",
        }

    def test_none_metadata_declared_once(self):
        """The baseline's special construction is registry metadata, not
        call-site special-casing."""
        entry = mitigation_entry("none")
        assert entry.takes_nrh is False
        assert entry.seedable is False
        built = entry.build(125, seed=3, blast_radius=2)
        assert type(built).__name__ == "NoMitigation"

    @pytest.mark.parametrize("name", ["para", "blockhammer"])
    def test_randomized_mechanisms_are_seedable(self, name):
        assert mitigation_entry(name).seedable is True

    @pytest.mark.parametrize("name", ["comet", "graphene", "hydra", "rega"])
    def test_deterministic_mechanisms_are_not_seedable(self, name):
        assert mitigation_entry(name).seedable is False

    def test_unknown_mitigation_lists_registered_names(self):
        with pytest.raises(UnknownMitigationError, match="unknown mitigation") as info:
            mitigation_entry("trr")
        message = str(info.value)
        for known in ("comet", "graphene", "para", "none"):
            assert known in message

    def test_unknown_workload_lists_registered_names(self):
        with pytest.raises(UnknownWorkloadError, match="unknown workload") as info:
            workload_entry("600.perlbench")
        message = str(info.value)
        assert "429.mcf" in message
        assert "attack_traditional" in message

    def test_suite_and_attacks_registered(self):
        names = registered_workload_names()
        assert "429.mcf" in names and "mc_stream" in names
        assert registered_workload_names(category="attack") == [
            "attack_comet_targeted",
            "attack_hydra_targeted",
            "attack_single_row",
            "attack_traditional",
        ]

    def test_decorator_registration_roundtrip(self):
        from repro.experiment import registry as registry_module

        @register_mitigation("test_mech_xyz", takes_nrh=True, seedable=True)
        class _TestMech(RowHammerMitigation):
            name = "test_mech_xyz"

            def __init__(self, nrh, seed=0):
                super().__init__(nrh=nrh)
                self.seed = seed

        try:
            entry = mitigation_entry("test_mech_xyz")
            assert entry.cls is _TestMech
            built = entry.build(500, seed=7)
            assert built.nrh == 500 and built.seed == 7
        finally:
            registry_module._MITIGATIONS.pop("test_mech_xyz")

    def test_per_channel_seeding_from_metadata(self):
        instances = MitigationSpec(name="blockhammer", nrh=500).build_instances(3)
        assert [inst._seed for inst in instances] == [0, 1, 2]
        # Deterministic mechanisms never receive a seed kwarg.
        comets = MitigationSpec(name="comet", nrh=500).build_instances(2)
        assert len(comets) == 2 and comets[0] is not comets[1]


# --------------------------------------------------------------------------- #
# Spec construction and validation
# --------------------------------------------------------------------------- #
class TestSpecValidation:
    def test_unknown_mitigation_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown mitigation"):
            MitigationSpec(name="trr", nrh=125)

    def test_unknown_workload_rejected_at_construction(self):
        with pytest.raises(KeyError, match="unknown workload"):
            WorkloadSpec(name="no_such_workload")

    def test_nonpositive_nrh_rejected(self):
        with pytest.raises(ValueError, match="nrh must be positive"):
            MitigationSpec(name="comet", nrh=0)

    def test_overrides_accept_dict_and_normalize(self):
        a = MitigationSpec(name="comet", nrh=125, overrides={"blast_radius": 2})
        b = MitigationSpec(name="comet", nrh=125, overrides=(("blast_radius", 2),))
        assert a == b
        assert a.overrides_dict() == {"blast_radius": 2}

    def test_spec_is_hashable(self):
        spec = simple_spec()
        same = simple_spec()
        assert spec == same
        assert hash(spec) == hash(same)
        assert len({spec, same}) == 1

    def test_override_order_does_not_matter(self):
        a = MitigationSpec(name="para", nrh=125, overrides={"seed": 3, "blast_radius": 2})
        b = MitigationSpec(name="para", nrh=125, overrides={"blast_radius": 2, "seed": 3})
        assert a == b and hash(a) == hash(b)


# --------------------------------------------------------------------------- #
# Serialization
# --------------------------------------------------------------------------- #
class TestSpecSerialization:
    def test_json_round_trip(self):
        spec = simple_spec()
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_round_trip_with_config_override(self):
        config = CoMeTConfig(nrh=250, num_hashes=2, rat_entries=64)
        spec = simple_spec(
            mitigation=MitigationSpec(name="comet", nrh=250, overrides={"config": config})
        )
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.mitigation.overrides_dict()["config"] == config

    def test_dram_override_channel_count_inherited(self):
        """A full DRAMConfig override keeps its own channel count unless the
        channels knob is set explicitly (the grid's scaling axis)."""
        four_channel = small_test_config(rows_per_bank=1024, channels=4)
        inherited = PlatformSpec(dram=four_channel)
        assert inherited.channel_count == 4
        assert inherited.dram_config().organization.channels == 4
        forced = PlatformSpec(dram=four_channel, channels=2)
        assert forced.channel_count == 2
        assert forced.dram_config().organization.channels == 2
        assert PlatformSpec().channel_count == 1

    def test_round_trip_with_platform_overrides(self):
        spec = simple_spec(
            platform=PlatformSpec(
                channels=2,
                dram=small_test_config(rows_per_bank=1024, channels=2),
                core=CoreConfig(width=8),
            )
        )
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.platform.core.width == 8
        assert restored.platform.dram_config().organization.rows_per_bank == 1024

    def test_round_trip_with_mix_and_params(self):
        spec = simple_spec(
            workload=WorkloadSpec(
                name="benign+attack",
                num_requests=600,
                mix=(
                    WorkloadSpec(name="429.mcf", num_requests=600),
                    WorkloadSpec(
                        name="attack_traditional",
                        num_requests=600,
                        params={"aggressor_rows_per_bank": 2},
                    ),
                ),
            ),
        )
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.workload.mix[1].params_dict() == {"aggressor_rows_per_bank": 2}
        assert restored.workload.total_cores == 2

    def test_canonical_hash_stable_across_key_order(self):
        spec = simple_spec()
        data = json.loads(spec.to_json())
        reordered = {key: data[key] for key in reversed(list(data))}
        assert ExperimentSpec.from_dict(reordered).content_hash() == spec.content_hash()

    def test_canonical_hash_pinned(self):
        """The canonical serialization is a cache-key contract: changing it
        silently invalidates every cached result.  Regenerate deliberately
        (and bump CACHE_VERSION) when the schema changes."""
        spec = ExperimentSpec(
            workload=WorkloadSpec(name="429.mcf", num_requests=1000),
            mitigation=MitigationSpec(name="comet", nrh=125),
        )
        assert spec.content_hash() == PINNED_HASH

    def test_hash_differs_when_experiment_differs(self):
        base = simple_spec()
        assert base.content_hash() != simple_spec(
            mitigation=MitigationSpec(name="graphene", nrh=250)
        ).content_hash()
        assert base.content_hash() != simple_spec(
            platform=PlatformSpec(channels=2)
        ).content_hash()

    def test_newer_spec_version_rejected(self):
        data = json.loads(simple_spec().to_json())
        data["spec_version"] = 999
        with pytest.raises(ValueError, match="spec_version 999"):
            ExperimentSpec.from_dict(data)

    def test_codec_refuses_foreign_dataclasses(self):
        with pytest.raises(SpecCodecError, match="only repro"):
            decode_value({"__dataclass__": "os.path:PurePath", "fields": {}})

    def test_codec_round_trips_nested_values(self):
        value = {"config": CoMeTConfig(nrh=500), "flags": (1, 2, 3), "label": "x"}
        assert decode_value(encode_value(value)) == value

    @pytest.mark.parametrize(
        "cls,data,what",
        [
            (ExperimentSpec, [1, 2], "experiment spec"),
            (ExperimentSpec, "comet", "experiment spec"),
            (
                ExperimentSpec,
                {"workload": [1], "mitigation": {"name": "comet"}},
                "workload",
            ),
            (
                ExperimentSpec,
                {"workload": {"name": "429.mcf"}, "mitigation": "comet"},
                "mitigation",
            ),
            (
                ExperimentSpec,
                {
                    "workload": {"name": "429.mcf"},
                    "mitigation": {"name": "comet"},
                    "platform": [],
                },
                "platform",
            ),
            (WorkloadSpec, {"name": "429.mcf", "params": [1]}, "workload.params"),
            (MitigationSpec, {"name": "comet", "overrides": "x"}, "mitigation.overrides"),
            (PlatformSpec, {"controller": "bliss"}, "platform.controller"),
            (SampledConfig, 2000, "sampled"),
            (CampaignSpec, [], "campaign spec"),
        ],
    )
    def test_non_object_rejected_with_codec_error(self, cls, data, what):
        with pytest.raises(SpecCodecError, match=f"^{what} must be a JSON object"):
            cls.from_dict(data)


# --------------------------------------------------------------------------- #
# Grid expansion
# --------------------------------------------------------------------------- #
class TestExpandGrid:
    def test_baseline_once_per_workload_and_channel(self):
        specs = expand_grid(
            workloads=["429.mcf", "502.gcc"],
            mitigations=["comet", "para"],
            nrhs=[1000, 125],
            channels=[1, 2],
        )
        baselines = [s for s in specs if s.mitigation.name == "none"]
        assert len(baselines) == 4  # 2 workloads x 2 channel counts
        assert all(b.mitigation.nrh == 1 for b in baselines)
        assert all(not b.verify_security for b in baselines)
        assert len(specs) == 4 + 2 * 2 * 2 * 2

    def test_channels_propagate_to_platform(self):
        specs = expand_grid(
            workloads=["mc_stream"], mitigations=["comet"], nrhs=[250], channels=[2]
        )
        assert all(s.platform.channels == 2 for s in specs)

    def test_grid_skips_explicit_none(self):
        specs = expand_grid(
            workloads=["429.mcf"], mitigations=["none", "comet"], nrhs=[125]
        )
        assert sum(1 for s in specs if s.mitigation.name == "none") == 1

    def test_grid_crosses_policy_axes(self):
        policies = [
            normalize_policy(ControllerPolicySpec(scheduler=s, row_policy=r))
            for s in ("fr_fcfs", "fcfs", "bliss")
            for r in ("open_page", "closed_page")
        ]
        specs = expand_grid(
            workloads=["429.mcf"], mitigations=["comet"], nrhs=[125], policies=policies
        )
        # (1 baseline + 1 comet spec) per policy triple; the default triple
        # normalizes to ``None``.
        assert len(specs) == 2 * 3 * 2
        assert len({s.platform.controller for s in specs}) == 6
        assert sum(s.platform.controller is None for s in specs) == 2

    def test_overrides_attached_to_every_mitigated_spec(self):
        config = CoMeTConfig(nrh=125, num_hashes=2)
        specs = expand_grid(
            workloads=["429.mcf"],
            mitigations=["comet"],
            nrhs=[125],
            mitigation_overrides={"config": config},
        )
        mitigated = [s for s in specs if s.mitigation.name == "comet"]
        assert mitigated[0].mitigation.overrides_dict() == {"config": config}


# --------------------------------------------------------------------------- #
# Session execution
# --------------------------------------------------------------------------- #
class TestSession:
    def test_run_returns_record_with_provenance(self):
        spec = simple_spec()
        record = Session(store=None, max_workers=0).run(spec)
        assert record.spec == spec
        assert record.result.per_core_ipc
        assert record.provenance["spec_hash"] == spec.content_hash()
        assert record.provenance["from_cache"] is False

    def test_disk_cache_round_trip(self, tmp_path):
        spec = simple_spec()
        first = Session(store=tmp_path, max_workers=0).run(spec)
        session = Session(store=tmp_path, max_workers=0)
        second = session.run(spec)
        assert session.cache_hits == 1
        assert second.provenance["from_cache"] is True
        assert second.result == first.result

    def test_default_store_honours_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_STORE", str(tmp_path / "env-store"))
        session = Session(max_workers=0)
        assert isinstance(session.store, ResultStore)
        assert session.store.root == tmp_path / "env-store"

    def test_uncached_session_counts_nothing(self):
        session = Session(store=None, max_workers=0)
        session.run(simple_spec())
        assert session.store is None
        assert (session.cache_hits, session.cache_misses) == (0, 0)

    def test_results_in_input_order(self, tmp_path):
        specs = _batch()
        records = Session(store=tmp_path, max_workers=0).run_many(specs)
        assert [r.spec for r in records] == specs
        for spec, record in zip(specs, records):
            assert record.result.mitigation_name == spec.mitigation.name

    def test_repeat_run_comes_entirely_from_the_store(self, tmp_path):
        specs = _batch()
        first = Session(store=tmp_path, max_workers=0).run_many(specs)
        session = Session(store=tmp_path, max_workers=0)
        second = session.run_many(specs)
        assert session.cache_hits == len(specs)
        assert session.cache_misses == 0
        assert [r.result for r in first] == [r.result for r in second]

    def test_from_cache_provenance_reports_store_state(self, tmp_path):
        specs = _batch()[:2]
        session = Session(store=tmp_path, max_workers=0)
        first = session.run_many(specs)
        assert [r.provenance["from_cache"] for r in first] == [False, False]
        second = session.run_many(specs)
        assert [r.provenance["from_cache"] for r in second] == [True, True]

    def test_failing_spec_keeps_earlier_results_stored(self, tmp_path):
        good = simple_spec()
        bad = simple_spec(
            workload=WorkloadSpec(name="502.gcc", num_requests=300, params={"bogus": 1})
        )
        with pytest.raises(TypeError, match="takes no extra parameters"):
            Session(store=tmp_path, max_workers=0).run_many([good, bad])
        rerun = Session(store=tmp_path, max_workers=0)
        assert rerun.run(good).provenance["from_cache"] is True
        assert rerun.cache_hits == 1

    @pytest.mark.slow
    def test_parallel_workers_match_serial_bit_for_bit(self):
        specs = _batch()
        serial = Session(store=None, max_workers=0).run_many(specs)
        parallel = Session(store=None, max_workers=2).run_many(specs)
        assert [r.result.__dict__ for r in serial] == [
            r.result.__dict__ for r in parallel
        ]

    def test_compare_includes_baseline(self):
        records = Session(store=None, max_workers=0).compare(
            WorkloadSpec(name="502.gcc", num_requests=300), ["comet"], nrh=500
        )
        assert set(records) == {"none", "comet"}
        assert records["none"].result.ipc > 0
        # The threshold-independent baseline is pinned at nrh=1, so compares
        # at different thresholds share one cache entry for it.
        assert records["none"].spec.mitigation.nrh == 1

    def test_compare_baseline_shared_across_thresholds(self, tmp_path):
        workload = WorkloadSpec(name="502.gcc", num_requests=300)
        session = Session(store=tmp_path, max_workers=0)
        session.compare(workload, ["comet"], nrh=500)
        session.compare(workload, ["comet"], nrh=250)
        # Second compare: the baseline comes back from the cache.
        assert session.cache_hits >= 1

    def test_run_record_json_round_trip(self):
        record = Session(store=None, max_workers=0).run(simple_spec())
        restored = RunRecord.from_json(record.to_json())
        assert restored.spec == record.spec
        assert restored.result == record.result
        assert restored.provenance == record.provenance


def _batch():
    """1 baseline + 2 mitigations x 2 thresholds on one short workload."""
    return expand_grid(
        workloads=["502.gcc"], mitigations=["comet", "para"], nrhs=[1000, 125],
        num_requests=300,
    )


# Regenerated for the controller-policy layer: PlatformSpec grew the
# ``controller`` key (CACHE_VERSION 5).
PINNED_HASH = "daea0a0692f62f8b73ffc20872a3df9a72edb751d8a1da08f38aa2e2e592e0bd"
