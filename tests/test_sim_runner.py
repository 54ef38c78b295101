"""Tests for building mitigations by registry name and the scaled experiment
DRAM configuration every entry point runs on."""

import pytest

from repro.core.comet import CoMeT
from repro.experiment.registry import mitigation_entry, mitigation_names
from repro.experiment.spec import default_experiment_config
from repro.mitigations.base import RowHammerMitigation
from repro.mitigations.blockhammer import BlockHammer
from repro.mitigations.graphene import Graphene
from repro.mitigations.hydra import Hydra
from repro.mitigations.none import NoMitigation
from repro.mitigations.para import PARA
from repro.mitigations.rega import REGA


class TestMitigationFactories:
    def test_all_paper_mechanisms_present(self):
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

    @pytest.mark.parametrize(
        "name,cls",
        [
            ("none", NoMitigation),
            ("comet", CoMeT),
            ("graphene", Graphene),
            ("hydra", Hydra),
            ("rega", REGA),
            ("para", PARA),
            ("blockhammer", BlockHammer),
        ],
    )
    def test_factory_builds_right_type(self, name, cls):
        mitigation = mitigation_entry(name).build(500)
        assert isinstance(mitigation, cls)
        assert isinstance(mitigation, RowHammerMitigation)

    def test_threshold_propagated(self):
        assert mitigation_entry("comet").build(250).nrh == 250
        assert mitigation_entry("graphene").build(125).nrh == 125

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown mitigation"):
            mitigation_entry("trr").build(1000)

    def test_overrides_forwarded(self):
        from repro.core.config import CoMeTConfig

        comet = mitigation_entry("comet").build(1000, config=CoMeTConfig(nrh=1000, num_hashes=2))
        assert comet.config.num_hashes == 2

    def test_none_ignores_overrides(self):
        assert isinstance(mitigation_entry("none").build(1000, blast_radius=2), NoMitigation)


class TestDefaultExperimentConfig:
    def test_scaled_down_from_paper_config(self):
        config = default_experiment_config()
        assert config.organization.rows_per_bank < 128 * 1024
        assert config.tREFW < config.timing.tREFW

    def test_dual_rank(self):
        config = default_experiment_config()
        assert config.organization.ranks_per_channel == 2

    def test_refresh_window_spans_multiple_reset_periods(self):
        """The scaled window must still hold k=3 reset periods and several tREFI."""
        config = default_experiment_config()
        assert config.tREFW // 3 > 0
        assert config.tREFW > 4 * config.tREFI

    def test_parameters_overridable(self):
        config = default_experiment_config(rows_per_bank=1024, refresh_window_scale=1 / 64)
        assert config.organization.rows_per_bank == 1024
        assert config.refresh_window_scale == 1 / 64
