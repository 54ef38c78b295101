"""Tests for the content-addressed campaign result store.

Covers the store's four guarantees: atomic publication, integrity checking
with quarantine on read, cache-version invalidation in place, and
byte-deterministic record files.
"""

import json

import pytest

from repro.campaign.store import ResultStore, default_store_dir
from repro.core.config import CoMeTConfig
from repro.experiment.execute import execute_spec
from repro.experiment.session import CACHE_VERSION, RunRecord
from repro.experiment.spec import (
    ExperimentSpec,
    MitigationSpec,
    PlatformSpec,
    WorkloadSpec,
)


@pytest.fixture(scope="module")
def spec():
    return ExperimentSpec(
        workload=WorkloadSpec(name="429.mcf", num_requests=200),
        mitigation=MitigationSpec(name="none", nrh=1),
        verify_security=False,
    )


@pytest.fixture(scope="module")
def result(spec):
    return execute_spec(spec)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


class TestRoundTrip:
    def test_put_get_round_trip(self, store, spec, result):
        path = store.put_result(spec, result)
        assert path == store.record_path(spec.content_hash())
        record = store.get_record(spec)
        assert record is not None
        assert record.spec == spec
        assert record.result.ipc == result.ipc
        assert store.hits == 1 and store.misses == 0

    def test_get_result_is_the_sweep_delegation_hook(self, store, spec, result):
        assert store.get_result(spec) is None
        store.put_result(spec, result)
        got = store.get_result(spec)
        assert got is not None and got.ipc == result.ipc

    @pytest.mark.parametrize(
        "case",
        [
            "benign_comet",
            "attack_unprotected",
            "multicore_multichannel_para",
            "comet_config_override",
            "streaming_verification",
            "sampled_fidelity",
        ],
    )
    def test_result_round_trip_is_field_identical(self, tmp_path, case):
        """Every SimulationResult field — violations, energy, per-channel
        stats — survives the JSON record, not just the headline IPC."""
        spec = _round_trip_specs()[case]
        expected = execute_spec(spec)
        ResultStore(tmp_path / "store").put_result(spec, expected)
        got = ResultStore(tmp_path / "store").get_result(spec)
        assert got.__dict__ == expected.__dict__
        if case == "attack_unprotected":
            assert expected.security_violations > 0

    def test_lookup_by_hash_or_spec(self, store, spec, result):
        store.put_result(spec, result)
        by_hash = store.get_record(spec.content_hash())
        by_spec = store.get_record(spec)
        assert by_hash == by_spec

    def test_miss_counts(self, store, spec):
        assert store.get_record(spec) is None
        assert store.misses == 1 and store.hits == 0

    def test_contains_leaves_counters_alone(self, store, spec, result):
        store.put_result(spec, result)
        assert store.contains(spec)
        assert not store.contains("0" * 64)
        assert store.hits == 0 and store.misses == 0

    def test_len_and_iter(self, store, spec, result):
        assert len(store) == 0
        store.put_result(spec, result)
        assert len(store) == 1
        assert list(store.iter_spec_hashes()) == [spec.content_hash()]
        assert [r.spec for r in store.iter_records()] == [spec]


def _round_trip_specs():
    def spec(workload, mitigation, **kwargs):
        return ExperimentSpec(workload=workload, mitigation=mitigation, **kwargs)

    return {
        "benign_comet": spec(
            WorkloadSpec(name="429.mcf", num_requests=600),
            MitigationSpec(name="comet", nrh=125),
        ),
        "attack_unprotected": spec(
            WorkloadSpec(
                name="attack_traditional",
                num_requests=3000,
                params={"aggressor_rows_per_bank": 2},
            ),
            MitigationSpec(name="none", nrh=125),
        ),
        "multicore_multichannel_para": spec(
            WorkloadSpec(name="mc_stream", num_requests=400, num_cores=2),
            MitigationSpec(name="para", nrh=250),
            platform=PlatformSpec(channels=2),
        ),
        "comet_config_override": spec(
            WorkloadSpec(name="502.gcc", num_requests=600),
            MitigationSpec(
                name="comet",
                nrh=125,
                overrides={"config": CoMeTConfig(nrh=125, rat_entries=64)},
            ),
        ),
        "streaming_verification": spec(
            WorkloadSpec(name="synth_uniform", num_requests=600),
            MitigationSpec(name="comet", nrh=200),
            verify_security="streaming",
        ),
        "sampled_fidelity": spec(
            WorkloadSpec(name="synth_uniform", num_requests=3000),
            MitigationSpec(name="comet", nrh=500),
            fidelity="sampled",
        ),
    }


class TestDeterminism:
    def test_record_bytes_are_a_pure_function_of_the_spec(
        self, store, tmp_path, spec, result
    ):
        """No timestamps, hostnames or worker ids in the payload: two puts
        of the same result — even through different store objects — produce
        byte-identical files (the bit-identical-stores guarantee)."""
        path_a = store.put_result(spec, result)
        other = ResultStore(tmp_path / "other")
        path_b = other.put_result(spec, result)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_no_temp_files_left_behind(self, store, spec, result):
        store.put_result(spec, result)
        leftovers = [
            p for p in store.root.rglob("*") if p.is_file() and ".tmp." in p.name
        ]
        assert leftovers == []


class TestIntegrity:
    def test_truncated_json_is_quarantined(self, store, spec, result):
        path = store.put_result(spec, result)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert store.get_record(spec) is None
        assert not path.exists()
        assert store.quarantined == 1
        assert (store.quarantine_dir / path.name).exists()

    def test_checksum_mismatch_is_quarantined(self, store, spec, result):
        path = store.put_result(spec, result)
        payload = json.loads(path.read_text())
        payload["record"]["provenance"]["tampered"] = True
        path.write_text(json.dumps(payload))
        assert store.get_record(spec) is None
        assert store.quarantined == 1

    def test_wrong_spec_hash_is_quarantined(self, store, spec, result):
        path = store.put_result(spec, result)
        payload = json.loads(path.read_text())
        payload["spec_hash"] = "f" * 64
        path.write_text(json.dumps(payload))
        assert store.get_record(spec) is None
        assert store.quarantined == 1

    def test_undecodable_record_is_quarantined(self, store, spec, result):
        path = store.put_result(spec, result)
        payload = json.loads(path.read_text())
        record = payload["record"]
        del record["spec"]
        # Keep the checksum consistent so decoding (not integrity) fails.
        from repro.campaign.store import _checksum

        payload["checksum"] = _checksum(record)
        path.write_text(json.dumps(payload))
        assert store.get_record(spec) is None
        assert store.quarantined == 1

    def test_quarantine_never_raises_through_the_read_path(self, store, spec):
        path = store.record_path(spec.content_hash())
        path.parent.mkdir(parents=True)
        path.write_text("not json at all {{{")
        assert store.get_record(spec) is None  # miss, not an exception


class TestInvalidation:
    def test_stale_cache_version_is_a_miss_in_place(self, tmp_path, spec, result):
        old = ResultStore(tmp_path / "store", cache_version=CACHE_VERSION - 1)
        path = old.put_result(spec, result)

        current = ResultStore(tmp_path / "store")
        assert current.get_record(spec) is None
        # Stale, not corrupt: the file stays put (recomputing overwrites it)
        # and nothing is quarantined.
        assert path.exists()
        assert current.quarantined == 0
        assert current.misses == 1

    def test_recompute_overwrites_stale_record(self, tmp_path, spec, result):
        old = ResultStore(tmp_path / "store", cache_version=CACHE_VERSION - 1)
        old.put_result(spec, result)
        current = ResultStore(tmp_path / "store")
        current.put_result(spec, result)
        record = current.get_record(spec)
        assert record is not None and record.result.ipc == result.ipc


class TestQueries:
    def test_summarize_row(self, spec, result):
        record = RunRecord(spec=spec, result=result, provenance={"campaign": "abc"})
        row = ResultStore.summarize(record)
        assert row["workload"] == "429.mcf"
        assert row["mitigation"] == "none"
        assert row["nrh"] == 1
        assert row["ipc"] == result.ipc
        assert row["campaign"] == "abc"

    def test_query_filters(self, store, spec, result):
        store.put_result(spec, result)
        assert len(store.query()) == 1
        assert len(store.query(workload="429.mcf", mitigation="none")) == 1
        assert store.query(workload="502.gcc") == []
        assert store.query(mitigation="comet") == []
        assert store.query(nrh=9999) == []
        assert len(store.query(limit=0)) == 0


class TestCampaignCheckpoints:
    def test_save_load_list(self, store):
        assert store.list_campaigns() == []
        assert store.load_campaign("missing") is None
        state = {"campaign_id": "deadbeef", "total": 4}
        store.save_campaign("deadbeef", state)
        assert store.load_campaign("deadbeef") == state
        assert store.list_campaigns() == ["deadbeef"]

    def test_identical_save_skips_the_write(self, store):
        path = store.save_campaign("deadbeef", {"total": 4})
        inode = path.stat().st_ino
        assert store.save_campaign("deadbeef", {"total": 4}) == path
        assert path.stat().st_ino == inode
        store.save_campaign("deadbeef", {"total": 5})
        assert path.stat().st_ino != inode
        assert store.load_campaign("deadbeef") == {"total": 5}


class TestDefaults:
    def test_default_store_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CAMPAIGN_STORE", str(tmp_path / "envstore"))
        assert default_store_dir() == tmp_path / "envstore"
        monkeypatch.delenv("REPRO_CAMPAIGN_STORE")
        assert default_store_dir().name == "campaigns"
