"""Tests for the read-only HTTP JSON API over a result store."""

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.campaign import CampaignRunner, ResultStore, make_server
from repro.experiment.spec import CampaignSpec

CAMPAIGN = CampaignSpec(
    name="servetest",
    workloads=("synth_uniform",),
    mitigations=("para",),
    nrhs=(250,),
    num_requests=200,
)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    store = ResultStore(tmp_path_factory.mktemp("serve") / "store")
    status = CampaignRunner(CAMPAIGN, store=store).run()
    assert status.finished  # 1 para cell + 1 baseline
    return store


@pytest.fixture(scope="module")
def base_url(store):
    server = make_server(store, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()


def get_json(url, expect_status=200):
    try:
        with urllib.request.urlopen(url) as response:
            assert response.status == expect_status
            return json.loads(response.read())
    except urllib.error.HTTPError as error:
        assert error.code == expect_status, error.read()
        return json.loads(error.read())


class TestEndpoints:
    def test_health(self, base_url):
        body = get_json(f"{base_url}/health")
        assert body["status"] == "ok"
        assert body["records"] == 2
        assert body["campaigns"] == 1

    def test_record_by_hash(self, base_url, store):
        spec, _ = CAMPAIGN.cells()[0]
        spec_hash = spec.content_hash()
        body = get_json(f"{base_url}/records/{spec_hash}")
        assert body["spec_hash"] == spec_hash
        assert body["record"]["spec"] == spec.to_dict()
        assert body["record"]["result"]["fields"]["per_core_ipc"]

    def test_query_all_and_filtered(self, base_url):
        body = get_json(f"{base_url}/query")
        assert body["count"] == 2
        body = get_json(f"{base_url}/query?mitigation=para&workload=synth_uniform")
        assert body["count"] == 1
        assert body["results"][0]["nrh"] == 250
        body = get_json(f"{base_url}/query?mitigation=para&nrh=9999")
        assert body["count"] == 0
        body = get_json(f"{base_url}/query?limit=1")
        assert body["count"] == 1

    def test_query_by_campaign_and_secure(self, base_url):
        campaign_id = CAMPAIGN.campaign_id()
        body = get_json(f"{base_url}/query?campaign={campaign_id}")
        assert body["count"] == 2
        assert all(row["campaign"] == campaign_id for row in body["results"])
        body = get_json(f"{base_url}/query?mitigation=para&secure=true")
        assert body["count"] == 1

    def test_campaigns_listing_and_detail(self, base_url):
        campaign_id = CAMPAIGN.campaign_id()
        body = get_json(f"{base_url}/campaigns")
        assert body["campaigns"] == [campaign_id]
        body = get_json(f"{base_url}/campaigns/{campaign_id}")
        assert body["name"] == "servetest"
        assert body["completed"] == body["total"] == 2
        assert body["finished"] is True
        assert body["state"]["campaign"]["name"] == "servetest"

    def test_campaign_id_prefix_resolves(self, base_url):
        prefix = CAMPAIGN.campaign_id()[:12]
        body = get_json(f"{base_url}/campaigns/{prefix}")
        assert body["campaign_id"] == CAMPAIGN.campaign_id()


class TestErrors:
    def test_unknown_endpoint_404(self, base_url):
        body = get_json(f"{base_url}/nope", expect_status=404)
        assert "no such endpoint" in body["error"]

    def test_malformed_hash_400(self, base_url):
        body = get_json(f"{base_url}/records/nothex", expect_status=400)
        assert "64 lowercase hex" in body["error"]

    def test_missing_record_404(self, base_url):
        body = get_json(f"{base_url}/records/{'0' * 64}", expect_status=404)
        assert "no record" in body["error"]

    def test_missing_campaign_404(self, base_url):
        body = get_json(f"{base_url}/campaigns/ffffffffffff", expect_status=404)
        assert "no campaign" in body["error"]

    def test_bad_query_int_400(self, base_url):
        body = get_json(f"{base_url}/query?nrh=abc", expect_status=400)
        assert "integer" in body["error"]

    @pytest.mark.parametrize(
        "query, message",
        [("secure=maybe", "secure must be"), ("limit=-1", "negative")],
    )
    def test_bad_query_value_400(self, base_url, query, message):
        # An unrecognised boolean must not fall through to "no filter".
        body = get_json(f"{base_url}/query?{query}", expect_status=400)
        assert message in body["error"]

    def test_empty_secure_and_zero_limit_accepted(self, base_url):
        assert get_json(f"{base_url}/query?secure=&limit=0")["count"] == 0


class TestStalledClient:
    def test_silent_connection_is_dropped_and_others_are_served(self, store, monkeypatch):
        from repro.campaign.serve import StoreRequestHandler

        monkeypatch.setattr(StoreRequestHandler, "timeout", 0.2)
        server = make_server(store, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address
        try:
            with socket.create_connection((host, port)):
                # Requests are answered one at a time, so this one waits
                # until the silent connection above times out.
                body = get_json(f"http://{host}:{port}/health")
            assert body["status"] == "ok"
        finally:
            server.shutdown()
            server.server_close()
