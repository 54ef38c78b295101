"""End-to-end campaign runner tests: the resumability acceptance suite.

The load-bearing assertions, straight from the subsystem's contract:

* a campaign killed mid-flight (here: stopped by ``budget``, the
  deterministic stand-in for SIGKILL — both leave a store with k completed
  cells and a reusable checkpoint) resumes with **zero recomputation** of
  completed cells, asserted via the store's counted hits;
* a 1-worker store and a 4-worker store are **bit-identical** over
  ``records/``;
* kill at *any* point (hypothesis over the kill index) converges to the
  same bytes as a straight-through run.

Grids are small (hundreds of requests per cell) so the whole file stays in
tier-1 time.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignRunner, MemoryQueue, ResultStore, SqliteQueue
from repro.experiment.session import Session
from repro.experiment.spec import CampaignSpec

# 2 workloads x 2 mitigations x 2 nrhs + 2 baselines = 10 cells.
GRID = CampaignSpec(
    name="accept",
    workloads=("429.mcf", "synth_uniform"),
    mitigations=("para", "graphene"),
    nrhs=(250, 500),
    num_requests=300,
)

# 1 workload x 2 mitigations x 1 nrh + 1 baseline = 3 cells (property test).
SMALL = CampaignSpec(
    name="tiny",
    workloads=("synth_uniform",),
    mitigations=("para", "graphene"),
    nrhs=(250,),
    num_requests=200,
)


def snapshot_records(store: ResultStore):
    """Relative path -> bytes for every record file (byte-level identity)."""
    return {
        str(path.relative_to(store.records_dir)): path.read_bytes()
        for path in sorted(store.records_dir.rglob("*.json"))
    }


class TestResume:
    def test_kill_and_resume_with_zero_recompute(self, tmp_path):
        """The acceptance test: run k cells, 'die', resume, finish.

        The resume run must (a) skip every completed cell via counted
        store hits at enqueue time and (b) execute exactly total - k
        cells — zero recomputation.
        """
        store = ResultStore(tmp_path / "store")
        total = GRID.total_cells()
        assert total == 10
        k = 4

        first = CampaignRunner(GRID, store=store, queue="sqlite", budget=k).run()
        assert first.executed == k
        assert first.completed == k
        assert not first.finished
        assert first.pending == total - k

        # "Crash": the first runner object is gone.  A fresh runner on the
        # same store + queue path picks the campaign back up.
        store2 = ResultStore(tmp_path / "store")
        runner2 = CampaignRunner(GRID, store=store2, queue="sqlite")
        final = runner2.run()

        assert final.finished and final.completed == total
        # Zero recomputation, asserted two ways: the enqueue skip count
        # grew the store's hit counter once per completed cell...
        assert store2.hits == k
        assert runner2.last_enqueue == {
            "total": total,
            "complete": k,
            "enqueued": 0,  # still pending in the persistent queue
            "already_queued": total - k,
        }
        # ... and the resume executed exactly the missing cells.
        assert final.executed == total - k
        assert store2.load_campaign(GRID.campaign_id())["backend"] == "sqlite"

    def test_finished_campaign_reruns_for_free(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        CampaignRunner(SMALL, store=store).run()
        again = CampaignRunner(SMALL, store=store).run()
        assert again.finished
        assert again.executed == 0

    def test_checkpoint_written_at_enqueue(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = CampaignRunner(SMALL, store=store, budget=1)
        runner.run()
        state = store.load_campaign(SMALL.campaign_id())
        assert state is not None
        assert CampaignSpec.from_dict(state["campaign"]) == SMALL
        assert state["total"] == SMALL.total_cells()
        assert state["backend"] == "memory"


class TestQueueNames:
    @pytest.mark.parametrize("name", ["directory", "rabbitmq"])
    def test_unknown_queue_name_is_rejected(self, tmp_path, name):
        with pytest.raises(ValueError, match="'memory' or 'sqlite'"):
            CampaignRunner(SMALL, store=tmp_path / "store", queue=name)


class TestDeterminism:
    def test_workers_1_and_4_produce_bit_identical_stores(self, tmp_path):
        serial = ResultStore(tmp_path / "serial")
        CampaignRunner(GRID, store=serial, max_workers=1).run()

        parallel = ResultStore(tmp_path / "parallel")
        status = CampaignRunner(GRID, store=parallel, max_workers=4).run()

        assert status.finished
        a, b = snapshot_records(serial), snapshot_records(parallel)
        assert a.keys() == b.keys()
        assert a == b, "worker count leaked into record bytes"

    @settings(max_examples=4, deadline=None)
    @given(kill_at=st.integers(min_value=0, max_value=SMALL.total_cells()))
    def test_kill_at_random_point_resumes_to_identical_bytes(
        self, tmp_path_factory, reference_small_store, kill_at
    ):
        """Property: for every kill point k, budget-k run + resume produces
        a store byte-identical to an uninterrupted run."""
        root = tmp_path_factory.mktemp("killpoint")
        store = ResultStore(root / "store")
        partial = CampaignRunner(
            SMALL, store=store, queue="sqlite", budget=kill_at
        ).run()
        assert partial.executed == kill_at

        resumed = CampaignRunner(store=store, queue="sqlite", campaign=SMALL).run()
        assert resumed.finished
        assert snapshot_records(store) == reference_small_store


@pytest.fixture(scope="module")
def reference_small_store(tmp_path_factory):
    store = ResultStore(tmp_path_factory.mktemp("reference") / "store")
    status = CampaignRunner(SMALL, store=store).run()
    assert status.finished
    return snapshot_records(store)


class TestScheduling:
    def test_baselines_drain_before_mitigated_cells(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        queue = MemoryQueue()
        runner = CampaignRunner(GRID, store=store, queue=queue)
        runner.enqueue()

        by_hash = {spec.content_hash(): spec for spec, _ in GRID.cells()}
        order = []
        while True:
            item = queue.claim("probe")
            if item is None:
                break
            order.append(by_hash[item.key].mitigation.name)
        n_baselines = sum(1 for name in order if name == "none")
        assert order[:n_baselines] == ["none"] * n_baselines
        assert n_baselines == 2

    def test_priority_overrides_order_the_queue(self, tmp_path):
        campaign = CampaignSpec(
            name="prio",
            workloads=("429.mcf",),
            mitigations=("para", "graphene"),
            nrhs=(250,),
            num_requests=200,
            include_baseline=False,
            priorities={"graphene": 5},
        )
        queue = MemoryQueue()
        CampaignRunner(
            campaign, store=ResultStore(tmp_path / "store"), queue=queue
        ).enqueue()
        by_hash = {s.content_hash(): s for s, _ in campaign.cells()}
        first = by_hash[queue.claim("probe").key]
        assert first.mitigation.name == "graphene"

    def test_budget_zero_enqueues_but_executes_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        status = CampaignRunner(SMALL, store=store, budget=0).run()
        assert status.executed == 0
        assert status.completed == 0
        assert status.pending == SMALL.total_cells()


class TestCrashRecovery:
    def test_expired_foreign_lease_is_stolen_and_finished(self, tmp_path):
        """An item claimed by a dead worker (lease about to lapse) must be
        reclaimed by the next runner and executed to completion."""
        store = ResultStore(tmp_path / "store")
        queue = MemoryQueue()
        runner = CampaignRunner(SMALL, store=store, queue=queue, poll_interval=0.01)
        runner.enqueue()
        stolen = queue.claim("dead-worker", lease=0.15)
        assert stolen is not None

        status = runner.run()
        assert status.finished
        # The dead worker's ack is refused after the steal.
        assert queue.ack(stolen.key, "dead-worker") is False

    def test_store_first_ack_second(self, tmp_path, monkeypatch):
        """A crash between store and ack re-executes (never loses) a cell:
        if the ack never happens the record must already be on disk."""
        store = ResultStore(tmp_path / "store")
        queue = MemoryQueue()
        runner = CampaignRunner(SMALL, store=store, queue=queue, budget=1)

        acked = []
        real_ack = queue.ack

        def spy_ack(key, worker):
            assert store.contains(key), "acked a cell whose record is not on disk"
            acked.append(key)
            return real_ack(key, worker)

        monkeypatch.setattr(queue, "ack", spy_ack)
        runner.run()
        assert len(acked) == 1


class TestSessionIntegration:
    def test_session_campaign_and_store_sharing(self, tmp_path):
        """Session.campaign() drains the grid; subsequent Session.run() of a
        member cell is answered from the shared store, not re-simulated."""
        session = Session(max_workers=0, store=tmp_path / "store")
        status = session.campaign(SMALL)
        assert status.finished

        spec, _ = SMALL.cells()[0]
        record = session.run(spec)
        assert record.result.ipc > 0
        assert session.cache_hits >= 1
        assert session.store.hits >= 1

    def test_session_campaign_requires_a_store(self):
        with pytest.raises(ValueError, match="needs a result store"):
            Session(max_workers=0, store=None).campaign(SMALL)


class TestStatus:
    def test_status_from_state_needs_only_the_store(self, tmp_path):
        from repro.campaign.runner import status_from_state

        store = ResultStore(tmp_path / "store")
        CampaignRunner(SMALL, store=store, budget=1).run()
        state = store.load_campaign(SMALL.campaign_id())
        status = status_from_state(store, state)
        assert status.total == SMALL.total_cells()
        assert status.completed == 1
        assert not status.finished

    def test_status_row_shape(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        status = CampaignRunner(SMALL, store=store).run()
        row = status.as_row()
        assert row["completed"] == f"{SMALL.total_cells()}/{SMALL.total_cells()}"
        assert len(row["campaign"]) == 12

    def test_reenqueue_leaves_an_identical_checkpoint_untouched(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        CampaignRunner(SMALL, store=store, budget=0).enqueue()
        path = store.campaigns_dir / f"{SMALL.campaign_id()}.json"
        before = path.stat()
        CampaignRunner(SMALL, store=store, budget=0).enqueue()
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_changed_state_rewrites_the_checkpoint(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        CampaignRunner(SMALL, store=store, budget=0).enqueue()
        path = store.campaigns_dir / f"{SMALL.campaign_id()}.json"
        before = path.stat()
        CampaignRunner(SMALL, store=store, queue="sqlite", budget=0).enqueue()
        assert path.stat().st_ino != before.st_ino
        assert store.load_campaign(SMALL.campaign_id())["backend"] == "sqlite"

    def test_worker_id_defaults_to_host_and_pid(self, tmp_path):
        runner = CampaignRunner(SMALL, store=ResultStore(tmp_path / "s"))
        assert str(os.getpid()) in runner.worker_id


class TestQueueOwnership:
    def test_a_queue_built_from_a_name_is_closed_by_run(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = CampaignRunner(SMALL, store=store, queue="sqlite", budget=1)
        runner.run()
        # Closing the last connection checkpoints and removes the log.
        assert (store.root / "queue.sqlite").exists()
        assert not (store.root / "queue.sqlite-wal").exists()
        assert not (store.root / "queue.sqlite-shm").exists()
        # A closed queue reopens on use.
        assert runner.status().pending == SMALL.total_cells() - 1

    def test_a_queue_passed_in_stays_open(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        queue = SqliteQueue(tmp_path / "queue.sqlite")
        CampaignRunner(SMALL, store=store, queue=queue, budget=1).run()
        assert (tmp_path / "queue.sqlite-wal").exists()
        assert queue.counts().done == 1
        queue.close()
        assert not (tmp_path / "queue.sqlite-wal").exists()
