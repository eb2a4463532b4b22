"""Tests for the distributed campaign fabric.

The end-to-end tests run a real coordinator HTTP server with thread
workers and the physics stubbed out (the `stub_simulation` pattern
from the runner tests); the failure-matrix tests drive the
coordinator's protocol operations directly with a fake clock, so
lease expiry and reclaim are deterministic and instant.
"""

import threading

import pytest

import repro.campaign.distributed.worker as worker_mod
import repro.campaign.tasks as tasks_mod
from repro.campaign import CampaignOptions, CampaignRunner, EventBus, \
    ShardReclaimed
from repro.campaign.distributed import (Coordinator, LocalWorkerPool,
                                        ProtocolError, ReportEntry,
                                        ShardLease, Worker, WorkerError)
from repro.diagnosis import dictionary_for_campaign
from repro.macrotest.coverage import DetectionRecord

from .test_runner import fake_record, tiny_config


@pytest.fixture
def stub_simulation(monkeypatch):
    calls = []

    def fake_simulate(fault_class, spec):
        calls.append((spec.macro,
                      fault_class.representative.collapse_key()))
        return fake_record(fault_class)

    monkeypatch.setattr(tasks_mod, "simulate_class", fake_simulate)
    return calls


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def make_coordinator(clock=None, lease=30.0, cache_dir=None, **kwargs):
    """Coordinator over the stubbed clockgen campaign.

    Pass a :class:`FakeClock` for deterministic lease expiry; the
    default (real monotonic time) suits end-to-end runs where nothing
    should ever expire.
    """
    import time as _time
    defaults = dict(macros=["clockgen"], shard_size=2, lease=lease,
                    clock=clock or _time.monotonic)
    defaults.update(kwargs)
    return Coordinator(tiny_config(),
                       CampaignOptions(jobs=1, cache_dir=cache_dir),
                       **defaults)


def entries_for(coordinator, lease_dict):
    """Stub report entries for every task in one claimed shard."""
    tasks = coordinator._prepared.tasks_by_id
    return [ReportEntry(task_id=tid,
                        record=fake_record(tasks[tid].fault_class))
            for tid in lease_dict["task_ids"]]


class TestEndToEnd:
    def test_three_workers_match_single_host(self, stub_simulation):
        coordinator = make_coordinator(clock=None)
        distributed = coordinator.run(workers=3, worker_mode="thread",
                                      timeout=60)
        single = CampaignRunner(tiny_config(),
                                CampaignOptions(jobs=1)) \
            .run(["clockgen"])

        assert distributed.fingerprint == single.fingerprint
        a = distributed.path_result.macros["clockgen"]
        b = single.path_result.macros["clockgen"]
        assert a.result.records == b.result.records
        assert a.noncat_result.records == b.noncat_result.records

    def test_dashboard_aggregates_workers(self, stub_simulation):
        coordinator = make_coordinator(clock=None)
        coordinator.run(workers=2, worker_mode="thread", timeout=60)
        dashboard = coordinator.metrics()["distributed"]
        assert dashboard["shards_done"] == dashboard["shards_total"] > 0
        assert dashboard["reclaims"] == 0
        merged = sum(w["tasks"]
                     for w in dashboard["workers"].values())
        assert merged == coordinator.metrics()["campaign"]["completed"]

    def test_dictionary_matches_single_host(self, stub_simulation,
                                            tmp_path):
        options = CampaignOptions(jobs=1,
                                  cache_dir=tmp_path / "dist")
        coordinator = Coordinator(tiny_config(), options,
                                  macros=["clockgen"], shard_size=2)
        distributed = coordinator.run(workers=2, worker_mode="thread",
                                      timeout=60)
        single = CampaignRunner(
            tiny_config(),
            CampaignOptions(jobs=1, cache_dir=tmp_path / "single")) \
            .run(["clockgen"])

        dist_dict = dictionary_for_campaign(distributed)
        single_dict = dictionary_for_campaign(single)
        assert dist_dict.meta["fingerprint"] == \
            single_dict.meta["fingerprint"]
        assert dist_dict.entries == single_dict.entries

    def test_worker_timestamps_never_cross_the_wire(self,
                                                    stub_simulation,
                                                    monkeypatch):
        """The clock-skew contract: no protocol payload a worker sends
        carries any time-like field — leases live entirely on the
        coordinator's clock."""
        import time as _time
        sent = []
        real = worker_mod._http_json

        def spy(url, payload=None, **kwargs):
            if payload is not None:
                sent.append((url, payload))
            return real(url, payload, **kwargs)

        monkeypatch.setattr(worker_mod, "_http_json", spy)
        # slow the stub enough that heartbeats actually fire
        # (lease 0.9s -> heartbeat every 0.3s, ~0.2s per class)
        fast_stub = tasks_mod.simulate_class

        def slow_stub(fault_class, spec):
            _time.sleep(0.2)
            return fast_stub(fault_class, spec)

        monkeypatch.setattr(tasks_mod, "simulate_class", slow_stub)
        coordinator = make_coordinator(lease=0.9)
        coordinator.run(workers=2, worker_mode="thread", timeout=60)

        forbidden = {"time", "timestamp", "now", "clock", "deadline",
                     "expiry", "started", "claimed_at"}
        assert any("/heartbeat" in url for url, _ in sent)
        for url, payload in sent:
            keys = set(payload)
            for entry in payload.get("entries", ()):
                keys |= set(entry)
            assert not (keys & forbidden), (url, keys)

    @pytest.mark.slow
    def test_process_pool_smoke(self, tmp_path):
        """Spawned worker processes complete a real (tiny) campaign;
        marked slow with the other real-simulation tests."""
        config = tiny_config(n_defects=600, max_classes=2,
                             include_noncat=False)
        coordinator = Coordinator(
            config, CampaignOptions(jobs=1, cache_dir=tmp_path),
            macros=["clockgen"], shard_size=2)
        result = coordinator.run(workers=2, worker_mode="process",
                                 timeout=120)
        assert result.metrics.completed == result.metrics.total_tasks


class TestLeaseProtocol:
    def test_claim_leases_heaviest_first(self, stub_simulation):
        coordinator = make_coordinator()
        coordinator.prepare()
        first = coordinator.claim("w1")["shard"]
        second = coordinator.claim("w1")["shard"]
        assert first["weight"] >= second["weight"]
        assert first["index"] < second["index"]

    def test_expired_lease_reclaimed_for_other_worker(
            self, stub_simulation):
        clock = FakeClock()
        events = []
        # one shard holds the whole campaign, so the reclaim is
        # unambiguous about which shard comes back
        coordinator = make_coordinator(clock=clock, lease=30.0,
                                       shard_size=99)
        coordinator.bus.subscribe(
            lambda e: events.append(e)
            if isinstance(e, ShardReclaimed) else None)
        coordinator.prepare()

        lease = coordinator.claim("w1")["shard"]
        clock.advance(31.0)
        again = coordinator.claim("w2")["shard"]
        assert again["shard_id"] == lease["shard_id"]
        assert again["retries"] == 1
        assert [e.worker for e in events] == ["w1"]

    def test_heartbeat_extends_lease(self, stub_simulation):
        clock = FakeClock()
        coordinator = make_coordinator(clock=clock, lease=30.0)
        coordinator.prepare()
        lease = coordinator.claim("w1")["shard"]

        clock.advance(25.0)
        assert coordinator.heartbeat("w1",
                                     lease["shard_id"])["ok"]
        clock.advance(25.0)  # would be expired without the heartbeat
        other = coordinator.claim("w2")["shard"]
        assert other is None or \
            other["shard_id"] != lease["shard_id"]

    def test_heartbeat_after_reclaim_says_so(self, stub_simulation):
        clock = FakeClock()
        coordinator = make_coordinator(clock=clock, lease=30.0)
        coordinator.prepare()
        lease = coordinator.claim("w1")["shard"]
        clock.advance(31.0)
        answer = coordinator.heartbeat("w1", lease["shard_id"])
        assert not answer["ok"] and answer.get("reclaimed")

    def test_unknown_shard_is_protocol_error(self, stub_simulation):
        coordinator = make_coordinator()
        coordinator.prepare()
        with pytest.raises(ProtocolError):
            coordinator.heartbeat("w1", "nope")
        with pytest.raises(ProtocolError):
            coordinator.report("w1", "nope", [])


class TestReportMerge:
    def test_duplicate_report_is_idempotent(self, stub_simulation):
        coordinator = make_coordinator()
        coordinator.prepare()
        lease = coordinator.claim("w1")["shard"]
        entries = entries_for(coordinator, lease)

        first = coordinator.report("w1", lease["shard_id"], entries)
        before = dict(coordinator._results)
        second = coordinator.report("w2", lease["shard_id"], entries)

        assert first == {"accepted": True, "duplicate": False}
        assert second == {"accepted": True, "duplicate": True}
        assert coordinator._results == before
        snapshot = coordinator.distributed.snapshot()
        assert snapshot.duplicate_reports == 1
        assert snapshot.shards_done == 1

    def test_partial_report_requeues_shard(self, stub_simulation):
        coordinator = make_coordinator()
        coordinator.prepare()
        lease = coordinator.claim("w1")["shard"]
        entries = entries_for(coordinator, lease)[:-1]

        answer = coordinator.report("w1", lease["shard_id"], entries)
        assert not answer["accepted"]
        assert answer["missing"]
        # the shard is claimable again
        ids = set()
        while True:
            again = coordinator.claim("w2")["shard"]
            if again is None:
                break
            ids.add(again["shard_id"])
        assert lease["shard_id"] in ids

    def test_report_after_reclaim_still_merges(self, stub_simulation):
        """A worker that lost its lease but finished anyway delivers
        usable results — determinism makes them identical to whatever
        the replacement would compute."""
        clock = FakeClock()
        coordinator = make_coordinator(clock=clock, lease=30.0)
        coordinator.prepare()
        lease = coordinator.claim("w1")["shard"]
        clock.advance(31.0)
        coordinator.claim("w2")  # reclaim happens lazily here
        answer = coordinator.report("w1", lease["shard_id"],
                                    entries_for(coordinator, lease))
        assert answer["accepted"]
        for tid in lease["task_ids"]:
            assert tid in coordinator._results

    def test_max_retries_degrades_and_finishes(self, stub_simulation,
                                               tmp_path):
        clock = FakeClock()
        coordinator = make_coordinator(clock=clock, lease=10.0,
                                       max_shard_retries=1,
                                       cache_dir=tmp_path)
        coordinator.prepare()
        total_shards = len(coordinator._shards)

        for _ in range(2 + total_shards * 2):
            if coordinator._done.is_set():
                break
            coordinator.claim("w1")
            clock.advance(11.0)
        coordinator.claim("w1")  # final lazy reclaim pass
        assert coordinator._done.is_set()

        result = coordinator.wait(timeout=1.0)
        assert result.metrics.degraded == result.metrics.total_tasks
        records = result.path_result.macros["clockgen"].result.records
        assert all(not r.voltage_detected for r in records)
        # degraded records are never stored: a rerun retries them
        assert list(coordinator._prepared.store.iter_records()) == []


class TestCoordinatorRestart:
    def test_resume_from_merged_journal(self, stub_simulation,
                                        tmp_path):
        """Kill the coordinator after one merged shard; a restarted
        coordinator with --resume re-dispatches only the remainder and
        the final result still matches a single-host run."""
        options = CampaignOptions(jobs=1, cache_dir=tmp_path,
                                  resume=True)
        first = Coordinator(tiny_config(), options,
                            macros=["clockgen"], shard_size=2)
        first.prepare()
        lease = first.claim("w1")["shard"]
        first.report("w1", lease["shard_id"],
                     entries_for(first, lease))
        merged = set(first._results)
        first._ledger.close()  # crash: server never assembled

        second = Coordinator(tiny_config(), options,
                             macros=["clockgen"], shard_size=2)
        second.prepare()
        # the merged classes came back from the journal, not as shards
        assert merged <= set(second._results)
        remaining = {tid for s in second._shards.values()
                     for tid in s.shard.task_ids}
        assert merged.isdisjoint(remaining)

        result = second.run(workers=2, worker_mode="thread",
                            timeout=60)
        single = CampaignRunner(tiny_config(),
                                CampaignOptions(jobs=1)) \
            .run(["clockgen"])
        assert result.fingerprint == single.fingerprint
        assert result.path_result.macros["clockgen"].result.records \
            == single.path_result.macros["clockgen"].result.records
        assert result.metrics.journal_hits == len(merged)


class TestWorkerClient:
    def test_fingerprint_mismatch_refuses_to_simulate(
            self, stub_simulation, monkeypatch):
        coordinator = make_coordinator(clock=None)
        url = coordinator.start()
        try:
            real = worker_mod._http_json

            def tampered(u, payload=None, **kwargs):
                answer = real(u, payload, **kwargs)
                if u.endswith("/campaign"):
                    answer["fingerprint"] = "f" * 64
                return answer

            monkeypatch.setattr(worker_mod, "_http_json", tampered)
            worker = Worker(url, worker_id="drifted")
            with pytest.raises(WorkerError,
                               match="fingerprint mismatch"):
                worker.run()
            assert stub_simulation == []  # refused before simulating
        finally:
            coordinator.stop()

    def test_bad_protocol_version_rejected(self, stub_simulation,
                                           monkeypatch):
        coordinator = make_coordinator(clock=None)
        url = coordinator.start()
        try:
            real = worker_mod._http_json

            def tampered(u, payload=None, **kwargs):
                answer = real(u, payload, **kwargs)
                if u.endswith("/campaign"):
                    answer["protocol"] = 999
                return answer

            monkeypatch.setattr(worker_mod, "_http_json", tampered)
            with pytest.raises(WorkerError,
                               match="protocol version"):
                Worker(url, worker_id="old").run()
        finally:
            coordinator.stop()

    def test_worker_shard_journal_recovers_partial_work(
            self, stub_simulation, tmp_path):
        """A worker killed mid-shard leaves a shard journal; its
        successor adopts the finished classes instead of re-simulating
        them."""
        coordinator = make_coordinator(clock=None)
        url = coordinator.start()
        try:
            crashed = Worker(url, worker_id="crashed",
                             cache_dir=tmp_path)
            crashed.join_campaign()
            lease_dict = crashed._claim()["shard"]
            lease = ShardLease.from_dict(lease_dict)
            # simulate the crash: execute the shard (journaling every
            # class) but die before reporting
            crashed.execute_shard(lease)
            n_simulated = len(stub_simulation)
            assert n_simulated == len(lease.task_ids)

            successor = Worker(url, worker_id="successor",
                               cache_dir=tmp_path)
            successor.join_campaign()
            entries = successor.execute_shard(lease)
            # adopted from the journal: no new simulations ran
            assert len(stub_simulation) == n_simulated
            assert {e.task_id for e in entries} == \
                set(lease.task_ids)
            answer = successor._report(lease, entries)
            assert answer["accepted"]
        finally:
            coordinator.stop()

    def test_worker_store_hits_reported_as_cache(self,
                                                 stub_simulation,
                                                 tmp_path):
        """Workers with a warm local store answer shards from cache
        and the coordinator books those classes as cache hits."""
        def run_once():
            coordinator = make_coordinator()  # no coordinator store
            url = coordinator.start()
            pool = LocalWorkerPool(url, 1, mode="thread",
                                   cache_dir=tmp_path)
            pool.start()
            try:
                return coordinator.wait(timeout=60)
            finally:
                pool.join(timeout=10.0)
                coordinator.stop()

        run_once()
        n_simulated = len(stub_simulation)
        result = run_once()
        assert len(stub_simulation) == n_simulated  # all store hits
        assert result.metrics.cache_hits == result.metrics.total_tasks

    def test_pool_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            LocalWorkerPool("http://127.0.0.1:1", 2, mode="carrier")
