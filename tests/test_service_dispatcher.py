"""Tests for the campaign dispatcher: dedup, deadlines, recovery.

Most tests run the service in ``inline`` mode — shards execute in the
calling thread, so scheduling decisions are deterministic and failure
injection is a simple monkeypatch of ``execute_shard``.  The pool
tests at the end run ``process`` mode: results from reused workers
against fresh in-process executions, and the respawn after a crash,
a timeout and a deadline kill.  The HTTP tests, the fault matrix
(``shard-crash``) and ``scripts/chaos_gate.py`` drive process mode
too.
"""

import os
import time

import pytest

import repro.service.dispatcher as dispatcher_module
from repro.resilience.faults import PLAN_ENV_VAR, FaultPlan
from repro.service.dispatcher import CampaignService
from repro.service.errors import AdmissionError, UnknownCampaign
from repro.service.shards import execute_shard
from repro.telemetry.core import TELEMETRY
from repro.telemetry.sinks import InMemoryAggregator


@pytest.fixture(autouse=True)
def sink():
    aggregator = InMemoryAggregator()
    TELEMETRY.enable(aggregator)
    yield aggregator
    TELEMETRY.disable()
    TELEMETRY.reset()


PAYLOAD = {
    "kind": "probe",
    "probes": [{"family": "chain", "m": 4, "stride": 1, "laps": 6},
               {"family": "ladder", "k": 3, "periods": 4}],
    "schemes": [{"scheme": "SBTB", "entries": 32},
                {"scheme": "AlwaysTaken"}],
}


def make_service(tmp_path, **kwargs):
    kwargs.setdefault("mode", "inline")
    return CampaignService(str(tmp_path), **kwargs)


def counter(name):
    return TELEMETRY.counter_value(name)


def test_submit_drain_done(tmp_path):
    service = make_service(tmp_path)
    status = service.submit(PAYLOAD)
    assert status["total"] == 4
    assert status["by_status"] == {"pending": 4}
    assert service.drain(timeout=30.0)
    tables = service.tables(status["id"])
    assert tables["degraded"] is False
    assert all(value is not None for row in tables["rows"]
               for value in row[1:])
    assert counter("service.shard.executed") == 4
    assert counter("service.campaign.done") == 1
    assert len(service.journal.executions()) == 4


def test_resubmission_is_served_from_cache(tmp_path):
    service = make_service(tmp_path)
    first = service.submit(PAYLOAD)
    assert service.drain(timeout=30.0)
    second = service.submit(PAYLOAD)
    # Every cell resolved at submission; nothing new was executed.
    assert second["by_status"] == {"done": 4}
    assert counter("service.dedup.cached") == 4
    assert counter("service.shard.executed") == 4
    assert len(service.journal.executions()) == 4
    assert service.tables(second["id"])["rows"] == \
        service.tables(first["id"])["rows"]


def test_concurrent_campaigns_share_queued_shards(tmp_path):
    service = make_service(tmp_path)
    first = service.submit(PAYLOAD)
    second = service.submit(PAYLOAD)     # same shards, still queued
    assert counter("service.dedup.inflight") == 4
    assert service.queue.depth == 4      # not 8
    assert service.drain(timeout=30.0)
    assert counter("service.shard.executed") == 4
    for campaign_id in (first["id"], second["id"]):
        assert service.status(campaign_id)["status"] == "done"


def test_admission_rejection_registers_nothing(tmp_path):
    service = make_service(tmp_path, queue_capacity=2)
    with pytest.raises(AdmissionError) as excinfo:
        service.submit(PAYLOAD)          # 4 shards > capacity 2
    assert excinfo.value.retry_after_s > 0
    assert service.campaigns == {}
    assert service.queue.depth == 0
    assert service.journal.load_campaigns() == []


def test_deadline_zero_expires_without_executing(tmp_path):
    service = make_service(tmp_path)
    status = service.submit(dict(PAYLOAD, deadline_s=0))
    service.step()
    assert service.status(status["id"])["status"] == "expired"
    assert counter("service.deadline.cancelled") == 4
    assert counter("service.shard.executed") == 0
    tables = service.tables(status["id"])
    assert tables["degraded"] is True
    assert {gap["reason"] for gap in tables["missing"]} == \
        {"deadline-expired"}
    # The queue was cleaned up; a later campaign is unaffected.
    assert service.queue.depth == 0
    later = service.submit(PAYLOAD)
    assert service.drain(timeout=30.0)
    assert service.status(later["id"])["status"] == "done"


def test_transient_failure_is_retried(tmp_path, monkeypatch):
    real = dispatcher_module.execute_shard
    failures = {"left": 1}

    def flaky(spec, cache_dir=None):
        if failures["left"] > 0:
            failures["left"] -= 1
            raise RuntimeError("transient worker death")
        return real(spec, cache_dir=cache_dir)

    monkeypatch.setattr(dispatcher_module, "execute_shard", flaky)
    service = make_service(tmp_path, retries=2, backoff=0.0)
    status = service.submit(PAYLOAD)
    assert service.drain(timeout=30.0)
    assert service.status(status["id"])["status"] == "done"
    assert counter("service.shard.retried") == 1
    assert counter("service.shard.executed") == 4


def test_exhausted_retries_fail_the_cell_only(tmp_path, monkeypatch):
    real = dispatcher_module.execute_shard
    # Sink exactly one shard key forever; the rest of the grid must
    # still complete and the tables must degrade, not vanish.
    poison = {}

    def broken(spec, cache_dir=None):
        key = spec.key
        if not poison:
            poison[key] = True
        if key in poison:
            raise RuntimeError("benchmark is cursed")
        return real(spec, cache_dir=cache_dir)

    monkeypatch.setattr(dispatcher_module, "execute_shard", broken)
    service = make_service(tmp_path, retries=1, backoff=0.0,
                           breaker_threshold=10)
    status = service.submit(PAYLOAD)
    assert service.drain(timeout=30.0)
    assert service.status(status["id"])["status"] == "degraded"
    assert counter("service.shard.failed") == 1
    assert counter("service.shard.retried") == 1    # retries=1
    tables = service.tables(status["id"])
    assert tables["degraded"] is True
    assert len(tables["missing"]) == 1
    assert "cursed" in tables["missing"][0]["reason"]
    assert counter("service.campaign.degraded") == 1


def test_open_breaker_sheds_the_group(tmp_path, monkeypatch):
    def always_broken(spec, cache_dir=None):
        raise RuntimeError("scheme simulator is down")

    monkeypatch.setattr(dispatcher_module, "execute_shard",
                        always_broken)
    # Single probe scheme -> one breaker group for the whole grid;
    # threshold 1 trips on the first failure, shedding the rest.
    payload = dict(PAYLOAD, schemes=[{"scheme": "SBTB",
                                      "entries": 32}])
    service = make_service(tmp_path, retries=0, backoff=0.0,
                           breaker_threshold=1,
                           breaker_cooldown=3600.0)
    status = service.submit(payload)
    assert service.drain(timeout=30.0)
    assert counter("service.shard.failed") == 1
    assert counter("service.breaker.shed") == 1
    assert counter("service.breaker.tripped") == 1
    tables = service.tables(status["id"])
    reasons = {gap["reason"] for gap in tables["missing"]}
    assert "breaker-open:probe:SBTB" in reasons
    breaker_states = {breaker["state"] for breaker
                      in service.stats()["breakers"]}
    assert "open" in breaker_states


def test_events_since_cursor(tmp_path):
    service = make_service(tmp_path)
    status = service.submit(PAYLOAD)
    assert service.drain(timeout=30.0)
    stream = service.events_since(status["id"], since=0)
    assert stream["status"] == "done"
    assert stream["next"] == 4
    assert [event["seq"] for event in stream["events"]] == [0, 1, 2, 3]
    tail = service.events_since(status["id"], since=3)
    assert len(tail["events"]) == 1
    with pytest.raises(UnknownCampaign):
        service.events_since("nope")


def test_restart_resumes_pending_shards(tmp_path):
    first = make_service(tmp_path)
    status = first.submit(PAYLOAD)
    # No step(): the campaign is journalled but nothing has run.
    assert counter("service.shard.executed") == 0
    second = make_service(tmp_path)
    assert second.queue.depth == 4      # recovery re-enqueued them
    assert second.drain(timeout=30.0)
    assert second.status(status["id"])["status"] == "done"
    assert counter("service.shard.executed") == 4
    assert len(second.journal.executions()) == 4
    # Keys are unique in the log: nothing ran twice across instances.
    keys = [entry["key"] for entry in second.journal.executions()]
    assert len(keys) == len(set(keys))


def test_restart_after_completion_resumes_results(tmp_path):
    first = make_service(tmp_path)
    status = first.submit(PAYLOAD)
    assert first.drain(timeout=30.0)
    done_tables = first.tables(status["id"])
    second = make_service(tmp_path)
    assert counter("service.shard.resumed") == 4
    assert second.status(status["id"])["status"] == "done"
    assert second.tables(status["id"])["rows"] == done_tables["rows"]
    # Resumed results count as cache hits for new campaigns.
    again = second.submit(PAYLOAD)
    assert again["by_status"] == {"done": 4}
    assert counter("service.shard.executed") == 4  # from instance one


def test_stats_shape(tmp_path):
    service = make_service(tmp_path, workers=3)
    service.submit(PAYLOAD)
    service.drain(timeout=30.0)
    stats = service.stats()
    assert stats["instance"] == service.instance_id
    assert stats["workers"] == 3
    assert stats["mode"] == "inline"
    assert stats["queue"]["capacity"] == 64
    assert stats["campaigns"] == {"done": 1}
    assert stats["counters"]["service.shard.executed"] == 4


# -- the process pool --------------------------------------------------------

SWEEP = {"kind": "sweep", "benchmarks": ["wc"], "scale": 0.02, "runs": 1,
         "schemes": [{"scheme": "SBTB"}, {"scheme": "CBTB"},
                     {"scheme": "FS"}]}


def pooled(tmp_path, **kwargs):
    kwargs.setdefault("mode", "process")
    kwargs.setdefault("workers", 1)
    return make_service(tmp_path, **kwargs)


def pool_processes(service):
    return ([worker.process for worker in service.idle]
            + [shard.worker.process for shard in service.inflight.values()])


def first_call_misbehaves(tmp_path, misbehave):
    """An ``execute_shard`` whose first call, in any process, runs
    ``misbehave`` instead (a marker file remembers the first call)."""
    marker = tmp_path / "misbehaved"

    def shard(spec, **kwargs):
        try:
            os.close(os.open(str(marker), os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return execute_shard(spec, **kwargs)
        misbehave()
        return execute_shard(spec, **kwargs)

    return shard


def assert_one_execution_per_key(service, cells):
    keys = [entry["key"] for entry in service.journal.executions()]
    assert len(keys) == cells
    assert len(set(keys)) == cells


@pytest.mark.parametrize("payload", [
    SWEEP,
    PAYLOAD,
    dict(PAYLOAD, flush_interval=3),
], ids=["sweep", "probe", "probe-flushed"])
def test_pooled_results_match_fresh_execution(tmp_path, payload):
    service = pooled(tmp_path)
    try:
        status = service.submit(payload)
        assert service.drain(timeout=120.0)
        assert service.status(status["id"])["status"] == "done"
        campaign = service.campaigns[status["id"]]
        for shard in campaign.shards:
            fresh = execute_shard(shard, cache_dir=str(tmp_path))
            assert service.results[shard.key] == fresh, shard
        # One process ran every shard; the sweep loaded wc once.
        assert counter("service.worker.started") == 1
        reused = len(campaign.shards) - 1 if payload is SWEEP else 0
        assert counter("service.shard.run_reused") == reused
    finally:
        service.stop()


def test_pool_respawns_after_a_worker_crash(tmp_path, monkeypatch):
    monkeypatch.setattr(dispatcher_module, "execute_shard",
                        first_call_misbehaves(tmp_path,
                                              lambda: os._exit(7)))
    service = pooled(tmp_path, retries=2, backoff=0.0)
    try:
        status = service.submit(PAYLOAD)
        assert service.drain(timeout=60.0)
        assert service.status(status["id"])["status"] == "done"
        assert counter("service.shard.retried") == 1
        assert counter("service.worker.started") == 2
        assert_one_execution_per_key(service, 4)
    finally:
        service.stop()


def test_pool_respawns_after_a_shard_timeout(tmp_path, monkeypatch):
    monkeypatch.setattr(dispatcher_module, "execute_shard",
                        first_call_misbehaves(tmp_path,
                                              lambda: time.sleep(60)))
    service = pooled(tmp_path, retries=2, backoff=0.0, shard_timeout=1.0)
    try:
        status = service.submit(PAYLOAD)
        assert service.drain(timeout=60.0)
        assert service.status(status["id"])["status"] == "done"
        assert counter("service.shard.retried") == 1
        assert counter("service.worker.started") == 2
        assert_one_execution_per_key(service, 4)
    finally:
        service.stop()


def test_pool_respawns_after_a_deadline_kill(tmp_path, monkeypatch):
    monkeypatch.setattr(dispatcher_module, "execute_shard",
                        first_call_misbehaves(tmp_path,
                                              lambda: time.sleep(60)))
    service = pooled(tmp_path)
    try:
        single = dict(PAYLOAD, probes=PAYLOAD["probes"][:1],
                      schemes=PAYLOAD["schemes"][:1])
        doomed = service.submit(dict(single, deadline_s=0.5))
        assert service.drain(timeout=30.0)
        assert service.status(doomed["id"])["status"] == "expired"
        assert counter("service.shard.killed") == 1
        assert pool_processes(service) == []
        later = service.submit(PAYLOAD)
        assert service.drain(timeout=60.0)
        assert service.status(later["id"])["status"] == "done"
        assert counter("service.worker.started") == 2
        assert_one_execution_per_key(service, 4)
    finally:
        service.stop()


def test_fault_plan_travels_with_each_attempt(tmp_path, monkeypatch):
    """A plan armed after the worker was forked still fires in it."""
    service = pooled(tmp_path, retries=2, backoff=0.0)
    try:
        service.submit(dict(PAYLOAD, probes=PAYLOAD["probes"][:1]))
        assert service.drain(timeout=60.0)
        assert service.idle                 # the worker that will crash
        monkeypatch.setenv(PLAN_ENV_VAR, FaultPlan.single(
            "shard-crash", seed=0).to_json())
        status = service.submit(dict(PAYLOAD,
                                     probes=PAYLOAD["probes"][1:],
                                     schemes=PAYLOAD["schemes"][:1]))
        assert service.drain(timeout=60.0)
        assert service.status(status["id"])["status"] == "done"
        assert counter("service.shard.retried") == 1
        assert counter("service.worker.started") == 2
    finally:
        service.stop()


def test_shard_delay_travels_with_each_attempt(tmp_path, monkeypatch):
    service = pooled(tmp_path)
    try:
        service.submit(dict(PAYLOAD, probes=PAYLOAD["probes"][:1]))
        assert service.drain(timeout=60.0)
        monkeypatch.setenv(dispatcher_module.SHARD_DELAY_ENV, "0.3")
        started = time.monotonic()
        service.submit(dict(PAYLOAD, probes=PAYLOAD["probes"][1:],
                            schemes=PAYLOAD["schemes"][:1]))
        assert service.drain(timeout=60.0)
        assert time.monotonic() - started >= 0.3
        assert counter("service.worker.started") == 1
    finally:
        service.stop()


def test_stop_leaves_no_live_worker(tmp_path, monkeypatch):
    monkeypatch.setattr(dispatcher_module, "execute_shard",
                        first_call_misbehaves(tmp_path,
                                              lambda: time.sleep(60)))
    service = pooled(tmp_path, workers=2)
    service.submit(PAYLOAD)
    deadline = time.monotonic() + 30.0
    # Step until one worker finished shards (idle) while the other is
    # still stuck in the sleeping one.
    while time.monotonic() < deadline and not (
            service.idle and service.inflight):
        service.step()
        time.sleep(0.01)
    processes = pool_processes(service)
    assert len(processes) == 2
    service.stop()
    assert not any(process.is_alive() for process in processes)
    assert pool_processes(service) == []
