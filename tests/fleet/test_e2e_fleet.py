"""End-to-end fleet failure injection: real daemons, real SIGKILL.

The acceptance scenario from the fleet design: a coordinator fronting
two worker subprocesses takes a batch, one worker is SIGKILLed while it
is mid-solve, and the fleet must (a) requeue the orphaned job to the
survivor, (b) keep the watching client's SSE stream alive across the
failover on the same connection, (c) finish every job with verdicts
identical to a single-daemon run of the same batch, and (d) leave no
orphaned processes behind.
"""

import threading

import pytest

from repro.client import ServerClient

from .helpers import (
    FleetDaemon,
    comparable_result,
    delay_payload,
    wait_state,
    wait_until,
)


@pytest.fixture
def daemon_factory(tmp_path):
    daemons = []

    def start(tag, role, **kwargs):
        daemon = FleetDaemon(str(tmp_path), tag, role, **kwargs)
        daemons.append(daemon)
        return daemon

    try:
        yield start
    finally:
        for daemon in daemons:
            daemon.cleanup()


def batch_payloads():
    """The test batch: one long kill-target job plus quick fillers.

    All three use the delayed pair (verdict *inequivalent* at an exact,
    engine-deterministic counterexample depth), with distinct delays so
    each has its own cache fingerprint and routing key.
    """
    return [
        delay_payload(name="victim", delay=2000),
        delay_payload(name="quick-a", delay=20),
        delay_payload(name="quick-b", delay=30),
    ]


def watch_events(client, job_id, sink, done):
    """Collect one job's SSE event types until the terminal frame."""
    try:
        for event in client.events(job_id, timeout=120):
            sink.append(event.get("type"))
            if event.get("type") == "done":
                sink.append(event["record"])
                break
    finally:
        done.set()


def test_fleet_survives_worker_sigkill(daemon_factory):
    coordinator = daemon_factory("coord", "coordinator",
                                 heartbeat=0.25, dead_after=1.5)
    workers = {
        "w1": daemon_factory("w1", "worker", join_url=coordinator.url),
        "w2": daemon_factory("w2", "worker", join_url=coordinator.url),
    }
    client = ServerClient(coordinator.url, timeout=30.0)
    wait_until(lambda: client.healthz()["nodes"]["alive"] == 2,
               message="both workers to join the fleet")

    payloads = batch_payloads()
    ids = client.submit_payloads(payloads)
    victim_job = ids[0]

    # A client starts watching the long job through the coordinator
    # before anything fails; its SSE connection must survive the kill.
    seen = []
    stream_done = threading.Event()
    watcher = threading.Thread(
        target=watch_events, args=(client, victim_job, seen, stream_done),
        daemon=True)
    watcher.start()

    # Wait for the long job to be mid-solve somewhere, then SIGKILL
    # that worker — no graceful teardown, the crash case.
    record = wait_state(client, victim_job, "running", timeout=60)
    victim_node = wait_until(
        lambda: client.job(victim_job).get("node"),
        message="the running job to report its node")
    assert client.job(victim_job)["state"] == "running"
    workers[victim_node].sigkill()
    survivor_node = [tag for tag in workers if tag != victim_node][0]

    # The orphaned job is requeued and finished by the survivor with
    # an incremented requeue count and the same inequivalence verdict.
    record = wait_state(client, victim_job, "done", timeout=120)
    assert record["requeues"] >= 1
    assert record["node"] == survivor_node
    assert record["result"]["result"]["equivalent"] is False

    # The forked engine workers of the killed daemon notice the
    # reparenting and exit on their own: the whole group is gone.
    workers[victim_node].await_group_exit()

    # The watcher's single SSE connection saw the failover happen:
    # requeue, re-dispatch, and the terminal frame, in that order.
    assert stream_done.wait(120), "SSE watcher never saw the terminal frame"
    watcher.join(timeout=10)
    types = seen[:-1]
    final_record = seen[-1]
    assert "job_requeued" in types
    assert "job_dispatched" in types
    assert types.index("job_requeued") < len(types) - 1 - types[::-1].index(
        "job_dispatched"), "no re-dispatch after the requeue"
    assert types[-1] == "done"
    assert final_record["state"] == "done"
    assert final_record["node"] == survivor_node

    # The fillers finished too (on whichever nodes they were sharded).
    fleet_results = {}
    for payload, job_id in zip(payloads, ids):
        record = wait_state(client, job_id, "done", timeout=120)
        fleet_results[payload["name"]] = comparable_result(record)

    # Verdict identity: the same batch against a plain single daemon
    # produces byte-identical results (modulo wall-clock).
    single = daemon_factory("single", "standalone")
    single_client = ServerClient(single.url, timeout=30.0)
    for payload, job_id in zip(payloads,
                               single_client.submit_payloads(payloads)):
        record = wait_state(single_client, job_id, "done", timeout=120)
        assert comparable_result(record) == fleet_results[payload["name"]], (
            "fleet and single-daemon verdicts differ for "
            + payload["name"])

    # Graceful shutdown of everything still alive; nothing orphaned.
    stats = client.stats()
    assert stats["jobs"]["done"] == 3
    assert stats["nodes"]["alive"] == 1
    assert stats["requeues"] >= 1
    assert single.sigterm() == 0
    assert workers[survivor_node].sigterm() == 0
    assert coordinator.sigterm() == 0
    for daemon in [single, workers[survivor_node], coordinator]:
        daemon.await_group_exit()


def test_killed_worker_rejoins_and_receives_work(daemon_factory):
    """Death is not forever: a worker restarted under the same node id
    rejoins the fleet and is dispatched to again (pinning proves it)."""
    coordinator = daemon_factory("coord", "coordinator",
                                 heartbeat=0.25, dead_after=1.0)
    worker = daemon_factory("w1", "worker", join_url=coordinator.url)
    client = ServerClient(coordinator.url, timeout=30.0)
    wait_until(lambda: client.healthz()["nodes"]["alive"] == 1,
               message="worker to join")

    worker.sigkill()
    worker.await_group_exit()
    wait_until(lambda: client.healthz()["nodes"]["alive"] == 0,
               message="coordinator to notice the death")

    # Same node id, fresh process: a rejoin, not a new identity.
    reborn = daemon_factory("w1b", "worker", join_url=coordinator.url,
                            extra_args=("--node-id", "w1"))
    wait_until(lambda: client.healthz()["nodes"]["alive"] == 1,
               message="worker to rejoin")

    payload = dict(delay_payload(name="after-rejoin", delay=20),
                   pin_node="w1")
    record = wait_state(client, client.submit_payload(payload), "done",
                        timeout=60)
    assert record["node"] == "w1"
    assert record["result"]["result"]["equivalent"] is False

    nodes = {node["id"]: node
             for node in client.stats()["nodes"]["detail"]}
    assert nodes["w1"]["joins"] >= 2

    assert reborn.sigterm() == 0
    assert coordinator.sigterm() == 0
    reborn.await_group_exit()
    coordinator.await_group_exit()
