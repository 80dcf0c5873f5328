"""Coordinator membership and dispatch tests, in-process.

Fake nodes (registered over HTTP with unreachable URLs) exercise the
membership bookkeeping and the failure paths — dispatch-failure death,
heartbeat reaping, requeue-to-survivor — without subprocess daemons;
the real-SIGKILL end-to-end version lives in ``test_e2e_fleet.py``.
"""

import asyncio
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.client import ServerClient, ServerError
from repro.fleet import CoordinatorServer
from repro.fleet.ahttp import sse_events
from repro.server import VerifyServer

from ..server.helpers import spinner_payload
from .helpers import LoopThread, delay_payload, wait_state, wait_until

#: A port nothing listens on: RFC 2544 benchmark space, connect refused.
DEAD_URL = "http://127.0.0.1:9"


def api(url, method="GET", path="/", body=None):
    """Raw request helper; returns (status, payload-dict)."""
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url + path, data=data, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read() or b"{}")
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


@pytest.fixture
def coordinator(tmp_path):
    server = CoordinatorServer(
        port=0, store_dir=str(tmp_path / "cstore"),
        cache_dir=str(tmp_path / "ccache"),
        heartbeat_interval=0.1, dead_after=0.6, poll_interval=0.02,
        dispatch_timeout=1.0)
    with LoopThread(server):
        yield server


def test_membership_lifecycle(coordinator):
    url = coordinator.url()
    status, joined = api(url, "POST", "/v1/nodes",
                         {"id": "n1", "url": DEAD_URL})
    assert status == 200
    assert joined["heartbeat_interval"] == pytest.approx(0.1)
    assert joined["dead_after"] == pytest.approx(0.6)
    assert joined["cache_url"] == url  # the shared cache lives here

    status, listing = api(url, "GET", "/v1/nodes")
    assert status == 200
    assert [node["id"] for node in listing["nodes"]] == ["n1"]
    assert listing["nodes"][0]["alive"] is True

    status, _ = api(url, "POST", "/v1/nodes/n1/heartbeat", {})
    assert status == 200
    # An unknown node heartbeating gets 404: the rejoin signal.
    status, _ = api(url, "POST", "/v1/nodes/ghost/heartbeat", {})
    assert status == 404

    status, left = api(url, "DELETE", "/v1/nodes/n1")
    assert status == 200 and left["alive"] is False
    assert coordinator.alive_nodes() == []

    # Rejoining the same id revives it and counts the join.
    api(url, "POST", "/v1/nodes", {"id": "n1", "url": DEAD_URL})
    assert coordinator.nodes["n1"].alive is True
    assert coordinator.nodes["n1"].joins == 2


def test_heartbeat_reaper_declares_silent_node_dead(coordinator):
    api(coordinator.url(), "POST", "/v1/nodes",
        {"id": "silent", "url": DEAD_URL})
    assert coordinator.nodes["silent"].alive is True
    wait_until(lambda: not coordinator.nodes["silent"].alive,
               timeout=5, message="reaper to declare the node dead")
    # A late heartbeat from the reaped node revives it as a rejoin.
    status, _ = api(coordinator.url(), "POST",
                    "/v1/nodes/silent/heartbeat", {})
    assert status == 200
    assert coordinator.nodes["silent"].alive is True
    assert coordinator.nodes["silent"].joins == 2


def test_pin_to_unknown_node_is_rejected(coordinator):
    client = ServerClient(coordinator.url(), timeout=10)
    payload = dict(delay_payload(delay=10), pin_node="nowhere")
    with pytest.raises(ServerError) as excinfo:
        client.submit_payload(payload)
    assert excinfo.value.status == 400


def test_unreachable_node_dies_on_dispatch_and_survivor_takes_over(
        coordinator, tmp_path):
    """A job dispatched to a dead-on-arrival node is requeued, the node
    is declared dead, and a live worker joining later completes it."""
    url = coordinator.url()
    api(url, "POST", "/v1/nodes", {"id": "doa", "url": DEAD_URL})
    client = ServerClient(url, timeout=30)
    job_id = client.submit_payload(delay_payload(name="takeover", delay=30))

    # The dispatch attempt kills the fake node; the job never left the
    # queue (no requeue needed — it was never placed anywhere).
    wait_until(lambda: not coordinator.nodes["doa"].alive,
               timeout=5, message="dispatch failure to kill the node")
    record = client.job(job_id)
    assert record["state"] == "queued"
    assert record["requeues"] == 0
    assert coordinator.dispatch_failures >= 1

    # A real worker joins; the queued job drains to it.
    worker = VerifyServer(
        port=0, workers=2, poll_interval=0.02,
        store_dir=str(tmp_path / "w" / "store"), cache_dir=None,
        node_id="real", join_url=url, heartbeat_interval=0.1,
        trusted_proxies=("127.0.0.1",))
    with LoopThread(worker):
        record = wait_state(client, job_id, "done", timeout=60)
        assert record["node"] == "real"
        assert record["result"]["result"]["equivalent"] is False

    stats = client.stats()
    assert stats["jobs"]["done"] == 1


def test_submissions_carry_forwarded_client_to_workers(coordinator,
                                                       tmp_path):
    """The worker sees the real client behind the coordinator, not the
    coordinator itself (the proxied submission carries X-Forwarded-For
    and the worker trusts the coordinator's peer address)."""
    url = coordinator.url()
    worker = VerifyServer(
        port=0, workers=2, poll_interval=0.02,
        store_dir=str(tmp_path / "w" / "store"), cache_dir=None,
        node_id="w", join_url=url, heartbeat_interval=0.1,
        trusted_proxies=("127.0.0.1",))
    with LoopThread(worker):
        client = ServerClient(url, timeout=30)
        wait_until(lambda: client.healthz()["nodes"]["alive"] == 1,
                   message="worker to join")
        job_id = client.submit_payload(delay_payload(name="fwd", delay=10))
        wait_state(client, job_id, "done", timeout=60)
        records = list(worker.store.all())
        assert len(records) == 1
        # Loopback tests can't fake a distinct source IP, but the worker
        # record's client must be the coordinator-forwarded identity —
        # i.e. the peer the *coordinator* saw, proving the header path
        # ran (test_xff.py proves distinct identities get distinct
        # rate-limit buckets).
        coordinator_record = coordinator.store.get(job_id)
        assert records[0].client == coordinator_record.client == "127.0.0.1"


def event_types(client, job_id):
    """The job's replayed event types, ending with the ``done`` frame."""
    return [event["type"] for event in client.events(job_id, timeout=30)]


def test_cancel_emits_one_job_cancelled_queued_or_dispatched(coordinator,
                                                             tmp_path):
    """Cancelling a job still queued on the coordinator emits
    ``job_cancelled`` there; cancelling a dispatched, running job relays
    the worker's ``job_cancelled`` and the coordinator adds none."""
    url = coordinator.url()
    client = ServerClient(url, timeout=30)
    queued_id = client.submit_payload(delay_payload(name="queued", delay=10))
    assert client.cancel(queued_id)["state"] == "cancelled"
    types = event_types(client, queued_id)
    assert types == ["job_submitted", "job_cancelled", "done"]

    worker = VerifyServer(
        port=0, workers=1, poll_interval=0.02,
        store_dir=str(tmp_path / "w" / "store"), cache_dir=None,
        node_id="w", join_url=url, heartbeat_interval=0.1,
        trusted_proxies=("127.0.0.1",))
    with LoopThread(worker):
        wait_until(lambda: client.healthz()["nodes"]["alive"] == 1,
                   message="worker to join")
        running_id = client.submit_payload(spinner_payload("running"))
        on_worker = ServerClient(worker.url(), timeout=30)
        wait_until(lambda: [job for job in on_worker.jobs()
                            if job["state"] == "running"],
                   message="the worker to start the job")
        client.cancel(running_id)
        wait_state(client, running_id, "cancelled", timeout=60)
        types = event_types(client, running_id)
    assert types.count("job_cancelled") == 1
    assert types[-1] == "done"


def test_refused_dispatch_finishes_with_an_error_event(coordinator):
    """A node that answers dispatch with an error status fails the job,
    and that terminal transition emits ``job_finished`` with the error.
    The node URL here has no job API behind it, so every POST is a 404."""
    url = coordinator.url()
    api(url, "POST", "/v1/nodes", {"id": "refuser", "url": url + "/no-api"})
    client = ServerClient(url, timeout=30)
    job_id = client.submit_payload(delay_payload(name="refused", delay=10))
    record = wait_state(client, job_id, "error", timeout=30)
    assert "rejected dispatch" in record["error"]
    events = list(client.events(job_id, timeout=30))
    finished = [event for event in events if event["type"] == "job_finished"]
    assert len(finished) == 1
    assert finished[0]["data"]["error"] == record["error"]
    assert events[-1]["type"] == "done"


def test_sse_reader_takes_an_event_longer_than_64_kib():
    """A ``done`` frame carries the whole job record, long traces and all,
    on one ``data:`` line: the relay must read it, not die on it."""
    record = {"trace": ["x" * 100] * 2000}  # about 200 KiB of JSON

    async def serve(reader, writer):
        await reader.readuntil(b"\r\n\r\n")
        writer.write(b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream"
                     b"\r\n\r\nevent: done\ndata: "
                     + json.dumps(record).encode() + b"\n\n")
        await writer.drain()
        writer.close()

    async def read_all():
        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            return [event async for event in sse_events(
                "http://127.0.0.1:{}/".format(port), read_timeout=10)]
        finally:
            server.close()
            await server.wait_closed()

    assert asyncio.run(read_all()) == [("done", record)]
