"""In-process daemon tests: real sockets, real worker processes.

The server runs on a background thread (:class:`helpers.ServerThread`)
while the test drives it synchronously through :class:`ServerClient`.
"""

import asyncio
import concurrent.futures
import os
import socket
import time

import pytest

from repro.client import ServerClient, ServerError, job_payload
from repro.fleet import CoordinatorServer
from repro.server import validate_payload, HttpError
from repro.service import register_method, unregister_method

from ..fleet.helpers import LoopThread, wait_until
from ..service.helpers import stubborn
from .helpers import ServerThread, spinner_payload, tiny_pair


def client_for(server, **kwargs):
    kwargs.setdefault("retries", 0)
    kwargs.setdefault("timeout", 10.0)
    return ServerClient(server.url(), **kwargs)


# -- payload validation (no server needed) ----------------------------------

def test_validate_rejects_unknown_method():
    with pytest.raises(HttpError) as excinfo:
        validate_payload({"suite": "s386", "method": "magic"})
    assert excinfo.value.status == 400


def test_validate_requires_exactly_one_source():
    with pytest.raises(HttpError):
        validate_payload({"method": "sat_sweep"})  # neither
    with pytest.raises(HttpError):
        validate_payload({"suite": "s386", "spec_bench": "x",
                          "impl_bench": "y"})  # both


def test_validate_rejects_unknown_suite_row():
    with pytest.raises(HttpError) as excinfo:
        validate_payload({"suite": "no_such_circuit"})
    assert excinfo.value.status == 400
    assert "no_such_circuit" in excinfo.value.message


@pytest.mark.parametrize("method, key", [
    ("sat_sweep", "refine_workers"),
    ("sat_sweep", "refine_batch"),
    ("sat_sweep", "sim_backend"),
    ("fraig_sweep", "race_workers"),
    ("sat_sweep", "preprocess"),
    ("van_eijk", "preprocess_seed"),
    ("bmc", "fraig_frames"),
    ("bmc", "fraig_seed"),
    ("fraig_sweep", "conflict_budget"),
    ("van_eijk", "refinement"),
])
def test_validate_rejects_removed_option(method, key):
    with pytest.raises(HttpError) as excinfo:
        validate_payload({"suite": "s386", "method": method,
                          "options": {key: 2}})
    assert excinfo.value.status == 400
    assert repr(key) in excinfo.value.message
    assert repr(method) in excinfo.value.message


def test_validate_rejects_misspelled_option():
    with pytest.raises(HttpError) as excinfo:
        validate_payload({"suite": "s386", "method": "bmc",
                          "options": {"max_dpeth": 4}})
    assert excinfo.value.status == 400
    assert "'max_dpeth'" in excinfo.value.message
    assert "'bmc'" in excinfo.value.message


def test_validate_accepts_forwarded_options():
    """fraig_sweep forwards sat_sweep keywords."""
    validate_payload({"suite": "s386", "method": "fraig_sweep",
                      "options": {"k": 2, "sim_frames": 4}})
    validate_payload({"suite": "s386", "method": "k_induction",
                      "options": {"max_depth": 4, "strengthen": False}})
    with pytest.raises(HttpError):
        validate_payload({"suite": "s386", "method": "sat_sweep",
                          "options": {"conflict_budget": 10}})
    with pytest.raises(HttpError):  # run_job passes this one itself
        validate_payload({"suite": "s386", "method": "sat_sweep",
                          "options": {"progress": None}})


def test_validate_normalizes_defaults():
    normalized = validate_payload({"suite": "s386"})
    assert normalized["name"] == "s386"
    assert normalized["method"] == "van_eijk"
    assert normalized["match_outputs"] == "order"
    assert normalized["optimize_level"] == 2


# -- the live daemon --------------------------------------------------------

def test_submit_bench_pair_to_verdict(tmp_path):
    spec, impl = tiny_pair()
    with ServerThread(store_dir=tmp_path, workers=1) as server:
        client = client_for(server)
        assert client.healthz()["status"] == "ok"
        job_id = client.submit(spec, impl, name="tiny", method="sat_sweep")
        record = client.wait(job_id, timeout=60)
        assert record["state"] == "done"
        assert record["result"]["result"]["equivalent"] is True
        assert record["cached"] is False
        # the payload in the public record is redacted
        assert "chars" in record["payload"]["spec_bench"]

        result = client.result(job_id)
        assert result.verdict is True
        assert result.result.equivalent is True


def test_submit_k_induction_job(tmp_path):
    spec, impl = tiny_pair()
    with ServerThread(store_dir=tmp_path, workers=1) as server:
        client = client_for(server)
        job_id = client.submit(spec, impl, name="tiny-kind",
                               method="k_induction",
                               options={"max_depth": 8})
        record = client.wait(job_id, timeout=60)
        assert record["state"] == "done"
        result = record["result"]["result"]
        assert result["equivalent"] is True
        assert result["method"] == "k_induction"
        assert result["details"]["solver_stats"]["solver_constructions"] == 1


def test_cache_serves_repeat_submissions(tmp_path):
    spec, impl = tiny_pair()
    with ServerThread(store_dir=tmp_path / "store",
                      cache_dir=str(tmp_path / "cache"),
                      workers=1) as server:
        client = client_for(server)
        first = client.submit(spec, impl, name="tiny", method="sat_sweep")
        assert client.wait(first, timeout=60)["cached"] is False
        second = client.submit(spec, impl, name="tiny-again",
                               method="sat_sweep")
        record = client.wait(second, timeout=60)
        assert record["state"] == "done"
        assert record["cached"] is True
        assert record["result"]["result"]["equivalent"] is True

        stats = client.stats()
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["hit_rate"] > 0


def test_submit_suite_row_and_sse_stream(tmp_path):
    with ServerThread(store_dir=tmp_path, workers=1) as server:
        client = client_for(server)
        job_id = client.submit_suite("s386", method="sat_sweep")
        record = client.wait(job_id, timeout=120)
        assert record["state"] == "done"
        assert record["result"]["result"]["equivalent"] is True

        # Replay the finished job's stream: history then the done event.
        events = list(client.events(job_id))
        types = [e["type"] for e in events]
        assert types[0] == "job_submitted"
        assert "job_started" in types
        assert any(e["type"] == "job_progress"
                   and e.get("data", {}).get("kind") == "refinement_round"
                   for e in events)
        assert types[-1] == "done"
        assert events[-1]["record"]["state"] == "done"


def test_submit_with_removed_option_gets_400_not_a_dead_job(tmp_path):
    """An older client sending a removed knob is refused at submit with a
    message naming the key; nothing is queued or forked."""
    spec, impl = tiny_pair()
    with ServerThread(store_dir=tmp_path, workers=1) as server:
        client = client_for(server)
        with pytest.raises(ServerError) as excinfo:
            client.submit(spec, impl, name="tiny", method="sat_sweep",
                          options={"refine_workers": 2})
        assert excinfo.value.status == 400
        assert "refine_workers" in str(excinfo.value)
        assert client.jobs() == []


def test_http_errors(tmp_path):
    with ServerThread(store_dir=tmp_path) as server:
        client = client_for(server)
        with pytest.raises(ServerError) as excinfo:
            client._request("GET", "/v1/nowhere")
        assert excinfo.value.status == 404
        with pytest.raises(ServerError) as excinfo:
            client.job("j-unknown")
        assert excinfo.value.status == 404
        with pytest.raises(ServerError) as excinfo:
            client._request("DELETE", "/v1/stats")
        assert excinfo.value.status == 405
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/v1/jobs", body={"method": "nope"})
        assert excinfo.value.status == 400
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/v1/jobs", body={"jobs": []})
        assert excinfo.value.status == 400


def test_queue_backpressure_429(tmp_path):
    with ServerThread(store_dir=tmp_path, queue_limit=2) as server:
        client = client_for(server)
        payloads = [spinner_payload("spin-{}".format(i)) for i in range(3)]
        with pytest.raises(ServerError) as excinfo:
            client.submit_payloads(payloads)
        assert excinfo.value.status == 429
        # under the limit is fine
        ids = client.submit_payloads(payloads[:2])
        assert len(ids) == 2
        for job_id in ids:
            client.cancel(job_id)


def test_cancel_queued_and_running(tmp_path):
    with ServerThread(store_dir=tmp_path, workers=1) as server:
        client = client_for(server)
        running_id = client.submit_payload(spinner_payload("running"))
        queued_id = client.submit_payload(spinner_payload("queued"))

        # Wait until the first spinner occupies the only worker.
        deadline_poll = 0
        while client.job(running_id)["state"] != "running":
            deadline_poll += 1
            assert deadline_poll < 600, "spinner never started"
            client.sleep(0.05)
        assert client.job(queued_id)["state"] == "queued"

        # Cancelling a queued job is immediate.
        response = client.cancel(queued_id)
        assert response["state"] == "cancelled"
        assert client.job(queued_id)["state"] == "cancelled"

        # Cancelling the running job goes SIGTERM -> cooperative cancel.
        response = client.cancel(running_id)
        assert response["state"] == "cancelling"
        record = client.wait(running_id, timeout=60)
        assert record["state"] == "cancelled"
        assert record["result"]["result"]["equivalent"] is None

        # Cancelling a terminal job is a no-op, not an error.
        response = client.cancel(running_id)
        assert response["detail"] == "already terminal"


def test_time_budget_kill_is_final(tmp_path):
    """A job stuck past job_time_limit + 2·grace is killed, ends in error
    and is not requeued (registered runners take precedence over the
    built-in engine of the same name)."""
    register_method("bmc", stubborn)
    try:
        with ServerThread(store_dir=tmp_path, workers=1, job_time_limit=0.3,
                          grace=0.3, retries=1) as server:
            client = client_for(server)
            job_id = client.submit_payload(spinner_payload())
            record = client.wait(job_id, timeout=10)
    finally:
        unregister_method("bmc")
    assert record["state"] == "error"
    assert record["requeues"] == 0
    assert "job time budget exhausted" in record["error"]


def test_crashed_worker_is_requeued_once(tmp_path):
    def crash(job, progress, cancel_check):
        os._exit(3)

    register_method("k_induction", crash)
    try:
        with ServerThread(store_dir=tmp_path, workers=1, retries=1) as server:
            client = client_for(server)
            spec, impl = tiny_pair()
            job_id = client.submit(spec, impl, name="crashy",
                                   method="k_induction")
            record = client.wait(job_id, timeout=10)
    finally:
        unregister_method("k_induction")
    assert record["state"] == "error"
    assert record["requeues"] == 1
    assert "exit code 3" in record["error"]


def test_rate_limit_429(tmp_path):
    with ServerThread(store_dir=tmp_path, rate=0.001, burst=2) as server:
        client = client_for(server)
        client.stats()
        client.stats()
        with pytest.raises(ServerError) as excinfo:
            client.stats()
        assert excinfo.value.status == 429
        # healthz is never throttled
        assert client.healthz()["status"] == "ok"
        assert server.limiter.rejected >= 1


def test_stats_shape(tmp_path):
    """Both roles publish one schema: the shared keys are identical and
    each role adds only its own sections."""
    coordinator = CoordinatorServer(port=0, store_dir=str(tmp_path / "coord"),
                                    cache_dir=str(tmp_path / "coord-cache"),
                                    poll_interval=0.01)
    with LoopThread(coordinator), ServerThread(
            store_dir=tmp_path, workers=1, cache_dir=str(tmp_path / "cache"),
            join_url=coordinator.url(), heartbeat_interval=0.1,
            trusted_proxies=("127.0.0.1",)) as server:
        client = client_for(server)
        spec, impl = tiny_pair()
        job_id = client.submit(spec, impl, name="tiny", method="sat_sweep")
        client.wait(job_id, timeout=60)
        stats = client.stats()
        assert stats["jobs"]["done"] == 1
        assert stats["workers"]["total"] == 1
        assert stats["queue_limit"] == 64
        assert stats["events"]["published"] > 0
        assert isinstance(stats["solver_stats"], dict)
        assert stats["role"] == "worker"

        # The same job through the coordinator (the worker's cache serves
        # it); the coordinator sums the solver stats of what it absorbs.
        fleet = client_for(coordinator)
        wait_until(lambda: fleet.healthz()["nodes"]["alive"] == 1,
                   message="worker to join")
        fleet.wait(fleet.submit(spec, impl, name="tiny", method="sat_sweep"),
                   timeout=60)
        fleet_stats = fleet.stats()
    assert fleet_stats["role"] == "coordinator"
    assert fleet_stats["jobs"]["done"] == 1
    assert (fleet_stats["solver_stats"]["sat_queries"]
            == stats["solver_stats"]["sat_queries"] > 0)
    shared = set(stats) - {"workers"}
    assert shared == set(fleet_stats) - {"nodes", "requeues",
                                         "dispatch_failures", "tails"}
    assert shared == {"role", "uptime_seconds", "jobs", "queue_limit",
                      "cache", "events", "rate_limit", "solver_stats"}
    for key in ("jobs", "cache", "events", "rate_limit"):
        assert set(stats[key]) == set(fleet_stats[key]), key
    assert "hit_rate" in fleet_stats["cache"]


def test_job_listing(tmp_path):
    spec, impl = tiny_pair()
    with ServerThread(store_dir=tmp_path, workers=1) as server:
        client = client_for(server)
        job_id = client.submit(spec, impl, name="tiny", method="sat_sweep")
        client.wait(job_id, timeout=60)
        jobs = client.jobs()
        assert [j["id"] for j in jobs] == [job_id]
        assert jobs[0]["name"] == "tiny"
        assert jobs[0]["state"] == "done"


def test_restart_resumes_persisted_queue(tmp_path):
    """Queued jobs survive a stop/start cycle of the daemon."""
    payload = validate_payload(job_payload(*tiny_pair(), name="later",
                                           method="sat_sweep"))
    with ServerThread(store_dir=tmp_path, workers=1) as server:
        client = client_for(server)
        spinner_id = client.submit_payload(spinner_payload())
        later_id = client.submit_payload(payload)
        while client.job(spinner_id)["state"] != "running":
            client.sleep(0.05)
        assert client.job(later_id)["state"] == "queued"
    # Graceful stop re-queues the running spinner on disk.

    with ServerThread(store_dir=tmp_path, workers=1) as server:
        client = client_for(server)
        record = client.job(spinner_id)
        assert record["requeues"] >= 1
        # Don't let the spinner hog the worker: cancel it, then the
        # surviving queued job runs to a verdict.
        client.cancel(spinner_id)
        client.wait(spinner_id, timeout=60)
        record = client.wait(later_id, timeout=60)
        assert record["state"] == "done"
        assert record["result"]["result"]["equivalent"] is True


def test_stop_returns_while_a_client_holds_an_idle_connection(tmp_path):
    """Since Python 3.12.1 ``asyncio.Server.wait_closed()`` waits for every
    open connection, so ``stop()`` must end the connections before it
    waits on the listener."""
    thread = ServerThread(store_dir=tmp_path, workers=1)
    with thread as server, socket.create_connection(
            ("127.0.0.1", server.port), timeout=10):
        wait_until(lambda: server._connections, timeout=10,
                   message="the idle connection to be accepted")
        stopping = asyncio.run_coroutine_threadsafe(server.stop(),
                                                    thread.loop)
        try:
            stopping.result(timeout=2)
        except concurrent.futures.TimeoutError:
            pytest.fail("stop() still waiting 2 s after it was called")


def test_an_idle_daemon_does_not_spin(tmp_path):
    """Nothing wakes the pump of a daemon without jobs: it steps once when
    it starts, then sleeps."""
    thread = ServerThread(store_dir=tmp_path, workers=1)
    server = thread.server
    pump_once = server._pump_once
    steps = []

    async def counted():
        steps.append(time.monotonic())
        await pump_once()

    server._pump_once = counted
    with thread:
        time.sleep(0.5)
        idle_steps = len(steps)
    assert idle_steps <= 2


def test_a_stream_ends_at_done_though_a_worker_forked_during_it_lives_on(
        tmp_path):
    """A worker forked while a client reads an SSE stream keeps none of the
    daemon's sockets, so the stream's end of file follows its ``done``
    frame, not that worker's exit."""
    with ServerThread(store_dir=tmp_path, workers=2) as server:
        client = client_for(server)
        watched = client.submit_payload(spinner_payload("watched"))
        wait_until(lambda: client.job(watched)["state"] == "running",
                   timeout=30, message="the watched job to start")
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5) as stream:
            stream.sendall("GET /v1/jobs/{}/events HTTP/1.1\r\n"
                           "Host: 127.0.0.1\r\n\r\n".format(watched).encode())
            received = b""
            while b"job_started" not in received:
                received += stream.recv(65536)
            # The other worker is forked now, and stays idle afterwards.
            spec, impl = tiny_pair()
            other = client.submit(spec, impl, name="other",
                                  method="sat_sweep")
            assert client.wait(other, timeout=60)["state"] == "done"
            client.cancel(watched)
            done_at = None
            try:
                while True:
                    chunk = stream.recv(65536)
                    if not chunk:
                        break
                    received += chunk
                    if done_at is None and b"event: done" in received:
                        done_at = time.monotonic()
            except socket.timeout:
                pytest.fail("no end of file 5 s after the last frame")
            ended_at = time.monotonic()
    assert done_at is not None
    assert ended_at - done_at < 2.0
