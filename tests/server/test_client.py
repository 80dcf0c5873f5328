"""Client-side tests: retry/backoff against a stub server, the
``RemoteScheduler`` adapter against a real in-process daemon."""

import http.server
import json
import threading
import time

import pytest

from repro.client import (RemoteScheduler, ServerClient, ServerError,
                          job_payload, remote_job_result)
from repro.service.events import EventBus, JOB_FINISHED, JOB_QUEUED
from repro.service.job import JobSpec

from .helpers import ServerThread, tiny_pair


class StubHandler(http.server.BaseHTTPRequestHandler):
    """Serves a scripted list of (status, headers, body) responses.

    A dict body is sent as JSON.  A ``bytes`` body is sent as an event
    stream that ends when the connection closes; a callable body is
    handed the socket's writer and writes the stream itself.
    """

    script = []
    requests = []

    def _respond(self):
        type(self).requests.append((self.command, self.path))
        if type(self).script:
            status, headers, body = type(self).script.pop(0)
        else:
            status, headers, body = 200, {}, {"ok": True}
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        if isinstance(body, dict):
            payload = json.dumps(body).encode()
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
            return
        self.send_header("Content-Type", "text/event-stream")
        self.end_headers()
        if callable(body):
            body(self.wfile)
        else:
            self.wfile.write(body)

    do_GET = _respond
    do_POST = _respond
    do_DELETE = _respond

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    StubHandler.script = []
    StubHandler.requests = []
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield "http://127.0.0.1:{}".format(server.server_address[1])
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()


def make_client(url, **kwargs):
    delays = []
    kwargs.setdefault("retries", 3)
    kwargs.setdefault("backoff", 0.125)
    client = ServerClient(url, sleep=delays.append, **kwargs)
    return client, delays


def test_retries_5xx_then_succeeds(stub_server):
    StubHandler.script = [
        (503, {}, {"error": "warming up"}),
        (500, {}, {"error": "hiccup"}),
        (200, {}, {"status": "ok"}),
    ]
    client, delays = make_client(stub_server)
    assert client.healthz() == {"status": "ok"}
    assert len(delays) == 2
    assert delays[1] > delays[0]  # exponential


def test_retry_after_header_is_honoured(stub_server):
    StubHandler.script = [
        (429, {"Retry-After": "3"}, {"error": "queue full"}),
        (200, {}, {"status": "ok"}),
    ]
    client, delays = make_client(stub_server)
    assert client.healthz() == {"status": "ok"}
    assert delays == [3.0]


def test_non_retryable_status_raises_immediately(stub_server):
    StubHandler.script = [(404, {}, {"error": "no such job"})]
    client, delays = make_client(stub_server)
    with pytest.raises(ServerError) as excinfo:
        client.job("j-missing")
    assert excinfo.value.status == 404
    assert "no such job" in str(excinfo.value)
    assert delays == []
    assert len(StubHandler.requests) == 1


def test_exhausted_retries_surface_last_error(stub_server):
    StubHandler.script = [(503, {}, {"error": "down"})] * 4
    client, delays = make_client(stub_server, retries=3)
    with pytest.raises(ServerError) as excinfo:
        client.healthz()
    assert excinfo.value.status == 503
    assert len(delays) == 3
    assert len(StubHandler.requests) == 4


def test_connection_refused_is_retried_then_raised():
    client, delays = make_client("http://127.0.0.1:9", retries=2)
    with pytest.raises(ServerError) as excinfo:
        client.healthz()
    assert excinfo.value.status is None
    assert len(delays) == 2


def test_backoff_is_capped():
    client, _ = make_client("http://127.0.0.1:9", backoff=1.0,
                            backoff_cap=2.5)
    assert client._delay(0, None) == 1.0
    assert client._delay(1, None) == 2.0
    assert client._delay(5, None) == 2.5
    assert client._delay(0, "10") == 10.0
    assert client._delay(0, "garbage") == 1.0


def sse(*frames):
    """An event-stream body of ``(event type, payload)`` frames."""
    return "".join(
        "event: {}\ndata: {}\n\n".format(kind, json.dumps(payload))
        for kind, payload in frames).encode()


def test_wait_gets_past_a_non_terminal_done_and_dropped_streams(stub_server):
    """A stopping daemon sends ``done`` with the job requeued, and a stream
    can end without ``done`` or in the middle of a frame.  Each time the
    record is fetched once and the stream reopened; the reopened streams
    replay the history, and ``on_event`` sees each event once."""
    events = [{"ts": float(ts), "type": kind, "job": "j1", "data": {}}
              for ts, kind in enumerate(("job_submitted", "job_started",
                                         "job_finished"))]
    history = sse(*((e["type"], e) for e in events[:2]))
    StubHandler.script = [
        (200, {}, history + sse(("done", {"id": "j1", "state": "queued"}))),
        (200, {}, {"id": "j1", "state": "queued"}),
        (200, {}, history),
        (200, {}, {"id": "j1", "state": "running"}),
        (200, {}, history + b'data: {"ts": 2.0, "ty'),
        (200, {}, {"id": "j1", "state": "running"}),
        (200, {}, sse(*((e["type"], e) for e in events))
         + sse(("done", {"id": "j1", "state": "done"}))),
    ]
    client, delays = make_client(stub_server)
    seen = []
    record = client.wait("j1", timeout=60, on_event=seen.append)
    assert record == {"id": "j1", "state": "done"}
    assert seen == events
    assert StubHandler.requests == [
        ("GET", "/v1/jobs/j1/events"), ("GET", "/v1/jobs/j1")] * 3 + [
        ("GET", "/v1/jobs/j1/events")]
    assert delays == []


def test_wait_times_out_within_a_heartbeat_of_its_deadline(stub_server):
    """A daemon sends heartbeat comments to a quiet stream, which the SSE
    parser skips; the deadline is checked on each of them."""

    def heartbeats(wfile):
        try:
            for _ in range(100):
                wfile.write(b": keep-alive\n\n")
                time.sleep(0.1)
        except OSError:
            pass  # the client hung up

    StubHandler.script = [(200, {}, heartbeats)]
    client, _ = make_client(stub_server)
    start = time.monotonic()
    with pytest.raises(ServerError, match="timed out waiting for job j1"):
        client.wait("j1", timeout=0.5)
    assert 0.5 <= time.monotonic() - start < 1.2
    assert StubHandler.requests == [("GET", "/v1/jobs/j1/events")]


def test_remote_job_result_mapping():
    record = {
        "name": "tiny", "state": "done", "cached": True, "error": None,
        "result": {"name": "j001", "method": "sat_sweep", "cached": False,
                   "attempts": 1, "wall_seconds": 0.5, "error": None,
                   "result": {"equivalent": True, "method": "sat_sweep",
                              "seconds": 0.4, "iterations": 2}},
    }
    result = remote_job_result(record)
    assert result.name == "tiny"          # display name wins over job id
    assert result.cached is True          # server-side cache hit propagates
    assert result.verdict is True

    errored = {"name": "bad", "state": "error", "error": "worker crashed",
               "result": None, "cached": False}
    result = remote_job_result(errored)
    assert result.result is None
    assert result.error == "worker crashed"
    assert result.verdict is None


def test_remote_scheduler_runs_batch(tmp_path):
    spec, impl = tiny_pair()
    jobs = [
        JobSpec("tiny-a", spec, impl, method="sat_sweep",
                match_outputs="order"),
        JobSpec("tiny-b", spec, impl, method="bmc",
                options={"max_depth": 3}, match_outputs="order"),
    ]
    events = []
    bus = EventBus()
    bus.subscribe(events.append)
    with ServerThread(store_dir=tmp_path, workers=2) as server:
        scheduler = RemoteScheduler(server.url(), bus=bus)
        assert scheduler.run([]) == []
        results = scheduler.run(jobs)

    assert [r.name for r in results] == ["tiny-a", "tiny-b"]
    assert results[0].verdict is True
    assert results[1].verdict is None  # BMC can only refute; depth 3 passes
    assert results[1].error is None

    queued = [e for e in events if e.type == JOB_QUEUED]
    finished = [e for e in events if e.type == JOB_FINISHED]
    assert {e.job for e in queued} == {"tiny-a", "tiny-b"}
    assert {e.job for e in finished} == {"tiny-a", "tiny-b"}
    assert all(e.data.get("remote") for e in queued + finished)


def test_remote_scheduler_waits_on_one_event_stream_per_job(tmp_path):
    """Two submission requests for ten jobs, then one event stream per job
    in submission order, and no request for a job's record: every stream
    ends in a terminal ``done`` frame."""
    spec, impl = tiny_pair()
    jobs = [JobSpec("tiny-{}".format(i), spec, impl, method="sat_sweep",
                    match_outputs="order") for i in range(10)]
    requests = []
    with ServerThread(store_dir=tmp_path, workers=2) as server:
        route = server._route

        async def counted(request, writer):
            requests.append((request.method, request.path))
            return await route(request, writer)

        server._route = counted
        results = RemoteScheduler(server.url()).run(jobs)
        ids = [record.id for record in server.store.all()]

    assert [r.verdict for r in results] == [True] * 10
    assert requests == [("POST", "/v1/jobs")] * 2 + [
        ("GET", "/v1/jobs/{}/events".format(job_id)) for job_id in ids]


def test_job_payload_roundtrip():
    spec, impl = tiny_pair()
    payload = job_payload(spec, impl, method="sat_sweep",
                          options={"time_limit": 5})
    assert payload["name"] == spec.name
    assert "INPUT" in payload["spec_bench"]
    assert payload["match_outputs"] == "order"
    assert payload["options"] == {"time_limit": 5}
