"""Client-side tests: retry/backoff against a stub server, the
``RemoteScheduler`` adapter against a real in-process daemon."""

import http.server
import json
import threading

import pytest

from repro.client import (RemoteScheduler, ServerClient, ServerError,
                          job_payload, remote_job_result)
from repro.service.events import EventBus, JOB_FINISHED, JOB_QUEUED
from repro.service.job import JobSpec

from .helpers import ServerThread, tiny_pair


class StubHandler(http.server.BaseHTTPRequestHandler):
    """Serves a scripted list of (status, headers, body) responses."""

    script = []
    requests = []

    def _respond(self):
        type(self).requests.append((self.command, self.path))
        if type(self).script:
            status, headers, body = type(self).script.pop(0)
        else:
            status, headers, body = 200, {}, {"ok": True}
        payload = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

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
        scheduler = RemoteScheduler(server.url(), bus=bus, poll=0.05)
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


def test_job_payload_roundtrip():
    spec, impl = tiny_pair()
    payload = job_payload(spec, impl, method="sat_sweep",
                          options={"time_limit": 5})
    assert payload["name"] == spec.name
    assert "INPUT" in payload["spec_bench"]
    assert payload["match_outputs"] == "order"
    assert payload["options"] == {"time_limit": 5}
