"""Remote client for the verification daemon (:mod:`repro.server`).

:class:`ServerClient` is a thin stdlib-only (``urllib``) HTTP client with
retry/backoff: transient failures — connection errors, 5xx responses and
``429`` rate-limit/backpressure rejections (honouring ``Retry-After``) —
are retried with exponential backoff before surfacing as
:class:`ServerError`.  :meth:`ServerClient.events` iterates a job's
Server-Sent-Events progress stream as live
:class:`~repro.service.events.Event` dicts, and :meth:`ServerClient.wait`
reads that stream to the job's terminal record: a client learns a verdict
when the daemon sends it, not at its next poll.

:class:`RemoteScheduler` adapts the client to the
:class:`~repro.service.scheduler.BatchScheduler` interface (``run(jobs) ->
[JobResult]``), so anything built on the local scheduler — the fuzz
harness, ``eval/table1.py``, ``repro-sec batch`` — can target a remote
daemon unchanged via ``--server URL``.
"""

import http.client
import json
import time
import urllib.error
import urllib.request

from .errors import ReproError
from .netlist import bench
from .server.httpd import parse_sse_stream
from .service.events import (
    EventBus,
    JOB_CACHED,
    JOB_FINISHED,
    JOB_QUEUED,
)
from .service.job import JobResult

#: HTTP statuses worth retrying: backpressure and transient server trouble.
_RETRYABLE_STATUSES = (429, 500, 502, 503, 504)

#: Job states that end a job; any other state may still change.
_TERMINAL_STATES = ("done", "cancelled", "error")

#: Jobs per submission request of :class:`RemoteScheduler`.
CHUNK_SIZE = 8


class ServerError(ReproError):
    """A request that failed after exhausting retries."""

    def __init__(self, message, status=None):
        super(ServerError, self).__init__(message)
        self.status = status


def job_payload(spec, impl, name=None, method="van_eijk", options=None,
                match_inputs="name", match_outputs="order", tags=None):
    """Serialize a circuit pair into a daemon submission payload."""
    return {
        "name": name or spec.name or "job",
        "spec_bench": bench.dumps(spec),
        "impl_bench": bench.dumps(impl),
        "method": method,
        "options": dict(options or {}),
        "match_inputs": match_inputs,
        "match_outputs": match_outputs,
        "tags": dict(tags or {}),
    }


class ServerClient:
    """One daemon endpoint; every method retries transient failures."""

    def __init__(self, base_url, timeout=30.0, retries=4, backoff=0.25,
                 backoff_cap=4.0, sleep=time.sleep):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.sleep = sleep

    # -- transport ----------------------------------------------------------

    def _request(self, method, path, body=None, stream=False, timeout=None):
        url = self.base_url + path
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        last_error = None
        for attempt in range(self.retries + 1):
            request = urllib.request.Request(url, data=data,
                                             headers=dict(headers),
                                             method=method)
            try:
                response = urllib.request.urlopen(
                    request, timeout=self.timeout if timeout is None
                    else timeout)
                if stream:
                    return response
                with response:
                    payload = response.read()
                return json.loads(payload.decode("utf-8")) if payload else {}
            except urllib.error.HTTPError as exc:
                detail = self._error_detail(exc)
                if exc.code not in _RETRYABLE_STATUSES:
                    raise ServerError("{} {} -> {}: {}".format(
                        method, path, exc.code, detail), status=exc.code)
                last_error = ServerError("{} {} -> {}: {}".format(
                    method, path, exc.code, detail), status=exc.code)
                delay = self._delay(attempt, exc.headers.get("Retry-After"))
            except (urllib.error.URLError, ConnectionError, OSError,
                    ValueError) as exc:
                last_error = ServerError("{} {} failed: {}".format(
                    method, path, exc))
                delay = self._delay(attempt, None)
            if attempt < self.retries:
                self.sleep(delay)
        raise last_error

    @staticmethod
    def _error_detail(exc):
        try:
            payload = exc.read().decode("utf-8")
            return json.loads(payload).get("error", payload)
        except Exception:
            return exc.reason

    def _delay(self, attempt, retry_after):
        delay = min(self.backoff_cap, self.backoff * (2 ** attempt))
        if retry_after:
            try:
                delay = max(delay, float(retry_after))
            except ValueError:
                pass
        return delay

    # -- API ----------------------------------------------------------------

    def healthz(self):
        return self._request("GET", "/v1/healthz")

    def stats(self):
        return self._request("GET", "/v1/stats")

    def submit_payload(self, payload):
        """Submit one raw payload dict; returns the job id."""
        return self._request("POST", "/v1/jobs", body=payload)["id"]

    def submit_payloads(self, payloads):
        """Submit many payloads in one request; returns the id list."""
        return self._request("POST", "/v1/jobs",
                             body={"jobs": list(payloads)})["ids"]

    def submit(self, spec, impl, **kwargs):
        """Submit a circuit pair (see :func:`job_payload`); returns the id."""
        return self.submit_payload(job_payload(spec, impl, **kwargs))

    def submit_suite(self, row, name=None, method="van_eijk", options=None,
                     optimize_level=2):
        """Submit a named Table-1 suite row built server-side."""
        return self.submit_payload({
            "name": name or row, "suite": row, "method": method,
            "options": dict(options or {}),
            "optimize_level": optimize_level,
        })

    def job(self, job_id):
        return self._request("GET", "/v1/jobs/{}".format(job_id))

    def jobs(self):
        return self._request("GET", "/v1/jobs")["jobs"]

    def cancel(self, job_id):
        return self._request("DELETE", "/v1/jobs/{}".format(job_id))

    def wait(self, job_id, timeout=None, on_event=None):
        """Read the job's event stream until its terminal record; returns it.

        A ``done`` frame ends a stream, but its record is terminal only
        when the job ended: a daemon that stops sends ``done`` with the
        job put back in its queue.  A stream can also drop.  In both
        cases the record is fetched once, returned if it is terminal, and
        otherwise the stream is opened again, so a wait spans a daemon
        restart as far as the request retries reach.

        ``on_event(payload)`` sees every event before the ``done`` frame,
        once: a reopened stream replays the job's history from the start,
        and the events already seen (equal event dicts) are skipped.
        ``timeout`` bounds the whole wait; the deadline is checked on
        every line the daemon sends, heartbeats included, so
        :class:`ServerError` comes at most one heartbeat after it.
        """
        deadline = None if timeout is None else time.monotonic() + timeout

        def stream():
            # Only the stream's own errors: one raised by on_event is not
            # a dropped connection.  ValueError is a frame cut short.
            try:
                yield from self._stream(job_id, deadline=deadline)
            except (OSError, http.client.HTTPException, ValueError):
                pass

        seen = set()
        while True:
            for payload in stream():
                if payload["type"] == "done":
                    if payload["record"]["state"] in _TERMINAL_STATES:
                        return payload["record"]
                    break
                if on_event is None:
                    continue
                key = json.dumps(payload, sort_keys=True)
                if key not in seen:
                    seen.add(key)
                    on_event(payload)
            record = self.job(job_id)
            if record["state"] in _TERMINAL_STATES:
                return record
            _check_deadline(job_id, deadline)

    def result(self, job_id, timeout=None):
        """Wait for the job and return its :class:`JobResult`."""
        return remote_job_result(self.wait(job_id, timeout=timeout))

    def events(self, job_id, timeout=None):
        """Yield the job's event dicts from one connection to its SSE stream.

        Replays the job's history first, then streams live until the
        ``done`` event, whose payload is the job record and which is
        yielded last as ``{"type": "done", "record": ...}``.  ``timeout``
        is the socket timeout.
        """
        return self._stream(job_id, timeout=timeout)

    def _stream(self, job_id, timeout=None, deadline=None):
        response = self._request(
            "GET", "/v1/jobs/{}/events".format(job_id), stream=True,
            timeout=timeout)

        def lines():
            for raw in response:
                _check_deadline(job_id, deadline)
                yield raw.decode("utf-8", "replace")

        with response:
            for event_type, data in parse_sse_stream(lines()):
                payload = json.loads(data)
                if event_type == "done":
                    yield {"type": "done", "record": payload}
                    return
                yield payload


def _check_deadline(job_id, deadline):
    """Raise :class:`ServerError` once the monotonic ``deadline`` passed."""
    if deadline is not None and time.monotonic() > deadline:
        raise ServerError("timed out waiting for job {}".format(job_id))


def remote_job_result(record):
    """Map a terminal daemon job record onto a local :class:`JobResult`."""
    data = record.get("result")
    if data is not None:
        result = JobResult.from_dict(data)
    else:
        result = JobResult(record.get("name"), None,
                           error=record.get("error"))
    result.name = record.get("name") or result.name
    result.cached = bool(record.get("cached", result.cached))
    if record.get("error") and not result.error:
        result.error = record["error"]
    return result


class RemoteScheduler:
    """Drop-in ``run(jobs)`` that routes a batch through one or more daemons.

    Accepts the same :class:`~repro.service.job.JobSpec` lists as
    :class:`~repro.service.scheduler.BatchScheduler` and returns
    :class:`JobResult`\\ s in submission order.  Per-job lifecycle events
    (queued / cached / finished) are emitted on ``bus`` so the live
    renderer works unchanged; engine-internal progress stays on the daemon
    (use ``repro-sec remote watch`` for it).  Each job is waited on
    through its event stream, one request per job, in submission order.

    ``client`` may be one endpoint (a :class:`ServerClient` or URL), a
    comma-separated URL string, or a list of endpoints.  The scheduler is
    *coordinator-aware*: endpoints whose ``/v1/healthz`` reports
    ``role: coordinator`` (a :class:`repro.fleet.CoordinatorServer`) are
    preferred exclusively — the coordinator shards across its fleet, so
    client-side spreading would fight its placement.  With only plain
    worker daemons, submission chunks round-robin across the endpoints,
    and a chunk whose endpoint fails hard is retried on the next one.
    """

    def __init__(self, client, bus=None):
        if isinstance(client, str):
            client = [url.strip() for url in client.split(",")
                      if url.strip()]
        if not isinstance(client, (list, tuple)):
            client = [client]
        self.clients = [ServerClient(c) if isinstance(c, str) else c
                        for c in client]
        if not self.clients:
            raise ValueError("RemoteScheduler needs at least one endpoint")
        self.bus = bus or EventBus()
        self._endpoints = None

    def endpoints(self):
        """The endpoints submissions go to, after the one-time role probe."""
        if self._endpoints is None:
            if len(self.clients) == 1:
                self._endpoints = list(self.clients)
            else:
                coordinators = []
                healthy = []
                for client in self.clients:
                    try:
                        health = client.healthz()
                    except ServerError:
                        continue
                    healthy.append(client)
                    if health.get("role") == "coordinator":
                        coordinators.append(client)
                self._endpoints = (coordinators or healthy
                                   or list(self.clients))
        return self._endpoints

    def _submit_all(self, payloads):
        """Submit in chunks; returns ``[(endpoint, job_id), ...]``.

        Chunks round-robin across :meth:`endpoints`; queue-full
        backpressure (429) is waited out on the same endpoint, while a
        hard failure rotates the chunk to the next endpoint (raising only
        once every endpoint refused it).
        """
        endpoints = self.endpoints()
        placed = []
        for number, start in enumerate(range(0, len(payloads), CHUNK_SIZE)):
            chunk = payloads[start:start + CHUNK_SIZE]
            attempts = 0
            while True:
                client = endpoints[(number + attempts) % len(endpoints)]
                try:
                    ids = client.submit_payloads(chunk)
                    placed.extend((client, job_id) for job_id in ids)
                    break
                except ServerError as exc:
                    if exc.status == 429:
                        client.sleep(1.0)
                        continue
                    attempts += 1
                    if attempts >= len(endpoints):
                        raise
        return placed

    def run(self, jobs):
        if not jobs:
            return []
        payloads = []
        for index, job in enumerate(jobs):
            payload = job_payload(
                job.spec, job.impl, name=job.name, method=job.method,
                options=job.options, match_inputs=job.match_inputs,
                match_outputs=job.match_outputs, tags=job.tags)
            payloads.append(payload)
            self.bus.emit(JOB_QUEUED, job=job.name, index=index,
                          method=job.method, remote=True)
        results = []
        for index, (client, job_id) in enumerate(self._submit_all(payloads)):
            job = jobs[index]
            job_result = client.result(job_id)
            job_result.name = job.name
            results.append(job_result)
            event = JOB_CACHED if job_result.cached else JOB_FINISHED
            self.bus.emit(event, job=job.name, index=index,
                          verdict=job_result.verdict,
                          method=job_result.method or job.method,
                          error=job_result.error, remote=True)
        return results
