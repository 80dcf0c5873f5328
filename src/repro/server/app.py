"""The job front end and the networked verification daemon (``repro-sec serve``).

A stdlib-only asyncio HTTP server multiplexing the existing service stack
— :class:`~repro.service.scheduler.WorkerPool` workers,
:class:`~repro.service.cache.ResultCache` and the
:class:`~repro.service.events.EventBus` — behind a JSON API:

========================  =====================================================
``POST /v1/jobs``         submit one job (or ``{"jobs": [...]}``): a named
                          suite entry or a serialized circuit pair; 202 + id
``GET /v1/jobs``          list job summaries
``GET /v1/jobs/{id}``     state + ``SecResult.as_dict`` once terminal
``DELETE /v1/jobs/{id}``  cancel (SIGTERM → cooperative cancel → SIGKILL)
``GET /v1/jobs/{id}/events``  Server-Sent Events: the job's JSONL progress
                          stream, replayed from the start then live
``GET /v1/healthz``       liveness (never rate-limited)
``GET /v1/stats``         queue depth, worker utilization, cache hit rate,
                          aggregated solver stats
========================  =====================================================

:class:`JobFrontEnd` serves that API over a :class:`~repro.server.store.
JobStore`; :class:`VerifyServer` runs its jobs on local workers and
:class:`repro.fleet.CoordinatorServer` dispatches them to worker daemons.

Durability: every job is a JSON record in the :class:`~repro.server.store.
JobStore`; on restart queued jobs resume and jobs that were running
re-enqueue (:meth:`JobStore.recover`).  Backpressure: submissions past
``queue_limit`` get ``429`` + ``Retry-After``, as do clients that exhaust
their per-IP token bucket.  A stuck SSE consumer is disconnected by the
write timeout instead of wedging the event pump.
"""

import asyncio
import json
import math
import os
import signal
import time

from .. import METHODS
from ..netlist import bench
from ..service.cache import ResultCache
from ..service.events import (
    CLIENT_THROTTLED,
    EventBus,
    JOB_CACHED,
    JOB_CANCELLED,
    JOB_FINISHED,
    JOB_REQUEUED,
    JOB_SUBMITTED,
    SERVER_STARTED,
    SERVER_STOPPED,
)
from ..service.job import JobResult, JobSpec
from ..service.scheduler import WorkerPool
from ..service.worker import check_options
from . import store as store_mod
from .httpd import (
    HttpError,
    SseWriter,
    error_response,
    json_response,
    read_request,
)
from .ratelimit import RateLimiter


def validate_payload(payload):
    """Normalize one submission payload; raises :class:`HttpError` (400)."""
    if not isinstance(payload, dict):
        raise HttpError(400, "job payload must be a JSON object")
    method = payload.get("method", "van_eijk")
    if method not in METHODS:
        raise HttpError(400, "unknown method {!r}; choose one of {}".format(
            method, list(METHODS)))
    options = payload.get("options") or {}
    if not isinstance(options, dict):
        raise HttpError(400, "options must be a JSON object")
    try:
        check_options(method, options)
    except ValueError as exc:
        raise HttpError(400, str(exc))
    if options.get("preprocess"):
        from ..sweep import PREPROCESS_PASSES

        if options["preprocess"] not in PREPROCESS_PASSES:
            raise HttpError(400, "unknown preprocess pass {!r}; choose one "
                                 "of {}".format(options["preprocess"],
                                                list(PREPROCESS_PASSES)))
    has_suite = bool(payload.get("suite"))
    has_pair = "spec_bench" in payload and "impl_bench" in payload
    if has_suite == has_pair:
        raise HttpError(
            400, "submit either a 'suite' row name or both "
                 "'spec_bench' and 'impl_bench' circuit texts")
    if has_suite:
        from ..circuits import row_by_name

        try:
            row_by_name(payload["suite"])
        except KeyError:
            raise HttpError(400, "unknown suite row {!r}".format(
                payload["suite"]))
    normalized = {
        "name": payload.get("name") or payload.get("suite") or "job",
        "method": method,
        "options": options,
        "match_inputs": payload.get("match_inputs", "name"),
        "match_outputs": payload.get("match_outputs", "order"),
        "tags": payload.get("tags") or {},
    }
    if has_suite:
        normalized["suite"] = payload["suite"]
        normalized["optimize_level"] = int(payload.get("optimize_level", 2))
    else:
        for key in ("spec_bench", "impl_bench"):
            if not isinstance(payload[key], str):
                raise HttpError(400, "{} must be .bench text".format(key))
            normalized[key] = payload[key]
    try:
        json.dumps(normalized)
    except (TypeError, ValueError):
        raise HttpError(400, "job payload is not JSON-serializable")
    return normalized


def build_jobspec(record):
    """Rebuild the schedulable :class:`JobSpec` from a stored record.

    The spec's *name* is the record id — that is the key every event in
    the stream carries, so SSE consumers and the daemon route on it
    unambiguously even when display names collide.
    """
    payload = record.payload
    if payload.get("suite"):
        from ..circuits import row_by_name

        row = row_by_name(payload["suite"])
        spec, impl = row.pair(optimize_level=payload.get(
            "optimize_level", 2))
    else:
        spec = bench.loads(payload["spec_bench"],
                           name=payload.get("name", "spec"))
        impl = bench.loads(payload["impl_bench"],
                           name=payload.get("name", "impl") + "_impl")
    job = JobSpec(record.id, spec, impl,
                  method=payload.get("method", "van_eijk"),
                  options=payload.get("options") or {},
                  match_inputs=payload.get("match_inputs", "name"),
                  match_outputs=payload.get("match_outputs", "order"),
                  tags=payload.get("tags") or {})
    if job.options.get("preprocess"):
        # Reduce *before* the cache key is first computed: a preprocessed
        # submission and a direct submission of the identical reduced pair
        # share one cache entry, and the worker never re-reduces.
        from ..sweep import preprocess_jobspec

        job, _ = preprocess_jobspec(job)
    return job


async def _cancel_task(task):
    """Cancel ``task`` (if any) and wait for it to unwind."""
    if task is None:
        return
    task.cancel()
    try:
        await task
    except (asyncio.CancelledError, Exception):
        pass


class JobFrontEnd:
    """The HTTP job API over a :class:`~repro.server.store.JobStore`.

    Owns what every daemon role shares: the listener lifecycle, request
    handling, rate limiting, submission with queue backpressure, the
    per-job SSE event history, queued-job cancellation and ``/v1/stats``.
    A role subclass sets :attr:`role` and supplies :meth:`_pump_once` (one
    step of moving queued jobs forward), :meth:`_cancel_running` and
    :meth:`_wind_down`; it may extend :meth:`_about`, :meth:`_prepare`,
    :meth:`_route` and :meth:`stats`.

    Every terminal transition emits exactly one of ``job_finished``,
    ``job_cancelled`` or ``job_cached`` on the bus before the job's SSE
    watchers get their ``done`` frame.
    """

    #: ``"worker"`` or ``"coordinator"``: reported by healthz and stats.
    role = None

    def __init__(self, host, port, store_dir, cache_dir, cache_max_entries,
                 cache_max_bytes, queue_limit, rate, burst, request_timeout,
                 sse_heartbeat, sse_write_timeout, poll_interval,
                 history_limit, bus, ready_file, trusted_proxies=()):
        self.host = host
        self.port = port
        self.queue_limit = queue_limit
        self.request_timeout = request_timeout
        self.sse_heartbeat = sse_heartbeat
        self.sse_write_timeout = sse_write_timeout
        self.poll_interval = poll_interval
        self.history_limit = history_limit
        self.ready_file = ready_file
        # The proxies whose X-Forwarded-For header identifies the real
        # client for rate limiting (the fleet coordinator, for a worker).
        self.trusted_proxies = frozenset(trusted_proxies or ())
        self.bus = bus or EventBus()
        self.store = store_mod.JobStore(store_dir)
        self.cache = None
        if cache_dir:
            self.cache = ResultCache(cache_dir,
                                     max_entries=cache_max_entries,
                                     max_bytes=cache_max_bytes)
        self.limiter = RateLimiter(rate=rate, burst=burst)
        self._history = {}    # job id -> [event dict, ...] (bounded)
        self._watchers = {}   # job id -> set of asyncio.Queue
        self._server = None
        self._pump_task = None
        self._connections = set()
        self._stop_event = None
        self._started_at = None
        self.events_published = 0
        self.events_dropped = 0
        self._solver_stats = {}
        self.bus.subscribe(self._on_event)

    # -- event fan-out ------------------------------------------------------

    def _on_event(self, event):
        """Bus subscriber: record per-job history, wake SSE watchers."""
        self.events_published += 1
        if event.job is None:
            return
        payload = event.as_dict()
        history = self._history.setdefault(event.job, [])
        history.append(payload)
        if len(history) > self.history_limit:
            del history[:len(history) - self.history_limit]
            self.events_dropped += 1
        for queue in self._watchers.get(event.job, ()):  # same-loop puts
            queue.put_nowait(payload)

    def _notify_terminal(self, job_id):
        for queue in self._watchers.get(job_id, ()):
            queue.put_nowait(None)

    # -- lifecycle ----------------------------------------------------------

    def _about(self):
        """Identity fields of healthz, ``server_started`` and the ready file."""
        return {"role": self.role}

    async def start(self):
        """Bind the listener, start the pump, write the ready file."""
        self._started_at = time.monotonic()
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._pump_task = asyncio.ensure_future(self._pump())
        about = self._about()
        self.bus.emit(SERVER_STARTED, host=self.host, port=self.port,
                      pid=os.getpid(), jobs_recovered=len(self.store),
                      **about)
        if self.ready_file:
            payload = dict(about, host=self.host, port=self.port,
                           pid=os.getpid(), url=self.url())
            tmp = self.ready_file + ".tmp"
            with open(tmp, "w") as fh:
                json.dump(payload, fh)
            os.replace(tmp, self.ready_file)

    def url(self):
        host = "127.0.0.1" if self.host in ("", "0.0.0.0") else self.host
        return "http://{}:{}".format(host, self.port)

    def request_stop(self):
        """Signal-safe stop request (wired to SIGINT/SIGTERM)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve_forever(self):
        """Run until :meth:`request_stop`; installs signal handlers."""
        await self.start()
        loop = asyncio.get_event_loop()
        installed = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, self.request_stop)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        try:
            await self._stop_event.wait()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
            await self.stop()

    def run(self):
        """Blocking entry: serve until SIGINT/SIGTERM; returns exit code 0."""
        try:
            asyncio.run(self.serve_forever())
        except KeyboardInterrupt:  # pragma: no cover - non-POSIX fallback path
            pass
        return 0

    async def stop(self):
        """Graceful shutdown: stop intake and the pump, wind the role down,
        end every SSE stream and connection, then wait for the listener.

        ``asyncio.Server.wait_closed()`` waits for every open connection
        since Python 3.12.1, so it comes last: awaited right after
        ``close()``, an idle client or an SSE watcher would hold it open.
        """
        if self._server is not None:
            self._server.close()
        await _cancel_task(self._pump_task)
        await self._wind_down()
        self.bus.emit(SERVER_STOPPED, role=self.role, host=self.host,
                      port=self.port, uptime_seconds=self._uptime())
        for job_id in list(self._watchers):
            self._notify_terminal(job_id)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.wait(list(self._connections))
        if self._server is not None:
            await self._server.wait_closed()

    async def _wind_down(self):
        """Role teardown between the pump stopping and ``server_stopped``."""

    def _uptime(self):
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    # -- the pump -----------------------------------------------------------

    async def _pump(self):
        while True:
            try:
                await self._pump_once()
            except asyncio.CancelledError:
                raise
            except Exception:
                # The pump must survive one bad record or node; the record
                # itself is marked errored where possible.
                pass
            await asyncio.sleep(self.poll_interval)

    async def _pump_once(self):
        raise NotImplementedError

    def _mark_error(self, record, message):
        record.state = store_mod.ERROR
        record.error = message
        record.finished_at = time.time()
        self.store.save(record)
        self.bus.emit(JOB_FINISHED, job=record.id, name=record.name,
                      verdict=None, error=message)
        self._notify_terminal(record.id)

    def _accumulate_solver_stats(self, details):
        stats = (details or {}).get("solver_stats")
        if not isinstance(stats, dict):
            return
        for key, value in stats.items():
            if isinstance(value, (int, float)):
                self._solver_stats[key] = (
                    self._solver_stats.get(key, 0) + value)

    # -- HTTP ---------------------------------------------------------------

    async def _handle_connection(self, reader, writer):
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            await self._serve_one(reader, writer)
        except (asyncio.CancelledError, asyncio.TimeoutError,
                ConnectionError):
            pass
        except Exception:
            try:
                writer.write(error_response(
                    HttpError(500, "internal server error")))
            except Exception:
                pass
        finally:
            self._connections.discard(task)
            try:
                writer.close()
            except Exception:
                pass

    async def _serve_one(self, reader, writer):
        peername = writer.get_extra_info("peername")
        peer = peername[0] if peername else "unknown"
        try:
            request = await read_request(reader, peer=peer,
                                         timeout=self.request_timeout)
        except HttpError as exc:
            writer.write(error_response(exc))
            await writer.drain()
            return
        if request is None:
            return
        try:
            response = await self._route(request, writer)
        except HttpError as exc:
            response = error_response(exc)
        if response is not None:
            writer.write(response)
            await writer.drain()

    async def _route(self, request, writer):
        path, method = request.path, request.method
        if path == "/v1/healthz":
            if method != "GET":
                raise HttpError(405, "method not allowed")
            return json_response(200, dict(self._about(), status="ok",
                                           uptime_seconds=self._uptime()))
        self._throttle(request)
        if path == "/v1/stats":
            if method != "GET":
                raise HttpError(405, "method not allowed")
            return json_response(200, self.stats())
        if path == "/v1/jobs":
            if method == "POST":
                return self._submit(request)
            if method == "GET":
                return json_response(200, {
                    "jobs": [self._summary(r) for r in self.store.all()]})
            raise HttpError(405, "method not allowed")
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            job_id, _, tail = rest.partition("/")
            record = self.store.get(job_id)
            if record is None:
                raise HttpError(404, "no such job {!r}".format(job_id))
            if tail == "events":
                if method != "GET":
                    raise HttpError(405, "method not allowed")
                await self._stream_events(record, writer)
                return None
            if tail:
                raise HttpError(404, "unknown resource {!r}".format(tail))
            if method == "GET":
                return json_response(200, record.public_dict())
            if method == "DELETE":
                return await self._cancel(record)
            raise HttpError(405, "method not allowed")
        raise HttpError(404, "unknown path {!r}".format(path))

    def _client_key(self, request):
        """The rate-limit bucket key for one request.

        Keyed by socket peer, except when the request arrives from a
        *trusted proxy* (the fleet coordinator) carrying an
        ``X-Forwarded-For`` header: then the first forwarded hop is the
        key, so distinct downstream clients fill distinct buckets instead
        of the whole fleet's traffic collapsing into the coordinator's
        one.  The header is ignored from untrusted peers — anyone can
        send it, only the coordinator is believed.
        """
        if request.peer in self.trusted_proxies:
            forwarded = request.headers.get("x-forwarded-for")
            if forwarded:
                client = forwarded.split(",")[0].strip()
                if client:
                    return client
        return request.peer

    def _throttle(self, request):
        key = self._client_key(request)
        wait = self.limiter.check(key)
        if wait > 0.0:
            retry_after = max(1, int(math.ceil(min(wait, 3600.0))))
            self.bus.emit(CLIENT_THROTTLED, client=key,
                          path=request.path, retry_after=retry_after)
            raise HttpError(429, "rate limit exceeded",
                            headers={"Retry-After": str(retry_after)})

    def _prepare(self, payload):
        """One submitted payload → ``(normalized payload, record meta)``."""
        return validate_payload(payload), None

    def _submit(self, request):
        client = self._client_key(request)
        body = request.json()
        many = isinstance(body, dict) and "jobs" in body
        payloads = body["jobs"] if many else [body]
        if not isinstance(payloads, list) or not payloads:
            raise HttpError(400, "'jobs' must be a non-empty list")
        prepared = [self._prepare(payload) for payload in payloads]
        counts = self.store.counts()
        backlog = counts[store_mod.QUEUED] + counts[store_mod.RUNNING]
        if backlog + len(prepared) > self.queue_limit:
            self.bus.emit(CLIENT_THROTTLED, client=client,
                          path=request.path, reason="queue full",
                          backlog=backlog)
            raise HttpError(429, "job queue is full ({} of {})".format(
                backlog, self.queue_limit),
                headers={"Retry-After": "2"})
        ids = []
        for payload, meta in prepared:
            record = self.store.create(payload, client=client, meta=meta)
            ids.append(record.id)
            self.bus.emit(JOB_SUBMITTED, job=record.id, name=record.name,
                          method=payload["method"], client=client)
        response = {"ids": ids} if many else {"id": ids[0]}
        response["state"] = store_mod.QUEUED
        return json_response(202, response)

    async def _cancel(self, record):
        if record.terminal:
            return json_response(
                200, {"id": record.id, "state": record.state,
                      "detail": "already terminal"})
        if record.state != store_mod.QUEUED:
            return await self._cancel_running(record)
        record.state = store_mod.CANCELLED
        record.finished_at = time.time()
        self.store.save(record)
        self.bus.emit(JOB_CANCELLED, job=record.id, name=record.name,
                      method=record.payload.get("method"))
        self._notify_terminal(record.id)
        return json_response(200, {"id": record.id, "state": record.state})

    async def _cancel_running(self, record):
        raise NotImplementedError

    def _summary(self, record):
        return {
            "id": record.id,
            "name": record.name,
            "method": record.payload.get("method"),
            "state": record.state,
            "node": record.meta.get("node"),
            "cached": record.cached,
            "requeues": record.requeues,
            "submitted_at": record.submitted_at,
            "finished_at": record.finished_at,
        }

    async def _stream_events(self, record, writer):
        queue = asyncio.Queue()
        watchers = self._watchers.setdefault(record.id, set())
        watchers.add(queue)
        # Snapshot before any await: events published mid-replay land on the
        # queue (subscribed above), never duplicated and never lost.
        history = list(self._history.get(record.id, []))
        terminal = record.terminal
        try:
            sse = SseWriter(writer, write_timeout=self.sse_write_timeout)
            await sse.start()
            for payload in history:
                await sse.event(payload, payload.get("type"))
            if terminal:
                await sse.event(record.public_dict(), "done")
                return
            while True:
                try:
                    item = await asyncio.wait_for(queue.get(),
                                                  self.sse_heartbeat)
                except asyncio.TimeoutError:
                    await sse.comment()
                    continue
                if item is None:
                    fresh = self.store.get(record.id)
                    await sse.event(
                        fresh.public_dict() if fresh else {"id": record.id},
                        "done")
                    return
                await sse.event(item, item.get("type"))
        finally:
            watchers.discard(queue)
            if not watchers:
                self._watchers.pop(record.id, None)

    # -- stats --------------------------------------------------------------

    def stats(self):
        """The keys every role publishes; roles add their own sections."""
        cache_stats = None
        if self.cache is not None:
            cache_stats = self.cache.stats()
            lookups = cache_stats["hits"] + cache_stats["misses"]
            cache_stats["hit_rate"] = (
                cache_stats["hits"] / lookups if lookups else None)
        return {
            "role": self.role,
            "uptime_seconds": self._uptime(),
            "jobs": self.store.counts(),
            "queue_limit": self.queue_limit,
            "cache": cache_stats,
            "events": {"published": self.events_published,
                       "dropped": self.events_dropped},
            "rate_limit": {"rejected": self.limiter.rejected,
                           "rate": self.limiter.rate,
                           "burst": self.limiter.burst},
            "solver_stats": dict(self._solver_stats),
        }


class VerifyServer(JobFrontEnd):
    """The daemon: the job front end + a job pump over a :class:`WorkerPool`."""

    role = "worker"

    def __init__(self, host="127.0.0.1", port=0, workers=2, store_dir=None,
                 cache_dir=None, cache_max_entries=None, cache_max_bytes=None,
                 queue_limit=64, job_time_limit=None, retries=1, grace=2.0,
                 rate=20.0, burst=40, request_timeout=10.0,
                 sse_heartbeat=10.0, sse_write_timeout=10.0,
                 poll_interval=0.02, history_limit=2000, bus=None,
                 ready_file=None, node_id=None,
                 join_url=None, advertise_host=None, heartbeat_interval=2.0,
                 trusted_proxies=(), remote_cache_url=None):
        super().__init__(
            host, port, store_dir or ".repro-server", cache_dir,
            cache_max_entries, cache_max_bytes, queue_limit, rate, burst,
            request_timeout, sse_heartbeat, sse_write_timeout,
            poll_interval, history_limit, bus, ready_file,
            trusted_proxies=trusted_proxies)
        self.retries = retries
        # Fleet membership (repro.fleet): a node id for healthz/debugging
        # and the coordinator to join (None = standalone daemon).
        self.node_id = node_id or "node-{}-{}".format(
            os.getpid(), os.urandom(2).hex())
        self.join_url = join_url
        self.advertise_host = advertise_host
        self.heartbeat_interval = heartbeat_interval
        self._member = None
        self._member_task = None
        if remote_cache_url:
            # Fleet-shared far tier: local misses consult the
            # coordinator's cache, local solves are published to it, so
            # any node serves any fingerprint once one node solved it.
            from ..fleet.cachenet import CacheClient, TieredCache

            self.cache = TieredCache(self.cache,
                                     CacheClient(remote_cache_url))
        self.pool = WorkerPool(workers=workers, bus=self.bus,
                               job_time_limit=job_time_limit, grace=grace)

    def _about(self):
        return dict(super()._about(), node=self.node_id,
                    workers=self.pool.workers)

    # -- lifecycle ----------------------------------------------------------

    async def start(self):
        """Recover the persisted queue, bind, then join the fleet if asked."""
        for record in self.store.recover():
            self.bus.emit(JOB_REQUEUED, job=record.id, name=record.name,
                          requeues=record.requeues, reason="daemon restart")
        await super().start()
        if self.join_url:
            # Fleet mode: announce this node to the coordinator and keep
            # the membership lease alive.  The advertise URL must carry
            # the *bound* port (the daemon may have asked for port 0).
            from ..fleet.node import FleetMember

            advertise = "http://{}:{}".format(
                self.advertise_host or
                ("127.0.0.1" if self.host in ("", "0.0.0.0") else self.host),
                self.port)
            self._member = FleetMember(self.join_url, self.node_id,
                                       advertise, self.bus,
                                       interval=self.heartbeat_interval)
            self._member_task = asyncio.ensure_future(self._member.run())

    async def _wind_down(self):
        """Leave the fleet, then park running jobs and kill the workers.

        Running jobs go back to *queued* on disk — the same resume
        semantics as a crash, but without waiting for them to finish —
        so a restarted daemon picks them up where the queue left off.
        """
        await _cancel_task(self._member_task)
        self._member_task = None
        if self._member is not None:
            await self._member.leave()
            self._member = None
        for outcome in self.pool.shutdown():
            record = self.store.get(outcome.token)
            if record is None or record.terminal:
                continue
            record.state = store_mod.QUEUED
            record.started_at = None
            record.requeues += 1
            self.store.save(record)
            self.bus.emit(JOB_REQUEUED, job=record.id, name=record.name,
                          requeues=record.requeues,
                          reason="daemon shutdown")

    # -- the job pump -------------------------------------------------------

    async def _pump_once(self):
        self._start_queued()
        for outcome in self.pool.poll():
            self._finish(outcome)

    def _start_queued(self):
        while self.pool.has_capacity():
            queued = self.store.queued()
            if not queued:
                return
            record = queued[0]
            try:
                job = build_jobspec(record)
            except Exception as exc:
                self._mark_error(record, "cannot build job: {!r}".format(exc))
                continue
            cached = (self.cache.get(job.cache_key())
                      if self.cache is not None else None)
            if cached is not None:
                record.state = store_mod.DONE
                record.cached = True
                record.finished_at = time.time()
                record.result = JobResult(
                    record.id, cached, cached=True, wall_seconds=0.0,
                    method=job.method).as_dict()
                self.store.save(record)
                self.bus.emit(JOB_CACHED, job=record.id, name=record.name,
                              verdict=cached.equivalent, method=job.method)
                self._accumulate_solver_stats(cached.details)
                self._notify_terminal(record.id)
                continue
            record.state = store_mod.RUNNING
            record.started_at = time.time()
            self.store.save(record)
            self.pool.submit(record.id, job)

    def _finish(self, outcome):
        record = self.store.get(outcome.token)
        if record is None:
            return
        if outcome.cancelled:
            record.state = store_mod.CANCELLED
            record.result = outcome.result.as_dict()
            record.finished_at = time.time()
            self.store.save(record)
            self.bus.emit(JOB_CANCELLED, job=record.id, name=record.name,
                          method=outcome.job.method)
            self._notify_terminal(record.id)
            return
        if outcome.retryable and record.requeues < self.retries:
            # Engine error or worker crash: put the job back at the head
            # of the queue.  A time-budget kill is final.
            record.state = store_mod.QUEUED
            record.started_at = None
            record.requeues += 1
            self.store.save(record)
            self.bus.emit(JOB_REQUEUED, job=record.id, name=record.name,
                          requeues=record.requeues, reason=outcome.error)
            return
        record.state = (store_mod.ERROR if outcome.error is not None
                        else store_mod.DONE)
        record.error = outcome.error
        record.result = outcome.result.as_dict()
        record.finished_at = time.time()
        self.store.save(record)
        result = outcome.result.result
        if (self.cache is not None and outcome.error is None
                and result is not None):
            self.cache.put(outcome.job.cache_key(), result,
                           meta={"job": record.name,
                                 "method": outcome.job.method})
        if result is not None:
            self._accumulate_solver_stats(result.details)
        self.bus.emit(JOB_FINISHED, job=record.id, name=record.name,
                      verdict=outcome.result.verdict,
                      method=outcome.job.method,
                      seconds=None if result is None else result.seconds,
                      error=outcome.error)
        self._notify_terminal(record.id)

    async def _cancel_running(self, record):
        self.pool.cancel(record.id)
        return json_response(202, {"id": record.id, "state": "cancelling"})

    def stats(self):
        stats = super().stats()
        stats["workers"] = {"total": self.pool.workers,
                            "busy": self.pool.active}
        return stats


def serve(host="127.0.0.1", port=8439, **kwargs):
    """Blocking entry point used by ``repro-sec serve``; returns exit code."""
    return VerifyServer(host=host, port=port, **kwargs).run()
