"""The fleet coordinator daemon (``repro-sec serve --coordinator``).

One coordinator fronts N worker daemons (:class:`repro.server.app.
VerifyServer` started with ``--join``) and presents the *same job API* a
single daemon does — ``POST /v1/jobs``, ``GET /v1/jobs/{id}``, SSE
``/v1/jobs/{id}/events`` — so every existing client
(:class:`repro.client.ServerClient`, ``repro-sec remote``,
:class:`~repro.client.RemoteScheduler`) talks to a fleet unchanged.  It
is the daemon's own :class:`~repro.server.app.JobFrontEnd` (store,
routes, SSE history, rate limiting, stats) with dispatch in place of a
worker pool.

Responsibilities:

* **Membership** — workers join (``POST /v1/nodes``) and heartbeat; a
  node silent past ``dead_after`` seconds is declared dead by the
  reaper.  A relay tail that cannot reach its node declares death
  faster.  Rejoin is just another join: the node starts receiving new
  work, and nothing already placed elsewhere moves (rendezvous hashing
  keeps disruption minimal by construction, :mod:`repro.fleet.shard`).
* **Sharded dispatch** — each accepted job is routed to the live node
  that wins the rendezvous hash of its :func:`~repro.fleet.shard.
  routing_key` (resubmissions of one problem land on one node's warm
  cache); the proxied submission carries ``X-Forwarded-For`` so worker
  rate limiting sees the real client, not the coordinator.
* **Sticky SSE** — a client watching a job through the coordinator gets
  the stream of whichever worker owns it: a per-job *relay tail* follows
  the owning worker's SSE stream, rewrites worker job ids to coordinator
  ids, and re-publishes on the coordinator's bus.  When ownership moves,
  the tail moves with it — the watcher sees ``job_requeued`` and then
  the new owner's events on the same connection.
* **Failure requeue** — jobs owned by a dead node go back to the queue
  (the same :class:`~repro.server.store.JobStore` crash-recovery
  semantics the single daemon uses) and are re-dispatched to a survivor.
  Verdicts are engine-deterministic, so a requeued job's final result is
  identical to the one the dead node would have produced.
* **Shared cache** — ``GET/PUT /v1/cache/{key}`` expose a
  content-addressed :class:`~repro.service.cache.ResultCache`; workers
  mount it as the far tier of a :class:`~repro.fleet.cachenet.
  TieredCache`, so any node serves any fingerprint after one node has
  solved it.
"""

import asyncio
import time
import traceback

from ..server import store as store_mod
from ..server.app import (SSE_HEARTBEAT, JobFrontEnd, _cancel_task,
                          validate_payload)
from ..server.httpd import HttpError, json_response
from ..service.events import (
    Event,
    JOB_DISPATCHED,
    JOB_REQUEUED,
    NODE_DIED,
    NODE_JOINED,
    NODE_LEFT,
)
from ..service.job import CACHE_FORMAT_VERSION
from .ahttp import AsyncHttpError, request_json, sse_events
from .shard import assign_node, routing_key

__all__ = ["CoordinatorServer", "NodeInfo", "serve_coordinator"]

#: Consecutive unreachable relay attempts before a tail declares its node
#: dead without waiting for the heartbeat reaper.
_TAIL_DEATH_THRESHOLD = 3


class NodeInfo:
    """One registered worker node as the coordinator sees it."""

    __slots__ = ("id", "url", "alive", "last_seen", "joined_at",
                 "dispatched", "joins")

    def __init__(self, node_id, url, now=None):
        now = time.monotonic() if now is None else now
        self.id = node_id
        self.url = url.rstrip("/")
        self.alive = True
        self.last_seen = now
        self.joined_at = now
        self.dispatched = 0
        self.joins = 1

    def as_dict(self):
        return {"id": self.id, "url": self.url, "alive": self.alive,
                "age_seconds": time.monotonic() - self.joined_at,
                "idle_seconds": time.monotonic() - self.last_seen,
                "dispatched": self.dispatched, "joins": self.joins}


class CoordinatorServer(JobFrontEnd):
    """The job front end sharding jobs across registered worker daemons."""

    role = "coordinator"

    def __init__(self, host="127.0.0.1", port=0, store_dir=None,
                 cache_dir=None, cache_max_entries=None, cache_max_bytes=None,
                 queue_limit=256, rate=50.0, burst=100, dead_after=6.0,
                 heartbeat_interval=2.0, poll_interval=0.05,
                 dispatch_timeout=10.0, bus=None, ready_file=None):
        # No trusted proxies: clients are rate-limited by socket peer.
        super().__init__(
            host, port, store_dir or ".repro-coordinator", cache_dir,
            cache_max_entries, cache_max_bytes, queue_limit, rate, burst,
            bus, ready_file)
        self.poll_interval = poll_interval
        self.dead_after = dead_after
        self.heartbeat_interval = heartbeat_interval
        self.dispatch_timeout = dispatch_timeout
        self.nodes = {}       # node id -> NodeInfo
        self._tails = {}      # coordinator job id -> asyncio.Task
        self.requeues = 0
        self.dispatch_failures = 0

    def _about(self):
        return dict(super()._about(),
                    nodes={"alive": len(self.alive_nodes()),
                           "total": len(self.nodes)})

    async def _wind_down(self):
        """Stop the relay tails.

        Dispatched jobs keep running on their workers; the records stay
        RUNNING on disk and a restarted coordinator re-attaches its relay
        tails to them (or requeues, if the node is gone by then) — the
        same resume-where-the-queue-left-off semantics as the single
        daemon, extended across the fleet.
        """
        for task in list(self._tails.values()):
            await _cancel_task(task)
        self._tails.clear()

    # -- membership ---------------------------------------------------------

    def alive_nodes(self):
        return [node for node in self.nodes.values() if node.alive]

    def _join_node(self, node_id, url):
        node = self.nodes.get(node_id)
        rejoin = node is not None
        if node is None:
            node = self.nodes[node_id] = NodeInfo(node_id, url)
        else:
            node.url = url.rstrip("/")
            node.alive = True
            node.last_seen = time.monotonic()
            node.joins += 1
        self.bus.emit(NODE_JOINED, node=node_id, url=node.url,
                      rejoin=rejoin, alive_nodes=len(self.alive_nodes()))
        return node

    def _node_died(self, node_id, reason):
        """Mark a node dead and requeue every job it owned.

        Synchronous on purpose: a relay tail may call this about its own
        node, and the requeue (including cancelling that very tail) must
        complete before any other coroutine observes the half-dead state.
        """
        node = self.nodes.get(node_id)
        if node is None or not node.alive:
            return
        node.alive = False
        self.bus.emit(NODE_DIED, node=node_id, url=node.url, reason=reason,
                      alive_nodes=len(self.alive_nodes()))
        for record in self.store.all():
            if record.terminal or record.meta.get("node") != node_id:
                continue
            self._requeue(record, "node {} died: {}".format(node_id, reason))

    def _requeue(self, record, reason):
        tail = self._tails.pop(record.id, None)
        if tail is not None:
            tail.cancel()
        record.state = store_mod.QUEUED
        record.started_at = None
        record.requeues += 1
        record.meta.pop("node", None)
        record.meta.pop("remote_id", None)
        self.store.save(record)
        self.requeues += 1
        self.bus.emit(JOB_REQUEUED, job=record.id, name=record.name,
                      requeues=record.requeues, reason=reason)

    # -- the dispatch pump --------------------------------------------------

    async def _pump_once(self):
        self._reap()
        await self._dispatch_queued()
        self._ensure_tails()

    async def _idle(self):
        """A periodic tick (heartbeat checks, 429 retries, tail
        re-attachment); a submission ends it early."""
        await self._sleep(self.poll_interval)

    def _reap(self):
        now = time.monotonic()
        for node in list(self.nodes.values()):
            if node.alive and now - node.last_seen > self.dead_after:
                self._node_died(node.id, "missed heartbeats for "
                               "{:.1f}s".format(now - node.last_seen))

    def _pick_node(self, record):
        alive = self.alive_nodes()
        if not alive:
            return None
        pin = record.meta.get("pin")
        if pin:
            for node in alive:
                if node.id == pin:
                    return node
            return None  # pinned node not alive: wait for it
        owner = assign_node(record.meta.get("routing_key") or record.id,
                            [node.id for node in alive])
        return self.nodes[owner]

    async def _dispatch_queued(self):
        for record in self.store.queued():
            node = self._pick_node(record)
            if node is None:
                continue  # no (eligible) live node yet; stay queued
            try:
                status, payload = await request_json(
                    "POST", node.url + "/v1/jobs", body=record.payload,
                    headers=self._proxy_headers(record),
                    connect_timeout=self.dispatch_timeout,
                    read_timeout=self.dispatch_timeout)
            except AsyncHttpError:
                self.dispatch_failures += 1
                self._node_died(node.id, "dispatch connection failed")
                continue
            if status == 429:
                continue  # worker backpressure: retry next pump round
            if status != 202:
                self.dispatch_failures += 1
                self._mark_error(record, "node {} rejected dispatch: "
                                 "{} {}".format(node.id, status,
                                                payload.get("error")))
                continue
            record.meta["node"] = node.id
            record.meta["remote_id"] = payload["id"]
            record.state = store_mod.RUNNING
            record.started_at = time.time()
            self.store.save(record)
            node.dispatched += 1
            self.bus.emit(JOB_DISPATCHED, job=record.id, name=record.name,
                          node=node.id, remote_id=payload["id"],
                          requeues=record.requeues)
            self._start_tail(record)

    def _proxy_headers(self, record):
        return {"X-Forwarded-For": record.client or "unknown"}

    def _ensure_tails(self):
        """Re-attach relay tails to running jobs that lost theirs.

        Covers coordinator restart (records loaded RUNNING from disk with
        no live task) and tails that exited on transient trouble.  A
        running record whose node is gone is requeued here.
        """
        for record in self.store.all():
            if record.terminal or record.state != store_mod.RUNNING:
                continue
            if record.id in self._tails:
                continue
            node = self.nodes.get(record.meta.get("node"))
            if node is None or not node.alive:
                # Grace for coordinator restart: the node may rejoin
                # within a heartbeat interval; requeue once it is
                # formally dead or was never seen for dead_after.
                age = self._uptime()
                if age is not None and age > self.dead_after:
                    self._requeue(record, "owning node {} not in fleet"
                                  .format(record.meta.get("node")))
                continue
            self._start_tail(record)

    # -- relay tails --------------------------------------------------------

    def _start_tail(self, record):
        old = self._tails.pop(record.id, None)
        if old is not None:
            old.cancel()
        self._tails[record.id] = asyncio.ensure_future(
            self._tail(record.id, record.meta.get("node"),
                       record.meta.get("remote_id")))

    async def _tail(self, job_id, node_id, remote_id):
        """Follow the owning worker's SSE stream for one job.

        Rewrites worker job ids to the coordinator id, deduplicates the
        worker's history replay across reconnects, updates the local
        record on the terminal ``done`` frame, and escalates repeated
        connection failures to a node-death declaration.
        """
        seen = 0
        failures = 0
        try:
            while True:
                record = self.store.get(job_id)
                if record is None or record.terminal:
                    return
                if (record.meta.get("node") != node_id
                        or record.meta.get("remote_id") != remote_id):
                    return  # ownership moved; a fresh tail owns it now
                node = self.nodes.get(node_id)
                if node is None or not node.alive:
                    return
                url = "{}/v1/jobs/{}/events".format(node.url, remote_id)
                replayed = 0
                try:
                    async for event_type, payload in sse_events(
                            url, read_timeout=max(60.0,
                                                  SSE_HEARTBEAT * 6)):
                        failures = 0
                        if event_type == "done":
                            self._absorb_terminal(job_id, payload)
                            return
                        replayed += 1
                        if replayed <= seen:
                            continue  # history we already relayed
                        seen = replayed
                        self._relay_event(job_id, node_id, payload)
                except (AsyncHttpError, OSError) as exc:
                    # A connection reset mid-stream (OSError) is a
                    # connection failure like those AsyncHttpError reports.
                    if getattr(exc, "status", None) == 404:
                        # The worker lost the job (wiped store): requeue.
                        fresh = self.store.get(job_id)
                        if fresh is not None and not fresh.terminal:
                            self._requeue(fresh, "node {} lost the job"
                                          .format(node_id))
                        return
                    failures += 1
                    if failures >= _TAIL_DEATH_THRESHOLD:
                        # Faster than the heartbeat reaper: a SIGKILLed
                        # node refuses connections immediately.
                        self._node_died(node_id,
                                        "relay unreachable x{}".format(
                                            failures))
                        return
                await asyncio.sleep(min(0.2 * (failures + 1), 1.0))
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # Not a connection failure: retrying would replay the whole
            # history into the same fault, so the job ends here, with the
            # traceback, and the exception is not left on a task nobody
            # awaits.
            record = self.store.get(job_id)
            if record is not None and not record.terminal:
                self._mark_error(record, "relay from node {} failed: {}: {}"
                                 "\n{}".format(node_id, type(exc).__name__,
                                               exc, traceback.format_exc()))
        finally:
            if self._tails.get(job_id) is asyncio.current_task():
                self._tails.pop(job_id, None)

    def _relay_event(self, job_id, node_id, payload):
        translated = dict(payload)
        translated["job"] = job_id
        data = dict(translated.get("data") or {})
        data.setdefault("node", node_id)
        translated["data"] = data
        self.bus.publish(Event.from_dict(translated))

    def _absorb_terminal(self, job_id, worker_record):
        """Copy a worker's terminal record into the coordinator record."""
        record = self.store.get(job_id)
        if record is None or record.terminal:
            return
        state = worker_record.get("state")
        if state not in store_mod.TERMINAL_STATES:
            return
        record.state = state
        record.result = worker_record.get("result")
        record.error = worker_record.get("error")
        record.cached = bool(worker_record.get("cached"))
        record.requeues = max(record.requeues,
                              worker_record.get("requeues", 0))
        record.finished_at = time.time()
        self.store.save(record)
        verdict = (record.result or {}).get("result") or {}
        self._accumulate_solver_stats(verdict.get("details"))
        self._notify_terminal(job_id)

    # -- HTTP ---------------------------------------------------------------

    async def _route(self, request, writer):
        # Membership, heartbeats and cache sync are fleet-internal
        # traffic: never rate-limited (a throttled heartbeat would look
        # like a death and requeue a healthy node's jobs).
        if request.path.startswith("/v1/nodes"):
            return await self._route_nodes(request)
        if request.path.startswith("/v1/cache/"):
            return self._route_cache(request)
        return await super()._route(request, writer)

    # -- membership routes --------------------------------------------------

    async def _route_nodes(self, request):
        path, method = request.path, request.method
        if path == "/v1/nodes":
            if method == "GET":
                return json_response(200, {
                    "nodes": [node.as_dict()
                              for node in self.nodes.values()]})
            if method == "POST":
                body = request.json()
                node_id = body.get("id")
                url = body.get("url")
                if not node_id or not url:
                    raise HttpError(400, "join needs 'id' and 'url'")
                self._join_node(str(node_id), str(url))
                return json_response(200, {
                    "id": node_id,
                    "heartbeat_interval": self.heartbeat_interval,
                    "dead_after": self.dead_after,
                    "cache_url": self.url() if self.cache is not None
                    else None})
            raise HttpError(405, "method not allowed")
        rest = path[len("/v1/nodes/"):]
        node_id, _, tail = rest.partition("/")
        if tail == "heartbeat":
            if method != "POST":
                raise HttpError(405, "method not allowed")
            node = self.nodes.get(node_id)
            if node is None:
                raise HttpError(404, "unknown node {!r}; rejoin".format(
                    node_id))
            node.last_seen = time.monotonic()
            if not node.alive:
                # The node was declared dead (partition, reaped) but is
                # actually fine: revive it as a rejoin.
                self._join_node(node_id, node.url)
            return json_response(200, {"id": node_id, "alive": True})
        if tail:
            raise HttpError(404, "unknown resource {!r}".format(tail))
        if method == "DELETE":
            node = self.nodes.get(node_id)
            if node is None:
                raise HttpError(404, "unknown node {!r}".format(node_id))
            if node.alive:
                node.alive = False
                self.bus.emit(NODE_LEFT, node=node_id, url=node.url,
                              alive_nodes=len(self.alive_nodes()))
                for record in self.store.all():
                    if (not record.terminal
                            and record.meta.get("node") == node_id):
                        self._requeue(record, "node {} left".format(node_id))
            return json_response(200, {"id": node_id, "alive": False})
        raise HttpError(405, "method not allowed")

    # -- cache routes -------------------------------------------------------

    def _route_cache(self, request):
        if self.cache is None:
            raise HttpError(503, "coordinator has no shared cache")
        key = request.path[len("/v1/cache/"):]
        if not key or len(key) > 128 or not all(
                c in "0123456789abcdef" for c in key):
            raise HttpError(400, "cache keys are lowercase hex digests")
        if request.method == "GET":
            result = self.cache.get(key)
            if result is None:
                raise HttpError(404, "no entry for {}".format(key))
            return json_response(200, {
                "version": CACHE_FORMAT_VERSION, "key": key,
                "result": result.as_dict()})
        if request.method == "PUT":
            body = request.json()
            if body.get("version") != CACHE_FORMAT_VERSION:
                raise HttpError(409, "cache format version mismatch")
            try:
                from ..reach.result import SecResult

                result = SecResult.from_dict(body["result"])
            except (KeyError, TypeError, ValueError):
                raise HttpError(400, "body must carry a SecResult dict")
            self.cache.put(key, result, meta=body.get("meta"))
            return json_response(200, {"key": key, "stored": True})
        raise HttpError(405, "method not allowed")

    # -- job routes ---------------------------------------------------------

    def _prepare(self, payload):
        pin = payload.pop("pin_node", None) if isinstance(payload,
                                                          dict) else None
        if pin is not None and str(pin) not in self.nodes:
            raise HttpError(400, "pin_node {!r} is not a registered "
                                 "node".format(pin))
        normalized = validate_payload(payload)
        meta = {"routing_key": routing_key(normalized)}
        if pin is not None:
            meta["pin"] = str(pin)
        return normalized, meta

    async def _cancel_running(self, record):
        node = self.nodes.get(record.meta.get("node"))
        remote_id = record.meta.get("remote_id")
        if node is not None and node.alive and remote_id:
            try:
                await request_json(
                    "DELETE", "{}/v1/jobs/{}".format(node.url, remote_id),
                    headers=self._proxy_headers(record),
                    connect_timeout=self.dispatch_timeout,
                    read_timeout=self.dispatch_timeout)
            except AsyncHttpError:
                self._node_died(node.id, "cancel connection failed")
        # The relay tail absorbs the worker's terminal cancelled record
        # (and relays its one job_cancelled event); if the node is gone
        # the requeue path re-dispatches and the cancel is lost with the
        # node — report the live state.
        fresh = self.store.get(record.id)
        return json_response(202, {"id": record.id,
                                   "state": fresh.state if fresh
                                   else "cancelling"})

    # -- stats --------------------------------------------------------------

    def stats(self):
        stats = super().stats()
        stats.update({
            "nodes": {"alive": len(self.alive_nodes()),
                      "total": len(self.nodes),
                      "detail": [node.as_dict()
                                 for node in self.nodes.values()]},
            "requeues": self.requeues,
            "dispatch_failures": self.dispatch_failures,
            "tails": len(self._tails),
        })
        return stats


def serve_coordinator(host="127.0.0.1", port=8440, **kwargs):
    """Blocking entry for ``repro-sec serve --coordinator``; returns 0."""
    return CoordinatorServer(host=host, port=port, **kwargs).run()
