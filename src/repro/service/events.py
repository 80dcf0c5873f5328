"""Structured event stream for the verification service.

Every observable step of a batch or portfolio run — job queued, started,
fixpoint iteration, retiming round, cache hit, retry, finish — is published
as an :class:`Event` on an :class:`EventBus`.  Subscribers are plain
callables; the two shipped consumers are :class:`JsonlEventWriter` (the
machine-readable run log) and :class:`repro.service.render.LiveRenderer`
(the human-readable progress view).

Events cross process boundaries as plain dicts (see
:meth:`Event.as_dict` / :meth:`Event.from_dict`): a worker process sends
them to the parent over its own pipe, in the order it emitted them.
"""

import json
import time


# Event types emitted by the service layer.  Kept as module constants so
# consumers can filter without string typos.
BATCH_STARTED = "batch_started"
BATCH_FINISHED = "batch_finished"
JOB_QUEUED = "job_queued"
JOB_STARTED = "job_started"
JOB_PROGRESS = "job_progress"
JOB_FINISHED = "job_finished"
JOB_CACHED = "job_cached"
JOB_RETRY = "job_retry"
# An inconclusive primary verdict handing the job to its fallback engine:
# ``method`` (the fallback), ``primary_method`` and the ``reason``.
JOB_FALLBACK = "job_fallback"
# The combined sat_sweep+induction mode handing an inconclusive fixed
# point's partition to the k-induction engine instead of traversal.
INDUCTION_FALLBACK = "induction_fallback"
PORTFOLIO_STARTED = "portfolio_started"
ENGINE_STARTED = "engine_started"
ENGINE_FINISHED = "engine_finished"
ENGINE_WON = "engine_won"
ENGINE_CANCELLED = "engine_cancelled"
ENGINE_CEX_REJECTED = "engine_cex_rejected"
# Engine progress kinds carried inside JOB_PROGRESS events (``data["kind"]``):
# per-iteration ticks of the BDD fixed point, per-round SAT refinement stats
# (classes, sat_queries, cex_patterns, conflicts, propagations, restarts,
# learned) and Fig. 4 retiming-round boundaries.
PROGRESS_ITERATION = "iteration"
PROGRESS_INITIAL_SPLIT = "initial_split"
PROGRESS_REFINEMENT_ROUND = "refinement_round"
PROGRESS_RETIMING_ROUND = "retiming_round"
# Per-depth ticks of the k-induction engine (depth, clause counts, candidate
# counts and solver stats).
PROGRESS_INDUCTION_ROUND = "induction_round"
FUZZ_STARTED = "fuzz_started"
FUZZ_CASE_FINISHED = "fuzz_case_finished"
FUZZ_DISAGREEMENT = "fuzz_disagreement"
FUZZ_SHRUNK = "fuzz_shrunk"
FUZZ_CORPUS_SAVED = "fuzz_corpus_saved"
FUZZ_FINISHED = "fuzz_finished"
# External-oracle cross-checking (repro.interop.oracle): one event per case
# carrying the ABC/yosys verdicts, and one per run when no tool is
# installed (with the reason), so skipping is visible but never fatal.
FUZZ_CROSS_CHECK = "fuzz_cross_check"
FUZZ_CROSS_CHECK_SKIPPED = "fuzz_cross_check_skipped"
# Events emitted by the network daemon (repro.server): daemon lifecycle,
# job intake over HTTP, cancellation, queue-resume after a restart, and
# rate-limit/backpressure rejections.
SERVER_STARTED = "server_started"
SERVER_STOPPED = "server_stopped"
JOB_SUBMITTED = "job_submitted"
JOB_CANCELLED = "job_cancelled"
JOB_REQUEUED = "job_requeued"
CLIENT_THROTTLED = "client_throttled"
# Events emitted by the distributed fleet (repro.fleet): worker membership
# as seen by both sides (a worker emits its own joins/leaves, the
# coordinator emits joins it accepts and deaths its reaper declares) and
# the coordinator handing a job to a worker node.
NODE_JOINED = "node_joined"
NODE_LEFT = "node_left"
NODE_DIED = "node_died"
JOB_DISPATCHED = "job_dispatched"


class Event:
    """One timestamped service event.

    ``type`` is one of the module constants above, ``job`` names the job (or
    ``None`` for batch-level events) and ``data`` is a JSON-serializable
    payload (verdict, iteration counts, peak BDD nodes, wall time, ...).
    """

    __slots__ = ("ts", "type", "job", "data")

    def __init__(self, type, job=None, data=None, ts=None):
        self.ts = time.time() if ts is None else ts
        self.type = type
        self.job = job
        self.data = dict(data or {})

    def as_dict(self):
        return {"ts": self.ts, "type": self.type, "job": self.job,
                "data": self.data}

    @classmethod
    def from_dict(cls, payload):
        return cls(payload["type"], job=payload.get("job"),
                   data=payload.get("data"), ts=payload.get("ts"))

    def __repr__(self):
        return "Event({}, job={!r}, {})".format(self.type, self.job, self.data)


class EventBus:
    """Synchronous fan-out of events to subscribers.

    A misbehaving subscriber must not take the batch down, so exceptions
    raised by subscribers are swallowed (recorded in ``subscriber_errors``
    for diagnosis).
    """

    def __init__(self):
        self._subscribers = []
        self.subscriber_errors = 0

    def subscribe(self, callback):
        """Register ``callback(event)``; returns it (for unsubscribe)."""
        self._subscribers.append(callback)
        return callback

    def unsubscribe(self, callback):
        self._subscribers.remove(callback)

    def publish(self, event):
        for callback in list(self._subscribers):
            try:
                callback(event)
            except Exception:
                self.subscriber_errors += 1
        return event

    def emit(self, type, job=None, **data):
        """Build and publish an event in one call; returns the event."""
        return self.publish(Event(type, job=job, data=data))


class JsonlEventWriter:
    """Subscriber appending one JSON object per event to a file.

    Usable as a context manager::

        with JsonlEventWriter(path) as writer:
            bus.subscribe(writer)
            ...
    """

    def __init__(self, path):
        self.path = str(path)
        self._fh = open(self.path, "a")
        self.events_written = 0

    def __call__(self, event):
        json.dump(event.as_dict(), self._fh, sort_keys=True)
        self._fh.write("\n")
        self._fh.flush()
        self.events_written += 1

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def read_event_log(path):
    """Parse a JSONL event log back into a list of :class:`Event`."""
    events = []
    with open(str(path)) as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(Event.from_dict(json.loads(line)))
    return events
