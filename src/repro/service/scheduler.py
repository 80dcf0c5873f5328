"""Bounded-parallel batch verification with retries, fallback and caching.

:class:`BatchScheduler` runs many :class:`~repro.service.job.JobSpec`\\ s
concurrently across worker processes:

* at most ``workers`` jobs run at once (``workers=0`` executes inline in
  the calling process — the degenerate sequential mode the evaluation
  harness uses by default);
* solved jobs are skipped via the :class:`~repro.service.cache.ResultCache`
  (structural hashing: re-deriving an identical pair still hits);
* a worker that *crashes* (nonzero exit without a result) is retried up to
  ``retries`` times; a job whose engine finishes *inconclusive* can be
  resubmitted once on a ``fallback_method`` (e.g. ``bmc`` to hunt for a
  counterexample after the prover gives up);
* ``total_time_limit`` bounds the whole batch — running workers are
  cancelled gracefully and unstarted jobs are marked aborted;
  ``job_time_limit`` seeds each engine's own budget and backs it with a
  hard kill at ``job_time_limit + grace``;
* every step is published on the :class:`~repro.service.events.EventBus`.

Results come back in submission order, one :class:`JobResult` per job.
"""

import signal
import threading
import time

from .cache import ResultCache  # noqa: F401  (re-exported convenience)
from .events import (
    BATCH_FINISHED,
    BATCH_STARTED,
    ENGINE_FALLBACK,
    Event,
    EventBus,
    JOB_CACHED,
    JOB_FALLBACK,
    JOB_FINISHED,
    JOB_QUEUED,
    JOB_RETRY,
    JOB_STARTED,
)
from .job import JobResult, JobSpec, aborted_result
from .procs import drain_queue, get_context, start_worker, terminate_gracefully
from .worker import accepted_options, run_job

_POLL_INTERVAL = 0.05


def _seed_budgets(job, time_limit=None, node_limit=None):
    """Seed the scheduler-wide budgets into ``job``'s engine options.

    A budget goes only to a method whose entry point takes it (see
    :func:`~repro.service.worker.accepted_options`; registered methods get
    none) and never overrides the job's own value.
    """
    if time_limit is None and node_limit is None:
        return job
    accepted = accepted_options(job.method) or ()
    options = dict(job.options)
    for key, value in (("time_limit", time_limit), ("node_limit", node_limit)):
        if value is not None and key in accepted:
            options.setdefault(key, value)
    if options == job.options:
        return job
    return JobSpec(job.name, job.spec, job.impl, method=job.method,
                   options=options, match_inputs=job.match_inputs,
                   match_outputs=job.match_outputs, tags=job.tags)


class BatchScheduler:
    """Runs job batches under global budgets; see the module docstring."""

    def __init__(self, workers=2, cache=None, bus=None, retries=1,
                 fallback_method=None, fallback_options=None,
                 no_fallback=False, job_time_limit=None,
                 total_time_limit=None, node_limit=None, grace=2.0):
        self.workers = workers
        self.cache = cache
        self.bus = bus or EventBus()
        self.retries = retries
        self.fallback_method = fallback_method
        self.fallback_options = dict(fallback_options or {})
        #: Fail fast: finalize inconclusive verdicts as-is instead of
        #: resubmitting on the fallback engine (overrides fallback_method).
        self.no_fallback = no_fallback
        self.job_time_limit = job_time_limit
        self.total_time_limit = total_time_limit
        self.node_limit = node_limit
        self.grace = grace
        #: Set to the signal name ("SIGINT"/"SIGTERM") when a batch was
        #: stopped by :meth:`run`'s graceful signal handlers.
        self.interrupted = None

    # -- public API ---------------------------------------------------------

    def run(self, jobs):
        """Execute ``jobs``; returns a :class:`JobResult` list in order.

        While the batch runs (and only from the main thread), SIGINT and
        SIGTERM are intercepted for a graceful shutdown: in-flight workers
        are cancelled (SIGTERM → cooperative cancel → SIGKILL after the
        grace period), unstarted jobs are marked aborted, the event stream
        is flushed and the partial results are returned — instead of the
        interpreter dying mid-batch and leaking orphaned workers.
        ``self.interrupted`` records the signal name afterwards.
        """
        self.interrupted = None
        previous_handlers = self._install_signal_handlers()
        try:
            return self._run(jobs)
        finally:
            self._restore_signal_handlers(previous_handlers)

    def _run(self, jobs):
        jobs = [self._budgeted(job) for job in jobs]
        start = time.monotonic()
        self.bus.emit(BATCH_STARTED, jobs=len(jobs), workers=self.workers)
        results = [None] * len(jobs)
        pending = []
        for index, job in enumerate(jobs):
            self.bus.emit(JOB_QUEUED, job=job.name, index=index,
                          **{"method": job.method})
            cached = self._cache_lookup(job)
            if cached is not None:
                results[index] = JobResult(job.name, cached, cached=True,
                                           wall_seconds=0.0,
                                           method=job.method)
                self.bus.emit(JOB_CACHED, job=job.name, index=index,
                              verdict=cached.equivalent, method=job.method)
            else:
                pending.append(_Attempt(index, job))
        if pending:
            if self.workers <= 0:
                self._run_inline(pending, results, start)
            else:
                self._run_pool(pending, results, start)
        self.bus.emit(
            BATCH_FINISHED,
            jobs=len(jobs),
            seconds=time.monotonic() - start,
            cached=sum(1 for r in results if r is not None and r.cached),
            proved=sum(1 for r in results if r.verdict is True),
            refuted=sum(1 for r in results if r.verdict is False),
            undecided=sum(1 for r in results if r.verdict is None),
            interrupted=self.interrupted,
        )
        return results

    # -- graceful signal handling -------------------------------------------

    def _install_signal_handlers(self):
        """Route SIGINT/SIGTERM into the graceful-stop flag.

        Only possible from the main thread (the daemon drives its own
        :class:`WorkerPool` and handles signals itself); elsewhere this is
        a no-op returning an empty mapping.
        """
        if threading.current_thread() is not threading.main_thread():
            return {}
        previous = {}
        for signum, name in ((signal.SIGINT, "SIGINT"),
                             (signal.SIGTERM, "SIGTERM")):
            def handler(received, frame, name=name):
                # A second signal falls through to the default behaviour
                # (KeyboardInterrupt / process death) so a wedged batch can
                # still be stopped forcibly.
                if self.interrupted is None:
                    self.interrupted = name
                elif received == signal.SIGINT:
                    raise KeyboardInterrupt
            try:
                previous[signum] = signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                pass
        return previous

    def _restore_signal_handlers(self, previous):
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass

    def _stop_reason(self, deadline):
        """The abort reason when the batch should stop, else ``None``."""
        if self.interrupted is not None:
            return "interrupted ({})".format(self.interrupted)
        if deadline is not None and time.monotonic() > deadline:
            return "batch time budget exhausted"
        return None

    # -- shared helpers -----------------------------------------------------

    def _budgeted(self, job):
        return _seed_budgets(job, self.job_time_limit, self.node_limit)

    def _cache_lookup(self, job):
        if self.cache is None:
            return None
        return self.cache.get(job.cache_key())

    def _cache_store(self, job, result):
        if self.cache is not None and result is not None:
            self.cache.put(job.cache_key(), result,
                           meta={"job": job.name, "method": job.method})

    def _deadline(self, start):
        if self.total_time_limit is None:
            return None
        return start + self.total_time_limit

    def _finalize(self, attempt, result, results, pending, wall_seconds):
        """Record a finished engine run; may queue a fallback attempt."""
        job = attempt.job
        if (result.inconclusive and not attempt.is_fallback
                and not self.no_fallback
                and self.fallback_method is not None
                and job.method != self.fallback_method):
            fallback_job = JobSpec(
                job.name, job.spec, job.impl, method=self.fallback_method,
                options=dict(self.fallback_options),
                match_inputs=job.match_inputs,
                match_outputs=job.match_outputs, tags=job.tags,
            )
            self.bus.emit(JOB_FALLBACK, job=job.name, index=attempt.index,
                          method=self.fallback_method,
                          primary_method=job.method)
            self.bus.emit(ENGINE_FALLBACK, job=job.name, index=attempt.index,
                          engine=job.method, fallback=self.fallback_method,
                          reason=result.details.get("aborted",
                                                    "inconclusive"))
            pending.append(_Attempt(attempt.index, self._budgeted(fallback_job),
                                    is_fallback=True,
                                    primary_result=result,
                                    attempts_so_far=attempt.number))
            return
        if attempt.is_fallback and result.inconclusive:
            # Fallback did not decide either: keep the primary engine's
            # richer result (iteration counts, abort reason).
            result = attempt.primary_result
            result.details = dict(result.details,
                                  fallback_inconclusive=self.fallback_method)
        elif attempt.is_fallback:
            result.details = dict(result.details,
                                  fallback_for=job.name)
        self._cache_store(job, result)
        results[attempt.index] = JobResult(
            job.name, result, attempts=attempt.number,
            wall_seconds=wall_seconds, method=result.method)
        self.bus.emit(JOB_FINISHED, job=job.name, index=attempt.index,
                      verdict=result.equivalent, method=result.method,
                      seconds=result.seconds, peak_nodes=result.peak_nodes,
                      attempts=attempt.number)

    # -- inline (workers=0) -------------------------------------------------

    def _run_inline(self, pending, results, start):
        deadline = self._deadline(start)
        while pending:
            attempt = pending.pop(0)
            reason = self._stop_reason(deadline)
            if reason is not None:
                self._abort_remaining([attempt] + pending, results, reason)
                return
            self.bus.emit(JOB_STARTED, job=attempt.job.name,
                          index=attempt.index, method=attempt.job.method,
                          inline=True)
            t0 = time.monotonic()
            try:
                result = run_job(attempt.job, emit=self.bus.publish)
            except Exception as exc:
                result = aborted_result(attempt.job.method,
                                        "engine error: {!r}".format(exc))
            self._finalize(attempt, result, results, pending,
                           time.monotonic() - t0)

    # -- process pool -------------------------------------------------------

    def _run_pool(self, pending, results, start):
        ctx = get_context()
        event_queue = ctx.Queue()
        result_queue = ctx.Queue()
        running = {}  # token -> _Running
        token_counter = 0
        deadline = self._deadline(start)
        try:
            while pending or running:
                reason = self._stop_reason(deadline)
                if reason is not None:
                    self._cancel_running(running, results, reason)
                    self._abort_remaining(pending, results, reason)
                    return
                while pending and len(running) < self.workers:
                    attempt = pending.pop(0)
                    token_counter += 1
                    proc = start_worker(ctx, attempt.job, token_counter,
                                        event_queue, result_queue)
                    running[token_counter] = _Running(attempt, proc)
                    self.bus.emit(JOB_STARTED, job=attempt.job.name,
                                  index=attempt.index,
                                  method=attempt.job.method,
                                  attempt=attempt.number, pid=proc.pid)
                for payload in drain_queue(event_queue):
                    self.bus.publish(Event.from_dict(payload))
                for kind, token, payload in drain_queue(result_queue):
                    run = running.get(token)
                    if run is None:
                        continue
                    run.outcome = (kind, payload)
                self._reap(running, results, pending)
                self._enforce_job_timeout(running)
                if running and not pending:
                    time.sleep(_POLL_INTERVAL)
                elif running:
                    time.sleep(_POLL_INTERVAL / 5)
        finally:
            terminate_gracefully([r.proc for r in running.values()],
                                 grace=self.grace)
            for payload in drain_queue(event_queue):
                self.bus.publish(Event.from_dict(payload))
            event_queue.close()
            result_queue.close()

    def _reap(self, running, results, pending):
        for token in list(running):
            run = running[token]
            if run.outcome is None and run.proc.is_alive():
                continue
            if run.outcome is None:
                # Exited without reporting: give the queue a beat to
                # deliver a result raced with process death.
                run.proc.join()
                if run.grace_polls < 3:
                    run.grace_polls += 1
                    continue
            del running[token]
            attempt = run.attempt
            wall = time.monotonic() - run.started
            if run.outcome is not None:
                run.proc.join()
                kind, payload = run.outcome
                if kind == "result":
                    self._finalize(attempt,
                                   JobResult.from_dict(payload).result,
                                   results, pending, wall)
                else:
                    self._crash(attempt, "engine error:\n" + payload,
                                results, pending)
            else:
                self._crash(
                    attempt,
                    "worker crashed (exit code {})".format(run.proc.exitcode),
                    results, pending,
                    timed_out=run.timed_out,
                )

    def _crash(self, attempt, reason, results, pending, timed_out=False):
        job = attempt.job
        if timed_out:
            result = aborted_result(job.method, "job time budget exhausted")
            self._finalize(attempt, result, results, pending, None)
            return
        if attempt.number <= self.retries:
            self.bus.emit(JOB_RETRY, job=job.name, index=attempt.index,
                          attempt=attempt.number + 1, reason=reason)
            pending.append(attempt.retry())
            return
        result = aborted_result(job.method, reason)
        results[attempt.index] = JobResult(
            job.name, result, attempts=attempt.number, error=reason,
            method=job.method)
        self.bus.emit(JOB_FINISHED, job=job.name, index=attempt.index,
                      verdict=None, method=job.method, error=reason,
                      attempts=attempt.number)

    def _enforce_job_timeout(self, running):
        """Hard-kill guard above the engines' cooperative budgets."""
        if self.job_time_limit is None:
            return
        limit = self.job_time_limit + self.grace
        for run in running.values():
            if (run.outcome is None and not run.timed_out
                    and time.monotonic() - run.started > limit):
                run.timed_out = True
                run.proc.terminate()

    def _cancel_running(self, running, results,
                        reason="batch time budget exhausted"):
        terminate_gracefully([r.proc for r in running.values()],
                             grace=self.grace)
        for run in running.values():
            attempt = run.attempt
            result = aborted_result(attempt.job.method, reason)
            results[attempt.index] = JobResult(
                attempt.job.name, result, attempts=attempt.number,
                method=attempt.job.method)
            self.bus.emit(JOB_FINISHED, job=attempt.job.name,
                          index=attempt.index, verdict=None,
                          method=attempt.job.method,
                          error=reason,
                          attempts=attempt.number)
        running.clear()

    def _abort_remaining(self, pending, results,
                         reason="batch time budget exhausted"):
        for attempt in pending:
            result = aborted_result(attempt.job.method, reason)
            results[attempt.index] = JobResult(
                attempt.job.name, result, attempts=attempt.number - 1,
                method=attempt.job.method)
            self.bus.emit(JOB_FINISHED, job=attempt.job.name,
                          index=attempt.index, verdict=None,
                          method=attempt.job.method,
                          error=reason,
                          attempts=attempt.number - 1)
        del pending[:]


class _Attempt:
    """One (re)submission of a job slot."""

    __slots__ = ("index", "job", "number", "is_fallback", "primary_result")

    def __init__(self, index, job, number=1, is_fallback=False,
                 primary_result=None, attempts_so_far=0):
        self.index = index
        self.job = job
        self.number = number + attempts_so_far
        self.is_fallback = is_fallback
        self.primary_result = primary_result

    def retry(self):
        clone = _Attempt(self.index, self.job, number=self.number + 1,
                         is_fallback=self.is_fallback,
                         primary_result=self.primary_result)
        return clone


class _Running:
    """Bookkeeping for one live worker process."""

    __slots__ = ("attempt", "proc", "started", "outcome", "timed_out",
                 "grace_polls")

    def __init__(self, attempt, proc):
        self.attempt = attempt
        self.proc = proc
        self.started = time.monotonic()
        self.outcome = None
        self.timed_out = False
        self.grace_polls = 0


class PoolOutcome:
    """One finished :class:`WorkerPool` job.

    ``result`` is the worker's :class:`JobResult` (an aborted placeholder
    for crashes and hard kills); ``error`` carries the crash description;
    ``cancelled`` is True when the job ended because :meth:`WorkerPool.cancel`
    was called on it.
    """

    __slots__ = ("token", "job", "result", "error", "cancelled")

    def __init__(self, token, job, result, error=None, cancelled=False):
        self.token = token
        self.job = job
        self.result = result
        self.error = error
        self.cancelled = cancelled


class WorkerPool:
    """Non-blocking submit/poll/cancel surface over the worker processes.

    Where :class:`BatchScheduler` owns a blocking loop over a fixed job
    list, a long-lived host (the :mod:`repro.server` asyncio daemon) needs
    to interleave job execution with other work.  ``WorkerPool`` exposes
    the same worker plumbing incrementally — every method returns
    immediately:

    * :meth:`submit` forks a worker for one job (caller checks
      :meth:`has_capacity` first, queueing policy lives with the caller);
    * :meth:`poll` drains worker events onto the bus, escalates pending
      cancellations past their grace period and returns the
      :class:`PoolOutcome` list of jobs that finished since the last call;
    * :meth:`cancel` requests the SIGTERM → cooperative-cancel → SIGKILL
      path for one running job without blocking on it.

    The pool is *async-safe* in the sense the daemon needs: no method
    blocks, so a single asyncio task can drive it with awaits in between.
    It is not thread-safe — drive it from one thread/task only.
    """

    def __init__(self, workers=2, bus=None, job_time_limit=None, grace=2.0):
        self.workers = max(1, workers)
        self.bus = bus or EventBus()
        self.job_time_limit = job_time_limit
        self.grace = grace
        self._ctx = get_context()
        self._event_queue = self._ctx.Queue()
        self._result_queue = self._ctx.Queue()
        self._running = {}  # token -> _PoolRun

    # -- capacity -----------------------------------------------------------

    @property
    def active(self):
        """Number of live worker slots (running or being reaped)."""
        return len(self._running)

    def has_capacity(self):
        return len(self._running) < self.workers

    def running_tokens(self):
        return list(self._running)

    # -- submit / cancel ----------------------------------------------------

    def submit(self, token, job):
        """Fork a worker for ``job``; ``token`` routes its outcome back.

        Raises :class:`RuntimeError` when the pool is full or the token is
        already in flight — callers gate on :meth:`has_capacity`.
        """
        if not self.has_capacity():
            raise RuntimeError("worker pool is full")
        if token in self._running:
            raise RuntimeError("token {!r} already running".format(token))
        job = self._budgeted(job)
        proc = start_worker(self._ctx, job, token,
                            self._event_queue, self._result_queue)
        self._running[token] = _PoolRun(job, proc)
        self.bus.emit(JOB_STARTED, job=job.name, method=job.method,
                      pid=proc.pid)
        return proc.pid

    def _budgeted(self, job):
        return _seed_budgets(job, self.job_time_limit)

    def cancel(self, token):
        """Begin cancelling a running job; returns True if it was running.

        SIGTERM triggers the worker's cooperative-cancellation path; if it
        has not exited ``grace`` seconds later, :meth:`poll` escalates to
        SIGKILL.  The job's :class:`PoolOutcome` (flagged ``cancelled``)
        is delivered by a later :meth:`poll`.
        """
        run = self._running.get(token)
        if run is None:
            return False
        if not run.cancelled:
            run.cancelled = True
            run.kill_at = time.monotonic() + self.grace
            if run.proc.is_alive():
                run.proc.terminate()
        return True

    # -- poll ---------------------------------------------------------------

    def poll(self):
        """Advance the pool one step; returns finished :class:`PoolOutcome`\\ s.

        Drains worker progress events onto the bus, applies the
        ``job_time_limit`` hard-kill guard, escalates overdue cancellations
        and reaps exited workers.  Never blocks.
        """
        for payload in drain_queue(self._event_queue):
            self.bus.publish(Event.from_dict(payload))
        for kind, token, payload in drain_queue(self._result_queue):
            run = self._running.get(token)
            if run is not None:
                run.outcome = (kind, payload)
        self._enforce_limits()
        return self._reap()

    def _enforce_limits(self):
        now = time.monotonic()
        for run in self._running.values():
            if run.outcome is not None or not run.proc.is_alive():
                continue
            if run.cancelled:
                if run.kill_at is not None and now > run.kill_at:
                    run.kill_at = None
                    run.proc.kill()
            elif (self.job_time_limit is not None and not run.timed_out
                    and now - run.started > self.job_time_limit + self.grace):
                run.timed_out = True
                run.proc.terminate()
                run.kill_at = now + self.grace

    def _reap(self):
        finished = []
        for token in list(self._running):
            run = self._running[token]
            if run.outcome is None and run.proc.is_alive():
                continue
            if run.outcome is None and run.grace_polls < 3:
                # Exited without reporting: give the queue a beat to deliver
                # a result raced with process death.
                run.proc.join()
                run.grace_polls += 1
                continue
            del self._running[token]
            run.proc.join()
            finished.append(self._outcome(token, run))
        return finished

    def _outcome(self, token, run):
        job = run.job
        if run.outcome is not None:
            kind, payload = run.outcome
            if kind == "result":
                result = JobResult.from_dict(payload)
                result.wall_seconds = time.monotonic() - run.started
                if run.cancelled:
                    return PoolOutcome(token, job, result, cancelled=True)
                return PoolOutcome(token, job, result)
            error = "engine error:\n" + payload
        elif run.cancelled:
            error = "cancelled (killed after grace period)"
        elif run.timed_out:
            error = "job time budget exhausted"
        else:
            error = "worker crashed (exit code {})".format(run.proc.exitcode)
        reason = ("cancelled" if run.cancelled
                  else error.splitlines()[0])
        result = JobResult(job.name, aborted_result(job.method, reason),
                           error=error, method=job.method,
                           wall_seconds=time.monotonic() - run.started)
        return PoolOutcome(token, job, result, error=error,
                           cancelled=run.cancelled)

    # -- shutdown -----------------------------------------------------------

    def shutdown(self, grace=None):
        """Stop every running worker (SIGTERM → SIGKILL); returns outcomes.

        Blocking (up to the grace period) — the one pool method that is,
        reserved for daemon teardown.  Pending worker events are flushed to
        the bus before the queues close.
        """
        grace = self.grace if grace is None else grace
        terminate_gracefully([r.proc for r in self._running.values()],
                             grace=grace)
        for payload in drain_queue(self._event_queue):
            self.bus.publish(Event.from_dict(payload))
        outcomes = []
        for token in list(self._running):
            run = self._running.pop(token)
            run.cancelled = True
            for kind, tok, payload in drain_queue(self._result_queue):
                target = self._running.get(tok)
                if target is not None:
                    target.outcome = (kind, payload)
                elif tok == token:
                    run.outcome = (kind, payload)
            outcomes.append(self._outcome(token, run))
        self._event_queue.close()
        self._result_queue.close()
        return outcomes


class _PoolRun:
    """Bookkeeping for one live :class:`WorkerPool` worker."""

    __slots__ = ("job", "proc", "started", "outcome", "cancelled",
                 "timed_out", "kill_at", "grace_polls")

    def __init__(self, job, proc):
        self.job = job
        self.proc = proc
        self.started = time.monotonic()
        self.outcome = None
        self.cancelled = False
        self.timed_out = False
        self.kill_at = None
        self.grace_polls = 0
