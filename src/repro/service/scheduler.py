"""The one worker supervisor, and bounded-parallel batch verification.

:class:`WorkerPool` is the only code that forks, relays, reaps and kills
worker processes.  It keeps up to ``workers`` of them alive across jobs:
a worker is forked only when a job finds no idle one, reads one job at a
time from its own job pipe and reports over its own result pipe (see
:func:`worker_entry`).  :class:`BatchScheduler`, the engine race
(:func:`~repro.service.portfolio.run_portfolio`) and the
:mod:`repro.server` daemon are loops over its ``submit``/``poll``/
``shutdown``.  A running job is stopped one way, whatever the cause — a
cancel, a ``job_time_limit`` overrun or a shutdown:

* SIGTERM, which the worker turns into cooperative cancellation (the
  engine returns "cancelled" at its next budget poll);
* SIGKILL ``grace`` seconds later if the worker is still alive.

The time-budget kill starts at ``job_time_limit + grace`` (the engine got
the limit as its own budget), so a stuck engine is dead by
``job_time_limit + 2·grace``.  Only a clean ending — a result, no SIGTERM,
no orphaned worker, no thread left behind — returns the worker to the
idle set; every other ending retires it: it exits and is reaped, and a
worker still alive ``grace`` seconds after it reported (a lingering
thread, say) gets SIGKILL alone.  So the retry after an engine error or a
crash runs in a fresh process.  Each job ends in one :class:`PoolOutcome`,
and one retry rule reads it: only an engine error or a crashed worker is
retried; a time-budget kill or a cancel never is.

:class:`BatchScheduler` runs many :class:`~repro.service.job.JobSpec`\\ s:

* at most ``workers`` jobs run at once (``workers=0`` executes inline in
  the calling process — the degenerate sequential mode the evaluation
  harness uses by default);
* solved jobs are skipped via the :class:`~repro.service.cache.ResultCache`
  (structural hashing: re-deriving an identical pair still hits);
* a job whose engine raised or whose worker crashed is retried up to
  ``retries`` times; a job whose engine finishes *inconclusive* can be
  resubmitted once on a ``fallback_method`` (e.g. ``bmc`` to hunt for a
  counterexample after the prover gives up);
* ``total_time_limit`` bounds the whole batch — running workers are
  stopped and unstarted jobs are marked aborted; ``job_time_limit`` seeds
  each engine's own budget and backs it with the pool's kill;
* every step is published on the :class:`~repro.service.events.EventBus`.

Results come back in submission order, one :class:`JobResult` per job.
"""

import itertools
import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time
import traceback

from .cache import ResultCache  # noqa: F401  (re-exported convenience)
from .events import (
    BATCH_FINISHED,
    BATCH_STARTED,
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
from .worker import accepted_options, registered_methods, run_job

#: Messages :meth:`WorkerPool.poll` reads from one worker per call, so a
#: worker that emits faster than the bus publishes cannot hold it up.
_READ_BATCH = 1000


def seed_budgets(job, time_limit=None, node_limit=None):
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
                 job_time_limit=None, total_time_limit=None,
                 node_limit=None, grace=2.0):
        self.workers = workers
        self.cache = cache
        self.bus = bus or EventBus()
        self.retries = retries
        self.fallback_method = fallback_method
        self.fallback_options = dict(fallback_options or {})
        self.job_time_limit = job_time_limit
        self.total_time_limit = total_time_limit
        self.node_limit = node_limit
        self.grace = grace
        #: Set to the signal name ("SIGINT"/"SIGTERM") when a batch was
        #: stopped by :meth:`run`'s graceful signal handlers.
        self.interrupted = None
        self._wakeup = None  # write end of the pool loop's wake pipe

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
                    if self._wakeup is not None:
                        os.write(self._wakeup, b"\0")
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
        return seed_budgets(job, self.job_time_limit, self.node_limit)

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
                          primary_method=job.method,
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
                self._abort([attempt] + pending, results, reason)
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
        deadline = self._deadline(start)
        pool = WorkerPool(self.workers, bus=self.bus,
                          job_time_limit=self.job_time_limit,
                          grace=self.grace)
        running = {}  # token -> _Attempt
        tokens = itertools.count(1)
        reason = None
        # The signal handlers write a byte here, so a stop request ends the
        # wait below instead of waiting for a worker to report.
        wake, self._wakeup = os.pipe()
        try:
            while pending or running:
                reason = self._stop_reason(deadline)
                if reason is not None:
                    break
                for outcome in pool.poll():
                    attempt = running.pop(outcome.token)
                    if outcome.retryable:
                        self._retry(attempt, outcome.error, results, pending)
                    else:
                        self._finalize(attempt, outcome.result.result,
                                       results, pending,
                                       outcome.result.wall_seconds)
                while pending and pool.has_capacity():
                    attempt = pending.pop(0)
                    token = next(tokens)
                    running[token] = attempt
                    pool.submit(token, attempt.job, index=attempt.index,
                                attempt=attempt.number)
                if running:
                    timeout = (None if deadline is None
                               else deadline - time.monotonic())
                    if wake in pool.wait(timeout, also=(wake,)):
                        os.read(wake, 64)  # _stop_reason says why
        finally:
            pool.shutdown()
            wakeup, self._wakeup = self._wakeup, None
            os.close(wakeup)
            os.close(wake)
        if reason is not None:
            self._abort(running.values(), results, reason, ran=True)
            self._abort(pending, results, reason)

    def _retry(self, attempt, reason, results, pending):
        """Resubmit an attempt whose engine raised or whose worker crashed,
        or record the failure once ``retries`` are used up."""
        job = attempt.job
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

    def _abort(self, attempts, results, reason, ran=False):
        """Mark ``attempts`` aborted for ``reason``; ``ran`` counts the
        stopped attempt itself as made."""
        for attempt in attempts:
            made = attempt.number if ran else attempt.number - 1
            result = aborted_result(attempt.job.method, reason)
            results[attempt.index] = JobResult(
                attempt.job.name, result, attempts=made,
                method=attempt.job.method)
            self.bus.emit(JOB_FINISHED, job=attempt.job.name,
                          index=attempt.index, verdict=None,
                          method=attempt.job.method,
                          error=reason,
                          attempts=made)


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


class PoolOutcome:
    """How one :class:`WorkerPool` worker ended.

    ``ended`` is ``"finished"`` (the engine returned a result), ``"error"``
    (the engine raised), ``"crashed"`` (the process died without
    reporting), ``"timed_out"`` (stopped for ``job_time_limit``) or
    ``"cancelled"`` (stopped by :meth:`WorkerPool.cancel` or
    :meth:`WorkerPool.shutdown`); ``killed`` is True when the worker needed
    SIGKILL.  ``result`` is the :class:`JobResult` the worker posted — kept
    even if the worker was stopped afterwards — or, when it posted none,
    an aborted placeholder whose ``error`` says why.  ``error`` describes
    every ending but ``"finished"``.
    """

    __slots__ = ("token", "job", "result", "ended", "killed", "error")

    def __init__(self, token, job, result, ended, killed, error):
        self.token = token
        self.job = job
        self.result = result
        self.ended = ended
        self.killed = killed
        self.error = error

    @property
    def cancelled(self):
        return self.ended == "cancelled"

    @property
    def retryable(self):
        """The one retry rule: only an engine error or a crash is retried;
        a time-budget kill or a cancel never is."""
        return self.ended in ("error", "crashed")


def worker_entry(jobs, conn, inherited):
    """Process target: run the jobs read from ``jobs``, one at a time, and
    report each over ``conn``.

    ``jobs`` is the receive end of the worker's job pipe and ``conn`` the
    send end of its result pipe; :class:`WorkerPool` holds the other ends.
    For each job ``conn`` carries ``("event", Event-dict)`` per engine
    event, then exactly one final message: ``("result", JobResult-dict,
    reuse)``, or ``("error", traceback-string, False)`` when the engine
    raised.  ``reuse`` is True for a clean ending only — a result, no
    SIGTERM, no orphan, no thread left behind — and then the worker waits
    for its next job; after any other ending it exits.  A crash (hard
    kill, segfault, ``os._exit``) ends the pipe without a final message;
    the pool reports the exit code.

    ``inherited`` lists the descriptors open in the pool's process when it
    forked this worker: the listener and client sockets of a daemon, the
    pipes of the other workers, this worker's own two pipe ends.  The
    worker closes all but its own two ends and stdio, and multiprocessing's
    ends are opened after the list is taken, so they stay.  So an SSE
    stream ends when the daemon closes it, not when a worker forked
    during it exits; and once the pool's process is gone, an idle worker
    sees end of file on its job pipe and exits, and a running one's send
    fails instead of blocking on a full pipe.

    ``SIGTERM`` during a job becomes *cooperative* cancellation: the engine
    notices at its next poll of the run's :class:`~repro.budget.Budget`
    (built-in engines poll it down to single SAT and BDD operations) and
    returns an inconclusive ("cancelled") result, so the worker exits
    cleanly instead of dying mid-operation.  Between jobs ``SIGTERM`` has
    its default action: a cancel whose result the pool has not read yet
    ends the worker at once.
    """
    # An asyncio parent (the verification daemon) has a signal wakeup fd
    # installed, and fork shares it with us.  If we kept it, our own
    # SIGTERM delivery would write the signum byte into the parent's
    # event loop self-pipe — the parent would dispatch its *own* SIGTERM
    # handler and shut down the whole daemon whenever one job is
    # cancelled.  Detach before closing it and before any handler of ours.
    signal.set_wakeup_fd(-1)
    # A terminal's Ctrl-C reaches the whole process group.  The pool's
    # process handles it and stops us with SIGTERM; the handler we
    # inherited (the batch's writes to a pipe we close below) must not run.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    own = {0, 1, 2, jobs.fileno(), conn.fileno()}
    for fd in inherited:
        if fd not in own:
            try:
                os.close(fd)
            except OSError:  # closed by another thread of the pool's process
                pass
    cancelled = threading.Event()

    def on_sigterm(signum, frame):
        cancelled.set()

    # Orphan guard: if the parent dies without tearing us down (SIGKILL'd
    # scheduler/daemon — its atexit cleanup never runs), we are reparented
    # and ``getppid`` changes.  Treat that as a cancellation so the engine
    # unwinds at its next budget poll instead of running forever.
    parent_pid = os.getppid()

    def cancel_check():
        return cancelled.is_set() or os.getppid() != parent_pid

    def emit(event):
        try:
            conn.send(("event", event.as_dict()))
        except Exception:
            pass  # never let telemetry take the engine down

    with jobs, conn:
        while True:
            # Idle: SIGTERM's default action.  A SIGTERM that came since the
            # last check set ``cancelled`` instead, so look once more.
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            if cancel_check():
                return
            try:
                job = jobs.recv()
            except EOFError:
                return  # retired, or the pool's process is gone
            signal.signal(signal.SIGTERM, on_sigterm)
            started = time.monotonic()
            try:
                result = run_job(job, emit=emit, cancel_check=cancel_check)
                kind, payload = "result", JobResult(
                    job.name, result,
                    wall_seconds=time.monotonic() - started,
                    method=job.method,
                ).as_dict()
            except Exception:
                kind, payload = "error", traceback.format_exc()
            reuse = (kind == "result" and not cancel_check()
                     and threading.active_count() == 1)
            try:
                conn.send((kind, payload, reuse))
            except OSError:
                return  # the pool's process is gone (a broken pipe)
            if not reuse:
                return


def _open_fds():
    """The descriptors open in this process, as Linux lists them."""
    fds = []
    for name in os.listdir("/proc/self/fd"):
        fd = int(name)
        try:
            os.fstat(fd)
        except OSError:  # the listing's own descriptor, closed by now
            continue
        fds.append(fd)
    return fds


class WorkerPool:
    """Non-blocking submit/poll/cancel surface over the worker processes.

    Every method but :meth:`shutdown` returns immediately, so a long-lived
    host (the :mod:`repro.server` asyncio daemon) can interleave job
    execution with other work, and a blocking caller (the batch, the
    portfolio) is a short loop around :meth:`poll`:

    * :meth:`submit` hands a job to an idle worker, or forks one when none
      is idle (caller checks :meth:`has_capacity` first, queueing policy
      lives with the caller);
    * :meth:`poll` relays worker events onto the bus, applies the
      ``job_time_limit`` kill, escalates overdue SIGTERMs to SIGKILL,
      SIGKILLs a retiring worker that lingers ``grace`` seconds after
      reporting and returns the :class:`PoolOutcome` list of jobs that
      ended since the last call — a clean one as soon as its result is
      read, any other once its worker is reaped;
    * :meth:`cancel` starts the SIGTERM → SIGKILL path for one job without
      blocking on it;
    * :meth:`wait` blocks until :meth:`poll` has work: a running job's
      result pipe is readable, its worker exits or a kill comes due.  An
      event loop waits on :meth:`waitables` and :meth:`time_left` itself
      instead.

    Each worker has its own pipes (see :func:`worker_entry`), so a worker
    killed mid-message or flooding events holds up no other.  An idle
    worker keeps the heap its last job left; :meth:`shutdown` retires it.

    It is not thread-safe — drive it from one thread/task only.
    """

    def __init__(self, workers=2, bus=None, job_time_limit=None, grace=2.0):
        self.workers = max(1, workers)
        self.bus = bus or EventBus()
        self.job_time_limit = job_time_limit
        self.grace = grace
        # ``fork``: workers inherit the engines registered in the parent
        # with register_method (tests rely on it).
        self._ctx = multiprocessing.get_context("fork")
        self._running = {}  # token -> _PoolRun
        self._idle = []  # _Worker processes waiting for a job

    # -- capacity -----------------------------------------------------------

    @property
    def active(self):
        """Number of jobs running (or whose worker is being reaped)."""
        return len(self._running)

    def has_capacity(self):
        return len(self._running) < self.workers

    # -- submit / cancel ----------------------------------------------------

    def submit(self, token, job, event=JOB_STARTED, **fields):
        """Start ``job`` on a worker; ``token`` routes its outcome back.

        Emits ``event`` with the job's name and method, the worker's pid
        and ``fields``.  Raises :class:`RuntimeError` when the pool is full
        or the token is already in flight — callers gate on
        :meth:`has_capacity`.
        """
        if not self.has_capacity():
            raise RuntimeError("worker pool is full")
        if token in self._running:
            raise RuntimeError("token {!r} already running".format(token))
        job = self._budgeted(job)
        worker = self._take_idle() or self._fork()
        try:
            worker.jobs.send(job)
        except OSError:
            pass  # the worker died: poll() reports the crash
        self._running[token] = _PoolRun(job, worker)
        self.bus.emit(event, job=job.name, method=job.method,
                      pid=worker.proc.pid, **fields)
        return worker.proc.pid

    def _budgeted(self, job):
        return seed_budgets(job, self.job_time_limit)

    def _take_idle(self):
        """An idle worker to run the next job, or ``None``.  Retires the
        dead ones and those forked before a method was (un)registered."""
        methods = registered_methods()
        while self._idle:
            worker = self._idle.pop()
            if worker.methods == methods and worker.proc.is_alive():
                return worker
            self._retire(worker)
        return None

    def _fork(self):
        jobs, job_sender = self._ctx.Pipe(duplex=False)
        conn, result_sender = self._ctx.Pipe(duplex=False)
        inherited = _open_fds()
        # The parent closes the worker's ends, so each pipe ends when the
        # worker or the pool lets go of its own end.
        with jobs, result_sender:
            proc = self._ctx.Process(
                target=worker_entry, args=(jobs, result_sender, inherited),
                name="repro-worker", daemon=True)
            proc.start()
        return _Worker(proc, job_sender, conn, registered_methods())

    def _retire(self, worker):
        """End an idle worker: end of file on its job pipe makes it exit;
        SIGKILL if it has not after ``grace`` seconds."""
        worker.jobs.close()
        worker.proc.join(self.grace)
        if worker.proc.exitcode is None:
            worker.proc.kill()
        worker.reap()

    def cancel(self, token):
        """Begin cancelling a running job; returns True if it was running.

        The job's :class:`PoolOutcome` (``ended == "cancelled"``) is
        delivered by a later :meth:`poll`.
        """
        run = self._running.get(token)
        if run is None:
            return False
        self._stop(run, "cancelled")
        return True

    def _stop(self, run, ended):
        """The one escalation path: SIGTERM now, SIGKILL ``grace`` seconds
        later (:meth:`poll` sends it)."""
        if run.stop is not None:
            return
        run.stop = ended
        run.kill_at = time.monotonic() + self.grace
        if run.worker.proc.is_alive():
            run.worker.proc.terminate()

    # -- poll ---------------------------------------------------------------

    def poll(self):
        """Relay events, apply the kills, reap; returns :class:`PoolOutcome`\\ s.

        Never blocks: it reads only what a worker's pipe holds, and joins
        only a worker whose pipe has ended and whose process has exited.
        """
        now = time.monotonic()
        finished = []
        for token, run in list(self._running.items()):
            worker = run.worker
            if worker.conn is not None:
                self._read(run)
            if run.message is not None and run.message[2] and run.stop is None:
                # A clean ending: the worker waits for its next job.
                del self._running[token]
                self._idle.append(worker)
                finished.append(self._outcome(token, run))
            elif worker.proc.is_alive():
                self._escalate(run, now)
            elif worker.conn is None:
                # End of file after exit: every message sent has been read.
                del self._running[token]
                worker.reap()
                finished.append(self._outcome(token, run))
        return finished

    def _read(self, run):
        """Publish the events ``run``'s result pipe holds, in order, and keep
        its final message; close the pipe at its end."""
        conn = run.worker.conn
        try:
            for _ in range(_READ_BATCH):
                if not conn.poll():
                    return
                message = conn.recv()
                if message[0] == "event":
                    self.bus.publish(Event.from_dict(message[1]))
                else:
                    run.message = message
        except (EOFError, OSError):  # OSError: a message torn by SIGKILL
            conn.close()
            run.worker.conn = None

    def _escalate(self, run, now):
        """Set a retiring worker's SIGKILL deadline once it has reported,
        and act on its :meth:`_due` deadline once that has passed."""
        if run.kill_at is None and run.message is not None:
            # Reported, yet still alive (say, a lingering thread): SIGKILL
            # after ``grace``; the outcome keeps the result.
            run.kill_at = now + self.grace
        due = self._due(run)
        if due is None or now < due:
            return
        if run.kill_at is None:
            self._stop(run, "timed_out")
        else:
            run.killed = True
            run.worker.proc.kill()

    def _due(self, run):
        """When :meth:`poll` acts on ``run`` unprompted: the SIGKILL at its
        ``kill_at``, or the SIGTERM once it overran ``job_time_limit`` plus
        ``grace``; ``None`` when neither is pending."""
        if run.killed:
            return None
        if run.kill_at is not None:
            return run.kill_at
        if run.message is None and self.job_time_limit is not None:
            return run.started + self.job_time_limit + self.grace
        return None

    def _outcome(self, token, run):
        job = run.job
        kind, payload, _ = run.message or (None, None, None)
        ended = run.stop or {"result": "finished", "error": "error"}.get(
            kind, "crashed")
        wall = time.monotonic() - run.started
        if kind == "error":
            error = "engine error:\n" + payload
        elif ended == "crashed":
            error = "worker crashed (exit code {})".format(
                run.worker.proc.exitcode)
        elif ended == "timed_out":
            error = "job time budget exhausted"
        elif ended == "cancelled":
            error = "cancelled"
        else:
            error = None
        if kind == "result":
            result = JobResult.from_dict(payload)
            result.wall_seconds = wall
        else:
            result = JobResult(
                job.name, aborted_result(job.method, error.splitlines()[0]),
                error=error, method=job.method, wall_seconds=wall)
        return PoolOutcome(token, job, result, ended, run.killed, error)

    # -- wait ---------------------------------------------------------------

    def waitables(self):
        """The descriptors whose readiness gives :meth:`poll` work: each
        running job's open result pipe and its worker's exit descriptor.

        A pipe reaches end of file before its worker has exited, so the
        exit descriptor is needed too: a pidfd, which turns readable once
        the worker can be reaped, or else the process sentinel, which turns
        readable a few milliseconds earlier, while the worker still exits.
        :meth:`poll` closes a pipe at its end and both exit descriptors
        once it has reaped the worker: stop watching them first.  An idle
        worker gives :meth:`poll` no work, so none of its descriptors is
        listed.
        """
        fds = []
        for run in self._running.values():
            worker = run.worker
            if worker.conn is not None:
                fds.append(worker.conn.fileno())
            fds.append(worker.proc.sentinel if worker.pidfd is None
                       else worker.pidfd)
        return fds

    def time_left(self):
        """Seconds until :meth:`poll` must send the next signal unprompted
        (a SIGKILL, or a time-budget SIGTERM); ``None`` when none is due."""
        due = [when for when in map(self._due, self._running.values())
               if when is not None]
        if not due:
            return None
        return max(0.0, min(due) - time.monotonic())

    def wait(self, timeout=None, also=()):
        """Block until one of :meth:`waitables` or ``also`` is readable, the
        next kill comes due or ``timeout`` seconds pass; returns the ready
        objects.  Returns at once when no job is running."""
        if not self._running:
            return []
        left = self.time_left()
        if left is not None and (timeout is None or left < timeout):
            timeout = left
        return multiprocessing.connection.wait(
            self.waitables() + list(also), timeout)

    # -- shutdown -----------------------------------------------------------

    def shutdown(self):
        """Cancel every running job, reap its worker and retire the idle
        workers; returns the running jobs' outcomes.

        The one blocking pool method: it waits out the cancel path (up to
        ``grace`` before SIGKILL).  Worker events are relayed to the bus
        before each worker is reaped.
        """
        for token in list(self._running):
            self.cancel(token)
        idle, self._idle = self._idle, []
        for worker in idle:
            worker.jobs.close()  # they exit while the running jobs stop
        outcomes = []
        while self._running:
            outcomes.extend(self.poll())
            self.wait()
        for worker in idle:
            self._retire(worker)
        return outcomes


class _Worker:
    """One live worker process, running a job or idle."""

    __slots__ = ("proc", "jobs", "conn", "pidfd", "methods")

    def __init__(self, proc, jobs, conn, methods):
        self.proc = proc
        self.jobs = jobs  # the job pipe's send end
        self.conn = conn  # the result pipe's receive end; None once ended
        try:
            self.pidfd = os.pidfd_open(proc.pid)  # Linux 5.3+
        except (AttributeError, OSError):
            self.pidfd = None
        self.methods = methods  # the registry it was forked under

    def reap(self):
        """Join the exited process; close the pool's ends and the pidfd."""
        self.proc.join()
        self.jobs.close()
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.pidfd is not None:
            os.close(self.pidfd)
            self.pidfd = None


class _PoolRun:
    """Bookkeeping for one running :class:`WorkerPool` job."""

    __slots__ = ("job", "worker", "started", "message", "stop", "kill_at",
                 "killed")

    def __init__(self, job, worker):
        self.job = job
        self.worker = worker
        self.started = time.monotonic()
        # ("result" | "error", payload, reuse) once posted
        self.message = None
        self.stop = None  # "timed_out" | "cancelled" once SIGTERM'd
        self.kill_at = None
        self.killed = False
