"""Worker-side job execution.

:func:`run_job` runs a :class:`~repro.service.job.JobSpec` through
:func:`repro.verify` with progress/cancellation hooks injected;
:func:`worker_entry` is the ``multiprocessing.Process`` target wrapping it
with the cross-process plumbing:

* engine progress callbacks become ``job_progress`` event dicts on the
  parent's event queue;
* ``SIGTERM`` is caught and translated into *cooperative* cancellation —
  the engine notices at its next poll of the run's
  :class:`~repro.budget.Budget` (built-in engines poll it down to single
  SAT and BDD operations) and returns an inconclusive ("cancelled")
  result, so the worker exits cleanly instead of dying mid-operation.  The
  one supervisor, :class:`~repro.service.scheduler.WorkerPool`, sends
  SIGKILL ``grace`` seconds after the SIGTERM if the worker is still alive
  (a registered runner that never polls the hook); it retries a job only
  when its engine raised or its worker crashed, never after such a stop.

Additional engines can be registered with :func:`register_method`; under
the default ``fork`` start method a registration made in the parent (e.g.
by a test) is visible to workers.  :func:`check_options` lets submission
sites reject a job whose options its engine would not accept, before the
job is forked; the schedulers ask :func:`accepted_options` which budgets
a method takes (``time_limit``: every built-in method; ``node_limit``: the
BDD engines).
"""

import importlib
import inspect
import os
import signal
import threading
import time
import traceback

from .. import verify
from .events import JOB_PROGRESS, Event
from .job import JobResult, aborted_result

#: name -> runner(job, progress, cancel_check) for engines beyond the
#: built-ins (used by tests and downstream extensions).
_EXTRA_METHODS = {}


def register_method(name, runner):
    """Register ``runner(job, progress, cancel_check) -> SecResult``."""
    _EXTRA_METHODS[name] = runner


def unregister_method(name):
    _EXTRA_METHODS.pop(name, None)


#: method -> (module, callable) whose keywords the job options feed.
_ENTRY_POINTS = {
    "van_eijk": ("..core.engine", "VanEijkVerifier"),
    "sat_sweep": ("..core.satbackend", "check_equivalence_sat_sweep"),
    "fraig_sweep": ("..sweep.engine", "check_equivalence_fraig_sweep"),
    "k_induction": ("..induction.engine", "KInductionEngine"),
    "sweep_induct": ("..induction.engine",
                     "check_equivalence_sweep_induction"),
    "bmc": ("..core.bmc", "bmc_refute"),
    "traversal": ("..reach.traversal", "check_equivalence_traversal"),
    "explicit": ("..reach.explicit", "explicit_check_equivalence"),
}

#: Keywords :func:`run_job` passes itself; never valid as job options.
_INJECTED = frozenset(("spec", "impl", "product", "match_inputs",
                       "match_outputs", "progress", "cancel_check",
                       "budget"))


def accepted_options(method):
    """The option keys a job of ``method`` may carry, or ``None``.

    A key is accepted when it is :func:`repro.verify`'s ``time_limit``, a
    keyword of the method's entry point, or (for ``fraig_sweep``, which
    forwards the rest) a ``sat_sweep`` keyword.
    ``None`` means unchecked: methods added by :func:`register_method` and
    unknown methods.
    """
    if method in _EXTRA_METHODS or method not in _ENTRY_POINTS:
        return None
    names = (method, "sat_sweep") if method == "fraig_sweep" else (method,)
    allowed = {"time_limit"}
    for name in names:
        module, attr = _ENTRY_POINTS[name]
        entry = getattr(importlib.import_module(module, __package__), attr)
        allowed.update(
            p.name for p in inspect.signature(entry).parameters.values()
            if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY))
    return allowed - _INJECTED


def check_options(method, options):
    """Raise ``ValueError`` if ``options`` holds a key ``method`` rejects
    (see :func:`accepted_options`)."""
    allowed = accepted_options(method)
    if allowed is None:
        return
    for key in options:
        if key not in allowed:
            raise ValueError(
                "unknown option {!r} for method {!r}; accepted: {}".format(
                    key, method, ", ".join(sorted(allowed))))


def run_job(job, emit=None, cancel_check=None):
    """Execute one job in the current process; returns a ``SecResult``.

    ``emit(event)`` receives :class:`Event` objects for engine progress;
    ``cancel_check()`` joins the job's ``time_limit`` in the run's
    :class:`~repro.budget.Budget`, which :func:`repro.verify` builds.
    """

    def progress(kind, **data):
        if emit is not None:
            data = dict(data)
            data["kind"] = kind
            emit(Event(JOB_PROGRESS, job=job.name, data=data))

    if cancel_check is not None and cancel_check():
        return aborted_result(job.method, "cancelled")
    runner = _EXTRA_METHODS.get(job.method)
    if runner is None:
        return verify(job.spec, job.impl, method=job.method,
                      match_inputs=job.match_inputs,
                      match_outputs=job.match_outputs, progress=progress,
                      cancel_check=cancel_check, **job.options)
    return runner(job, progress, cancel_check)


def worker_entry(job, token, event_queue, result_queue):
    """Process target: run ``job`` and report on ``result_queue``.

    ``token`` is the opaque identifier the pool routes the result by (an
    attempt number for the batch, the method for the portfolio, the job
    id for the daemon).  The result message is ``("result", token,
    JobResult-dict)`` on success or ``("error", token, traceback-string)``
    on an engine exception; a crash (hard kill, segfault, ``os._exit``)
    sends nothing — the pool detects it from the exit code.
    """
    cancelled = threading.Event()

    # An asyncio parent (the verification daemon) has a signal wakeup fd
    # installed, and fork shares it with us.  If we kept it, our own
    # SIGTERM delivery would write the signum byte into the parent's
    # event loop self-pipe — the parent would dispatch its *own* SIGTERM
    # handler and shut down the whole daemon whenever one job is
    # cancelled.  Detach before installing any handler of our own.
    signal.set_wakeup_fd(-1)

    def on_sigterm(signum, frame):
        cancelled.set()

    signal.signal(signal.SIGTERM, on_sigterm)


    # Orphan guard: if the parent dies without tearing us down (SIGKILL'd
    # scheduler/daemon — its atexit cleanup never runs), we are reparented
    # and ``getppid`` changes.  Treat that as a cancellation so the engine
    # unwinds at its next budget poll instead of running forever.
    parent_pid = os.getppid()

    def cancel_check():
        return cancelled.is_set() or os.getppid() != parent_pid

    def emit(event):
        try:
            event_queue.put(event.as_dict())
        except Exception:
            pass  # never let telemetry take the engine down

    started = time.monotonic()
    try:
        result = run_job(job, emit=emit, cancel_check=cancel_check)
        payload = JobResult(
            job.name, result,
            wall_seconds=time.monotonic() - started,
            method=job.method,
        ).as_dict()
        result_queue.put(("result", token, payload))
    except Exception:
        result_queue.put(("error", token, traceback.format_exc()))
    finally:
        result_queue.close()
        result_queue.join_thread()
        event_queue.close()
        event_queue.join_thread()
