"""Worker-side job execution.

:func:`run_job` dispatches a :class:`~repro.service.job.JobSpec` to the
right engine with progress/cancellation hooks injected;
:func:`worker_entry` is the ``multiprocessing.Process`` target wrapping it
with the cross-process plumbing:

* engine progress callbacks become ``job_progress`` event dicts on the
  parent's event queue;
* ``SIGTERM`` is caught and translated into *cooperative* cancellation —
  the engine notices at its next iteration boundary and returns an
  inconclusive ("cancelled") result, so the worker exits cleanly with its
  BDD/SAT state unwound instead of dying mid-operation.  Parents escalate
  to ``SIGKILL`` only after a grace period (see portfolio/scheduler).

Additional engines can be registered with :func:`register_method`; under
the default ``fork`` start method a registration made in the parent (e.g.
by a test) is visible to workers.  :func:`check_options` lets submission
sites reject a job whose options its engine would not accept, before the
job is forked; the schedulers ask :func:`accepted_options` which budgets
(``time_limit``, ``node_limit``) a method's engine takes.
"""

import importlib
import inspect
import os
import signal
import threading
import time
import traceback

from ..netlist.product import build_product
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
                       "match_outputs", "progress", "cancel_check"))


def accepted_options(method):
    """The option keys a job of ``method`` may carry, or ``None``.

    A key is accepted when it is a keyword of the method's entry point, a
    preprocessor key, or (for ``fraig_sweep``, which forwards the rest) a
    ``sat_sweep`` keyword.  ``None`` means unchecked: methods added by
    :func:`register_method` and unknown methods.
    """
    if method in _EXTRA_METHODS or method not in _ENTRY_POINTS:
        return None
    from ..sweep.preprocess import PREPROCESS_OPTION_KEYS

    names = (method, "sat_sweep") if method == "fraig_sweep" else (method,)
    allowed = set(PREPROCESS_OPTION_KEYS)
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
    ``cancel_check()`` is polled by the engines at iteration boundaries.
    """

    def progress(kind, **data):
        if emit is not None:
            data = dict(data)
            data["kind"] = kind
            emit(Event(JOB_PROGRESS, job=job.name, data=data))

    if cancel_check is not None and cancel_check():
        return aborted_result(job.method, "cancelled")
    if job.options.get("preprocess"):
        # Engine-agnostic FRAIG preprocessing: rewrite the job onto the
        # reduced pair (scheduler/daemon submission sites that want the
        # reduction inside the cache key call preprocess_jobspec before
        # the key is first computed; this path covers everything else —
        # fuzz lanes, portfolio lanes, direct run_job callers).
        from ..sweep import attach_preprocess_details, preprocess_jobspec

        job, info = preprocess_jobspec(job)
        result = run_job(job, emit=emit, cancel_check=cancel_check)
        return attach_preprocess_details(result, info)
    runner = _EXTRA_METHODS.get(job.method)
    if runner is not None:
        return runner(job, progress, cancel_check)
    options = dict(job.options)
    if job.method == "van_eijk":
        from ..core.engine import VanEijkVerifier

        verifier = VanEijkVerifier(progress=progress,
                                   cancel_check=cancel_check, **options)
        return verifier.verify(job.spec, job.impl,
                               match_inputs=job.match_inputs,
                               match_outputs=job.match_outputs)
    if job.method == "sat_sweep":
        from ..core.satbackend import check_equivalence_sat_sweep

        return check_equivalence_sat_sweep(
            job.spec, job.impl, match_inputs=job.match_inputs,
            match_outputs=job.match_outputs, progress=progress,
            cancel_check=cancel_check, **options)
    if job.method == "fraig_sweep":
        from ..sweep import check_equivalence_fraig_sweep

        return check_equivalence_fraig_sweep(
            job.spec, job.impl, match_inputs=job.match_inputs,
            match_outputs=job.match_outputs, progress=progress,
            cancel_check=cancel_check, **options)
    if job.method == "k_induction":
        from ..induction import check_equivalence_k_induction

        return check_equivalence_k_induction(
            job.spec, job.impl, match_inputs=job.match_inputs,
            match_outputs=job.match_outputs, progress=progress,
            cancel_check=cancel_check, **options)
    if job.method == "sweep_induct":
        from ..induction import check_equivalence_sweep_induction

        return check_equivalence_sweep_induction(
            job.spec, job.impl, match_inputs=job.match_inputs,
            match_outputs=job.match_outputs, progress=progress,
            cancel_check=cancel_check, **options)
    product = build_product(job.spec, job.impl,
                            match_inputs=job.match_inputs,
                            match_outputs=job.match_outputs)
    if job.method == "bmc":
        from ..core.bmc import bmc_refute

        return bmc_refute(product, progress=progress,
                          cancel_check=cancel_check, **options)
    if job.method == "traversal":
        from ..reach.traversal import check_equivalence_traversal

        return check_equivalence_traversal(
            product, progress=progress, cancel_check=cancel_check, **options)
    if job.method == "explicit":
        from ..reach.explicit import explicit_check_equivalence

        return explicit_check_equivalence(product, **options)
    raise ValueError("unknown job method {!r}".format(job.method))


def worker_entry(job, token, event_queue, result_queue):
    """Process target: run ``job`` and report on ``result_queue``.

    ``token`` is an opaque identifier the parent uses to route the result
    (job index for the scheduler, method name for the portfolio).  The
    result message is ``("result", token, JobResult-dict)`` on success or
    ``("error", token, traceback-string)`` on an engine exception; a crash
    (hard kill, segfault, ``os._exit``) sends nothing — parents detect it
    from the exit code.
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
    # unwinds at its next iteration boundary instead of running forever.
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
