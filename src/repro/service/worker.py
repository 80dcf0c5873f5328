"""Job execution, and the registry of engines a job can name.

:func:`run_job` runs a :class:`~repro.service.job.JobSpec` through
:func:`repro.verify`, or through a runner added with
:func:`register_method`, with progress/cancellation hooks injected.  The
batch runs it in its own process for ``workers=0``; otherwise it runs in a
long-lived pool worker, whose :func:`~repro.service.scheduler.worker_entry`
reads one job at a time from its job pipe, sends each progress event and
then the job's one result over its result pipe, and turns ``SIGTERM``
into cooperative cancellation.  A registered runner calls ``progress``
from the thread that called it, and should poll ``cancel_check``; the
pool SIGKILLs a worker ``grace`` seconds after a SIGTERM it ignored.  A
runner that leaves a thread behind costs its worker: the pool retires it.

Workers are forked, so a registration made in the parent (e.g. by a
test) is visible to them: the pool compares :func:`registered_methods`
with the registry an idle worker was forked under, and retires a worker
that missed a registration instead of handing it a job.
:func:`check_options` lets submission sites reject a job whose options its
engine would not accept, before the job reaches a worker; the schedulers
ask :func:`accepted_options` which budgets a method takes (``time_limit``:
every built-in method; ``node_limit``: the BDD engines).
"""

import importlib
import inspect

from .. import verify
from .events import JOB_PROGRESS, Event
from .job import aborted_result

#: name -> runner(job, progress, cancel_check) for engines beyond the
#: built-ins (used by tests and downstream extensions).
_EXTRA_METHODS = {}


def register_method(name, runner):
    """Register ``runner(job, progress, cancel_check) -> SecResult``."""
    _EXTRA_METHODS[name] = runner


def unregister_method(name):
    _EXTRA_METHODS.pop(name, None)


def registered_methods():
    """A copy of the registry: name -> runner."""
    return dict(_EXTRA_METHODS)


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

