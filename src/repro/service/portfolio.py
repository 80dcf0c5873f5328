"""Portfolio verification: race complementary engines on one pair.

The four default lanes cover each other's blind spots, the hybrid-engine
insight from the parallel-CEC literature applied to van Eijk's setting:

* ``van_eijk`` — the paper's prover: fast on retimed/resynthesized pairs,
  cannot refute beyond what its random simulation happens to hit;
* ``k_induction`` — temporal induction: proves correspondence-inconclusive
  pairs without traversal and refutes through its base case;
* ``bmc`` — a complete falsifier up to a depth bound: finds shortest
  counterexamples that simulation misses, never proves;
* ``traversal`` — the complete-but-expensive baseline: decides anything
  whose reachable state space fits in the node budget.

All lanes run on the one worker supervisor, a
:class:`~repro.service.scheduler.WorkerPool` with one worker per lane; the
first *conclusive* verdict (proved or refuted) wins the race, which
``time_limit + grace`` bounds.  The pool's ``shutdown`` then cancels the
lanes still running: SIGTERM (cooperative cancel), SIGKILL ``grace``
seconds later.  A lane is never retried.  If every lane finishes
inconclusive, the preferred lane's result (first in ``methods``) is
returned so callers still see iteration counts and abort reasons.

A *refuting* lane must earn its win: its counterexample is replayed on the
original circuits (:func:`repro.fuzz.replay.validate_refutation`) before
the race is decided.  A refutation whose trace produces no real output
mismatch is reclassified as a lane **error** — the race continues and the
bogus verdict can never be returned to the caller.  (Proofs have no
artifact to audit; they are taken at face value, as in the hybrid-engine
CEC literature this portfolio mirrors.)
"""

import time

from .events import (
    ENGINE_CANCELLED,
    ENGINE_CEX_REJECTED,
    ENGINE_FINISHED,
    ENGINE_STARTED,
    ENGINE_WON,
    EventBus,
    PORTFOLIO_STARTED,
)
from .job import JobSpec, aborted_result
from .scheduler import WorkerPool

DEFAULT_PORTFOLIO_METHODS = ("van_eijk", "fraig_sweep", "k_induction",
                             "bmc", "traversal")


def run_portfolio(spec, impl, methods=DEFAULT_PORTFOLIO_METHODS,
                  per_method_options=None, time_limit=None,
                  match_inputs="name", match_outputs="order",
                  bus=None, grace=2.0, name=None):
    """Race ``methods`` on one pair; returns the winning ``SecResult``.

    ``per_method_options`` maps method name to that engine's option dict;
    ``time_limit`` (seconds) additionally bounds every lane and the race
    itself.  The returned result carries a ``details["portfolio"]`` record
    naming the winner and each lane's fate.  A lane's refutation only
    counts once its counterexample replays to a real output mismatch;
    otherwise the lane errors out.
    """
    if not methods:
        raise ValueError("portfolio needs at least one method")
    # Imported here, not at module level: repro.fuzz pulls in the scheduler
    # at import time, which would cycle during package initialization.
    # Importing before the workers start keeps the race loop import-free.
    from ..fuzz.replay import validate_refutation

    bus = bus or EventBus()
    name = name or "{}~{}".format(spec.name, impl.name)
    per_method_options = per_method_options or {}
    bus.emit(PORTFOLIO_STARTED, job=name, methods=list(methods),
             time_limit=time_limit)

    # No job_time_limit: the race deadline below bounds every lane.
    pool = WorkerPool(workers=len(methods), bus=bus, grace=grace)
    for method in methods:
        options = dict(per_method_options.get(method, {}))
        if time_limit is not None:
            options.setdefault("time_limit", time_limit)
        pool.submit(method, JobSpec(name, spec, impl, method=method,
                                    options=options,
                                    match_inputs=match_inputs,
                                    match_outputs=match_outputs),
                    event=ENGINE_STARTED)

    start = time.monotonic()
    deadline = None if time_limit is None else start + time_limit + grace
    results = {}
    status = {method: "running" for method in methods}
    audited = set()

    def audit_refutations():
        _reject_invalid_refutations(
            spec, impl, match_inputs, match_outputs, validate_refutation,
            results, status, audited, bus, name)

    winner = None
    try:
        while pool.active:
            for outcome in pool.poll():
                _record_lane(outcome, results, status, bus, name)
            audit_refutations()
            winner = _find_winner(methods, results)
            if winner is not None:
                break
            if deadline is not None and time.monotonic() > deadline:
                break
            pool.wait(None if deadline is None
                      else deadline - time.monotonic())
    finally:
        # The losing lanes are cancelled; a result one posted before its
        # SIGTERM is kept (and audited below).
        for outcome in pool.shutdown():
            _record_lane(outcome, results, status, bus, name)

    elapsed = time.monotonic() - start
    if winner is not None:
        status[winner] = "won"
        result = results[winner]
        bus.emit(ENGINE_WON, job=name, method=winner,
                 verdict=result.equivalent, seconds=elapsed)
    else:
        audit_refutations()
        result = None
        for method in methods:
            candidate = results.get(method)
            if candidate is not None:
                result = candidate
                break
        if result is None:
            reason = ("portfolio time budget exhausted"
                      if deadline is not None and time.monotonic() >= deadline
                      else "all portfolio lanes failed")
            result = aborted_result("portfolio", reason, seconds=elapsed)
    result.details = dict(
        result.details,
        portfolio={"winner": winner, "lanes": dict(status)},
    )
    return result


def _record_lane(outcome, results, status, bus, name):
    """Fold one lane's :class:`~repro.service.scheduler.PoolOutcome` into
    the race: its fate, its result and its event."""
    method = outcome.token
    lane = outcome.result
    status[method] = outcome.ended
    if outcome.cancelled:
        bus.emit(ENGINE_CANCELLED, job=name, method=method,
                 escalated=outcome.killed)
        if lane.error is not None:
            return  # a placeholder, not a result of the lane's own
    elif outcome.ended == "finished":
        bus.emit(ENGINE_FINISHED, job=name, method=method,
                 verdict=lane.result.equivalent,
                 seconds=lane.result.seconds,
                 peak_nodes=lane.result.peak_nodes)
    elif outcome.ended == "crashed":
        bus.emit(ENGINE_FINISHED, job=name, method=method, verdict=None,
                 crashed=True)
    else:  # the engine raised
        bus.emit(ENGINE_FINISHED, job=name, method=method, verdict=None,
                 error=outcome.error.splitlines()[-1])
    results.setdefault(method, lane.result)


def _reject_invalid_refutations(spec, impl, match_inputs, match_outputs,
                                validate_refutation,
                                results, status, audited, bus, name):
    """Replay-audit refuting lanes; demote failures to lane errors.

    Mutates ``results``/``status`` in place: a refutation whose trace does
    not replay to a real output mismatch is replaced by an inconclusive
    aborted result (carrying the replay report), its lane marked
    ``"error"``, and the race goes on as if the lane had crashed.
    """
    for method in list(results):
        result = results[method]
        if (method in audited or result is None
                or result.equivalent is not False):
            continue
        audited.add(method)
        report = validate_refutation(spec, impl, result,
                                     match_inputs=match_inputs,
                                     match_outputs=match_outputs)
        if report.valid:
            result.details = dict(result.details,
                                  replay=report.as_dict())
            continue
        status[method] = "error"
        rejected = aborted_result(
            method, "counterexample failed replay validation")
        rejected.details["replay"] = report.as_dict()
        results[method] = rejected
        bus.emit(ENGINE_CEX_REJECTED, job=name, method=method,
                 reason=report.reason)


def _find_winner(methods, results):
    """First method (in portfolio order) with a conclusive verdict."""
    for method in methods:
        result = results.get(method)
        if result is not None and result.equivalent is not None:
            return method
    return None
