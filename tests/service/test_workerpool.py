"""Tests for the non-blocking WorkerPool surface the daemon drives."""

import multiprocessing
import time

import pytest

from repro.service import (JobSpec, WorkerPool, register_method,
                           unregister_method)
from repro.service.events import EventBus, JOB_PROGRESS, JOB_STARTED

from .helpers import stubborn, tiny_pair


def make_job(name="tiny", method="sat_sweep", **options):
    spec, impl = tiny_pair()
    return JobSpec(name, spec, impl, method=method, options=options,
                   match_outputs="order")


def spinner_job(name="spin"):
    return make_job(name, method="bmc", max_depth=1000000)


def poll_until(pool, predicate, timeout=60.0):
    """Poll the pool, collecting outcomes, until ``predicate(outcomes)``."""
    outcomes = []
    deadline = time.monotonic() + timeout
    while not predicate(outcomes):
        assert time.monotonic() < deadline, "pool never converged"
        outcomes.extend(pool.poll())
        time.sleep(0.02)
    return outcomes


def test_submit_poll_outcome():
    events = []
    bus = EventBus()
    bus.subscribe(events.append)
    pool = WorkerPool(workers=1, bus=bus)
    try:
        pid = pool.submit("t1", make_job())
        assert isinstance(pid, int)
        assert not pool.has_capacity()
        assert pool.active == 1

        outcomes = poll_until(pool, lambda o: len(o) == 1)
        outcome = outcomes[0]
        assert outcome.token == "t1"
        assert outcome.error is None
        assert not outcome.cancelled
        assert outcome.result.verdict is True
        assert pool.has_capacity() and pool.active == 0

        types = [e.type for e in events]
        assert JOB_STARTED in types
        assert JOB_PROGRESS in types  # worker progress relayed via poll()
    finally:
        pool.shutdown()


def test_capacity_and_duplicate_token_errors():
    pool = WorkerPool(workers=1)
    try:
        pool.submit("t1", spinner_job())
        with pytest.raises(RuntimeError):
            pool.submit("t2", spinner_job())  # pool full
        pool.workers = 2
        with pytest.raises(RuntimeError):
            pool.submit("t1", spinner_job())  # duplicate token
    finally:
        pool.shutdown()


def test_cancel_running_job():
    pool = WorkerPool(workers=1, grace=5.0)
    try:
        pool.submit("spin", spinner_job())
        # let the worker actually get going
        poll_until(pool, lambda o: pool.active == 1, timeout=10)
        assert pool.cancel("spin") is True
        assert pool.cancel("nonexistent") is False
        outcomes = poll_until(pool, lambda o: len(o) == 1)
        outcome = outcomes[0]
        assert outcome.cancelled is True
        assert outcome.result.result.inconclusive
    finally:
        pool.shutdown()


def test_job_time_limit_hard_kill():
    pool = WorkerPool(workers=1, job_time_limit=0.5, grace=0.5)
    try:
        # the pool seeds the engine's cooperative budget and backs it with
        # a hard kill at job_time_limit + grace
        job = spinner_job()
        assert "time_limit" not in job.options
        pool.submit("slow", job)
        outcomes = poll_until(pool, lambda o: len(o) == 1, timeout=30)
        outcome = outcomes[0]
        assert outcome.token == "slow"
        assert outcome.result.result.inconclusive
    finally:
        pool.shutdown()


def test_job_time_limit_kills_an_engine_that_never_polls():
    """SIGTERM at job_time_limit + grace, SIGKILL grace later: an engine
    stuck in one long call cannot hold the slot."""
    register_method("stubborn", stubborn)
    pool = WorkerPool(workers=1, job_time_limit=0.3, grace=0.3)
    try:
        pool.submit("stuck", make_job("stuck", method="stubborn"))
        outcomes = poll_until(pool, lambda o: len(o) == 1, timeout=10)
        outcome = outcomes[0]
        assert outcome.ended == "timed_out"
        assert outcome.killed is True
        assert not outcome.retryable
        assert outcome.error == "job time budget exhausted"
        assert multiprocessing.active_children() == []
    finally:
        pool.shutdown()
        unregister_method("stubborn")


def test_budget_seeding():
    pool = WorkerPool(workers=1, job_time_limit=7.5)
    try:
        assert pool._budgeted(make_job()).options["time_limit"] == 7.5
        explicit = make_job(time_limit=1.0)
        assert pool._budgeted(explicit).options["time_limit"] == 1.0
        oracle = make_job(method="explicit")
        assert pool._budgeted(oracle).options["time_limit"] == 7.5
    finally:
        pool.shutdown()


def test_shutdown_returns_outcomes_for_running_jobs():
    pool = WorkerPool(workers=2, grace=3.0)
    pool.submit("a", spinner_job("a"))
    pool.submit("b", spinner_job("b"))
    outcomes = pool.shutdown()
    assert sorted(o.token for o in outcomes) == ["a", "b"]
    assert all(o.cancelled for o in outcomes)
    assert pool.active == 0
