"""Graceful SIGINT/SIGTERM handling in the batch scheduler.

A scripted engine sends the scheduler's own process a signal mid-job;
the batch must finish that job, abort the rest with an "interrupted"
reason, flush the event stream and restore the previous handlers.
"""

import os
import signal
import time

import pytest

from repro.reach.result import SecResult
from repro.service import BatchScheduler, JobSpec
from repro.service import events as ev
from repro.service.events import EventBus
from repro.service.worker import register_method, unregister_method

from .helpers import tiny_pair


@pytest.fixture
def self_signal_method():
    """An engine that signals the current process, then proves its job."""
    state = {"signals": [signal.SIGINT]}

    def runner(job, progress, cancel_check):
        for signum in state["signals"]:
            os.kill(os.getpid(), signum)
        return SecResult(equivalent=True, method="self_signal")

    register_method("self_signal", runner)
    try:
        yield state
    finally:
        unregister_method("self_signal")


def make_jobs(n, method="self_signal"):
    spec, impl = tiny_pair()
    jobs = [JobSpec("sig-0", spec, impl, method=method,
                    match_outputs="order")]
    jobs += [JobSpec("sig-{}".format(i), spec, impl, method="sat_sweep",
                     match_outputs="order") for i in range(1, n)]
    return jobs


def test_sigint_aborts_remaining_inline_jobs(self_signal_method):
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    scheduler = BatchScheduler(workers=0, bus=bus)
    before = signal.getsignal(signal.SIGINT)

    results = scheduler.run(make_jobs(3))

    assert scheduler.interrupted == "SIGINT"
    assert signal.getsignal(signal.SIGINT) == before  # handlers restored
    # the in-flight job still completed...
    assert results[0].verdict is True
    # ...but the rest were aborted, not run
    for result in results[1:]:
        assert result.verdict is None
        assert result.result.details["aborted"] == "interrupted (SIGINT)"
    finished = [e for e in seen if e.type == ev.BATCH_FINISHED]
    assert finished[-1].data["interrupted"] == "SIGINT"


def test_sigterm_is_also_graceful(self_signal_method):
    self_signal_method["signals"] = [signal.SIGTERM]
    scheduler = BatchScheduler(workers=0)
    results = scheduler.run(make_jobs(2))
    assert scheduler.interrupted == "SIGTERM"
    assert results[0].verdict is True
    assert results[1].result.details["aborted"] == "interrupted (SIGTERM)"


def test_second_sigint_falls_through(self_signal_method):
    self_signal_method["signals"] = [signal.SIGINT, signal.SIGINT]
    scheduler = BatchScheduler(workers=0)
    before = signal.getsignal(signal.SIGINT)
    with pytest.raises(KeyboardInterrupt):
        scheduler.run(make_jobs(2))
    # even on the forced path the previous handler comes back
    assert signal.getsignal(signal.SIGINT) == before


def test_uninterrupted_batch_reports_no_interruption():
    spec, impl = tiny_pair()
    scheduler = BatchScheduler(workers=0)
    results = scheduler.run([JobSpec("tiny", spec, impl, method="sat_sweep",
                                     match_outputs="order")])
    assert scheduler.interrupted is None
    assert results[0].verdict is True


def signal_parent(job, progress, cancel_check):
    """Sends SIGTERM to the batch's process from a worker, then waits,
    silent, to be cancelled (for 30 s at most)."""
    os.kill(os.getppid(), signal.SIGTERM)
    deadline = time.monotonic() + 30.0
    while not cancel_check() and time.monotonic() < deadline:
        time.sleep(0.01)
    return SecResult(None, method="signal_parent")


def test_sigterm_ends_the_wait_of_a_pool_batch():
    """A signal stops a batch whose workers report nothing: the handler
    wakes the pool wait instead of leaving it to the next worker event."""
    register_method("signal_parent", signal_parent)
    try:
        scheduler = BatchScheduler(workers=1, grace=1.0)
        started = time.monotonic()
        results = scheduler.run(make_jobs(2, method="signal_parent"))
        seconds = time.monotonic() - started
    finally:
        unregister_method("signal_parent")
    assert scheduler.interrupted == "SIGTERM"
    assert seconds < 10.0
    for result in results:
        assert result.result.details["aborted"] == "interrupted (SIGTERM)"
