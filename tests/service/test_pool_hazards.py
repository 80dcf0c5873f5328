"""Worker pipe hazards: a kill mid-emission, an event burst, a lingering
exit, a worker orphaned with its pipe full.

Each scenario drives a :class:`~repro.service.WorkerPool` in a child
interpreter that runs in its own session under a hard timeout.  The
session is killed afterwards, so a pool that hangs fails its test instead
of hanging the suite, and leaves no orphaned worker behind.  Run as a
script (``python test_pool_hazards.py <scenario>``), this file is that
child: it prints the scenario's findings as one JSON object.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import repro
from repro.reach import SecResult
from repro.service import EventBus, JobSpec, WorkerPool, register_method
from repro.service.events import JOB_PROGRESS

BURST_EVENTS = 5000
PAD = "x" * 64  # with the event's other fields, about 100 B per event


def chatter(job, progress, cancel_check):
    """Emits nonstop and never reads ``cancel_check``: only SIGKILL ends
    it, and most likely in the middle of a message."""
    while True:
        progress("tick", pad=PAD)


def burst(job, progress, cancel_check):
    for seq in range(BURST_EVENTS):
        progress("tick", seq=seq, pad=PAD)
    return SecResult(True, method="burst")


def chatter_until_cancelled(job, progress, cancel_check):
    while not cancel_check():
        progress("tick", pad=PAD)
    return SecResult(None, method="chatter_until_cancelled")


def linger(job, progress, cancel_check):
    """Reports at once, but a non-daemon thread keeps the process up 5 s."""
    threading.Thread(target=time.sleep, args=(5.0,)).start()
    return SecResult(True, method="linger")


def quick(job, progress, cancel_check):
    progress("tick", seq=0)
    return SecResult(True, method="quick")


def job_for(method, name=None):
    # Registered runners never read the circuits.
    return JobSpec(name or method, None, None, method=method)


def timed_poll(pool, poll_seconds):
    started = time.monotonic()
    outcomes = pool.poll()
    poll_seconds.append(time.monotonic() - started)
    return outcomes


def poll_until_outcome(pool, poll_seconds=None):
    """Poll every 10 ms until one outcome arrives; returns it."""
    while True:
        outcomes = timed_poll(pool, [] if poll_seconds is None
                              else poll_seconds)
        if outcomes:
            return outcomes[0]
        time.sleep(0.01)


def kill_during_emission():
    relayed = []

    def serialise(event):
        # As the JSONL writer and the daemon's SSE history do: the bus then
        # publishes slower than the worker emits.
        json.dumps(event.as_dict(), sort_keys=True)
        relayed.append(event.type)

    bus = EventBus()
    bus.subscribe(serialise)
    pool = WorkerPool(workers=1, bus=bus, grace=0.2)
    poll_seconds = []
    pool.submit("chatter", job_for("chatter"))
    while len(relayed) < 1000:  # it is emitting in earnest
        timed_poll(pool, poll_seconds)
        time.sleep(0.01)
    pool.cancel("chatter")
    killed = poll_until_outcome(pool, poll_seconds)
    pool.submit("next", job_for("quick", "next"))
    following = poll_until_outcome(pool)
    pool.shutdown()
    return {"killed": [killed.ended, killed.killed],
            "next": [following.ended, following.result.verdict],
            "max_poll_s": max(poll_seconds),
            "children": len(multiprocessing.active_children())}


def event_burst():
    bus = EventBus()
    seqs = []
    bus.subscribe(lambda event: event.type == JOB_PROGRESS
                  and seqs.append(event.data["seq"]))
    pool = WorkerPool(workers=1, bus=bus)
    runs = []
    for rep in range(10):
        del seqs[:]
        pool.submit(rep, job_for("burst"))
        outcome = poll_until_outcome(pool)
        runs.append({"ended": outcome.ended,
                     "in_order": seqs == list(range(BURST_EVENTS))})
    pool.shutdown()
    return {"runs": runs,
            "children": len(multiprocessing.active_children())}


def lingering_exit():
    pool = WorkerPool(workers=1, grace=0.5)
    poll_seconds = []
    pool.submit("linger", job_for("linger"))
    outcome = poll_until_outcome(pool, poll_seconds)
    pool.shutdown()
    return {"ended": outcome.ended, "killed": outcome.killed,
            "verdict": outcome.result.verdict,
            "max_poll_s": max(poll_seconds),
            "children": len(multiprocessing.active_children())}


def orphaned_worker():
    """Prints the worker's pid, then dies by SIGKILL without ever polling,
    while the worker emits into its full pipe."""
    pool = WorkerPool(workers=1)
    pid = pool.submit("orphan", job_for("chatter_until_cancelled"))
    print(json.dumps({"worker": pid}), flush=True)
    time.sleep(0.3)
    os.kill(os.getpid(), signal.SIGKILL)


SCENARIOS = {f.__name__: f for f in (kill_during_emission, event_burst,
                                     lingering_exit, orphaned_worker)}


def run_scenario(name, timeout=60.0):
    """Run scenario ``name`` in a child session; returns its findings."""
    returncode, out, err = run_child(name, timeout)
    assert returncode == 0, err.decode()
    return json.loads(out)


def run_child(name, timeout):
    """Run scenario ``name`` in a child session; returns its exit status,
    stdout and stderr once every process holding them has ended."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), name],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        start_new_session=True)
    try:
        out, err = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if out is None:
        child.communicate()
        raise AssertionError("{}: the pool hung for {} s".format(
            name, timeout))
    return child.returncode, out, err


def exited(pid, timeout):
    """Whether ``pid`` is gone or a zombie within ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            with open("/proc/{}/stat".format(pid)) as fh:
                # The state follows the parenthesised command name.
                state = fh.read().rpartition(")")[2].split()[0]
        except FileNotFoundError:
            return True
        if state == "Z":
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)


def test_next_job_finishes_after_a_worker_is_killed_mid_emission():
    found = run_scenario("kill_during_emission")
    # poll() reads a bounded batch per call, whatever the worker sends.
    assert found["max_poll_s"] < 0.5
    assert found["killed"] == ["cancelled", True]
    assert found["next"] == ["finished", True]
    assert found["children"] == 0


def test_an_event_burst_is_relayed_in_order_before_its_outcome():
    found = run_scenario("event_burst")
    assert found["runs"] == [{"ended": "finished", "in_order": True}] * 10
    assert found["children"] == 0


def test_a_lingering_worker_never_blocks_poll():
    found = run_scenario("lingering_exit")
    assert found["max_poll_s"] < 0.1
    # Killed ``grace`` after it reported; the posted result is kept.
    assert (found["ended"], found["killed"], found["verdict"]) == (
        "finished", True, True)
    assert found["children"] == 0


def test_an_orphaned_worker_exits_once_its_driver_dies():
    # The worker holds the driver's stdout and stderr, so the run ends only
    # once the worker has closed them too: within seconds of the driver's
    # death, or the timeout fails the test.
    returncode, out, err = run_child("orphaned_worker", timeout=10.0)
    assert returncode == -signal.SIGKILL
    assert exited(json.loads(out)["worker"], timeout=5.0)
    # Its last send met a broken pipe; it exits without a traceback.
    assert b"Traceback" not in err, err.decode()


if __name__ == "__main__":
    for runner in (chatter, chatter_until_cancelled, burst, linger, quick):
        register_method(runner.__name__, runner)
    print(json.dumps(SCENARIOS[sys.argv[1]]()))
