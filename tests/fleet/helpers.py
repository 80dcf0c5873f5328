"""Shared fixtures for the fleet tests.

Two deployment styles, matching the two test tiers:

* :class:`LoopThread` runs a :class:`~repro.fleet.CoordinatorServer` or
  :class:`~repro.server.VerifyServer` in-process on a background event
  loop (the :class:`tests.server.helpers.ServerThread` pattern), for
  fast unit/integration tests that need to reach into server state.
* :class:`FleetDaemon` runs a real ``repro-sec serve`` subprocess in its
  own process group — coordinator (``--coordinator``) or worker
  (``--join``) — for the end-to-end failure-injection tests where a
  node must die by actual SIGKILL.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
SRC_DIR = os.path.join(REPO_ROOT, "src")

#: Fields of a serialized SecResult that legitimately vary between runs
#: of the same problem; everything else must be byte-identical across
#: nodes for the fleet's verdict-identity guarantee.
VOLATILE_RESULT_FIELDS = ("seconds",)


def delay_payload(name="delayed", delay=1500, width=8, extra_depth=50):
    """A finite, deterministically long-running BMC job.

    ``delay_line_pair`` refutes at a known depth, so the job always
    terminates with verdict *inequivalent* — but only after grinding
    through ``delay`` BMC frames (delay=1500 is roughly 1.5 s; the time
    grows about linearly with the delay), leaving a wide window to SIGKILL
    the node that is running it.
    """
    from repro.circuits import delay_line_pair
    from repro.client import job_payload

    spec, impl = delay_line_pair(delay, width=width)
    return job_payload(spec, impl, name=name, method="bmc",
                       options={"max_depth": delay + extra_depth},
                       match_outputs="order")


def comparable_result(record):
    """A job record's verdict payload with volatile fields stripped.

    Two runs of the same problem — on different nodes, before and after
    a requeue, against a single daemon — must agree on this dict.
    """
    result = record.get("result")
    if result is None:
        return None
    inner = dict(result.get("result") or {})
    for field in VOLATILE_RESULT_FIELDS:
        inner.pop(field, None)
    return inner


def wait_until(predicate, timeout=30.0, poll=0.05, message="condition"):
    """Poll ``predicate`` until truthy; returns its final value."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(poll)
    raise AssertionError("timed out waiting for " + message)


def wait_state(client, job_id, states, timeout=60.0, poll=0.05):
    """Wait for the job to reach one of ``states``; returns the record."""
    if isinstance(states, str):
        states = (states,)
    record = {}

    def check():
        record.update(client.job(job_id))
        return record["state"] in states

    wait_until(check, timeout=timeout, poll=poll,
               message="job {} to reach {} (last: {!r})".format(
                   job_id, states, record.get("state")))
    return dict(record)


class LoopThread:
    """Context manager: any ``start()/stop()`` server on its own loop."""

    def __init__(self, server):
        self.server = server
        self.loop = None
        self.thread = None

    def __enter__(self):
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def run():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, name="fleet-loop",
                                       daemon=True)
        self.thread.start()
        assert started.wait(10), "server failed to start"
        return self.server

    def __exit__(self, *exc_info):
        future = asyncio.run_coroutine_threadsafe(self.server.stop(),
                                                  self.loop)
        future.result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()
        return False


class FleetDaemon:
    """One ``repro-sec serve`` subprocess in its own process group.

    ``role`` is ``"coordinator"``, ``"worker"`` (needs ``join_url``) or
    ``"standalone"`` — a plain single daemon, used as the baseline for
    verdict-identity checks.  Every daemon gets its own store/cache
    directories so
    fleet members never share disk state (only the coordinator's HTTP
    cache is shared, which is the point).
    """

    def __init__(self, base_dir, tag, role, join_url=None, workers=2,
                 heartbeat=0.25, dead_after=1.5, extra_args=()):
        self.tag = tag
        self.role = role
        home = os.path.join(base_dir, tag)
        os.makedirs(home, exist_ok=True)
        self.store_dir = os.path.join(home, "store")
        self.cache_dir = os.path.join(home, "cache")
        self.ready_file = os.path.join(home, "ready.json")
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0", "--quiet",
            "--store-dir", self.store_dir,
            "--cache-dir", self.cache_dir,
            "--ready-file", self.ready_file,
            "--heartbeat", str(heartbeat),
        ]
        if role == "coordinator":
            argv += ["--coordinator", "--dead-after", str(dead_after)]
        elif role == "worker":
            assert join_url, "worker daemons need a coordinator to join"
            argv += ["--join", join_url, "--node-id", tag,
                     "--workers", str(workers)]
        else:
            assert role == "standalone", role
            argv += ["--workers", str(workers)]
        argv += list(extra_args)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            argv, env=env, cwd=home, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        self.pgid = os.getpgid(self.proc.pid)
        self.url = self._await_ready()

    def _await_ready(self, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise AssertionError(
                    "{} daemon died during startup:\n".format(self.tag)
                    + self.proc.stderr.read().decode())
            try:
                with open(self.ready_file) as fh:
                    return json.load(fh)["url"]
            except (OSError, ValueError, KeyError):
                time.sleep(0.05)
        raise AssertionError("{} daemon never wrote its ready file".format(
            self.tag))

    def sigkill(self):
        self.proc.kill()
        self.proc.wait(timeout=10)

    def sigterm(self, timeout=30):
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=timeout)

    def group_alive(self):
        try:
            os.killpg(self.pgid, 0)
            return True
        except ProcessLookupError:
            return False

    def await_group_exit(self, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not self.group_alive():
                return
            time.sleep(0.1)
        raise AssertionError("{} process group did not exit "
                             "(orphaned workers?)".format(self.tag))

    def cleanup(self):
        try:
            os.killpg(self.pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        if self.proc.poll() is None:
            self.proc.wait(timeout=10)
        if self.proc.stderr:
            self.proc.stderr.close()
