"""Shared fixtures for the daemon tests: an in-process server thread.

The daemon normally owns the process's event loop; tests instead run it on
a dedicated thread so the test body can drive the stdlib-`urllib` client
synchronously against real sockets.  Worker processes still fork exactly
as in production.
"""

import asyncio
import threading

from repro.server import VerifyServer

from ..service.helpers import tiny_pair  # noqa: F401  (re-export)


class ServerThread:
    """Context manager: a live :class:`VerifyServer` on a background loop."""

    def __init__(self, **kwargs):
        kwargs.setdefault("host", "127.0.0.1")
        kwargs.setdefault("port", 0)
        self.server = VerifyServer(**kwargs)
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

        self.thread = threading.Thread(target=run, name="server-loop",
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


def spinner_payload(name="spinner"):
    """A job that runs ~forever but cancels within milliseconds.

    BMC on an equivalent pair never refutes, so it keeps deepening until
    ``max_depth``; on the tiny pair each depth is milliseconds, so the
    cooperative cancel check fires almost immediately while the total
    runtime is effectively unbounded.
    """
    from repro.client import job_payload

    spec, impl = tiny_pair()
    return job_payload(spec, impl, name=name, method="bmc",
                       options={"max_depth": 1000000},
                       match_outputs="order")
