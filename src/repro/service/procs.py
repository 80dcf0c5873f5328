"""Worker-process plumbing shared by the portfolio runner and scheduler.

Start-method note: the service prefers ``fork`` (cheap on Linux, and it
lets tests register extra engine methods that workers inherit); on
platforms without it the default context is used, which requires job specs
to be picklable — they are.
"""

import multiprocessing
import queue as queue_mod
import time

from .worker import worker_entry


def get_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context()


def start_worker(ctx, job, token, event_queue, result_queue):
    """Spawn a daemonized worker process for ``job``; returns it started."""
    proc = ctx.Process(
        target=worker_entry,
        args=(job, token, event_queue, result_queue),
        name="repro-worker-{}".format(token),
        daemon=True,
    )
    proc.start()
    return proc


def drain_queue(q):
    """Yield every message currently on ``q`` without blocking."""
    while True:
        try:
            yield q.get_nowait()
        except queue_mod.Empty:
            return


def terminate_gracefully(procs, grace=2.0):
    """Stop worker processes: SIGTERM, wait up to ``grace``, then SIGKILL.

    SIGTERM triggers the workers' cooperative-cancellation path (they
    finish the current engine iteration and exit cleanly); processes that
    do not exit within the grace period are killed.  Returns
    ``{proc: "terminated" | "killed" | "finished"}`` and guarantees every
    process is joined — no orphans survive this call.
    """
    outcome = {}
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
            outcome[proc] = "terminated"
        else:
            outcome[proc] = "finished"
    deadline = time.monotonic() + grace
    for proc in procs:
        proc.join(max(0.0, deadline - time.monotonic()))
    for proc in procs:
        if proc.is_alive():
            proc.kill()
            proc.join()
            outcome[proc] = "killed"
    return outcome
