"""Worker-process plumbing for :class:`~repro.service.scheduler.WorkerPool`.

The pool is the one supervisor: it alone forks workers with
:func:`start_worker`, relays their queues with :func:`drain_queue`, reaps
them and stops them (SIGTERM, then SIGKILL ``grace`` seconds later); the
batch scheduler, the portfolio race and the daemon all drive the pool.

Start-method note: the service prefers ``fork`` (cheap on Linux, and it
lets tests register extra engine methods that workers inherit); on
platforms without it the default context is used, which requires job specs
to be picklable — they are.
"""

import multiprocessing
import queue as queue_mod

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

