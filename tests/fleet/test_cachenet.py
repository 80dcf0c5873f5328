"""Shared-cache tests: :mod:`repro.fleet.cachenet` and the fleet's
*any node serves any fingerprint* guarantee.

The headline scenario: worker A solves a pair (publishing the result to
the coordinator's cache), then the same pair is routed to worker B — B
has never seen it, but serves it from the shared cache without running
an engine, an order of magnitude faster and bit-identical.
"""

import hashlib
import os
import time

import pytest

from repro import verify
from repro.circuits import delay_line_pair
from repro.client import ServerClient, job_payload
from repro.fleet import CacheClient, CoordinatorServer, TieredCache
from repro.server import VerifyServer
from repro.service.cache import ResultCache

from ..service.helpers import tiny_pair
from .helpers import LoopThread, comparable_result, wait_state, wait_until


def tiny_result():
    spec, impl = tiny_pair()
    return verify(spec, impl, method="bmc", max_depth=8,
                  match_outputs="order")


def hexkey(seed):
    return hashlib.sha256(seed.encode()).hexdigest()


# -- CacheClient against real coordinator cache routes ----------------------

@pytest.fixture
def coordinator(tmp_path):
    server = CoordinatorServer(
        port=0, store_dir=str(tmp_path / "cstore"),
        cache_dir=str(tmp_path / "ccache"),
        heartbeat_interval=0.25, dead_after=2.0)
    with LoopThread(server):
        yield server


def test_cache_client_roundtrip(coordinator):
    client = CacheClient(coordinator.url())
    key = hexkey("roundtrip")
    assert client.get(key) is None
    assert client.misses == 1

    result = tiny_result()
    assert client.put(key, result, meta={"node": "test"}) is True
    served = client.get(key)
    assert served is not None
    assert client.hits == 1
    assert served.as_dict() == result.as_dict()


def test_cache_client_rejects_bad_keys(coordinator):
    client = CacheClient(coordinator.url())
    # Uppercase / non-hex keys are a 400 on the wire -> error counter,
    # never an exception in the worker's job pump.
    assert client.get("NOT-A-DIGEST") is None
    assert client.errors == 1


def test_cache_client_is_lossy_when_endpoint_is_down():
    client = CacheClient("http://127.0.0.1:1", timeout=0.2)
    assert client.get(hexkey("down")) is None
    assert client.put(hexkey("down"), tiny_result()) is False
    assert client.errors == 2
    assert client.hits == 0


def test_tiered_cache_read_through_and_write_through(coordinator, tmp_path):
    remote = CacheClient(coordinator.url())
    local = ResultCache(str(tmp_path / "local"))
    tiered = TieredCache(local, remote)
    key = hexkey("tiered")
    result = tiny_result()

    # Seed only the remote tier, as if another node had solved it.
    assert remote.put(key, result)
    served = tiered.get(key)
    assert served is not None
    assert tiered.remote_hits == 1
    # Read-through: the local tier now holds a copy...
    assert local.get(key) is not None
    # ...so the next lookup never leaves the node.
    assert tiered.get(key) is not None
    assert tiered.remote_hits == 1

    # Write-through: a local put is published remotely.
    other = hexkey("tiered-other")
    assert tiered.put(other, result)
    fresh = CacheClient(coordinator.url())
    assert fresh.get(other) is not None

    stats = tiered.stats()
    assert stats["hits"] >= 2
    assert stats["remote_hits"] == 1
    assert stats["local"]["entries"] >= 2
    assert "entries" in stats and "bytes" in stats


# -- the cross-node guarantee, end to end -----------------------------------

def test_cross_node_cache_hit(tmp_path):
    """Worker A solves; worker B serves the same pair from the shared
    cache: no engine run, >=10x faster, identical result dict."""
    coordinator = CoordinatorServer(
        port=0, store_dir=str(tmp_path / "cstore"),
        cache_dir=str(tmp_path / "ccache"),
        heartbeat_interval=0.25, dead_after=3.0, poll_interval=0.02)
    with LoopThread(coordinator):
        url = coordinator.url()

        def worker(tag):
            return VerifyServer(
                port=0, workers=2,
                store_dir=str(tmp_path / tag / "store"),
                cache_dir=str(tmp_path / tag / "cache"),
                node_id=tag, join_url=url, heartbeat_interval=0.25,
                trusted_proxies=("127.0.0.1",), remote_cache_url=url)

        with LoopThread(worker("wa")), LoopThread(worker("wb")):
            client = ServerClient(url, timeout=30.0)
            wait_until(lambda: client.healthz()["nodes"]["alive"] == 2,
                       message="both workers to join")

            # Symbolic traversal keeps the solve long (about 2.5 s, one
            # image per frame of the delay) on a pair small enough that the
            # cache-served path, which fingerprints the pair and ships its
            # trace, stays short: the 10x check below compares the two.
            spec, impl = delay_line_pair(140, width=8)
            payload = job_payload(spec, impl, name="cross-cache",
                                  method="traversal", match_outputs="order")

            solve = dict(payload, pin_node="wa")
            started = time.monotonic()
            solved = wait_state(client, client.submit_payload(solve),
                                "done", timeout=90)
            solve_seconds = time.monotonic() - started
            assert solved["node"] == "wa"
            assert solved["cached"] is False

            cached = dict(payload, pin_node="wb")
            started = time.monotonic()
            job_id = client.submit_payload(cached)
            served = wait_state(client, job_id, "done", timeout=30)
            serve_seconds = time.monotonic() - started
            assert served["node"] == "wb"
            assert served["cached"] is True

            # Same SecResult, solved exactly once.
            assert comparable_result(served) == comparable_result(solved)
            assert served["result"]["result"]["equivalent"] is False

            # The cache hit shows up in the job's relayed event stream.
            types = [event.get("type")
                     for event in client.events(job_id, timeout=10)]
            assert "job_cached" in types

            # And it really did skip the engine: >=10x faster.
            assert serve_seconds * 10 <= solve_seconds, (
                "cache-served run took {:.3f}s vs {:.3f}s solve".format(
                    serve_seconds, solve_seconds))
