"""Per-client rate limiting behind the coordinator (X-Forwarded-For).

A worker daemon keys its rate limiter by socket peer; behind a
coordinator every request would share the coordinator's bucket and one
greedy client could starve the whole fleet.  The fix: a worker honours
``X-Forwarded-For`` — but only from peers in ``trusted_proxies`` —
and keys buckets by the forwarded identity.  These tests prove distinct
downstream clients land in distinct buckets, and that the header is
ignored when the peer is not trusted (spoofing resistance).
"""

import json
import urllib.error
import urllib.request

from repro.server import VerifyServer

from .helpers import LoopThread, wait_until


def get_stats(url, forwarded=None):
    """GET /v1/stats with an optional X-Forwarded-For; returns status."""
    headers = {}
    if forwarded is not None:
        headers["X-Forwarded-For"] = forwarded
    request = urllib.request.Request(url + "/v1/stats", headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            response.read()
            return response.status
    except urllib.error.HTTPError as exc:
        exc.read()
        return exc.code


def drain_bucket(url, forwarded, attempts=20):
    """Hammer until throttled; returns how many requests got through."""
    for number in range(attempts):
        if get_stats(url, forwarded) == 429:
            return number
    raise AssertionError("never throttled after {} requests".format(
        attempts))


def tiny_limit_server(tmp_path, trusted):
    # burst=3 with a glacial refill: the 4th request in a bucket is 429.
    return VerifyServer(
        port=0, workers=1,
        store_dir=str(tmp_path / "store"), cache_dir=None,
        rate=0.001, burst=3, trusted_proxies=trusted)


def test_distinct_forwarded_clients_get_distinct_buckets(tmp_path):
    server = tiny_limit_server(tmp_path, trusted=("127.0.0.1",))
    with LoopThread(server):
        url = server.url()
        assert drain_bucket(url, "10.0.0.1") == 3
        # A different downstream client arrives through the same proxy
        # socket — and gets its own untouched bucket.
        assert drain_bucket(url, "10.0.0.2") == 3
        # The first client is still throttled: the buckets are separate.
        assert get_stats(url, "10.0.0.1") == 429
        # So is the proxy's own (headerless) traffic bucket.
        assert drain_bucket(url, None) == 3
        assert server.limiter.rejected >= 3


def test_forwarded_header_ignored_from_untrusted_peer(tmp_path):
    server = tiny_limit_server(tmp_path, trusted=())
    with LoopThread(server):
        url = server.url()
        assert drain_bucket(url, "10.0.0.1") == 3
        # Untrusted peer: the spoofed header buys no fresh bucket.
        assert get_stats(url, "10.0.0.2") == 429
        assert get_stats(url, None) == 429


def test_first_hop_of_forwarded_chain_wins(tmp_path):
    server = tiny_limit_server(tmp_path, trusted=("127.0.0.1",))
    with LoopThread(server):
        url = server.url()
        # "client, proxy1, proxy2" — the originating client is the key.
        assert drain_bucket(url, "10.9.9.9, 192.168.0.1") == 3
        assert get_stats(url, "10.9.9.9") == 429


def test_forwarded_identity_recorded_on_submissions(tmp_path):
    server = VerifyServer(
        port=0, workers=1,
        store_dir=str(tmp_path / "store"), cache_dir=None,
        trusted_proxies=("127.0.0.1",))
    with LoopThread(server):
        from repro.client import job_payload

        from ..service.helpers import tiny_pair

        spec, impl = tiny_pair()
        body = json.dumps(job_payload(
            spec, impl, name="fwd", method="bmc",
            options={"max_depth": 4}, match_outputs="order")).encode()
        request = urllib.request.Request(
            server.url() + "/v1/jobs", data=body, method="POST",
            headers={"Content-Type": "application/json",
                     "X-Forwarded-For": "10.1.2.3"})
        with urllib.request.urlopen(request, timeout=10) as response:
            job_id = json.loads(response.read())["id"]
        wait_until(lambda: server.store.get(job_id).terminal, timeout=60,
                   message="job to finish")
        assert server.store.get(job_id).client == "10.1.2.3"
