"""Shared verification-result cache over HTTP.

The fleet's cache-sharing guarantee — *any node serves any
``aig_fingerprint``* — is implemented as a two-tier cache on every
worker: the node's local :class:`~repro.service.cache.ResultCache` in
front, the coordinator's cache (exposed at ``GET/PUT /v1/cache/{key}``,
the same content-addressed keys and :class:`SecResult` entries as the
disk cache) behind it.

:class:`CacheClient` is the worker-side HTTP leg.  It is deliberately
*lossy*: every failure — connection refused, timeout, a coordinator
restart — degrades to a cache miss (or a dropped publish) and bumps an
error counter, because a verification fleet must keep proving when its
cache is down, never the other way around.  Timeouts are short for the
same reason: the client runs inline in the worker daemon's job pump.

:class:`TieredCache` composes the two with read-through/write-through
semantics: remote hits are copied into the local tier, local solves are
published to the remote tier, so a result computed on any node is one
round-trip away from every other node and zero round-trips away the
second time it is asked of the same node.
"""

import json
import urllib.error
import urllib.request

from ..reach.result import SecResult
from ..service.job import CACHE_FORMAT_VERSION

__all__ = ["CacheClient", "TieredCache"]


class CacheClient:
    """One remote cache endpoint (``<base_url>/v1/cache/{key}``)."""

    def __init__(self, base_url, timeout=3.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.hits = 0
        self.misses = 0
        self.errors = 0

    def _url(self, key):
        return "{}/v1/cache/{}".format(self.base_url, key)

    def get(self, key):
        """The cached :class:`SecResult` for ``key``, or ``None``."""
        request = urllib.request.Request(
            self._url(key), headers={"Accept": "application/json"})
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                entry = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            if exc.code == 404:
                self.misses += 1
            else:
                self.errors += 1
            return None
        except (urllib.error.URLError, OSError, ValueError):
            self.errors += 1
            return None
        if entry.get("version") != CACHE_FORMAT_VERSION:
            self.misses += 1
            return None
        try:
            result = SecResult.from_dict(entry["result"])
        except (KeyError, TypeError, ValueError):
            self.errors += 1
            return None
        self.hits += 1
        return result

    def put(self, key, result, meta=None):
        """Publish ``result`` under ``key``; returns True if stored."""
        body = json.dumps({
            "version": CACHE_FORMAT_VERSION,
            "result": result.as_dict(),
            "meta": dict(meta or {}),
        }).encode("utf-8")
        request = urllib.request.Request(
            self._url(key), data=body, method="PUT",
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                response.read()
            return True
        except (urllib.error.URLError, OSError, ValueError):
            self.errors += 1
            return False

    def stats(self):
        return {"hits": self.hits, "misses": self.misses,
                "errors": self.errors, "url": self.base_url}


class TieredCache:
    """Local :class:`ResultCache` backed by a remote :class:`CacheClient`.

    Either tier may be ``None``; with both present, a remote hit is
    written through to the local tier and a local :meth:`put` is
    published remotely.  The interface matches what
    :class:`repro.server.app.VerifyServer` expects of its cache
    (``get`` / ``put`` / ``stats``), so it drops in unchanged.
    """

    def __init__(self, local, remote):
        if local is None and remote is None:
            raise ValueError("TieredCache needs at least one tier")
        self.local = local
        self.remote = remote
        self.remote_hits = 0

    def get(self, key):
        if self.local is not None:
            result = self.local.get(key)
            if result is not None:
                return result
        if self.remote is None:
            return None
        result = self.remote.get(key)
        if result is not None:
            self.remote_hits += 1
            if self.local is not None:
                self.local.put(key, result, meta={"origin": "remote"})
        return result

    def put(self, key, result, meta=None):
        stored = False
        if self.local is not None:
            stored = self.local.put(key, result, meta=meta)
        if self.remote is not None:
            stored = self.remote.put(key, result, meta=meta) or stored
        return stored

    def stats(self):
        """Hit/miss counters shaped like :meth:`ResultCache.stats`.

        ``hits``/``misses`` aggregate both tiers (a remote hit is a hit;
        a miss only counts when *every* tier missed), with the per-tier
        breakdown nested for the stats endpoint.
        """
        local = self.local.stats() if self.local is not None else None
        remote = self.remote.stats() if self.remote is not None else None
        hits = (local["hits"] if local else 0) + self.remote_hits
        total_lookups = (local["misses"] if local
                         else (remote["hits"] + remote["misses"]
                               + remote["errors"]) if remote else 0)
        misses = max(0, total_lookups - self.remote_hits)
        stats = {"hits": hits, "misses": misses,
                 "remote_hits": self.remote_hits,
                 "local": local, "remote": remote}
        if local:
            stats["entries"] = local["entries"]
            stats["bytes"] = local["bytes"]
        return stats
