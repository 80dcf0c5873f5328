"""Minimal asyncio HTTP/1.1 client for coordinator → worker traffic.

The stdlib ships no async HTTP client, and the coordinator must never
block its event loop on a worker call, so this module implements just
enough of the protocol to speak to :mod:`repro.server`'s daemon:
``Connection: close`` JSON requests (:func:`request_json`) and an
incremental Server-Sent-Events reader (:func:`sse_events`) used by the
coordinator's per-job relay tails.

Timeouts are per-I/O-step, not per-request: an SSE stream stays open for
the life of a job, but any single read that stalls past ``read_timeout``
(the worker heartbeats every few seconds, so silence means trouble)
fails the call so the relay can probe the node and fail over.
"""

import asyncio
import json
import urllib.parse

__all__ = ["AsyncHttpError", "request_json", "sse_events"]

_MAX_RESPONSE = 64 * 1024 * 1024


class AsyncHttpError(Exception):
    """A worker call that failed at the transport or HTTP layer.

    ``status`` is the HTTP status code when the failure was an error
    response, or ``None`` for connection-level trouble.
    """

    def __init__(self, message, status=None):
        super(AsyncHttpError, self).__init__(message)
        self.status = status


def _split(url):
    parsed = urllib.parse.urlsplit(url)
    if parsed.scheme != "http":
        raise AsyncHttpError("only http:// urls are supported: " + url)
    host = parsed.hostname or "127.0.0.1"
    port = parsed.port or 80
    target = parsed.path or "/"
    if parsed.query:
        target += "?" + parsed.query
    return host, port, target


def _request_bytes(method, host, target, body, headers):
    lines = [
        "{} {} HTTP/1.1".format(method, target),
        "Host: {}".format(host),
        "Accept: application/json",
        "Connection: close",
    ]
    for name, value in (headers or {}).items():
        lines.append("{}: {}".format(name, value))
    payload = b""
    if body is not None:
        payload = json.dumps(body).encode("utf-8")
        lines.append("Content-Type: application/json")
        lines.append("Content-Length: {}".format(len(payload)))
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload


async def _read_head(reader, timeout):
    """Read and parse the status line + header block."""
    try:
        head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout)
    except asyncio.IncompleteReadError as exc:
        raise AsyncHttpError("connection closed mid-response: {!r}".format(
            exc.partial[:128]))
    except asyncio.TimeoutError:
        raise AsyncHttpError("timed out reading response head")
    except asyncio.LimitOverrunError:
        raise AsyncHttpError("response head too large")
    lines = head.decode("latin-1").split("\r\n")
    try:
        status = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise AsyncHttpError("malformed status line: {!r}".format(lines[0]))
    headers = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers


async def _connect(url, connect_timeout):
    host, port, target = _split(url)
    try:
        # An SSE ``done`` frame carries the whole job record on one line;
        # a long counterexample trace outgrows asyncio's 64 KiB default.
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port, limit=_MAX_RESPONSE),
            connect_timeout)
    except (OSError, asyncio.TimeoutError) as exc:
        raise AsyncHttpError("cannot connect to {}: {}".format(url, exc))
    return reader, writer, host, target


async def request_json(method, url, body=None, headers=None,
                       connect_timeout=5.0, read_timeout=30.0):
    """One JSON request; returns ``(status, payload_dict)``.

    Raises :class:`AsyncHttpError` only for transport-level trouble —
    HTTP error statuses are returned to the caller, which knows whether a
    404 (job unknown on this node) or 429 (backpressure) is actionable.
    """
    reader, writer, host, target = await _connect(url, connect_timeout)
    try:
        writer.write(_request_bytes(method, host, target, body, headers))
        await asyncio.wait_for(writer.drain(), connect_timeout)
        status, response_headers = await _read_head(reader, read_timeout)
        length = response_headers.get("content-length")
        try:
            if length is not None:
                size = int(length)
                if size > _MAX_RESPONSE:
                    raise AsyncHttpError("response body too large")
                raw = await asyncio.wait_for(reader.readexactly(size),
                                             read_timeout)
            else:
                raw = await asyncio.wait_for(reader.read(_MAX_RESPONSE),
                                             read_timeout)
        except (asyncio.TimeoutError, asyncio.IncompleteReadError):
            raise AsyncHttpError("timed out reading response body")
        payload = {}
        if raw:
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                raise AsyncHttpError(
                    "non-JSON response body (status {})".format(status))
        return status, payload
    finally:
        try:
            writer.close()
        except Exception:
            pass


async def sse_events(url, headers=None, connect_timeout=5.0,
                     read_timeout=60.0):
    """Async generator of ``(event_type, payload_dict)`` from an SSE url.

    The worker's heartbeat comments keep the stream moving; a read that
    stalls past ``read_timeout`` raises :class:`AsyncHttpError` so the
    relay loop can treat the node as unresponsive.  Ends cleanly when the
    server closes the stream.
    """
    reader, writer, host, target = await _connect(url, connect_timeout)
    try:
        writer.write(_request_bytes("GET", host, target, None, headers))
        await asyncio.wait_for(writer.drain(), connect_timeout)
        status, _ = await _read_head(reader, read_timeout)
        if status != 200:
            raise AsyncHttpError(
                "SSE stream refused: status {}".format(status),
                status=status)
        event_type = None
        data_parts = []
        while True:
            try:
                raw = await asyncio.wait_for(reader.readline(), read_timeout)
            except asyncio.TimeoutError:
                raise AsyncHttpError("SSE stream stalled (no heartbeat)")
            if not raw:
                return  # server closed the stream
            line = raw.decode("utf-8", "replace").rstrip("\r\n")
            if not line:
                if data_parts:
                    try:
                        payload = json.loads("\n".join(data_parts))
                    except ValueError:
                        payload = None
                    if payload is not None:
                        yield event_type, payload
                event_type = None
                data_parts = []
                continue
            if line.startswith(":"):
                continue  # heartbeat comment
            name, _, value = line.partition(":")
            if value.startswith(" "):
                value = value[1:]
            if name == "event":
                event_type = value
            elif name == "data":
                data_parts.append(value)
    finally:
        try:
            writer.close()
        except Exception:
            pass
