"""Line-oriented request serving: ``xmorph serve``.

The protocol is one JSON object per line, chosen so a shell, a test, or
a load generator can drive it with nothing but pipes::

    {"id": 1, "doc": "dblp", "guard": "MORPH author [ name ]"}
    {"id": 2, "doc": "dblp", "guard": "...", "stream": true}
    {"cmd": "stats"}
    {"cmd": "metrics"}
    {"cmd": "quit"}

Responses mirror the ids, in request order::

    {"id": 1, "ok": true, "xml": "<author>...</author>"}
    {"id": 2, "ok": false, "error": "...", "code": "XM540"}

(``code`` is the stable XM-code when the failure has one — lock
conflicts are ``XM520``, timeouts ``XM540``, read-only violations
``XM550`` — and ``null`` for uncoded type/parse errors.)

``{"cmd": "metrics"}`` answers with the database's Prometheus text
exposition in a JSON envelope, and a raw ``GET /metrics HTTP/1.x``
request line on the same port gets a one-shot HTTP response — the TCP
server doubles as a scrape endpoint (``curl http://host:port/metrics``,
``xmorph top``); see ``docs/OBSERVABILITY.md``.

The loop pipelines: the reader thread keeps submitting requests to the
pool while a responder thread writes each response the moment its turn
comes, in request order — a synchronous client gets its answer
immediately, a pipelining load generator keeps ``2 x workers`` requests
in flight (the bounded response queue is the backpressure).  Per-request
failures are *responses*, never loop crashes.  ``serve_forever`` wraps
the same loop in a threading TCP server, one connection per thread, all
sharing the one database handle — which is exactly what the thread-safe
substrate (buffer pool, plan cache, join memos) exists for.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import IO, Optional

from repro.errors import XMorphError
from repro.serve.pool import TransformPool
from repro.serve.telemetry import ServeTelemetry, metrics_snapshot

#: In-flight responses per worker before request reading blocks
#: (bounded buffering = backpressure on a fast client).
_WINDOW_PER_WORKER = 2


def make_pool(
    database,
    workers: int = 4,
    deadline: Optional[float] = None,
    telemetry: Optional[ServeTelemetry] = None,
    mode: str = "thread",
    **pool_kwargs,
):
    """A :class:`TransformPool` in ``mode``: ``"thread"`` or ``"process"``.

    ``"thread"`` shares the caller's handle (any open mode);
    ``"process"`` forks workers that each reopen the store read-only,
    so the parent handle must itself be ``mode="r"`` — the pool raises
    ``StorageError`` otherwise.  See ``docs/CONCURRENCY.md#decision``
    for when each wins.
    """
    return TransformPool(
        database,
        workers=workers,
        deadline=deadline,
        telemetry=telemetry,
        mode=mode,
        **pool_kwargs,
    )


def render_database_metrics(database, pool=None) -> str:
    """The live Prometheus exposition text of one database (+ pool)."""
    from repro.obs.prom import render_prometheus

    counters, gauges, histograms = metrics_snapshot(database, pool)
    return render_prometheus(counters, gauges=gauges, histograms=histograms)


def _http_response(status: str, body: str, content_type: str) -> str:
    payload = body.encode("utf-8")
    return (
        f"HTTP/1.0 {status}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n"
        "\r\n" + body
    )


def _handle_http(database, pool, line: str) -> str:
    """A one-shot HTTP response for a ``GET <path>`` request line.

    The line protocol doubles as a minimal scrape endpoint: a client
    (curl, a Prometheus scraper) that opens the TCP port and sends
    ``GET /metrics HTTP/1.1`` gets a well-formed HTTP response and the
    connection closes.  Only ``/metrics`` exists.
    """
    parts = line.split()
    path = parts[1] if len(parts) > 1 else "/"
    if path.split("?")[0] == "/metrics":
        return _http_response(
            "200 OK",
            render_database_metrics(database, pool),
            "text/plain; version=0.0.4; charset=utf-8",
        )
    return _http_response("404 Not Found", "only /metrics is served\n", "text/plain")


@dataclass
class ServeStats:
    """What one :func:`serve_loop` session did."""

    requests: int = 0
    ok: int = 0
    errors: int = 0
    #: Lifetime ``serve.*`` database counters at loop exit.
    counters: dict = field(default_factory=dict)


def serve_loop(
    database,
    reader: IO[str],
    writer: IO[str],
    workers: int = 4,
    deadline: Optional[float] = None,
    telemetry: Optional[ServeTelemetry] = None,
    pool_mode: str = "thread",
    pool=None,
) -> ServeStats:
    """Serve newline-delimited JSON requests until EOF or ``quit``.

    ``pool`` lends an already-running executor (``serve_forever`` shares
    one process pool across every connection — forking per connection
    would pay worker startup on each); the loop then leaves shutdown to
    the owner.  Otherwise one is built per ``pool_mode`` and torn down
    at EOF.
    """
    stats = ServeStats()
    if telemetry is None:
        # Even an unconfigured loop (no sampling, no slow log) records
        # request latency histograms, so /metrics always has quantiles.
        telemetry = ServeTelemetry(stats=database.stats)
    import contextlib

    if pool is not None:
        pool_context = contextlib.nullcontext(pool)
    else:
        pool_context = make_pool(
            database,
            workers=workers,
            deadline=deadline,
            telemetry=telemetry,
            mode=pool_mode,
        )
    with pool_context as pool:
        # One responder thread writes responses in request order, each
        # the moment its future resolves; the bounded queue throttles a
        # client that pipelines faster than the pool completes.
        responses: queue.Queue = queue.Queue(
            maxsize=max(1, workers) * _WINDOW_PER_WORKER
        )
        failure: list[BaseException] = []

        def responder() -> None:
            try:
                while True:
                    item = responses.get()
                    if item is None:
                        return
                    kind, request_id, payload = item
                    if kind == "literal":
                        stats.errors += 1
                        _write(writer, payload)
                    elif kind == "stats":
                        # Every earlier response has been written, so
                        # the counters reflect all prior requests.
                        _write(writer, {"ok": True, "stats": pool.stats()})
                    elif kind == "metrics":
                        _write(
                            writer,
                            {
                                "ok": True,
                                "prometheus": render_database_metrics(
                                    database, pool
                                ),
                            },
                        )
                    elif kind == "raw":
                        writer.write(payload)
                        writer.flush()
                    else:
                        _respond(writer, stats, request_id, payload, pool, telemetry)
            except BaseException as error:  # noqa: B036 - re-raised by the
                # reader thread once the queue is drained (see below).
                failure.append(error)
                while responses.get() is not None:  # unblock the producer
                    pass

        pump = threading.Thread(target=responder, name="xmorph-respond", daemon=True)
        pump.start()
        try:
            for line in reader:
                line = line.strip()
                if not line:
                    continue
                if line.startswith(("GET ", "HEAD ")):
                    # An HTTP client (curl, a Prometheus scraper) hit
                    # the line-protocol port: answer and close.
                    responses.put(("raw", None, _handle_http(database, pool, line)))
                    break
                try:
                    request = json.loads(line)
                except ValueError:
                    stats.requests += 1
                    responses.put(
                        ("literal", None, {"id": None, "ok": False, "error": "bad JSON line"})
                    )
                    continue
                command = request.get("cmd") if isinstance(request, dict) else None
                if command == "quit":
                    break
                if command == "stats":
                    responses.put(("stats", None, None))
                    continue
                if command == "metrics":
                    responses.put(("metrics", None, None))
                    continue
                if (
                    not isinstance(request, dict)
                    or "doc" not in request
                    or "guard" not in request
                ):
                    stats.requests += 1
                    responses.put(
                        (
                            "literal",
                            None,
                            {
                                "id": request.get("id") if isinstance(request, dict) else None,
                                "ok": False,
                                "error": "request needs 'doc' and 'guard' fields",
                            },
                        )
                    )
                    continue
                stats.requests += 1
                future = pool.submit(
                    request["doc"], request["guard"], stream=bool(request.get("stream"))
                )
                responses.put(("future", request.get("id"), future))
        finally:
            responses.put(None)
            pump.join()
        if failure:
            raise failure[0]
    stats.counters = {
        name: count
        for name, count in sorted(database.stats.events.items())
        if name.startswith("serve.")
    }
    return stats


def _respond(writer, stats: ServeStats, request_id, future, pool, telemetry) -> None:
    try:
        result = pool.result(future)
    except Exception as error:  # noqa: BLE001 - a response, never a crash
        # The pool already counted the error and failed the trace.
        stats.errors += 1
        response = {"id": request_id, "ok": False, "error": str(error)}
        if isinstance(error, XMorphError):
            response["code"] = getattr(error, "code", None)
        _write(writer, response)
    else:
        stats.ok += 1
        trace = future.xmorph_trace
        started = time.perf_counter()
        xml = result if isinstance(result, str) else result.xml()
        _write(writer, {"id": request_id, "ok": True, "xml": xml})
        if trace is not None:
            trace.serialize_seconds = time.perf_counter() - started
    finally:
        if telemetry is not None:
            telemetry.finish(future.xmorph_trace)


def _write(writer, payload: dict) -> None:
    writer.write(json.dumps(payload) + "\n")
    writer.flush()


def serve_forever(
    database,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 4,
    deadline: Optional[float] = None,
    telemetry: Optional[ServeTelemetry] = None,
    pool_mode: str = "thread",
):
    """A threading TCP server running :func:`serve_loop` per connection.

    Returns the listening ``socketserver.ThreadingTCPServer`` (so the
    caller can read ``server_address`` and drive ``serve_forever()`` /
    ``shutdown()`` itself).  Every connection shares the one database
    handle — concurrency comes from the shared pool-safe substrate.

    ``pool_mode="process"`` forks the worker fleet **once** and lends
    it to every connection (``server_close`` tears it down); thread
    mode keeps the historical pool-per-connection shape, which costs
    nothing because threads are cheap and the substrate is shared.
    """
    import socketserver

    shared = telemetry if telemetry is not None else ServeTelemetry(
        stats=database.stats
    )
    shared_pool = (
        make_pool(
            database,
            workers=workers,
            deadline=deadline,
            telemetry=shared,
            mode=pool_mode,
        )
        if pool_mode == "process"
        else None
    )

    class Handler(socketserver.StreamRequestHandler):
        def handle(self) -> None:  # pragma: no cover - exercised via TCP tests
            reader = self.rfile and _decode_lines(self.rfile)
            writer = _EncodedWriter(self.wfile)
            serve_loop(
                database,
                reader,
                writer,
                workers=workers,
                deadline=deadline,
                telemetry=shared,
                pool_mode=pool_mode,
                pool=shared_pool,
            )

    class Server(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

        def server_close(self) -> None:
            if shared_pool is not None:
                shared_pool.shutdown()
            super().server_close()

    server = Server((host, port), Handler)
    #: Exposed so callers (tests, ``xmorph top`` demos) can inspect the
    #: shared executor; ``None`` in thread mode.
    server.xmorph_pool = shared_pool
    return server


def _decode_lines(binary_reader):
    for raw in binary_reader:
        yield raw.decode("utf-8", errors="replace")


class _EncodedWriter:
    """A text-writer facade over a binary socket file."""

    def __init__(self, binary_writer):
        self._writer = binary_writer

    def write(self, text: str) -> None:
        self._writer.write(text.encode("utf-8"))

    def flush(self) -> None:
        self._writer.flush()
