"""The worker side of a process-mode :class:`~repro.serve.TransformPool`.

The paper's transform pipeline is pure-Python CPU work, so threads
cannot beat the GIL.  A process-mode pool forks N workers that each
open the database in **shared-reader mode** (``Database(mode="r")``,
the ``LOCK_SH`` + sealed-journal overlay machinery guaranteeing every
worker the same frozen snapshot) and evaluate transforms with a whole
interpreter each.  Because read-only page frames are served from a
file-backed ``mmap`` (:class:`~repro.storage.pages.PagedFile`), the
workers share hot pages through the OS page cache — zero-copy —
instead of re-reading them per process.

This module holds what lives behind the pipe: the worker loop
(:func:`_worker_main`), the parent's handle on one worker
(:class:`_WorkerHandle`), the result and error shapes that cross the
pipe, and the cheap cost estimate the pool routes small requests
inline with (:func:`plan_cost_estimate`).  Submission, deadlines,
respawn and counting live in :mod:`repro.serve.pool`.
"""

from __future__ import annotations

import re
import threading
import time
from typing import TYPE_CHECKING, Optional

from repro.errors import XMorphError
from repro.obs import tracer as obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.database import Database

_LABEL = re.compile(r"[A-Za-z_][\w.-]*")

#: Guard keywords that are never labels (skipped by the cost estimate).
_GUARD_KEYWORDS = {
    "MORPH",
    "CAST",
    "TYPE-FILL",
    "RESTRICT",
    "DROP",
    "GROUP",
    "BY",
    "AS",
    "TYPE",
    "FILL",
}


def plan_cost_estimate(database: "Database", name: str, guard: str) -> float:
    """A cheap touched-node estimate for routing (never compiles).

    Sums the stored per-type node counts of every guard token that
    matches a type label in the document's adorned shape — the counts
    are already in memory (the shape is tiny and loads eagerly), so the
    estimate costs a regex scan and a few dict lookups.  Unknown
    documents estimate 0: the lookup error is cheapest to produce
    inline, without waking a worker.
    """
    try:
        index = database.index(name)
    except Exception:
        return 0.0
    total = 0
    for token in set(_LABEL.findall(guard)):
        if token.upper() in _GUARD_KEYWORDS:
            continue
        for data_type in index.type_table.match_label(token):
            total += index.count_of(data_type)
    return float(total)


class RemoteTransformResult:
    """A transform result rendered in a worker process.

    The XML text crossed the pipe already serialized (the worker owns
    the forest; shipping the object graph would cost more than the
    render).  ``xml()`` matches :class:`~repro.engine.interpreter.
    TransformResult` for every serving consumer.
    """

    __slots__ = ("doc", "guard", "_xml")

    def __init__(self, doc: str, guard: str, xml: str):
        self.doc = doc
        self.guard = guard
        self._xml = xml

    def xml(self, indent: Optional[int] = None) -> str:
        if indent is not None:
            raise ValueError(
                "a RemoteTransformResult is pre-serialized; re-indenting "
                "needs the forest (run the transform locally instead)"
            )
        return self._xml

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteTransformResult({self.doc!r}, {len(self._xml)} bytes)"


class RemoteTransformError(XMorphError):
    """A transform failure rehydrated from a worker process.

    The original exception type stays behind the pipe (many carry
    unpicklable state); what serving needs — the message and the stable
    XM code — crosses intact.
    """

    def __init__(self, kind: str, message: str, code: Optional[str] = None):
        super().__init__(message)
        self.kind = kind
        self.code = code


def _worker_main(
    path: str, conn, cache_pages: int, durable: bool, compile_renders: bool = True
) -> None:
    """One worker: open a shared-reader snapshot, serve the pipe until EOF.

    Messages in: ``("req", doc, guard, stream, trace_id, sampled)``,
    ``("warm", pairs)``, ``("stats",)``, ``("quit",)``.  Messages out:
    ``("ok", xml, meta)``, ``("err", (kind, message, code), meta)``,
    ``("warmed", n)``, ``("stats", dict)``.
    """
    from repro.obs import export as obs_export
    from repro.serve.pool import run_transform
    from repro.storage.database import Database

    # ``compile_renders`` mirrors the parent handle: each worker compiles
    # (and ``warm``s) plans in its own process, so the specialized
    # renderers are generated post-fork against the worker's own
    # snapshot — nothing compiled crosses the pipe.
    database = Database(
        path,
        mode="r",
        cache_pages=cache_pages,
        durable=durable,
        compile_renders=compile_renders,
    )
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "quit":
                break
            if kind == "warm":
                warmed = 0
                for doc, guard in message[1]:
                    try:
                        database.compile(doc, guard)
                        warmed += 1
                    except Exception:
                        continue  # a bad guard warms nothing; requests will report it
                conn.send(("warmed", warmed))
                continue
            if kind == "stats":
                conn.send(
                    (
                        "stats",
                        {
                            "plan_cache": database.plan_cache.stats(),
                            "events": dict(database.stats.events),
                        },
                    )
                )
                continue
            _, doc, guard, stream, trace_id, sampled = message
            started = time.perf_counter()
            hits_before = database.plan_cache.stats()["hits"]
            tracer = obs.Tracer(trace_id=trace_id) if sampled else None
            try:
                result = run_transform(database, doc, guard, stream, tracer)
                xml = result if stream else result.xml()
            except Exception as error:  # a response, never a worker crash
                failure = (type(error).__name__, str(error), getattr(error, "code", None))
                meta = {"execute_seconds": time.perf_counter() - started}
                conn.send(("err", failure, meta))
                continue
            meta = {
                "execute_seconds": time.perf_counter() - started,
                "plan_cache_hit": database.plan_cache.stats()["hits"] > hits_before,
                "trace": None if tracer is None else obs_export.to_json_lines(
                    tracer, header={"doc": doc, "worker": True}
                ),
            }
            conn.send(("ok", xml, meta))
    finally:
        try:
            database.close()
        finally:
            conn.close()


class _WorkerHandle:
    """One worker process + the parent end of its pipe.

    The handle object is stable across respawns (the dispatcher thread
    keeps its reference); :meth:`adopt` swaps the process and pipe in
    place.  ``io_lock`` serializes the request/response exchange with
    out-of-band probes (:meth:`TransformPool.worker_stats
    <repro.serve.TransformPool.worker_stats>`).
    """

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.io_lock = threading.Lock()

    def adopt(self, other: "_WorkerHandle") -> None:
        self.process = other.process
        self.conn = other.conn

    def stop(self, join_timeout: float = 5.0) -> None:
        try:
            self.conn.send(("quit",))
        except (OSError, ValueError):
            pass
        try:
            self.conn.close()
        except OSError:
            pass
        self.process.join(timeout=join_timeout)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=join_timeout)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=join_timeout)
