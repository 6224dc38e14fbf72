"""The process-based transform executor: rendering that scales with cores.

The paper's transform pipeline is pure-Python CPU work, so the thread
pool in :mod:`repro.serve.pool` cannot beat the GIL — ``BENCH_parallel``
measured 0.78x *versus serial* at its best.  This module is the fix:
:class:`ProcessTransformPool` forks N worker processes that each open
the database in **shared-reader mode** (``Database(mode="r")``, the
``LOCK_SH`` + sealed-journal overlay machinery guaranteeing every
worker the same frozen snapshot) and evaluate transforms with a whole
interpreter each.  Because read-only page frames are served from a
file-backed ``mmap`` (:class:`~repro.storage.pages.PagedFile`), the
workers share hot pages through the OS page cache — zero-copy — instead
of re-reading them per process.

Dispatch and semantics:

* **one pipe per worker, one dispatcher thread per pipe** — the parent
  threads spend their lives blocked in ``recv`` (no GIL contention; the
  CPU work happens in the children), pulling tasks from one shared
  queue so a slow request never convoys the others;
* **cost-routed inlining** — each request gets a cheap plan-cost
  estimate (:func:`plan_cost_estimate`, adorned-shape counts only, no
  compile); a transform too small to amortize IPC runs inline on the
  submitting thread (``serve.inline_small``) instead of paying a
  round-trip;
* **deadlines** — the per-request budget crosses the process boundary:
  the parent enforces it on the future (``XM540``), and a worker that
  receives an already-expired request refuses it without rendering;
* **worker death** — a killed or crashed worker is respawned
  (``serve.worker_restarts``), its in-flight request re-executed on the
  replacement, so no response is ever lost or duplicated; a worker that
  cannot be respawned degrades its requests to inline serial execution
  (``serve.degraded_serial``);
* **warm starts** — fresh and respawned workers receive the pool's
  warmup list (recent ``(doc, guard)`` pairs) and pre-compile them into
  their private plan caches before taking traffic;
* **telemetry** — workers report execute time, plan-cache outcome and
  (for sampled requests) a fully rendered JSONL trace, which the parent
  merges into the same ``serve.*`` histograms, slow-query log and trace
  file the thread pool feeds.

Results cross the pipe as rendered XML text wrapped in
:class:`RemoteTransformResult` — byte-identical to serial evaluation
(``tests/serve`` pins this), and exactly what a serving loop needs.
The thread pool remains the right executor on free-threaded builds;
``docs/CONCURRENCY.md`` has the decision table.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import multiprocessing
import queue
import re
import threading
import time
from contextlib import nullcontext
from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import StorageError, TransformTimeoutError, XMorphError
from repro.obs import tracer as obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.telemetry import ServeTelemetry
    from repro.storage.database import Database

#: Estimated touched-node count below which a request skips IPC and
#: runs inline on the submitting thread.  At ~1 ms of IPC+unpickle
#: round-trip and ~10 µs/node render cost, a few dozen nodes is the
#: break-even neighborhood.
INLINE_THRESHOLD = 32

#: Respawn attempts per request before degrading it to inline serial.
MAX_RESPAWNS_PER_REQUEST = 2

#: Recent (doc, guard) pairs replayed into a respawned worker's plan cache.
WARM_HISTORY = 16

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


def _rehydrate_error(kind: str, message: str, code: Optional[str]):
    """Rebuild a worker-side failure for the submitting thread.

    Deadline misses come back as the real
    :class:`~repro.errors.TransformTimeoutError` is already formatted
    into the message; everything else becomes a
    :class:`RemoteTransformError` carrying the original code.
    """
    return RemoteTransformError(kind, message, code)


# -- the worker process ------------------------------------------------------


def _worker_main(
    path: str, conn, cache_pages: int, durable: bool, compile_renders: bool = True
) -> None:
    """One worker: open a shared-reader snapshot, serve the pipe until EOF.

    Messages in: ``("req", req_id, doc, guard, stream, budget, trace_id,
    sampled)``, ``("warm", pairs)``, ``("stats",)``, ``("quit",)``.
    Messages out: ``("ok", req_id, xml, meta)``, ``("err", req_id,
    kind, message, code, meta)``, ``("warmed", n)``, ``("stats", dict)``.
    """
    from io import StringIO

    from repro.obs import export as obs_export
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
            # ("req", req_id, doc, guard, stream, budget, trace_id, sampled)
            _, req_id, doc, guard, stream, budget, trace_id, sampled = message
            started = time.perf_counter()
            if budget is not None and budget <= 0:
                error = TransformTimeoutError(doc, guard, max(budget, 0.0))
                conn.send(
                    (
                        "err",
                        req_id,
                        type(error).__name__,
                        str(error),
                        error.code,
                        {"execute_seconds": 0.0},
                    )
                )
                continue
            hits_before = database.plan_cache.stats()["hits"]
            tracer = obs.Tracer(trace_id=trace_id) if sampled else None
            trace_text = None
            try:
                if tracer is not None:
                    previous = obs.set_tracer(tracer)
                try:
                    with (
                        tracer.span("serve.request", doc=doc, stream=stream)
                        if tracer is not None
                        else nullcontext()
                    ):
                        if stream:
                            sink = StringIO()
                            database.stream_transform(doc, guard, sink)
                            xml = sink.getvalue()
                        else:
                            xml = database.transform(doc, guard).xml()
                finally:
                    if tracer is not None:
                        obs.set_tracer(previous)
                        trace_text = obs_export.to_json_lines(
                            tracer,
                            header={"doc": doc, "worker": True},
                        )
            except Exception as error:  # a response, never a worker crash
                meta = {"execute_seconds": time.perf_counter() - started}
                conn.send(
                    (
                        "err",
                        req_id,
                        type(error).__name__,
                        str(error),
                        getattr(error, "code", None),
                        meta,
                    )
                )
                continue
            meta = {
                "execute_seconds": time.perf_counter() - started,
                "plan_cache_hit": database.plan_cache.stats()["hits"] > hits_before,
                "trace": trace_text,
            }
            conn.send(("ok", req_id, xml, meta))
    finally:
        try:
            database.close()
        finally:
            conn.close()


# -- the parent-side pool ----------------------------------------------------


class _Task:
    __slots__ = ("req_id", "doc", "guard", "stream", "deadline", "future",
                 "trace", "attempts", "submitted")

    def __init__(self, req_id, doc, guard, stream, deadline, future, trace):
        self.req_id = req_id
        self.doc = doc
        self.guard = guard
        self.stream = stream
        self.deadline = deadline
        self.future = future
        self.trace = trace
        self.attempts = 0
        self.submitted = time.perf_counter()


class _WorkerHandle:
    """One worker process + the parent end of its pipe.

    The handle object is stable across respawns (the dispatcher thread
    keeps its reference); :meth:`adopt` swaps the process and pipe in
    place.  ``io_lock`` serializes the request/response exchange with
    out-of-band probes (:meth:`ProcessTransformPool.worker_stats`).
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
        except (OSError, BrokenPipeError, ValueError):
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


class ProcessTransformPool:
    """A forked-worker pool evaluating guard transforms over snapshots.

    The database handle must be a shared reader (``mode="r"``): the
    parent's handle serves cost estimates and the inline path, and each
    worker opens its *own* ``mode="r"`` handle on the same path — the
    shared ``flock`` admits any number of readers, and a writer is
    excluded for the pool's whole life, so every process sees one
    frozen snapshot.

    API-compatible with :class:`~repro.serve.TransformPool` everywhere
    the serving layer cares: ``submit`` returning futures,
    ``transform_many``/``stream_many``, ``pending``, ``stats()``,
    context-manager shutdown.  Pooled results are
    :class:`RemoteTransformResult`; inline-routed results are ordinary
    :class:`~repro.engine.interpreter.TransformResult`s — both answer
    ``.xml()`` with byte-identical text.
    """

    mode = "process"

    def __init__(
        self,
        database: "Database",
        workers: int = 4,
        deadline: Optional[float] = None,
        max_queue: Optional[int] = None,
        telemetry: Optional["ServeTelemetry"] = None,
        inline_threshold: float = INLINE_THRESHOLD,
        warm: Optional[Sequence[tuple[str, str]]] = None,
        worker_cache_pages: int = 2048,
    ):
        if database.mode != "r":
            raise StorageError(
                "ProcessTransformPool needs a shared-reader handle: open the "
                'database with mode="r" (workers take LOCK_SH on the same '
                "path, which a writer's exclusive lock would refuse)"
            )
        self.database = database
        self.workers = max(1, int(workers))
        self.deadline = deadline
        self.telemetry = telemetry
        self.inline_threshold = inline_threshold
        self.max_queue = max_queue if max_queue is not None else self.workers * 4
        self._path = database._file.path
        self._worker_cache_pages = worker_cache_pages
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platform
            self._mp = multiprocessing.get_context("spawn")
        self._tasks: "queue.Queue[Optional[_Task]]" = queue.Queue()
        self._pending = 0
        self._pending_lock = threading.Lock()
        self._req_ids = itertools.count(1)
        self._warm_pairs: "list[tuple[str, str]]" = list(warm or [])[-WARM_HISTORY:]
        self._warm_lock = threading.Lock()
        self._closed = False
        self._threads: list[threading.Thread] = []
        self._handles: list[_WorkerHandle] = []
        try:
            for _ in range(self.workers):
                self._handles.append(self._spawn())
        except BaseException:
            self.shutdown(wait=False)
            raise
        for handle in self._handles:
            thread = threading.Thread(
                target=self._dispatch_loop,
                args=(handle,),
                name=f"xmorph-procpool-{handle.process.pid}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "ProcessTransformPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def shutdown(self, wait: bool = True) -> None:
        if self._closed:
            return
        self._closed = True
        for _ in self._threads:
            self._tasks.put(None)
        if wait:
            for thread in self._threads:
                thread.join(timeout=30)
        for handle in self._handles:
            handle.stop()
        self._threads = []
        self._handles = []

    def _spawn(self) -> "_WorkerHandle":
        parent_conn, child_conn = self._mp.Pipe()
        process = self._mp.Process(
            target=_worker_main,
            args=(self._path, child_conn, self._worker_cache_pages,
                  self.database.durable, self.database.compile_renders),
            name="xmorph-serve-worker",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle = _WorkerHandle(process, parent_conn)
        with self._warm_lock:
            pairs = list(self._warm_pairs)
        if pairs:
            try:
                parent_conn.send(("warm", pairs))
                reply = parent_conn.recv()
                if reply[0] != "warmed":  # pragma: no cover - protocol guard
                    raise OSError(f"unexpected warmup reply {reply[0]!r}")
            except (EOFError, OSError, BrokenPipeError):
                handle.stop()
                raise StorageError(
                    "serve worker died during plan-cache warmup"
                ) from None
        return handle

    # -- submission ----------------------------------------------------------

    def _event(self, name: str, count: int = 1) -> None:
        self.database.stats.event(name, count)
        obs.count(name, count)

    def submit(
        self,
        name: str,
        guard: str,
        stream: bool = False,
        deadline: Optional[float] = None,
    ) -> "concurrent.futures.Future":
        """Route one transform; returns its future.

        Tiny transforms (plan-cost estimate at or under
        ``inline_threshold``) and submissions past the ``max_queue``
        bound run inline on the calling thread — same deadline
        semantics, same histograms — and everything else crosses the
        pipe to a worker process.
        """
        self._event("serve.requests")
        deadline = deadline if deadline is not None else self.deadline
        trace = (
            self.telemetry.start(name, guard) if self.telemetry is not None else None
        )
        with self._warm_lock:
            pair = (name, guard)
            if pair in self._warm_pairs:
                self._warm_pairs.remove(pair)
            self._warm_pairs.append(pair)
            del self._warm_pairs[:-WARM_HISTORY]
        if self.inline_threshold is not None and (
            plan_cost_estimate(self.database, name, guard) <= self.inline_threshold
        ):
            self._event("serve.inline_small")
            return self._run_inline(name, guard, stream, deadline, trace)
        with self._pending_lock:
            saturated = self._pending >= self.max_queue
            if not saturated:
                self._pending += 1
        if saturated or not self._handles:
            self._event("serve.degraded_serial")
            if trace is not None:
                trace.degraded = True
            return self._run_inline(name, guard, stream, deadline, trace)
        future: "concurrent.futures.Future" = concurrent.futures.Future()
        future.xmorph_trace = trace
        self._tasks.put(
            _Task(next(self._req_ids), name, guard, stream, deadline, future, trace)
        )
        return future

    def _run_inline(self, name, guard, stream, deadline, trace):
        """Inline serial execution with the thread pool's exact contract."""
        from io import StringIO

        future: "concurrent.futures.Future" = concurrent.futures.Future()
        future.xmorph_trace = trace
        if trace is not None:
            trace.begin()
        started = time.perf_counter()
        try:
            if stream:
                sink = StringIO()
                self.database.stream_transform(name, guard, sink)
                result = sink.getvalue()
            else:
                result = self.database.transform(name, guard)
        except BaseException as error:  # noqa: B036 - the future carries it
            self._record_error(error, trace)
            future.set_exception(error)
        else:
            elapsed = time.perf_counter() - started
            if deadline is not None and elapsed > deadline:
                self._event("serve.timeouts")
                error = TransformTimeoutError(name, guard, deadline)
                self._record_error(error, trace)
                future.set_exception(error)
            else:
                self._event("serve.completed")
                future.set_result(result)
        finally:
            if trace is not None:
                trace.end_execute()
            if self.telemetry is not None:
                self.telemetry.finish(trace)
        return future

    def _record_error(self, error: BaseException, trace) -> None:
        self._event("serve.errors")
        code = getattr(error, "code", None)
        self._event(f"serve.errors.{code}" if code else "serve.errors.uncoded")
        if trace is not None:
            trace.fail(error)

    # -- the dispatcher (one thread per worker pipe) -------------------------

    def _dispatch_loop(self, handle: "_WorkerHandle") -> None:
        while True:
            task = self._tasks.get()
            if task is None:
                return
            try:
                self._execute_on(handle, task)
            finally:
                with self._pending_lock:
                    self._pending -= 1

    def _execute_on(self, handle: "_WorkerHandle", task: _Task) -> None:
        if not task.future.set_running_or_notify_cancel():
            return  # cancelled before dispatch
        while True:
            budget = None
            if task.deadline is not None:
                budget = task.deadline - (time.perf_counter() - task.submitted)
                if budget <= 0:
                    self._event("serve.timeouts")
                    error = TransformTimeoutError(task.doc, task.guard, task.deadline)
                    self._record_error(error, task.trace)
                    self._finish_trace(task)
                    self._set_exception(task.future, error)
                    return
            if task.trace is not None:
                task.trace.begin()
            try:
                with handle.io_lock:
                    handle.conn.send(
                        (
                            "req",
                            task.req_id,
                            task.doc,
                            task.guard,
                            task.stream,
                            budget,
                            task.trace.trace_id if task.trace is not None else None,
                            bool(task.trace is not None and task.trace.sampled),
                        )
                    )
                    reply = handle.conn.recv()
            except (EOFError, OSError, BrokenPipeError):
                # The worker died under this request (crash, SIGKILL,
                # OOM).  Respawn it and re-execute: the dead worker
                # never answered, so the retry cannot duplicate a
                # response.
                self._event("serve.worker_restarts")
                task.attempts += 1
                if not self._respawn(handle) or task.attempts > MAX_RESPAWNS_PER_REQUEST:
                    self._event("serve.degraded_serial")
                    if task.trace is not None:
                        task.trace.degraded = True
                    self._relay_inline(task)
                    return
                continue
            self._deliver(task, reply)
            return

    def _respawn(self, handle: "_WorkerHandle") -> bool:
        handle.stop()
        if self._closed:
            return False
        try:
            replacement = self._spawn()
        except Exception:
            return False
        handle.adopt(replacement)
        return True

    def _relay_inline(self, task: _Task) -> None:
        """Degraded path for a task whose worker could not be revived."""
        inline = self._run_inline(
            task.doc, task.guard, task.stream, task.deadline, task.trace
        )
        # serve.requests was already counted at submit; undo the double
        # count the inline helper path shares with submit().
        error = inline.exception()
        if error is not None:
            self._set_exception(task.future, error)
        else:
            self._set_result(task.future, inline.result())

    def _deliver(self, task: _Task, reply) -> None:
        kind = reply[0]
        if kind == "ok":
            _, _req_id, xml, meta = reply
            self._apply_meta(task, meta)
            self._event("serve.completed")
            # The trace stays open: whoever consumes the future (the
            # serve loop's responder, transform_many) finishes it once
            # the response is serialized, as with the thread pool.
            # Stream requests resolve to the rendered text (matching the
            # thread pool); batch requests to a result object.
            self._set_result(
                task.future,
                xml if task.stream
                else RemoteTransformResult(task.doc, task.guard, xml),
            )
            return
        # ("err", req_id, kind, message, code, meta)
        _, _req_id, error_kind, message, code, meta = reply
        self._apply_meta(task, meta)
        error = _rehydrate_error(error_kind, message, code)
        if code == "XM540":
            self._event("serve.timeouts")
        self._record_error(error, task.trace)
        self._finish_trace(task)
        self._set_exception(task.future, error)

    def _apply_meta(self, task: _Task, meta: dict) -> None:
        trace = task.trace
        if trace is None:
            return
        if trace.started is not None:
            trace.executed = trace.started + meta.get("execute_seconds", 0.0)
        if meta.get("plan_cache_hit") is not None:
            trace.remote_plan_cache = meta["plan_cache_hit"]
        text = meta.get("trace")
        if text and self.telemetry is not None:
            self.telemetry.write_remote_trace(trace, text)

    def _finish_trace(self, task: _Task) -> None:
        if self.telemetry is not None:
            self.telemetry.finish(task.trace)

    @staticmethod
    def _set_result(future, value) -> None:
        try:
            future.set_result(value)
        except concurrent.futures.InvalidStateError:
            pass  # the collector timed out and abandoned this future

    @staticmethod
    def _set_exception(future, error) -> None:
        try:
            future.set_exception(error)
        except concurrent.futures.InvalidStateError:
            pass

    # -- batched APIs (mirrors TransformPool) --------------------------------

    def transform_many(
        self,
        requests: Sequence[tuple[str, str]],
        deadline: Optional[float] = None,
    ) -> list:
        """Evaluate ``(document, guard)`` requests; results in order."""
        return self._collect(requests, stream=False, deadline=deadline)

    def stream_many(
        self,
        requests: Sequence[tuple[str, str]],
        deadline: Optional[float] = None,
    ) -> list[str]:
        """Stream-render each request; returns the XML texts in order."""
        return self._collect(requests, stream=True, deadline=deadline)

    def _collect(self, requests, stream: bool, deadline: Optional[float]) -> list:
        deadline = deadline if deadline is not None else self.deadline
        futures = [
            (name, guard, self.submit(name, guard, stream=stream, deadline=deadline))
            for name, guard in requests
        ]
        results = []
        for name, guard, future in futures:
            trace = getattr(future, "xmorph_trace", None)
            try:
                results.append(future.result(timeout=deadline))
            except concurrent.futures.TimeoutError:
                future.cancel()
                self._event("serve.timeouts")
                self._event("serve.errors.XM540")
                error = TransformTimeoutError(name, guard, deadline)
                if trace is not None and self.telemetry is not None:
                    trace.fail(error)
                    self.telemetry.finish(trace)
                raise error from None
            finally:
                if self.telemetry is not None:
                    self.telemetry.finish(trace)
        return results

    # -- introspection -------------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests currently queued for or running on worker processes."""
        with self._pending_lock:
            return self._pending

    def stats(self) -> dict:
        """The pool's lifetime ``serve.*`` counters (from the database)."""
        events = self.database.stats.events
        return {
            name.removeprefix("serve."): count
            for name, count in sorted(events.items())
            if name.startswith("serve.")
        }

    def worker_stats(self) -> list[dict]:
        """Each live worker's plan-cache and event counters.

        Each probe takes the worker's ``io_lock``, so it serializes
        with (and may wait behind) an in-flight request on that pipe.
        """
        snapshots: list[dict] = []
        for handle in self._handles:
            if not handle.process.is_alive():
                continue
            try:
                with handle.io_lock:
                    handle.conn.send(("stats",))
                    reply = handle.conn.recv()
                snapshots.append(reply[1])
            except (EOFError, OSError, BrokenPipeError):
                continue
        return snapshots
