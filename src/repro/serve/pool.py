"""The transform pool: one submission core, two ways to run a task.

A :class:`TransformPool` evaluates guard transforms for one
:class:`~repro.storage.Database`.  Every request becomes a future fed
through one task queue to one dispatcher thread per worker; ``mode``
changes only how a dispatcher runs a task:

* ``"thread"`` — a local call on the dispatcher thread, in a copy of
  the submitter's ``contextvars`` context (so an outer tracer still
  sees worker spans and a per-request tracer never leaks).  Every
  worker shares one buffer pool, plan cache and join-memo set — the
  lock-guarded substrate — and the GIL decides what that buys
  (``xmorph bench --parallel``, ``docs/CONCURRENCY.md#gil``);
* ``"process"`` — a pipe round trip to a forked worker that opened the
  same path as a shared reader (:mod:`repro.serve.procpool`); dead
  workers are respawned and re-warmed, and transforms too small to
  amortize the IPC run inline on the submitting thread
  (``serve.inline_small``).

Semantics, identical in both modes:

* results are byte-identical to serial evaluation (the property suite
  in ``tests/serve`` pins this);
* ``deadline`` is a wall-clock budget counted from submission: a
  request whose budget ran out before it was dispatched is refused, a
  result that arrives late is dropped, and a consumer that stops
  waiting abandons the request — each an
  :class:`~repro.errors.TransformTimeoutError` (``XM540``);
* the submission queue is bounded (:data:`MAX_QUEUE_PER_WORKER` deep
  per worker); past the bound the pool *degrades gracefully to serial*:
  the submitting thread runs the transform inline
  (``serve.degraded_serial``);
* every request resolves exactly once: ``serve.requests`` equals
  ``serve.completed`` plus ``serve.errors`` once the pool drains, and
  ``serve.errors`` equals the sum of its per-code ``serve.errors.*``;
* with telemetry attached the future carries its
  :class:`~repro.serve.telemetry.RequestTrace` as ``future.xmorph_trace``,
  which the consumer (:meth:`TransformPool.transform_many` or the serve
  loop's responder) finishes once the response is serialized.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import multiprocessing
import queue
import threading
import time
from io import StringIO
from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import StorageError, TransformTimeoutError
from repro.obs import tracer as obs
from repro.serve.procpool import (
    RemoteTransformError,
    RemoteTransformResult,
    _worker_main,
    _WorkerHandle,
    plan_cost_estimate,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.telemetry import ServeTelemetry
    from repro.storage.database import Database

#: Requests allowed in flight per worker before submission degrades to
#: inline serial execution.
MAX_QUEUE_PER_WORKER = 4

#: Process mode: estimated touched-node count at or below which a
#: request skips IPC and runs inline on the submitting thread.  At ~1 ms
#: of IPC+unpickle round trip and ~10 µs/node render cost, a few dozen
#: nodes is the break-even neighborhood.  ``None`` sends everything to
#: the workers.
INLINE_THRESHOLD: Optional[float] = 32

#: Process mode: buffer-pool pages of each worker's own handle.
WORKER_CACHE_PAGES = 2048

#: Process mode: respawn attempts per request before it runs inline.
MAX_RESPAWNS_PER_REQUEST = 2

#: Process mode: recent (doc, guard) pairs replayed into a respawned
#: worker's plan cache.
WARM_HISTORY = 16


def run_transform(database, doc: str, guard: str, stream: bool = False, tracer=None):
    """The one request body: trace, then transform or stream-transform.

    Shared by local runs and forked workers.  A stream request returns
    the rendered text; a batch request its ``TransformResult``.
    """
    if tracer is not None:
        with obs.tracing(tracer), tracer.span("serve.request", doc=doc, stream=stream):
            return run_transform(database, doc, guard, stream)
    if not stream:
        return database.transform(doc, guard)
    sink = StringIO()
    database.stream_transform(doc, guard, sink)
    return sink.getvalue()


class _Request(concurrent.futures.Future):
    """One submitted transform: its future plus what a dispatcher needs."""

    def __init__(self, doc, guard, stream, deadline, trace):
        super().__init__()
        self.doc = doc
        self.guard = guard
        self.stream = stream
        self.deadline = deadline
        self.xmorph_trace = trace
        self.context = contextvars.copy_context()
        self.submitted = time.perf_counter()

    def remaining(self) -> Optional[float]:
        """Seconds of budget left (``None`` when unbounded)."""
        if self.deadline is None:
            return None
        return self.deadline - (time.perf_counter() - self.submitted)

    def check_budget(self) -> None:
        remaining = self.remaining()
        if remaining is not None and remaining <= 0:
            raise TransformTimeoutError(self.doc, self.guard, self.deadline)


class TransformPool:
    """A bounded pool evaluating guard transforms over one database.

    A thread pool with ``workers <= 1`` runs every request inline on the
    submitting thread (no threads are created), so callers can scale
    down without branching.  A process pool needs a shared-reader handle
    (``mode="r"``): the parent's handle serves cost estimates and inline
    runs, and each worker opens its own ``mode="r"`` handle on the same
    path, so every process sees one frozen snapshot.  ``warm`` seeds the
    list of recent ``(doc, guard)`` pairs that every fresh or respawned
    worker compiles before taking traffic (process mode only).  A pool
    is a context manager; exiting drains in-flight work and shuts it
    down.
    """

    def __init__(
        self,
        database: "Database",
        workers: int = 8,
        deadline: Optional[float] = None,
        telemetry: Optional["ServeTelemetry"] = None,
        mode: str = "thread",
        warm: Optional[Sequence[tuple[str, str]]] = None,
    ):
        if mode not in ("thread", "process"):
            raise ValueError(f"unknown pool mode: {mode!r} (use 'thread' or 'process')")
        if mode == "process" and database.mode != "r":
            raise StorageError(
                "a process pool needs a shared-reader handle: open the "
                'database with mode="r" (workers take LOCK_SH on the same '
                "path, which a writer's exclusive lock would refuse)"
            )
        self.database = database
        self.mode = mode
        self.workers = max(1, int(workers))
        #: Default per-request deadline in seconds (None = unbounded).
        self.deadline = deadline
        #: Optional request-scoped telemetry (sampled traces, slow-query
        #: log, latency histograms).
        self.telemetry = telemetry
        self.max_queue = self.workers * MAX_QUEUE_PER_WORKER
        self._tasks: "queue.Queue[Optional[_Request]]" = queue.Queue()
        self._pending = 0
        self._pending_lock = threading.Lock()
        self._resolve_lock = threading.Lock()
        self._warm_pairs = list(warm or [])[-WARM_HISTORY:]
        self._warm_lock = threading.Lock()
        self._closed = False
        self._threads: list[threading.Thread] = []
        #: One entry per dispatcher: a worker process handle, or
        #: ``None`` for a thread that runs its tasks locally.
        self._handles: list[Optional[_WorkerHandle]] = []
        if mode == "process":
            try:
                self._mp = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platform
                self._mp = multiprocessing.get_context("spawn")
            try:
                for _ in range(self.workers):
                    self._handles.append(self._spawn())
            except BaseException:
                self.shutdown(wait=False)
                raise
        elif self.workers > 1:
            self._handles = [None] * self.workers
        for handle in self._handles:
            thread = threading.Thread(
                target=self._dispatch_loop,
                args=(handle,),
                name=f"xmorph-serve-{len(self._threads)}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "TransformPool":
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
            if handle is not None:
                handle.stop()
        self._threads = []
        self._handles = []

    def _spawn(self) -> _WorkerHandle:
        parent_conn, child_conn = self._mp.Pipe()
        process = self._mp.Process(
            target=_worker_main,
            args=(self.database._file.path, child_conn, WORKER_CACHE_PAGES,
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
            except (EOFError, OSError):
                handle.stop()
                raise StorageError("serve worker died during plan-cache warmup") from None
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
        """Queue one transform; returns its future.

        A request runs inline on the calling thread — and comes back as
        an already-resolved future, with the same deadline rule and the
        same counters — when the pool is a serial thread pool, when a
        process pool routes it inline for being small, or when the
        queue is saturated (bounded memory, no rejection).
        """
        self._event("serve.requests")
        trace = self.telemetry.start(name, guard) if self.telemetry is not None else None
        request = _Request(
            name, guard, stream, self.deadline if deadline is None else deadline, trace
        )
        if self._runs_inline(request):
            self._run(request)
        else:
            self._tasks.put(request)
        return request

    def _runs_inline(self, request: _Request) -> bool:
        if self.mode == "process":
            pair = (request.doc, request.guard)
            with self._warm_lock:
                if pair in self._warm_pairs:
                    self._warm_pairs.remove(pair)
                self._warm_pairs.append(pair)
                del self._warm_pairs[:-WARM_HISTORY]
            if INLINE_THRESHOLD is not None and (
                plan_cost_estimate(self.database, *pair) <= INLINE_THRESHOLD
            ):
                self._event("serve.inline_small")
                return True
        elif self.workers == 1:
            return True  # serial by construction, not degradation
        with self._pending_lock:
            saturated = not self._handles or self._pending >= self.max_queue
            if not saturated:
                self._pending += 1
        if saturated:
            self._event("serve.degraded_serial")
            if request.xmorph_trace is not None:
                request.xmorph_trace.degraded = True
        return saturated

    # -- running and resolving -----------------------------------------------

    def _dispatch_loop(self, handle: Optional[_WorkerHandle]) -> None:
        while True:
            request = self._tasks.get()
            if request is None:
                return
            try:
                request.context.run(self._run, request, handle)
            finally:
                with self._pending_lock:
                    self._pending -= 1

    def _run(self, request: _Request, handle: Optional[_WorkerHandle] = None) -> None:
        """Run ``request`` here (or on ``handle``'s worker) and resolve it."""
        if request.done():
            return  # its consumer gave up while it was queued
        try:
            request.check_budget()
            if handle is None:
                result = self._run_local(request)
            else:
                result = self._run_remote(handle, request)
            request.check_budget()  # a late result is as dropped as a lost one
        except BaseException as error:  # noqa: B036 - the future carries it
            self._resolve(request, error=error)
        else:
            self._resolve(request, result)

    def _run_local(self, request: _Request):
        trace = request.xmorph_trace
        if trace is not None:
            trace.begin()
        try:
            return run_transform(
                self.database, request.doc, request.guard, request.stream,
                trace.tracer if trace is not None else None,
            )
        finally:
            if trace is not None:
                trace.end_execute()

    def _run_remote(self, handle: _WorkerHandle, request: _Request):
        """One pipe round trip; a dead worker is respawned and retried.

        The dead worker never answered, so the retry cannot duplicate a
        response.  A worker that cannot be revived degrades its request
        to a local run on this dispatcher thread.
        """
        trace = request.xmorph_trace
        attempts = 0
        while True:
            if trace is not None:
                trace.begin()
            try:
                with handle.io_lock:
                    handle.conn.send((
                        "req", request.doc, request.guard, request.stream,
                        trace.trace_id if trace is not None else None,
                        bool(trace is not None and trace.sampled),
                    ))
                    status, payload, meta = handle.conn.recv()
                break
            except (EOFError, OSError):
                self._event("serve.worker_restarts")
                attempts += 1
                if not self._respawn(handle) or attempts > MAX_RESPAWNS_PER_REQUEST:
                    self._event("serve.degraded_serial")
                    if trace is not None:
                        trace.degraded = True
                    return self._run_local(request)
        if trace is not None:
            # The worker timed its own execution; the pipe is dispatch.
            trace.executed = trace.started + meta["execute_seconds"]
            if meta.get("plan_cache_hit") is not None:
                trace.remote_plan_cache = meta["plan_cache_hit"]
            if meta.get("trace") and self.telemetry is not None:
                self.telemetry.write_remote_trace(trace, meta["trace"])
        if status == "err":
            raise RemoteTransformError(*payload)
        if request.stream:
            return payload
        return RemoteTransformResult(request.doc, request.guard, payload)

    def _respawn(self, handle: _WorkerHandle) -> bool:
        handle.stop()
        if self._closed:
            return False
        try:
            handle.adopt(self._spawn())
        except Exception:
            return False
        return True

    def _resolve(self, request: _Request, result=None, error=None) -> None:
        """Settle ``request`` and count it — once, whoever gets there first.

        A request its consumer abandoned on timeout is already settled
        with ``XM540``; the late outcome is dropped without a count.
        """
        with self._resolve_lock:
            if request.done():
                return
            if error is None:
                self._event("serve.completed")
                request.set_result(result)
            else:
                self._record_error(error, request.xmorph_trace)
                request.set_exception(error)

    def _record_error(self, error: BaseException, trace) -> None:
        code = getattr(error, "code", None)
        if code == "XM540":
            self._event("serve.timeouts")
        self._event("serve.errors")
        # Per-code breakdown: {"cmd": "stats"} distinguishes timeouts
        # (XM540) from lock conflicts (XM520) from uncoded failures.
        self._event(f"serve.errors.{code}" if code else "serve.errors.uncoded")
        if trace is not None:
            trace.fail(error)

    # -- consuming -----------------------------------------------------------

    def result(self, future: "concurrent.futures.Future"):
        """Wait for a submitted request within what is left of its budget.

        Past the budget the request is abandoned: it resolves to
        ``XM540`` (counted once, like every error) and a worker's late
        outcome is dropped uncounted.  Raises the request's error.
        """
        try:
            return future.result(timeout=future.remaining())
        except concurrent.futures.TimeoutError:
            pass
        self._resolve(
            future, error=TransformTimeoutError(future.doc, future.guard, future.deadline)
        )
        return future.result()  # the XM540, or the result that won the race

    def transform_many(
        self,
        requests: Sequence[tuple[str, str]],
        deadline: Optional[float] = None,
    ) -> list:
        """Evaluate ``(document, guard)`` requests; results in order.

        Every request is waited for (each within its own budget) and
        its trace finished; then the first failure, ``XM540`` included,
        is raised.
        """
        futures = [self.submit(name, guard, deadline=deadline) for name, guard in requests]
        results = []
        failure: Optional[Exception] = None
        for future in futures:
            try:
                results.append(self.result(future))
            except Exception as error:  # noqa: BLE001 - raised once all are done
                failure = failure or error
            finally:
                if self.telemetry is not None:
                    self.telemetry.finish(future.xmorph_trace)
        if failure is not None:
            raise failure
        return results

    # -- introspection -------------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests currently queued or running on a dispatcher."""
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
        """Each live worker process's plan-cache and event counters.

        Each probe takes the worker's ``io_lock``, so it serializes
        with (and may wait behind) an in-flight request on that pipe.
        A thread pool has no worker processes and returns ``[]``.
        """
        snapshots: list[dict] = []
        for handle in self._handles:
            if handle is None or not handle.process.is_alive():
                continue
            try:
                with handle.io_lock:
                    handle.conn.send(("stats",))
                    snapshots.append(handle.conn.recv()[1])
            except (EOFError, OSError):
                continue
        return snapshots
