#!/usr/bin/env python3
"""End-to-end benchmark of XMorph: guard request to response bytes.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload query-hot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads (closed loop, one client; see perfbench/NOTES.md for why each
exists and which layers it leaves idle):

* ``query-hot``  -- a seeded sequence over the guard mix on a warm
  writer handle: ``Database.transform(doc, guard).xml().encode()``.
* ``query-cold`` -- each request opens ``Database(path, mode="r")``,
  runs one guard to bytes and closes the handle.
* ``write``      -- ``apply_batch`` edits on a journaled store, each
  followed by one read of the mix.
* ``serve``      -- ``serve_loop`` over a read-only snapshot with a
  2-worker process pool; the client waits for each response.

Every response is compared byte for byte (by SHA-256) with the
in-memory interpreter's output for the same document state; the ``write`` run
also checks the stored document against ``reference_apply`` of every
applied batch and runs ``fsck`` on the store.  A failed check makes the
run exit 1.

With ``--trace 0`` the run reports the end-to-end metrics and carries no
per-call timers.  Their timings are in reference-host time: a fixed,
program-independent probe runs after every operation and around every
set-up, and each wall time is scaled by how fast the probe ran around
it, so most of the shared host's speed swings cancel out
(perfbench/NOTES.md, "Host speed").  The same timings in wall time are
printed beside them as ``wall_*``.  With ``--trace 1`` traced and
untraced rounds alternate: traced rounds time the calls into each layer (perfbench/
layers.py) and the run reports the per-layer split.  The garbage
collector stays enabled throughout, as it is for users.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Stores are
created in ``.perfbench-work/`` at the checkout root and removed on exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import queue
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from xml.etree import ElementTree

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
# Benchmark the checkout's own sources, never an installed copy.
if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
    sys.exit(f"perfbench: no XMorph sources at {SOURCE}; run from a checkout")
sys.path.insert(0, SOURCE)

from repro.serve import ServeTelemetry, make_pool, serve_loop  # noqa: E402
from repro.storage.database import Database  # noqa: E402
from repro.storage.fsck import fsck  # noqa: E402
from repro.storage.update import reference_apply  # noqa: E402
from repro.xmltree.parser import parse_forest  # noqa: E402
from repro.xmltree.serializer import serialize  # noqa: E402

import corpus  # noqa: E402
from corpus import DOC, GUARDS  # noqa: E402
from layers import LAYERS, LayerTracer  # noqa: E402

WORKLOAD_NAMES = ("query-hot", "query-cold", "write", "serve")
#: Set-ups per run; setup_s is their median.
SETUPS = 5
#: Process-pool size for ``serve``: one worker per CPU of the 2-CPU box
#: this benchmark was defined on.
SERVE_WORKERS = 2
#: Warm-up rounds of the mix through the serve pool, so each worker has
#: rendered most guards once before measurement.
SERVE_WARM_ROUNDS = 3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "read_p50_ms": "ms",
    "read_p80_ms": "ms",
    "peak_rss_mb": "MB",
    "space_amp": "ratio",
}

PER_LAYER = {
    "storage.open_ms": "ms",
    "storage.read_ms": "ms",
    "storage.blocks_read": "count",
    "storage.buffer_hit_ratio": "ratio",
    "storage.store_ms": "ms",
    "storage.blocks_written": "count",
    "storage.update.apply_ms": "ms",
    "storage.update.nodes_renumbered": "count",
    "storage.update.blocks_written": "count",
    "closeness.index_load_ms": "ms",
    "closeness.join_ms": "ms",
    "cache.plan_ms": "ms",
    "cache.plan_hit_ratio": "ratio",
    "cache.plans_invalidated": "count",
    "lang.parse_ms": "ms",
    "algebra.evaluate_ms": "ms",
    "typing.loss_ms": "ms",
    "engine.codegen_ms": "ms",
    "engine.render_ms": "ms",
    "engine.compiled_ratio": "ratio",
    "engine.nodes_written": "count",
    "xmltree.serialize_ms": "ms",
    "xmltree.response_bytes": "bytes",
    "xmltree.parse_ms": "ms",
    "serve.queue_ms": "ms",
    "serve.execute_ms": "ms",
    "serve.serialize_ms": "ms",
    "serve.dispatch_ms": "ms",
    "serve.inline_ratio": "ratio",
    "serve.degraded_serial": "count",
    "trace.unattributed_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def probe_tree() -> ElementTree.Element:
    """The fixed tree of 120 elements the host-speed probe serializes."""
    root = ElementTree.Element("probe")
    for number in range(40):
        record = ElementTree.SubElement(root, "record", key=f"probe/{number}")
        ElementTree.SubElement(record, "title").text = f"Fixed & escaped title {number}"
        ElementTree.SubElement(record, "year").text = str(1970 + number)
    return root


#: The host-speed probe serializes PROBE_TREE with the standard library's
#: ElementTree: pure-Python string building, as the program's serializer
#: does, that depends neither on the program nor on the seed.  The loop
#: runs it after every operation and the set-up around every store; see
#: "Host speed" in perfbench/NOTES.md.
PROBE_TREE = probe_tree()
#: Median duration of one probe on the quiet host the benchmark was
#: defined on.  Timed figures are reported in that host's time: each wall
#: time is multiplied by this over the probe's median around it.
REFERENCE_PROBE_S = 0.00025
#: Probes taken before and after each set-up.
SETUP_PROBES = 20


def probe() -> float:
    """Seconds one pass of the host-speed probe takes right now.

    Only the second of two passes is timed: the first refills the caches
    and memory pools the preceding operation used, which would otherwise
    make the probe measure the program (a first pass right after a
    ``query-hot`` request took about twice as long as one on its own).
    The collector is paused, so a collection of the program's heap
    cannot land inside the pass.
    """
    gc.disable()
    try:
        ElementTree.tostring(PROBE_TREE)
        started = time.perf_counter()
        ElementTree.tostring(PROBE_TREE)
        return time.perf_counter() - started
    finally:
        gc.enable()


def host_scale(probes: list[float]) -> float:
    """Factor turning this host's wall time into reference-host time."""
    return REFERENCE_PROBE_S / statistics.median(probes)


def p50_p80(samples: list[float]) -> tuple[float, float]:
    """Median and 80th percentile, interpolating between samples."""
    return statistics.median(samples), statistics.quantiles(samples, n=5, method="inclusive")[3]


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Workload:
    """Set-up, measured loop and checks shared by every workload."""

    name = ""
    #: Edit states a round pairs with every guard (see corpus.guard_rounds).
    states = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.path = ""
        self.db = None
        self.store_info: dict = {}
        #: Wall time of each set-up and its host scale.
        self.setup_seconds: list[float] = []
        self.setup_scales: list[float] = []
        self.store_seconds: list[float] = []
        self.store_blocks: list[int] = []
        self.parse_seconds: list[float] = []
        self.oracle: dict = {}
        #: Wall latency of each untraced read and the host scale of its round.
        self.read_ms: list[float] = []
        self.read_scales: list[float] = []
        self.traced_read_ms: list[float] = []
        #: Loop duration in wall and in reference-host seconds, probes excluded.
        self.loop_seconds = 0.0
        self.reference_seconds = 0.0
        #: Resident-set high-water mark of each round, in MB.
        self.round_peaks_mb: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.operations = 0
        self.checks_ok = True
        self.tracer = LayerTracer()
        #: Per-layer counts summed over the traced operations.
        self.counters: dict[str, float] = defaultdict(float)
        self.space_amp_setup = 0.0
        self.space_amp_after = 0.0

    # -- set-up ------------------------------------------------------------------

    def prepare_oracles(self) -> None:
        """Untimed: the expected digest of every (state, guard) pair.

        Computed in a child process before any set-up, so the in-memory
        interpreter's work neither shares the set-up's CPU nor leaves
        its memory in this process.
        """
        self.oracle = in_child(corpus.read_oracles, self.seed)

    def set_up_all(self) -> None:
        for attempt in range(SETUPS):
            self.path = os.path.join(self.workdir, f"store{attempt}.db")
            probes = [probe() for _ in range(SETUP_PROBES)]
            started = time.perf_counter()
            self.set_up()
            self.setup_seconds.append(time.perf_counter() - started)
            probes += [probe() for _ in range(SETUP_PROBES)]
            self.setup_scales.append(host_scale(probes))
            self.store_seconds.append(self.store_info["store_s"])
            self.store_blocks.append(self.store_info["store_blocks"])
            self.parse_seconds.append(self.store_info["parse_s"])
            if attempt < SETUPS - 1:
                self.tear_down()
        self.space_amp_setup = self.space_amp()

    def set_up(self) -> None:
        """Timed: generate, parse and store the corpus, then warm up."""
        self.store_info = corpus.store(self.path, self.seed)
        self.db = self.store_info["db"]
        self.warm_up()

    def warm_up(self) -> None:
        for guard in GUARDS:
            self.db.transform(DOC, guard).xml()

    def tear_down(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None

    def space_amp(self) -> float:
        return os.path.getsize(self.path) / len(self.store_info["text"].encode())

    def worker_pids(self) -> list[int]:
        """Processes besides this one whose memory the run counts."""
        return []

    # -- measurement -------------------------------------------------------------

    def check(self, expected: bytes, body, where: str) -> None:
        if corpus.digest(body) != expected:
            self.fail(f"{where}: response differs from the interpreter oracle")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)

    def measure(self, seconds: float, trace: bool) -> None:
        """The closed loop: whole rounds of the mix for ``seconds``.

        Round ``n`` is traced when tracing is on and ``n`` is odd.  A
        probe follows every operation, and the round's host scale,
        ``host_scale`` of its probes, scales its read latencies and its
        duration.  Each round starts with a fresh resident-set high-water
        mark and records its own.
        """
        rounds = corpus.guard_rounds(self.seed, self.states)
        deadline = time.perf_counter() + seconds
        number = 0
        while time.perf_counter() < deadline:
            reset_peak_rss(self.worker_pids())
            round_started = time.perf_counter()
            first_read = len(self.read_ms)
            probes = self.run_round(next(rounds), trace and number % 2 == 1)
            elapsed = time.perf_counter() - round_started - sum(probes)
            self.round_peaks_mb.append(peak_rss_mb(self.worker_pids()))
            scale = host_scale(probes)
            self.read_scales += [scale] * (len(self.read_ms) - first_read)
            self.loop_seconds += elapsed
            self.reference_seconds += elapsed * scale
            number += 1

    def run_round(self, guards: list[str], traced: bool) -> list[float]:
        """Every guard of one round, each followed by a probe; the probes."""
        if traced:
            self.tracer.install()
        try:
            probes = []
            for guard in guards:
                self.operation(guard, traced)
                probes.append(probe())
            return probes
        finally:
            self.tracer.uninstall()

    def operation(self, guard: str, traced: bool) -> None:
        self.read(guard, traced, self.oracle[guard])

    def read(self, guard: str, traced: bool, expected: bytes, span: bool = True) -> None:
        """One guard request to response bytes, checked against ``expected``.

        ``span`` makes the request its own traced operation; the write
        workload opens the operation before the edit instead.
        """
        self.attempted += 1
        self.operations += 1
        operation = self.tracer.begin() if traced and span else None
        started = time.perf_counter()
        try:
            result, body = self.request(guard, traced)
        except Exception as error:  # noqa: BLE001 - a failed request is counted
            if operation is not None:
                self.tracer.end(operation)
            self.fail(f"{guard}: {type(error).__name__}: {error}")
            return
        elapsed = time.perf_counter() - started
        if operation is not None:
            self.tracer.end(operation)
        (self.traced_read_ms if traced else self.read_ms).append(elapsed * 1e3)
        self.check(expected, body, guard)
        if traced:
            self.count_read(result, body)

    def request(self, guard: str, traced: bool):
        """The measured request: guard text in, response bytes out."""
        result = self.db.transform(DOC, guard)
        return result, result.xml().encode()

    def count_read(self, result, body: bytes) -> None:
        counters = self.counters
        counters["reads"] += 1
        counters["response_bytes"] += len(body)
        rendered = result.rendered
        if rendered is not None:
            counters["renders"] += 1
            counters["nodes_written"] += rendered.nodes_written
            if result.compiled_render is not None:
                counters["compiled_renders"] += 1

    def snapshot(self, handle) -> dict:
        plans = handle.plan_cache.stats()
        return {
            "blocks_in": handle.stats.blocks_in,
            "blocks_out": handle.stats.blocks_out,
            "hits": handle.pool.hits,
            "misses": handle.pool.misses,
            "plan_hits": plans["hits"],
            "plan_misses": plans["misses"],
        }

    def add_deltas(self, before: dict, after: dict) -> None:
        for key in before:
            self.counters[key] += after[key] - before[key]

    # -- finishing ---------------------------------------------------------------

    def finish(self) -> None:
        """After the loop: final checks, then release the store."""
        self.space_amp_after = self.space_amp()
        self.tear_down()

    # -- reporting ---------------------------------------------------------------

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.checks_ok and self.attempted > 0

    def timings(self, scaled: bool = True) -> dict[str, float]:
        """The timed end-to-end figures, in reference-host or wall time."""
        setups, reads = self.setup_seconds, self.read_ms
        loop_seconds = self.loop_seconds
        if scaled:
            setups = [wall * scale for wall, scale in zip(setups, self.setup_scales)]
            reads = [ms * scale for ms, scale in zip(reads, self.read_scales)]
            loop_seconds = self.reference_seconds
        p50, p80 = p50_p80(reads)
        return {
            "setup_s": statistics.median(setups),
            "ops_per_s": self.operations / loop_seconds,
            "read_p50_ms": p50,
            "read_p80_ms": p80,
        }

    def end_to_end(self) -> dict[str, tuple[float, int]]:
        """Metric name -> (value, sample count)."""
        timed = self.timings()
        return {
            "setup_s": (timed["setup_s"], len(self.setup_seconds)),
            "ops_per_s": (timed["ops_per_s"], self.operations),
            "read_p50_ms": (timed["read_p50_ms"], len(self.read_ms)),
            "read_p80_ms": (timed["read_p80_ms"], len(self.read_ms)),
            "peak_rss_mb": (statistics.median(self.round_peaks_mb), len(self.round_peaks_mb)),
            "space_amp": (self.space_amp_setup, 1),
        }

    def per_layer(self) -> dict[str, float]:
        tracer = self.tracer
        counters = self.counters
        metrics = {f"{layer}_ms": tracer.per_operation_ms(layer) for layer in LAYERS}
        operations = tracer.operations
        reads = counters["reads"]
        renders = counters["renders"]
        metrics.update(
            {
                "storage.blocks_read": ratio(counters["blocks_in"], operations),
                "storage.buffer_hit_ratio": ratio(
                    counters["hits"], counters["hits"] + counters["misses"]
                ),
                "storage.store_ms": statistics.median(self.store_seconds) * 1e3,
                "storage.blocks_written": statistics.median(self.store_blocks),
                "storage.update.nodes_renumbered": ratio(
                    counters["nodes_renumbered"], counters["batches"]
                ),
                "storage.update.blocks_written": ratio(
                    counters["batch_blocks_out"], counters["batches"]
                ),
                "cache.plan_hit_ratio": ratio(
                    counters["plan_hits"],
                    counters["plan_hits"] + counters["plan_misses"],
                ),
                "cache.plans_invalidated": ratio(
                    counters["plans_invalidated"], counters["batches"]
                ),
                "engine.compiled_ratio": ratio(counters["compiled_renders"], renders),
                "engine.nodes_written": ratio(counters["nodes_written"], renders),
                "xmltree.response_bytes": ratio(counters["response_bytes"], reads),
                "xmltree.parse_ms": statistics.median(self.parse_seconds) * 1e3,
                "trace.unattributed_ms": tracer.unattributed_ms(),
                "trace.overhead_ratio": ratio(
                    statistics.median(self.traced_read_ms) if self.traced_read_ms else 0.0,
                    statistics.median(self.read_ms) if self.read_ms else 0.0,
                ),
            }
        )
        for name in ("serve.queue_ms", "serve.execute_ms", "serve.serialize_ms",
                     "serve.dispatch_ms", "serve.inline_ratio", "serve.degraded_serial"):
            metrics.setdefault(name, 0.0)
        return metrics

    def layer_samples(self) -> int:
        """Operations the per-layer figures are averaged over."""
        return self.tracer.operations

    def extra_report(self) -> list[str]:
        """Printed beside the end-to-end metrics: the same timings in wall
        time, and the median host scale of the reads."""
        counts = {name: samples for name, (_value, samples) in self.end_to_end().items()}
        lines = [
            metric_line("wall_" + name, value, END_TO_END[name], counts[name])
            for name, value in self.timings(scaled=False).items()
        ]
        if self.read_scales:
            scale = statistics.median(self.read_scales)
            lines.append(metric_line("host_scale", scale, "ratio", len(self.read_scales)))
        return lines


class QueryHot(Workload):
    """Warm plan cache and buffer pool: render and serialize dominate."""

    name = "query-hot"

    def run_round(self, guards: list[str], traced: bool) -> list[float]:
        before = self.snapshot(self.db) if traced else None
        probes = super().run_round(guards, traced)
        if traced:
            self.add_deltas(before, self.snapshot(self.db))
        return probes


class QueryCold(Workload):
    """One-shot reads: open, page reads, index load and compile per request."""

    name = "query-cold"

    def warm_up(self) -> None:
        # Nothing stays warm: every request opens its own read-only handle.
        self.tear_down()

    def request(self, guard: str, traced: bool):
        with Database(self.path, mode="r") as handle:
            before = self.snapshot(handle) if traced else None
            result = handle.transform(DOC, guard)
            body = result.xml().encode()
            if traced:
                self.add_deltas(before, self.snapshot(handle))
        return result, body


class Write(Workload):
    """Journaled edits, each followed by one read of the mix."""

    name = "write"

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.cycle = None
        self.applied: list = []
        #: ``apply_batch`` latencies by edit kind ("value" or "shape").
        self.write_ms: dict[str, list[float]] = {"value": [], "shape": []}
        self.state = 0

    def prepare_oracles(self) -> None:
        self.cycle = corpus.EditCycle(corpus.corpus_text(self.seed), self.seed)
        self.state_oracles = in_child(corpus.write_oracles, self.seed)

    @property
    def states(self) -> int:
        return len(self.cycle.batches)

    def operation(self, guard: str, traced: bool) -> None:
        """One edit batch, then one read of the edited document."""
        batch = self.cycle.batches[self.state]
        self.attempted += 1
        self.operations += 1
        before = self.snapshot(self.db) if traced else None
        operation = self.tracer.begin() if traced else None
        started = time.perf_counter()
        try:
            update = self.db.apply_batch(DOC, batch)
        except Exception as error:  # noqa: BLE001 - a failed edit is counted
            if operation is not None:
                self.tracer.end(operation)
            self.fail(f"edit {self.state}: {type(error).__name__}: {error}")
            self.checks_ok = False
            return
        self.write_ms[self.cycle.kinds[self.state]].append((time.perf_counter() - started) * 1e3)
        self.applied.append(batch)
        if traced:
            counters = self.counters
            counters["batches"] += 1
            counters["nodes_renumbered"] += update.nodes_renumbered
            counters["plans_invalidated"] += update.plans_invalidated
            counters["batch_blocks_out"] += self.db.stats.blocks_out - before["blocks_out"]
        expected = self.state_oracles[self.state][guard]
        self.state = (self.state + 1) % len(self.cycle.batches)
        # The traced operation is the whole step: the edit's layers and
        # the read's add up to it.
        self.read(guard, traced, expected, span=False)
        if traced:
            self.tracer.end(operation)
            self.add_deltas(before, self.snapshot(self.db))

    def finish(self) -> None:
        self.space_amp_after = self.space_amp()
        stored = serialize(self.db.load_forest(DOC))
        self.tear_down()
        expected = reference_apply(parse_forest(self.store_info["text"]),
                                   [op for batch in self.applied for op in batch])
        if stored != serialize(expected):
            self.checks_ok = False
            self.failures.append("write oracle: stored document differs from reference_apply")
        report = fsck(self.path)
        if not report.ok:
            self.checks_ok = False
            self.failures.append("write oracle: fsck found problems: " + report.pretty())

    def extra_report(self) -> list[str]:
        # Value and shape edits cost several times apart, so each kind
        # gets its own percentiles; pooled, the median falls between them.
        lines = super().extra_report()
        for kind, samples in self.write_ms.items():
            if len(samples) >= 2:
                p50, p80 = p50_p80(samples)
                lines.append(metric_line(f"wall_write_{kind}_p50_ms", p50, "ms", len(samples)))
                lines.append(metric_line(f"wall_write_{kind}_p80_ms", p80, "ms", len(samples)))
        return lines + [
            metric_line("space_amp_after_run", self.space_amp_after, "ratio", 1),
        ]


class Serve(Workload):
    """serve_loop with a process pool over a read-only snapshot."""

    name = "serve"

    def set_up(self) -> None:
        self.store_info = corpus.store(self.path, self.seed)
        self.store_info["db"].close()
        self.db = Database(self.path, mode="r")
        self.telemetry = ServeTelemetry(stats=self.db.stats)
        self.pool = make_pool(
            self.db,
            workers=SERVE_WORKERS,
            telemetry=self.telemetry,
            mode="process",
            warm=[(DOC, guard) for guard in GUARDS],
        )
        for _ in range(SERVE_WARM_ROUNDS):
            for result in self.pool.transform_many([(DOC, guard) for guard in GUARDS]):
                result.xml()

    def tear_down(self) -> None:
        if self.db is not None:
            self.pool.shutdown()
            self.db.close()
            self.db = None

    def measure(self, seconds: float, trace: bool) -> None:
        self.requests: queue.Queue = queue.Queue()
        self.responses: queue.Queue = queue.Queue()
        self.served: dict = {}
        self.client_seconds = 0.0
        responses = self.responses

        class Writer:
            def write(self, text: str) -> None:
                responses.put((time.perf_counter(), text))

            def flush(self) -> None:
                pass

        def server() -> None:
            try:
                serve_loop(
                    self.db,
                    iter(self.requests.get, None),
                    Writer(),
                    workers=SERVE_WORKERS,
                    telemetry=self.telemetry,
                    pool=self.pool,
                )
            except BaseException as error:  # noqa: B036 - reported by the client
                self.served["error"] = error
                responses.put((time.perf_counter(), None))

        before = self.serve_snapshot()
        thread = threading.Thread(target=server, name="perfbench-serve", daemon=True)
        thread.start()
        try:
            super().measure(seconds, trace)
        finally:
            self.requests.put(json.dumps({"cmd": "quit"}))
            self.requests.put(None)
            thread.join(timeout=60)
        if "error" in self.served:
            raise RuntimeError(f"serve_loop failed: {self.served['error']!r}")
        completed = len(self.read_ms) + len(self.traced_read_ms)
        self.serve_split(before, self.serve_snapshot(), self.client_seconds, completed)

    def operation(self, guard: str, traced: bool) -> None:
        """One request line, then wait for its response line."""
        self.attempted += 1
        sent = time.perf_counter()
        self.requests.put(json.dumps({"id": self.attempted, "doc": DOC, "guard": guard}))
        stamp, text = self.responses.get(timeout=120)
        if text is None:
            raise RuntimeError(f"serve_loop stopped: {self.served.get('error')!r}")
        self.operations += 1
        response = json.loads(text)
        if response.get("id") != self.attempted or not response.get("ok"):
            self.fail(f"{guard}: bad response {text[:200]!r}")
            return
        self.client_seconds += stamp - sent
        (self.traced_read_ms if traced else self.read_ms).append((stamp - sent) * 1e3)
        body = response["xml"].encode()
        self.check(self.oracle[guard], body, guard)
        if traced:
            self.counters["reads"] += 1
            self.counters["response_bytes"] += len(body)

    def serve_snapshot(self) -> dict:
        timings = self.db.stats.timing_snapshot()
        events = self.db.stats.events
        snapshot = {
            name: (timings[name].total, timings[name].count) if name in timings else (0.0, 0)
            for name in ("serve.queue_seconds", "serve.execute_seconds", "serve.serialize_seconds")
        }
        snapshot["requests"] = events.get("serve.requests", 0)
        snapshot["inline"] = events.get("serve.inline_small", 0)
        snapshot["degraded"] = events.get("serve.degraded_serial", 0)
        return snapshot

    def serve_split(self, before: dict, after: dict, client_seconds: float, completed: int) -> None:
        """The server's own phase histograms over the measured window."""
        phases = {}
        for metric, histogram in (
            ("serve.queue_ms", "serve.queue_seconds"),
            ("serve.execute_ms", "serve.execute_seconds"),
            ("serve.serialize_ms", "serve.serialize_seconds"),
        ):
            total = after[histogram][0] - before[histogram][0]
            count = after[histogram][1] - before[histogram][1]
            phases[metric] = ratio(total, count) * 1e3
        client_ms = ratio(client_seconds, completed) * 1e3
        phases["serve.dispatch_ms"] = client_ms - sum(phases.values())
        requests = after["requests"] - before["requests"]
        phases["serve.inline_ratio"] = ratio(after["inline"] - before["inline"], requests)
        phases["serve.degraded_serial"] = float(after["degraded"] - before["degraded"])
        self.serve_phases = phases

    def worker_pids(self) -> list[int]:
        return [child.pid for child in multiprocessing.active_children()]

    def per_layer(self) -> dict[str, float]:
        metrics = super().per_layer()
        metrics.update(self.serve_phases)
        return metrics

    def layer_samples(self) -> int:
        return len(self.traced_read_ms)


WORKLOADS = {
    "query-hot": QueryHot,
    "query-cold": QueryCold,
    "write": Write,
    "serve": Serve,
}


def in_child(function, *args):
    """``function(*args)`` computed in a forked child process."""
    with multiprocessing.get_context("fork").Pool(1) as pool:
        result = pool.apply(function, args)
        pool.close()
        pool.join()
    return result


def reset_peak_rss(children=()) -> None:
    """Restart the resident-set high-water mark of this process and each child."""
    for pid in ("self", *children):
        with open(f"/proc/{pid}/clear_refs", "w") as handle:
            handle.write("5")


def peak_rss_mb(children=()) -> float:
    """High-water resident set of this process plus each listed child."""
    kilobytes = 0
    for pid in ("self", *children):
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    kilobytes += int(line.split()[1])
    return kilobytes / 1024


def settings(workload: Workload) -> dict:
    """The inputs and configuration behind the numbers of one run."""
    gil = getattr(sys, "_is_gil_enabled", lambda: True)()
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "publications": corpus.PUBLICATIONS,
        "nodes": workload.store_info.get("nodes"),
        "input_bytes": len(workload.store_info.get("text", "").encode()),
        "store_pages": os.path.getsize(workload.path) // 4096 if os.path.exists(workload.path) else None,
        "buffer_pool_pages": 2048,
        "plan_cache_plans": 64,
        "durable": True,
        "guards": list(GUARDS),
        "setups": SETUPS,
        "reference_probe_s": REFERENCE_PROBE_S,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "gil_enabled": bool(gil),
        "gc_enabled": gc.isenabled(),
    }


def metric_line(name: str, value: float, unit: str, samples: int) -> str:
    return f"  {name:<34} {value:>14.4f} {unit:<6} n={samples}"


def run_one(args) -> int:
    work_root = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        workload.prepare_oracles()
        workload.set_up_all()
        gc.collect()
        workload.measure(args.seconds, bool(args.trace))
        workload.finish()
        info = settings(workload)
    finally:
        workload.tear_down()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("settings " + json.dumps(info, sort_keys=True))
    attempted = workload.attempted
    print(metric_line("error_rate", ratio(workload.failed, attempted), "ratio", attempted))
    if args.trace:
        values = workload.per_layer()
        for name, unit in PER_LAYER.items():
            print(metric_line(name, values[name], unit, workload.layer_samples()))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = workload.end_to_end()
        for name, unit in END_TO_END.items():
            print(metric_line(name, values[name][0], unit, values[name][1]))
        for line in workload.extra_report():
            print(line)
        metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in END_TO_END.items()}
    for failure in workload.failures:
        print("FAILED " + failure)
    print(
        json.dumps(
            {
                "correct": workload.correct,
                "attempted": attempted,
                "failed": workload.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if workload.correct else 1


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, check=False)
        status = status or completed.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
