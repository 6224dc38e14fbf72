"""Parallel-serving benchmark: throughput versus worker count and mode.

Measures the workload ``repro.serve`` exists for — the same small set
of guards evaluated many times over an unchanged store, the shape of a
read-heavy query-serving tier — as requests/second at 1, 2, 4 and 8
workers against a serial baseline, in **both executor modes**, and
writes ``BENCH_parallel.json`` (schema ``xmorph-bench-parallel/v2``).

v1 of this report measured the thread pool only and was honest about
what it found: 0.78x *versus serial* at its best, because the render
loop is pure-Python dict/string work the GIL serializes onto one core.
v2 measures the fix alongside it — a process-mode :class:`~repro.serve.
TransformPool` forks workers over shared-reader snapshots
(``Database(mode="r")`` + mmap'd page frames), giving each request a
whole interpreter — and records the interpreter facts that decide which
executor wins (``python_version``, ``gil_enabled``): on a free-threaded
build the thread pool is the right answer, and the report should show
that the day one runs it.

Methodology: warm steady state.  The store is built once, closed, and
reopened read-only; every pool is constructed *outside* the timed
region; an untimed priming batch per pool compiles the guards into
every worker's plan cache; each (mode, workers) cell is the best of
``repeat`` timed batches (damps scheduler/fork/GC noise).

Reused via ``xmorph bench --parallel`` and the CI concurrency +
bench-parallel-smoke jobs.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
from typing import Optional, Sequence

from repro.serve import make_pool
from repro.storage.database import Database
from repro.workloads.dblp import generate_dblp

SCHEMA = "xmorph-bench-parallel/v2"

#: The restrict-guard workload: a RESTRICT semi-join is the most
#: cache-cooperative request (join memos + plan cache + hot pool pages).
DEFAULT_GUARDS = {
    "restrict": "CAST MORPH (RESTRICT year [ ee ])",
    "medium": "CAST MORPH author [ title [ year ] ]",
}

DEFAULT_WORKERS = (1, 2, 4, 8)


def _gil_enabled() -> bool:
    """Whether this interpreter runs with the GIL (False = free-threaded)."""
    checker = getattr(sys, "_is_gil_enabled", None)
    return bool(checker()) if checker is not None else True


def _cpu_count() -> int:
    """Cores this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _time_batches(run_batch, repeat: int) -> float:
    best = None
    for _ in range(max(1, repeat)):
        wall_start = time.perf_counter()
        run_batch()
        wall = time.perf_counter() - wall_start
        if best is None or wall < best:
            best = wall
    return best or 0.0


def _run_serial(db: Database, requests, repeat: int) -> dict:
    def run_batch() -> None:
        for name, guard in requests:
            db.transform(name, guard)

    run_batch()  # priming: plan cache + loaded sequences
    best = _time_batches(run_batch, repeat)
    return {
        "mode": "serial",
        "workers": 0,
        "requests": len(requests),
        "wall_seconds": best,
        "throughput_rps": len(requests) / best if best else 0.0,
    }


def _run_pool(db: Database, requests, workers: int, mode: str, repeat: int) -> dict:
    """One (mode, workers) cell: pool built and primed outside the timing.

    The priming batch warms whatever the mode's steady state warms —
    the shared plan cache for threads, every forked worker's private
    cache for processes (the pool's ``warm`` list covers workers the
    priming batch happens to miss).
    """
    unique = list(dict.fromkeys(requests))
    kwargs = {"workers": workers}
    if mode == "process":
        kwargs["warm"] = unique
    with make_pool(db, mode=mode, **kwargs) as pool:
        pool.transform_many(unique)
        best = _time_batches(lambda: pool.transform_many(requests), repeat)
    return {
        "mode": mode,
        "workers": workers,
        "requests": len(requests),
        "wall_seconds": best,
        "throughput_rps": len(requests) / best if best else 0.0,
    }


def run_parallel_bench(
    output_path: Optional[str] = None,
    publications: int = 400,
    requests: int = 64,
    workers: Sequence[int] = DEFAULT_WORKERS,
    guards: Optional[dict[str, str]] = None,
    db_path: Optional[str] = None,
    mode: str = "both",
    repeat: int = 2,
) -> dict:
    """Benchmark ``transform_many`` throughput over a DBLP slice.

    ``requests`` transforms per batch, cycling through ``guards``; one
    serial baseline batch, then one batch per (mode, workers) cell.
    ``mode`` is ``"thread"``, ``"process"`` or ``"both"``.  All
    measured runs happen on a shared-reader handle (``mode="r"``) —
    the serving configuration both executors accept.
    """
    if mode not in ("thread", "process", "both"):
        raise ValueError(f"unknown bench mode: {mode!r}")
    modes = ("thread", "process") if mode == "both" else (mode,)
    guards = guards or DEFAULT_GUARDS
    scratch: Optional[tempfile.TemporaryDirectory] = None
    if db_path is None:
        scratch = tempfile.TemporaryDirectory(prefix="xmorph-bench-parallel-")
        db_path = os.path.join(scratch.name, "bench.db")
    try:
        store = Database(db_path, durable=False)
        try:
            forest = generate_dblp(publications)
            descriptor = store.store_document("dblp", forest)
        finally:
            store.close()
        guard_list = list(guards.values())
        batch = [
            ("dblp", guard_list[i % len(guard_list)]) for i in range(requests)
        ]
        db = Database(db_path, mode="r", durable=False)
        try:
            serial = _run_serial(db, batch, repeat)
            runs = [
                _run_pool(db, batch, workers=count, mode=pool_mode, repeat=repeat)
                for pool_mode in modes
                for count in workers
            ]
            mode_summaries = {}
            for pool_mode in modes:
                mode_runs = [run for run in runs if run["mode"] == pool_mode]
                mode_best = max(mode_runs, key=lambda run: run["throughput_rps"])
                mode_summaries[pool_mode] = {
                    "best_workers": mode_best["workers"],
                    "throughput_rps": mode_best["throughput_rps"],
                    "speedup_vs_serial": (
                        mode_best["throughput_rps"] / serial["throughput_rps"]
                        if serial["throughput_rps"]
                        else 0.0
                    ),
                }
            best = max(runs, key=lambda run: run["throughput_rps"])
            speedup = (
                best["throughput_rps"] / serial["throughput_rps"]
                if serial["throughput_rps"]
                else 0.0
            )
            report = {
                "schema": SCHEMA,
                "generated_unix": int(time.time()),
                "python_version": platform.python_version(),
                "gil_enabled": _gil_enabled(),
                "cpu_count": _cpu_count(),
                "workload": {
                    "generator": "dblp",
                    "publications": publications,
                    "seed": 42,
                    "nodes": descriptor["nodes"],
                    "guards": guards,
                    "requests_per_batch": requests,
                },
                "serial": serial,
                "parallel": runs,
                "modes": mode_summaries,
                "best_mode": best["mode"],
                "best_workers": best["workers"],
                "speedup_vs_serial": speedup,
                "plan_cache": db.plan_cache.stats(),
                "serve_counters": {
                    name: count
                    for name, count in sorted(db.stats.events.items())
                    if name.startswith("serve.")
                },
                "analysis": _analysis(mode_summaries, speedup, _cpu_count()),
            }
        finally:
            db.close()
    finally:
        if scratch is not None:
            scratch.cleanup()
    if output_path:
        with open(output_path, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    return report


def _analysis(mode_summaries: dict, speedup: float, cpus: int = 0) -> str:
    """One honest sentence about what the measured ratios mean."""
    thread = mode_summaries.get("thread", {}).get("speedup_vs_serial")
    process = mode_summaries.get("process", {}).get("speedup_vs_serial")
    parts = []
    if process is not None:
        if process >= 2.0:
            parts.append(
                f"process pool {process:.2f}x vs serial: forked workers over "
                "shared-reader mmap snapshots give each request a whole "
                "interpreter, so rendering scales with cores."
            )
        elif cpus <= 1:
            parts.append(
                f"process pool {process:.2f}x vs serial on a SINGLE-CORE "
                "host: no executor can beat serial with one CPU — the ratio "
                "here measures dispatch overhead only; the per-core scaling "
                "claim needs multi-core hardware (see cpu_count)."
            )
        else:
            parts.append(
                f"process pool {process:.2f}x vs serial: below the expected "
                "scaling — check worker count vs available cores and whether "
                "the workload is too small to amortize IPC."
            )
    if thread is not None:
        if thread >= 1.5:
            parts.append(
                f"thread pool {thread:.2f}x: the GIL is not the bottleneck "
                "here (free-threaded build, or C-level work dominates)."
            )
        else:
            parts.append(
                f"thread pool {thread:.2f}x: pure-Python render work is "
                "GIL-serialized onto one core, as expected on a standard "
                "build; it remains the right executor on free-threaded "
                "Python."
            )
    parts.append("See docs/CONCURRENCY.md#decision for the decision table.")
    return " ".join(parts)
