"""Repeated-guard pipeline benchmark: cold versus warm caches.

The plan cache (``repro.cache``) and the closest-join memos exist for
exactly one workload: the same guard evaluated again over an unchanged
document.  This module measures that workload — one *cold* transform
(every cache dropped first: buffer pool, type sequences, join memos,
compiled plans) against ``repeat`` *warm* transforms — and writes the
results as ``BENCH_pipeline.json`` (schema ``xmorph-bench-pipeline/v1``)
for the repo's perf trajectory.

Reused via ``xmorph bench`` (:mod:`repro.cli`) and the CI bench-smoke
job; see ``docs/PERFORMANCE.md`` for the file schema.
"""

from __future__ import annotations

import gc
import json
import os
import tempfile
import time
from dataclasses import replace
from typing import Optional

from repro.engine.interpreter import Interpreter
from repro.storage.database import Database
from repro.workloads.dblp import generate_dblp

SCHEMA = "xmorph-bench-pipeline/v1"

#: Guards covering the paths the caches accelerate: a plain MORPH, a
#: deep nesting, and a RESTRICT semi-join.
DEFAULT_GUARDS = {
    "medium": "CAST MORPH author [ title [ year ] ]",
    "large": "CAST MORPH dblp [ author [ title [ year [ pages ] url ] ] ]",
    "restrict": "CAST MORPH (RESTRICT year [ ee ])",
}


def sample_percentile(samples: list[float], q: float) -> float:
    """Exact small-sample percentile (linear interpolation between
    order statistics) — bench runs keep every sample, so no bucketing."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(max(q, 0.0), 1.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _timed_transform(db: Database, name: str, guard: str) -> dict:
    """One transform with wall/simulated/block deltas."""
    sim_start = db.stats.simulated_seconds
    blocks_start = db.stats.cumulative_blocks
    wall_start = time.perf_counter()
    result = db.transform(name, guard)
    wall = time.perf_counter() - wall_start
    return {
        "wall_seconds": wall,
        "simulated_seconds": db.stats.simulated_seconds - sim_start,
        "blocks": db.stats.cumulative_blocks - blocks_start,
        "compile_seconds": result.compile_seconds,
        "render_seconds": result.render_seconds,
        "nodes_written": result.rendered.nodes_written if result.rendered else 0,
    }


def render_compare(
    db: Database, name: str, guard: str, repeat: int = 5
) -> Optional[dict]:
    """Warm render-to-text time: specialized emitter vs interpreter.

    Both engines take the *same* cached plan over the same warmed index
    (plan cache and join memos hot) to the response text: the compiled
    emitter writes it directly, the interpreter renders a forest that
    ``serialize`` then writes.  Timing render and serialize together
    keeps the comparison about what a client waits for, since the
    emitter has no separate serialize step.  The interpreter's two
    parts are reported as well.  Returns ``None`` when the database
    has ``compile_renders`` off.
    """
    plan = db.compile(name, guard)
    if plan.compiled_render is None:
        return None
    interpreter = Interpreter(db.index(name))
    interpreted_plan = replace(plan, compiled_render=None, rendered=None)
    # One unmeasured round apiece warms lazy sequences and join memos.
    interpreter.render_compiled(plan).xml()
    interpreter.render_compiled(interpreted_plan).xml()
    compiled_seconds: list[float] = []
    interpreted_seconds: list[float] = []
    serialize_seconds: list[float] = []
    # Renders allocate one object per emitted node, so collector pauses
    # land on whichever engine happens to be running and swamp the
    # per-engine means; pause collection for the timed rounds (the same
    # hygiene ``timeit`` applies by default).
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeat):
            started = time.perf_counter()
            interpreter.render_compiled(plan).xml()
            compiled_seconds.append(time.perf_counter() - started)
            started = time.perf_counter()
            result = interpreter.render_compiled(interpreted_plan)
            rendered = time.perf_counter()
            result.xml()
            serialize_seconds.append(time.perf_counter() - rendered)
            interpreted_seconds.append(time.perf_counter() - started)
    finally:
        if gc_was_enabled:
            gc.enable()
    compiled_mean = sum(compiled_seconds) / len(compiled_seconds)
    interpreted_mean = sum(interpreted_seconds) / len(interpreted_seconds)
    return {
        "repeat": repeat,
        "compiled_mean_seconds": compiled_mean,
        "interpreted_mean_seconds": interpreted_mean,
        "interpreted_serialize_mean_seconds": sum(serialize_seconds) / len(serialize_seconds),
        "compiled_best_seconds": min(compiled_seconds),
        "interpreted_best_seconds": min(interpreted_seconds),
        "speedup_mean": interpreted_mean / compiled_mean if compiled_mean else 0.0,
    }


def repeated_guard_bench(
    db: Database, name: str, guard: str, repeat: int = 5
) -> dict:
    """Cold-vs-warm timing of one guard repeated over one stored document.

    The cold run pays index load, compile and render from an empty
    cache; the warm runs hit the plan cache (skipping lexer → parser →
    typing → algebra) and the join memos.  Returns a dict ready for the
    ``BENCH_pipeline.json`` ``guards`` list.
    """
    db.drop_cache()  # buffer pool, sequences, join memos, compiled plans
    plan_stats_before = db.plan_cache.stats()
    cold = _timed_transform(db, name, guard)
    warm_runs = [_timed_transform(db, name, guard) for _ in range(repeat)]
    plan_stats = db.plan_cache.stats()

    warm_wall = [run["wall_seconds"] for run in warm_runs]
    warm_mean = sum(warm_wall) / len(warm_wall) if warm_wall else 0.0
    warm_best = min(warm_wall) if warm_wall else 0.0
    return {
        "guard": guard,
        "repeat": repeat,
        "cold": cold,
        "warm": {
            "wall_seconds_mean": warm_mean,
            "wall_seconds_best": warm_best,
            "wall_seconds_p95": sample_percentile(warm_wall, 0.95),
            "wall_seconds": warm_wall,
            "simulated_seconds": sum(r["simulated_seconds"] for r in warm_runs),
            "blocks": sum(r["blocks"] for r in warm_runs),
        },
        "speedup_wall_mean": cold["wall_seconds"] / warm_mean if warm_mean else 0.0,
        "speedup_wall_best": cold["wall_seconds"] / warm_best if warm_best else 0.0,
        "plan_cache": {
            "hits": plan_stats["hits"] - plan_stats_before["hits"],
            "misses": plan_stats["misses"] - plan_stats_before["misses"],
        },
        "render_compare": render_compare(db, name, guard, repeat=max(repeat, 3)),
    }


def update_vs_reshred_bench(
    db: Database, name: str, forest, repeat: int = 5
) -> dict:
    """Single-subtree edit cost: incremental update vs full re-shred.

    The workload the incremental updater (:mod:`repro.storage.update`)
    exists for — one publication appended to an otherwise-unchanged
    corpus — measured both ways: ``repeat`` timed append-inserts (each
    reverted by an untimed delete so every round starts from the same
    state) against ``repeat`` timed drop + re-store cycles of the whole
    forest.  The ratio is the number the CI gate compares against
    ``--min-update-speedup``.
    """
    from repro.storage.update import DeleteSubtree, InsertSubtree

    root = forest.roots[0]
    sample = root.children[-1].copy_subtree()
    appended_slot = f"{root.dewey}.{len(root.children) + 1}"
    subtree_nodes = 0
    incremental_seconds: list[float] = []
    for _ in range(repeat):
        subtree = sample.copy_subtree()
        start = time.perf_counter()
        result = db.apply_batch(name, [InsertSubtree(str(root.dewey), subtree)])
        incremental_seconds.append(time.perf_counter() - start)
        subtree_nodes = result.nodes_added
        # Revert (untimed) so every round appends into the same state.
        db.apply_batch(name, [DeleteSubtree(appended_slot)])
    reshred_seconds: list[float] = []
    for _ in range(repeat):
        start = time.perf_counter()
        db.drop_document(name)
        db.store_document(name, forest)
        reshred_seconds.append(time.perf_counter() - start)
    incremental_mean = sum(incremental_seconds) / len(incremental_seconds)
    reshred_mean = sum(reshred_seconds) / len(reshred_seconds)
    incremental_best = min(incremental_seconds)
    reshred_best = min(reshred_seconds)
    return {
        "repeat": repeat,
        "subtree_nodes": subtree_nodes,
        "incremental_mean_seconds": incremental_mean,
        "incremental_best_seconds": incremental_best,
        "reshred_mean_seconds": reshred_mean,
        "reshred_best_seconds": reshred_best,
        "speedup_mean": reshred_mean / incremental_mean if incremental_mean else 0.0,
        "speedup_best": (
            reshred_best / incremental_best if incremental_best else 0.0
        ),
    }


def run_pipeline_bench(
    output_path: Optional[str] = None,
    publications: int = 800,
    repeat: int = 5,
    guards: Optional[dict[str, str]] = None,
    db_path: Optional[str] = None,
    compile_renders: bool = True,
) -> dict:
    """Run the repeated-guard benchmark over a generated DBLP slice.

    Stores the workload into ``db_path`` (a throwaway temp store when
    omitted), benches every guard, and writes the report to
    ``output_path`` when given.  Returns the report dict.
    """
    guards = guards or DEFAULT_GUARDS
    scratch: Optional[tempfile.TemporaryDirectory] = None
    if db_path is None:
        scratch = tempfile.TemporaryDirectory(prefix="xmorph-bench-")
        db_path = os.path.join(scratch.name, "bench.db")
    try:
        db = Database(db_path, durable=False, compile_renders=compile_renders)
        try:
            forest = generate_dblp(publications)
            descriptor = db.store_document("dblp", forest)
            report = {
                "schema": SCHEMA,
                "generated_unix": int(time.time()),
                "workload": {
                    "generator": "dblp",
                    "publications": publications,
                    "seed": 42,
                    "nodes": descriptor["nodes"],
                    "shape_fingerprint": descriptor["shape_fingerprint"],
                },
                "repeat": repeat,
                "guards": [
                    repeated_guard_bench(db, "dblp", guard, repeat=repeat)
                    for guard in guards.values()
                ],
            }
            report["plan_cache"] = db.plan_cache.stats()
            report["max_speedup_wall_mean"] = max(
                (g["speedup_wall_mean"] for g in report["guards"]), default=0.0
            )
            compares = [
                g["render_compare"]
                for g in report["guards"]
                if g.get("render_compare")
            ]
            compiled_total = sum(c["compiled_mean_seconds"] for c in compares)
            interpreted_total = sum(c["interpreted_mean_seconds"] for c in compares)
            # Aggregate compiled-vs-interpreted warm render-to-text
            # speedup over all guards (total time ratio, so long guards
            # dominate) — what the CI gate compares against
            # --min-compiled-speedup.
            report["render_compiled_speedup"] = (
                interpreted_total / compiled_total if compiled_total else 0.0
            )
            # Last: the update bench drops and re-stores the document,
            # so it must not run before the guard benches.
            report["update_vs_reshred"] = update_vs_reshred_bench(
                db, "dblp", forest, repeat=repeat
            )
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
