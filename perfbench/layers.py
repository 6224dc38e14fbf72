"""Per-layer timing for the traced run, recorded from the benchmark side.

The program has no spans of its own at these boundaries yet, so the
benchmark wraps the public entry points of each layer while a traced
round runs and restores the originals afterwards.  Each wrapped call is
a span; nested spans are subtracted from their parent, so every layer
reports *self* time and the layers plus ``unattributed`` add up to the
measured operation.  Spans are kept as per-layer totals in memory.

Only the thread that opened the operation is traced: the serve
workload's program layers run in worker processes, and its split comes
from the server's own telemetry instead.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

import repro.engine.interpreter as interpreter_module
from repro.algebra.semantics import Evaluator
from repro.engine.interpreter import Interpreter, TransformResult
from repro.closeness.index import BaseIndex
from repro.storage.database import Database, StoredDocumentIndex

#: (owner, attribute, layer).  ``Database.transform`` reaches the plan
#: cache through ``_plan`` (``Database.compile`` is a one-line alias of
#: it), and the compile stages are looked up in the interpreter module,
#: so that is where they are wrapped.  A missing attribute is skipped
#: and its time shows up as ``trace.unattributed_ms``.
WRAPPED = (
    (Database, "__init__", "storage.open"),
    (Database, "index", "closeness.index_load"),
    (Database, "_plan", "cache.plan"),
    (Database, "apply_batch", "storage.update.apply"),
    (StoredDocumentIndex, "nodes_of", "storage.read"),
    (BaseIndex, "closest_pair_map", "closeness.join"),
    (BaseIndex, "restrict_pass", "closeness.join"),
    (interpreter_module, "parse_guard", "lang.parse"),
    (interpreter_module, "build_operator", "lang.parse"),
    (Evaluator, "run", "algebra.evaluate"),
    (interpreter_module, "analyze_loss", "typing.loss"),
    (interpreter_module, "try_compile_render", "engine.codegen"),
    (Interpreter, "render_compiled", "engine.render"),
    (TransformResult, "xml", "xmltree.serialize"),
)

LAYERS = sorted({layer for _owner, _attr, layer in WRAPPED})


class LayerTracer:
    """Self time per layer, summed over the traced operations."""

    def __init__(self):
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.operations = 0
        self.unattributed_seconds = 0.0
        self._thread: int | None = None
        self._stack: list[float] = []
        self._top_seconds = 0.0
        self._saved: list[tuple[object, str, object]] = []

    # -- installing the wrappers ---------------------------------------------

    def install(self) -> None:
        for owner, attr, layer in WRAPPED:
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(
                owner, attr, None
            )
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer))

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, layer: str):
        tracer = self

        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return original(*args, **kwargs)
            stack = tracer._stack
            stack.append(0.0)
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = stack.pop()
                tracer.self_seconds[layer] += elapsed - children
                if stack:
                    stack[-1] += elapsed
                else:
                    tracer._top_seconds += elapsed

        traced.__wrapped__ = original
        return traced

    # -- operations ------------------------------------------------------------

    def begin(self) -> float:
        """Start one traced operation on the calling thread."""
        self._thread = threading.get_ident()
        self._stack.clear()
        self._top_seconds = 0.0
        return time.perf_counter()

    def end(self, started: float) -> float:
        elapsed = time.perf_counter() - started
        self._thread = None
        self.operations += 1
        self.unattributed_seconds += elapsed - self._top_seconds
        return elapsed

    def per_operation_ms(self, layer: str) -> float:
        if not self.operations:
            return 0.0
        return self.self_seconds.get(layer, 0.0) * 1e3 / self.operations

    def unattributed_ms(self) -> float:
        if not self.operations:
            return 0.0
        return self.unattributed_seconds * 1e3 / self.operations
