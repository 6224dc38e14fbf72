"""Plan-time compilation of the Render algorithm into an XML text emitter.

The batch renderer in :mod:`repro.engine.render` is a faithful but
interpretive implementation of Section VII: every output node is an
``XmlNode`` with a Dewey number and a provenance entry, every shape edge
re-dispatches on the child's kind, and the serializer then walks the
finished forest a second time.  None of that dispatch depends on the
data — it depends only on the *target shape*, which is fixed per
``(guard, shape fingerprint)`` plan.

:func:`compile_render` therefore walks the target shape **once at
plan-compile time** and generates a Python function that writes the
output as escaped XML text, depth first and in document order — the
paper's "stream the output node by node (in document order)" — with no
output tree at all:

* the shape recursion is unrolled into nested loops, one per shape edge,
  so an instance's children are written right after its start tag;
* every edge's **closest-join form is resolved statically** from the
  anchor data type of its parent instances (a backed type anchors on its
  source, a NEW wrapper on its leading backed child, placeholders
  inherit the parent's anchor): broadcast, self-pair, a probe of the
  memoized ``closest_pair_map``, or that probe filtered by the RESTRICT
  survivor set (memoized per anchor);
* an edge fetches its candidate sequence when the first parent instance
  needs it, so ``nodes_read``, ``joins``, block reads and the simulated
  costs are the interpreter's;
* attribute children go into the start tag and an element with neither
  text nor element children is written ``<x/>``, so the text equals
  ``serialize(render(shape, index).forest)`` byte for byte;
* ``rows_by_type`` is tallied per matched list, and the traced
  ``render.join`` spans and counters are emitted after the walk in the
  interpreter's (shape pre-order) sequence, from the unique parent
  anchors recorded only while tracing.

The generated function is ``exec``'d once, stored on the
:class:`~repro.cache.CompiledPlan`, and reused by every plan-cache hit.
It keeps all per-call state in its locals, so the serving pool's threads
share one plan safely.  It binds only plan-stable values: ``DataType``
is value-equal across index epochs, node sequences are fetched through
``index.nodes_of`` at render time (so lazy loading, block-I/O charging
and the id()-keyed join memos keep working), and the per-type counts
behind the placeholder decision are covered by the shape fingerprint
that keys the cache.  The output forest is never built on this path; a
caller that asks for it gets the interpreter's, rendered on first use
(:class:`~repro.engine.render.RenderResult`).
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter
from typing import TYPE_CHECKING, Optional

from repro.obs import tracer as obs
from repro.engine.render import RenderResult, leading_backed_child, render
from repro.shape.shape import Shape
from repro.shape.types import DataType, ShapeType
from repro.xmltree.node import NodeKind
from repro.xmltree.serializer import escape_attr

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.closeness.index import BaseIndex

#: Inline ``escape_text``: three ``str.replace`` calls, no function call.
_ESCAPE = '.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")'


class CompiledRender:
    """A specialized XML text emitter for one ``(guard, shape)`` plan.

    :meth:`run` returns a :class:`RenderResult` whose ``text`` is
    byte-identical to ``serialize(render(shape, index).forest)`` and
    whose counters equal the interpreter's; :meth:`stream` writes the
    same text into a file-like object chunk by chunk.
    ``source_code`` is the generated Python (kept for debugging and the
    test suite), ``edge_plans`` the per-edge join plan recorded for
    ``EXPLAIN ANALYZE``.
    """

    __slots__ = ("fn", "source_code", "shape", "edge_plans", "fused_filters")

    def __init__(
        self,
        fn,
        source_code: str,
        shape: Shape,
        edge_plans: list[dict],
        fused_filters: int,
    ):
        self.fn = fn
        self.source_code = source_code
        #: Kept alive: the generated code keys ``rows_by_type`` on the
        #: ``id()`` of these shape vertices.
        self.shape = shape
        self.edge_plans = edge_plans
        self.fused_filters = fused_filters

    def run(self, index: "BaseIndex") -> RenderResult:
        parts: list[str] = []
        result = self._execute(index, parts.append)
        result.text = "".join(parts)
        return self._sized(result, _utf8_len(result.text))

    def stream(self, index: "BaseIndex", out) -> RenderResult:
        """Write the rendered XML into ``out`` as it is produced."""
        size = 0

        def write(chunk: str) -> None:
            nonlocal size
            size += _utf8_len(chunk)
            out.write(chunk)

        result = self._execute(index, write)
        return self._sized(result, size)

    def _execute(self, index: "BaseIndex", write) -> RenderResult:
        written, read, joins, rows = self.fn(index, write)
        obs.count("render.nodes_emitted", written)
        obs.count("render.nodes_read", read)
        obs.count("render.joins", joins)
        result = RenderResult(build=partial(render, self.shape, index))
        result.nodes_written = written
        result.nodes_read = read
        result.joins = joins
        result.rows_by_type = rows
        result.compiled = True
        return result

    @staticmethod
    def _sized(result: RenderResult, size: int) -> RenderResult:
        result.bytes_out = size
        obs.observe("render.bytes_out", size)
        return result

    def describe(self) -> str:
        joins = sum(1 for e in self.edge_plans if e["kind"] in ("join", "self"))
        return (
            f"{len(self.edge_plans)} edges specialized "
            f"({joins} joins, {self.fused_filters} fused filters)"
        )


def _utf8_len(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def compile_render(shape: Shape, index: "BaseIndex") -> CompiledRender:
    """Generate and ``exec`` a specialized emitter for ``shape``."""
    generator = _Codegen(shape, index)
    source_code = generator.generate()
    namespace = dict(generator.env)
    code = compile(source_code, "<xmorph-compiled-render>", "exec")
    exec(code, namespace)  # noqa: S102 - plan-time codegen, our own source
    return CompiledRender(
        fn=namespace["_render"],
        source_code=source_code,
        shape=shape,
        edge_plans=generator.edge_plans,
        fused_filters=generator.fused_filters,
    )


def try_compile_render(shape: Shape, index: "BaseIndex") -> Optional[CompiledRender]:
    """A :class:`CompiledRender`, or ``None`` when specialization fails.

    Falling back to the interpreter is always safe (identical output),
    so callers on the serving path prefer a silent downgrade over a
    failed request; the ``render.compile_fallback`` counter makes the
    downgrade visible in metrics.
    """
    try:
        return compile_render(shape, index)
    except Exception:
        obs.count("render.compile_fallback")
        return None


# -- helpers the generated code calls ---------------------------------------


def _discard(_chunk: str) -> None:
    """Sink for an attribute instance's subtree: counted, never written."""


def _attributes(write, name: str, nodes) -> bool:
    """Write the attributes among ``nodes`` into the open start tag.

    Returns whether ``nodes`` also holds an element (one type's sequence
    can mix both kinds, e.g. ``<a id="1"><id>2</id></a>``).
    """
    elements = False
    for node in nodes:
        if node.kind is NodeKind.ATTRIBUTE:
            write(f' {name}="{escape_attr(node.text)}"')
        else:
            elements = True
    return elements


def _surviving(partners: list, allowed: set[int]) -> list:
    """The partners that pass a RESTRICT filter."""
    return [node for node in partners if id(node) in allowed]


class _Edge:
    """One shape edge with its statically resolved dispatch.

    ``kind`` is ``backed`` (copies of joined source nodes), ``wrap`` (a
    NEW wrapper per joined leading-child node), ``leading`` (a wrapper's
    leading child, 1:1 with the wrapper's anchor) or ``single`` (one
    empty element per parent: a placeholder or a childless-source NEW).
    ``form`` is the closest-join form of ``backed`` and ``wrap`` edges.
    """

    __slots__ = ("child", "e", "kind", "form", "holder", "lead")

    def __init__(self, child, e, kind, form=None, holder=None, lead=None):
        self.child = child
        self.e = e
        self.kind = kind
        self.form = form
        #: The vertex whose source is fetched and whose RESTRICT filter
        #: applies (the child itself, or a wrapper's leading child).
        self.holder = holder
        self.lead = lead


class _Codegen:
    """Walks the target shape once and emits the specialized source.

    Per edge ``e`` the generated locals are ``_c<e>`` (candidates,
    ``None`` until fetched), ``_m<e>`` (one parent's matches), ``_n<e>``
    (a child instance), ``r<e>`` (the child type's rows) and, depending
    on the form, ``_g<e>`` (pair-map probe), ``_A<e>`` (candidates hold
    attributes) and ``_f<e>``/``_w<e>`` (RESTRICT memo, survivor ids).
    """

    def __init__(self, shape: Shape, index: "BaseIndex"):
        self.shape = shape
        self.index = index
        self.env: dict[str, object] = {
            "_AT": NodeKind.ATTRIBUTE,
            "_kind": attrgetter("kind"),
            "_nog": {}.get,
            "_at": _attributes,
            "_keep": _surviving,
            "_discard": _discard,
            "_span": obs.span,
            "_count": obs.count,
            "_observe": obs.observe,
            "_enabled": obs.enabled,
        }
        self.body: list[str] = []
        #: Prologue initializations of the per-edge locals.
        self.locals: list[str] = []
        #: Rows of 1:1 edges, derived after the walk (in pre-order).
        self.derived: list[str] = []
        #: Post-walk trace blocks of the joined edges (in pre-order).
        self.spans: list[str] = []
        #: (row local, id() of the shape type) per shape type.
        self.rows: list[tuple[str, int]] = []
        self._ids = 0
        self.edge_plans: list[dict] = []
        self.fused_filters = 0

    # -- small emission helpers -------------------------------------------

    def emit(self, indent: int, text: str) -> None:
        self.body.append("    " * indent + text)

    def fresh(self) -> int:
        self._ids += 1
        return self._ids

    def const(self, prefix: str, value: object) -> str:
        name = f"{prefix}{len(self.env)}"
        self.env[name] = value
        return name

    def _row(self, shape_type: ShapeType, e: int) -> None:
        self.locals.append(f"r{e} = 0")
        self.rows.append((f"r{e}", id(shape_type)))

    def _note_edge(
        self,
        child: ShapeType,
        kind: str,
        anchor: Optional[DataType],
        source: Optional[DataType],
    ) -> None:
        level = None
        anchor_rows = child_rows = 0
        if source is not None:
            anchor_rows = self.index.count_of(anchor) if anchor is not None else 0
            child_rows = self.index.count_of(source)
            if anchor is not None and kind == "join":
                level = self.index.closest_lca_level(anchor, source)
        self.edge_plans.append(
            {
                "child": child.out_name,
                "kind": kind,
                "source": source.dotted if source is not None else None,
                "anchor": anchor.dotted if anchor is not None else None,
                "lca_level": level,
                "anchor_rows": anchor_rows,
                "child_rows": child_rows,
            }
        )

    def _fetch(self, indent: int, e: int, holder: ShapeType) -> str:
        """Fetch (and RESTRICT-filter) ``holder``'s sequence into ``_c<e>``."""
        source = self.const("D", holder.source)
        self.emit(indent, f"_c{e} = _no({source})")
        self.emit(indent, f"nr += len(_c{e})")
        if holder.restrict_filter is not None:
            restriction = self.const("F", holder.restrict_filter)
            self.emit(indent, f"_c{e} = _rp(_c{e}, {source}, {restriction})")
            self.fused_filters += 1
        return source

    # -- entry point --------------------------------------------------------

    def generate(self) -> str:
        for root in self.shape.roots():
            self._emit_root(root)
        # Bind every environment constant as a default argument: the
        # per-edge type constants become LOAD_FAST in the hot loops.
        params = ", ".join(f"{name}={name}" for name in self.env)
        head = [
            f"def _render(index, w, {params}):",
            "_no = index.nodes_of",
            "_rp = index.restrict_pass",
            "_pm = index.closest_pair_map",
            "_tr = _enabled()",
            "nr = 0",
            "nj = 0",
            '_sep = ""',
            *self.locals,
        ]
        tail = [*self.derived, *self.spans, "rows = {}"]
        tail += [f"if {row}: rows[{key}] = {row}" for row, key in self.rows]
        written = " + ".join(row for row, _key in self.rows) or "0"
        tail.append(f"return {written}, nr, nj, rows")
        lines = head[:1] + ["    " + line for line in head[1:]] + self.body
        lines += ["    " + line for line in tail]
        return "\n".join(lines) + "\n"

    # -- roots --------------------------------------------------------------

    def _emit_root(self, root: ShapeType) -> None:
        e = self.fresh()
        self._row(root, e)
        if root.source is not None:
            self._note_edge(root, "root", None, root.source)
            self._fetch(1, e, root)
            self.emit(1, f"r{e} = len(_c{e})")
            self.emit(1, f"for _n{e} in _c{e}:")
            self._instance(root, e, f"_n{e}", f"_n{e}", root.source, None, 2, True)
            return
        leading = leading_backed_child(self.shape, root)
        if leading is None:
            self._note_edge(root, "root-new", None, None)
            self.emit(1, f"r{e} = 1")
            self._instance(root, e, None, "None", None, None, 1, True)
            return
        # Root NEW wrapping its leading backed child: one wrapper per
        # leading-child source node.  Its children use the generic
        # dispatch (the interpreter's ``_attach_children``), so the
        # leading child self-joins 1:1 onto the wrapper's anchor.
        self._note_edge(root, "root-wrap", None, leading.source)
        self._fetch(1, e, leading)
        self.emit(1, f"r{e} = len(_c{e})")
        self.emit(1, f"for _n{e} in _c{e}:")
        self._instance(root, e, None, f"_n{e}", leading.source, None, 2, True)

    # -- edge dispatch, resolved statically ----------------------------------

    def _edges(
        self, parent: ShapeType, anchor: Optional[DataType], lead: Optional[ShapeType]
    ) -> list[_Edge]:
        """One :class:`_Edge` per shape edge out of ``parent``.

        ``lead`` selects the NEW-wrapper dispatch (the interpreter's
        ``_attach_new_children``: the leading child maps 1:1 and the
        placeholder short-circuit does not apply); otherwise this is
        ``_attach_children``.
        """
        edges = []
        for child in self.shape.children(parent):
            e = self.fresh()
            self._row(child, e)
            if lead is not None and child is lead:
                self._note_edge(child, "leading", child.source, child.source)
                edges.append(_Edge(child, e, "leading"))
            elif child.source is not None and (
                lead is not None
                or not child.synthesized
                or self.index.count_of(child.source) > 0
            ):
                edges.append(self._joined(child, e, "backed", child, anchor))
            elif child.synthesized and lead is None:
                self._note_edge(child, "placeholder", anchor, None)
                edges.append(_Edge(child, e, "single"))
            else:
                wrapped = leading_backed_child(self.shape, child)
                if wrapped is None:
                    self._note_edge(child, "new", anchor, None)
                    edges.append(_Edge(child, e, "single"))
                else:
                    edges.append(self._joined(child, e, "wrap", wrapped, anchor))
        return edges

    def _joined(
        self,
        child: ShapeType,
        e: int,
        kind: str,
        holder: ShapeType,
        anchor: Optional[DataType],
    ) -> _Edge:
        """A joined edge: candidates of ``holder.source`` against the anchors.

        * no anchor type — every parent gets every candidate and no join
          is counted (the interpreter's ``_join`` returns early);
        * anchor type == source — the self-pair: each parent gets its own
          anchor, bypassing any RESTRICT intersection;
        * otherwise — the memoized closest-pair map, intersected with
          the RESTRICT survivor set when the holder carries a filter.
        """
        source = holder.source
        form = "broadcast" if anchor is None else "self" if anchor == source else "join"
        self._note_edge(child, form, anchor, source)
        lead = holder if kind == "wrap" else None
        return _Edge(child, e, kind, form, holder, lead)

    # -- one instance, depth first -------------------------------------------

    def _instance(
        self,
        shape_type: ShapeType,
        k: int,
        node: Optional[str],
        anchor: str,
        anchor_type: Optional[DataType],
        lead: Optional[ShapeType],
        i: int,
        root: bool = False,
    ) -> None:
        """Write one instance of ``shape_type`` and, recursively, its subtree.

        ``node`` names the local holding the copied source node (``None``
        for an empty NEW/placeholder element), ``anchor`` the expression
        for the instance's join anchor, whose data type is
        ``anchor_type``.
        """
        edges = self._edges(shape_type, anchor_type, lead)
        joined = [edge for edge in edges if edge.form in ("self", "join")]
        for edge in edges:
            if edge.form is not None:
                self._emit_fetch(i, edge, anchor_type)
        if joined:
            self.locals.append(f"_u{k} = set()")
            self.emit(i, f"if _tr: _u{k}.add(id({anchor}))")
        for edge in edges:
            if edge.form is not None:
                self._emit_match(i, edge, anchor)
                self.emit(i, f"r{edge.e} += len(_m{edge.e})")
            else:
                self.derived.append(f"r{edge.e} = r{k}")

        # ``always``: a placeholder or NEW child guarantees an element
        # child, so the tag is never self-closing; otherwise ``_h<k>``
        # records whether any matched child is an element.
        name = shape_type.out_name
        always = any(edge.kind == "single" for edge in edges)
        self.emit(i, f"w(_sep + {'<' + name!r})" if root else f"w({'<' + name!r})")
        if root:
            self.emit(i, '_sep = "\\n"')
        if not always:
            self.emit(i, f"_h{k} = False")
        for edge in edges:
            self._emit_attributes(i, edge, anchor, always, k)
        text = "'>'"
        if node is not None:
            self.emit(i, f"_t{k} = {node}.text")
            text = f"'>' + _t{k}{_ESCAPE}"
        close = f"w({'</' + name + '>'!r})"
        if always:
            self.emit(i, f"w({text})")
        else:
            opened = f"_h{k}" if node is None else f"_t{k} or _h{k}"
            self.emit(i, f"w({text} if {opened} else '/>')")
            close = f"if {opened}: {close}"
        for edge in edges:
            self._emit_element(i, edge, anchor, anchor_type, k)
        self.emit(i, close)

    def _emit_fetch(self, i: int, edge: _Edge, anchor: Optional[DataType]) -> None:
        """Fetch the edge's candidates once, when the first parent needs them."""
        e = edge.e
        self.locals.append(f"_c{e} = None")
        self.emit(i, f"if _c{e} is None:")
        source = self._fetch(i + 1, e, edge.holder)
        if edge.kind == "backed":
            self.locals.append(f"_A{e} = False")
            self.emit(i + 1, f"_A{e} = _AT in map(_kind, _c{e})")
        if edge.form == "self":
            self.emit(i + 1, f"if _c{e}: nj += 1")
        elif edge.form == "join":
            self.locals.append(f"_g{e} = _nog")
            self.emit(i + 1, f"if _c{e}:")
            self.emit(i + 2, "nj += 1")
            anchor_const = self.const("D", anchor)
            self.emit(i + 2, f"_g{e} = _pm({anchor_const}, {source}).get")
            if edge.holder.restrict_filter is not None:
                self.locals += [f"_f{e} = {{}}", f"_w{e} = None"]
                self.emit(i + 2, f"_w{e} = {{id(_x) for _x in _c{e}}}")

    def _emit_match(self, i: int, edge: _Edge, anchor: str) -> None:
        """Bind ``_m<e>``: this parent's matches on the edge."""
        e = edge.e
        if edge.form == "broadcast":
            self.emit(i, f"_m{e} = _c{e}")
        elif edge.form == "self":
            self.emit(i, f"_m{e} = ({anchor},) if _c{e} else ()")
        elif edge.holder.restrict_filter is None:
            self.emit(i, f"_m{e} = _g{e}(id({anchor}), ())")
        else:
            self.emit(i, f"_m{e} = _f{e}.get(id({anchor}))")
            self.emit(i, f"if _m{e} is None:")
            self.emit(
                i + 1,
                f"_m{e} = _f{e}[id({anchor})] = _keep(_g{e}(id({anchor}), ()), _w{e})",
            )

    def _emit_attributes(
        self, i: int, edge: _Edge, anchor: str, always: bool, k: int
    ) -> None:
        """Attributes into the start tag; note whether elements follow."""
        e = edge.e
        name = repr(edge.child.out_name)
        if edge.kind == "backed":
            if always:
                self.emit(i, f"if _A{e}: _at(w, {name}, _m{e})")
            else:
                self.emit(i, f"if _m{e} and (not _A{e} or _at(w, {name}, _m{e})): _h{k} = True")
        elif edge.kind == "leading":
            written = f"_at(w, {name}, ({anchor},))"
            self.emit(i, written if always else f"if {written}: _h{k} = True")
        elif edge.kind == "wrap" and not always:
            self.emit(i, f"if _m{e}: _h{k} = True")

    def _emit_element(
        self,
        i: int,
        edge: _Edge,
        anchor: str,
        anchor_type: Optional[DataType],
        k: int,
    ) -> None:
        """The edge's element children, each with its subtree."""
        e = edge.e
        child = edge.child
        if edge.form in ("self", "join"):
            self._register_span(edge, f"_u{k}")
        leaf = not self.shape.children(child)
        if edge.kind == "single":
            if leaf:
                self.emit(i, f"w({'<' + child.out_name + '/>'!r})")
            else:
                self._instance(child, e, None, anchor, anchor_type, None, i)
            return
        if edge.kind == "wrap":
            self.emit(i, f"for _n{e} in _m{e}:")
            self._instance(child, e, None, f"_n{e}", edge.holder.source, edge.lead, i + 1)
            return
        # A copied source node: written here unless it is an attribute
        # (already in the start tag), whose subtree is still walked for
        # the counters but written to ``_discard``.
        if edge.kind == "leading":
            node, is_attribute = anchor, f"{anchor}.kind is _AT"
        else:
            node, is_attribute = f"_n{e}", f"_A{e} and _n{e}.kind is _AT"
            self.emit(i, f"for _n{e} in _m{e}:")
            i += 1
        if leaf:
            name = child.out_name
            self.emit(i, f"if not ({is_attribute}):")
            self.emit(i + 1, f"_t{e} = {node}.text")
            self.emit(
                i + 1,
                f"w({'<' + name + '>'!r} + _t{e}{_ESCAPE} + {'</' + name + '>'!r} "
                f"if _t{e} else {'<' + name + '/>'!r})",
            )
            return
        self.emit(i, f"_s{e} = w")
        self.emit(i, f"if {is_attribute}: w = _discard")
        self._instance(child, e, node, node, child.source, None, i)
        self.emit(i, f"w = _s{e}")

    def _register_span(self, edge: _Edge, parents: str) -> None:
        """The traced ``render.join`` block of one joined edge.

        Registered as the element pass reaches the edge, which is the
        interpreter's pre-order; the pairs are recounted from the
        unique parent anchors recorded during the walk.
        """
        e = edge.e
        label = repr(edge.holder.out_name)
        block = [f"if _tr and _c{e}:"]
        if edge.form == "self":
            block.append(f"    _pr = len({parents})")
        else:
            probe = (
                f"_g{e}(_i, ())" if edge.holder.restrict_filter is None else f"_f{e}[_i]"
            )
            block += ["    _pr = 0", f"    for _i in {parents}:", f"        _pr += len({probe})"]
        block += [
            f"    with _span('render.join', child={label}) as _js:",
            "        pass",
            f"    _count('join.comparisons', len({parents}) + len(_c{e}))",
            "    _observe('join.pairs', _pr)",
            f"    _js.annotate(anchors=len({parents}), candidates=len(_c{e}), pairs=_pr)",
        ]
        self.spans += block
