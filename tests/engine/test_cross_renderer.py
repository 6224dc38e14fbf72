"""Cross-renderer differential oracle: four ways to one output text.

For every generated (document, guard) pair the output must be the same
bytes whichever way it is produced:

* the interpreter's forest, serialized (the oracle);
* the compiled emitter's text (``TransformResult.xml()``);
* ``Database.stream_transform`` into a ``StringIO`` over a stored copy;
* the logical transform's virtual roots, serialized.

A stored document's index derives type distances from the shape, not
from the data, so the two can pair differently (see
``StoredDocumentIndex.type_distance``); the stream path is therefore
held to the interpreter over the *stored* index.  The compiled render
must also report the interpreter's counters and ``rows_by_type``.  The
explicit examples pin the forms random documents rarely reach:
attributes (which go into start tags, even from a type that also holds
elements), empty leaves, escaping, a NEW
root with no backed child, and a RESTRICT edge that filters every node
of a backed type away.
"""

import io
import os
import tempfile

from hypothesis import assume, example, given, settings

import repro
from repro.engine.interpreter import Interpreter
from repro.engine.logical import LogicalTransform
from repro.engine.render import render
from repro.errors import XMorphError
from repro.storage import Database
from repro.xmltree.serializer import serialize

from tests.conftest import examples
from tests.strategies import documents, guards


def four_texts(forest, guard):
    """(interpreted result, compiled result, {path: (text, oracle text)}),
    or ``None`` when the guard does not apply to this document."""
    text = serialize(forest)
    try:
        interpreted = Interpreter(repro.parse_forest(text)).transform(guard)
    except XMorphError:
        return None
    expected = serialize(interpreted.forest)
    compiled = Interpreter(repro.parse_forest(text), compile_renders=True).transform(guard)
    with tempfile.TemporaryDirectory(prefix="xmorph-cross-") as scratch:
        with Database(os.path.join(scratch, "cross.db"), durable=False) as db:
            db.store_document("doc", repro.parse_forest(text))
            sink = io.StringIO()
            streamed = db.stream_transform("doc", guard, sink)
            stored = render(db.compile("doc", guard).target_shape, db.index("doc"))
    assert streamed.compiled
    assert (streamed.nodes_written, streamed.nodes_read, streamed.joins) == (
        stored.nodes_written,
        stored.nodes_read,
        stored.joins,
    )
    assert streamed.bytes_out == len(sink.getvalue().encode("utf-8"))
    view = LogicalTransform(repro.parse_forest(text), guard)
    texts = {
        "compiled": (compiled.xml(), expected),
        "stream": (sink.getvalue(), serialize(stored.forest)),
        "logical": ("\n".join(serialize(root) for root in view.roots), expected),
    }
    return interpreted, compiled, texts


class TestFourRenderers:
    @given(forest=documents(), guard=guards())
    @settings(max_examples=examples(60), deadline=None)
    @example(
        forest=repro.parse_forest(
            '<r><a id="1" k="&amp;&quot;"><b>x</b><id>e</id></a><a id="2"/></r>'
        ),
        guard="MORPH a [ id b k ]",
    )
    @example(forest=repro.parse_forest("<r><a><b/></a><a><b>y</b></a></r>"), guard="MORPH a [ b ]")
    @example(
        forest=repro.parse_forest('<r><a>&amp;&lt;&gt;"</a><a b="&lt;&quot;&gt;"/></r>'),
        guard="MORPH a [ b ]",
    )
    @example(forest=repro.parse_forest("<r><a>x</a></r>"), guard="MORPH (NEW w) [ (NEW v) ]")
    @example(
        forest=repro.parse_forest("<r><a><b>1</b><c/></a><a><c><d/></c></a></r>"),
        guard="MORPH a [ (RESTRICT b [ c [ d ] ]) ]",
    )
    def test_identical_bytes_and_counters(self, forest, guard):
        outcome = four_texts(forest, f"CAST ({guard})")
        assume(outcome is not None)
        interpreted, compiled, texts = outcome
        for path, (text, expected) in texts.items():
            assert text == expected, f"{path} differs for {guard!r}"
        ri, rc = interpreted.rendered, compiled.rendered
        assert rc.compiled and not ri.compiled
        assert (rc.nodes_written, rc.nodes_read, rc.joins) == (
            ri.nodes_written,
            ri.nodes_read,
            ri.joins,
        )
        assert named_rows(compiled, rc) == named_rows(interpreted, ri)


def named_rows(result, rendered) -> list[tuple[str, int]]:
    """rows_by_type in shape pre-order by output name (ids differ per shape)."""
    shape = result.target_shape
    rows = []

    def visit(vertex):
        rows.append((vertex.out_name, rendered.rows_for(vertex)))
        for child in shape.children(vertex):
            visit(child)

    for root in shape.roots():
        visit(root)
    return rows


def test_examples_reach_the_forms_they_name():
    """The explicit examples above are not vacuous."""
    # One type may hold attributes and elements: ``a.id`` here holds both.
    attributes = four_texts(
        repro.parse_forest('<r><a id="1"><b>x</b><id>e</id></a><a id="2"/></r>'),
        "CAST (MORPH a [ id b ])",
    )
    assert attributes[2]["compiled"][0] == '<a id="1"><id>e</id><b>x</b></a>\n<a id="2"/>'
    new_root = four_texts(repro.parse_forest("<r><a>x</a></r>"), "CAST (MORPH (NEW w) [ (NEW v) ])")
    assert new_root[2]["compiled"][0] == "<w><v/></w>"
    emptied = four_texts(
        repro.parse_forest("<r><a><b>1</b><c/></a><a><c><d/></c></a></r>"),
        "CAST (MORPH a [ (RESTRICT b [ c [ d ] ]) ])",
    )
    assert emptied[2]["compiled"][0] == "<a/>\n<a/>"
    assert named_rows(emptied[1], emptied[1].rendered) == [("a", 2), ("b", 0)]
