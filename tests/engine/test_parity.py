"""Interpreter/emitter parity: both renderers must produce identical output.

The compiled text emitter (:mod:`repro.engine.compile`) is specified as
a serialization of exactly the forest the batch renderer
(:mod:`repro.engine.render`) builds.  This suite pins that property,
byte for byte, across the ``examples/guards/`` corpus, the workload
generators, and the special shape types (RESTRICT, NEW, TYPE-FILL) —
including the TYPE-FILL placeholder case for a *source-backed*
synthesized type with an empty source sequence, which the former
hand-written streaming renderer used to drop.
"""

import os

import pytest

import repro
from repro.closeness import DocumentIndex
from repro.engine.render import render
from repro.engine.compile import compile_render
from repro.shape.cardinality import Card
from repro.shape.shape import Shape
from repro.shape.types import ShapeType
from repro.workloads import generate_dblp, generate_xmark
from repro.xmltree import parse_forest
from repro.xmltree.serializer import serialize

GUARD_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "examples", "guards")


def corpus_guards() -> list[str]:
    guards = []
    for entry in sorted(os.listdir(GUARD_DIR)):
        if not entry.endswith(".guard"):
            continue
        with open(os.path.join(GUARD_DIR, entry), encoding="utf-8") as handle:
            text = " ".join(
                line.strip()
                for line in handle
                if line.strip() and not line.lstrip().startswith("#")
            )
        guards.append(text)
    return guards


def assert_parity(forest, guard):
    interpreter = repro.Interpreter(forest)
    result = interpreter.transform(guard)
    streamed = emitted_text(result.target_shape, interpreter.index)
    assert parse_forest(streamed).canonical() == result.forest.canonical()
    assert streamed == serialize(result.forest), (
        f"interpreter/emitter divergence for {guard!r}:\n"
        f"batch:   {serialize(result.forest)}\nemitted: {streamed}"
    )


def emitted_text(shape, index) -> str:
    """The compiled emitter's text for ``shape`` over ``index``."""
    return compile_render(shape, index).run(index).text


class TestGuardCorpusParity:
    """Every shipped example guard, over its shipped example document."""

    @pytest.fixture(scope="class")
    def books(self):
        with open(os.path.join(GUARD_DIR, "books.xml"), encoding="utf-8") as handle:
            return repro.parse_forest(handle.read())

    @pytest.mark.parametrize("guard", corpus_guards())
    def test_corpus_guard(self, books, guard):
        assert_parity(books, guard)


class TestWorkloadParity:
    """Generated workloads with the cache-relevant guard families."""

    DBLP_GUARDS = [
        "CAST MORPH author [ title [ year ] ]",
        "CAST MORPH dblp [ author [ title [ year [ pages ] url ] ] ]",
        "CAST MORPH (RESTRICT year [ ee ])",
        "CAST MORPH (RESTRICT article [ ee crossref ])",
        "CAST (MUTATE (NEW record) [ author title ])",
        "CAST (TYPE-FILL MORPH article [ title isbn ])",
    ]

    @pytest.fixture(scope="class")
    def dblp(self):
        return generate_dblp(80)

    @pytest.mark.parametrize("guard", DBLP_GUARDS)
    def test_dblp(self, dblp, guard):
        assert_parity(dblp, guard)

    def test_xmark(self):
        forest = generate_xmark(0.02)
        assert_parity(forest, "CAST MORPH item [ name ]")


class TestSpecialTypesParity:
    def test_restrict(self, fig1a):
        assert_parity(fig1a, "CAST MORPH (RESTRICT name [ author ])")

    def test_new_wrapper(self, fig1a):
        assert_parity(fig1a, "CAST (MUTATE (NEW scribe) [ author ])")

    def test_type_fill_missing_label(self, fig1a):
        # TYPE-FILL invents an unbacked placeholder (source is None).
        assert_parity(fig1a, "CAST (TYPE-FILL MORPH author [ name isbn ])")

    def test_type_fill_source_backed_empty_sequence(self):
        """The case the former streaming renderer dropped silently.

        A synthesized type *with* a source whose node sequence is empty
        must render one placeholder per parent in both renderers.  Such
        types arise when a compiled shape is evaluated against an index
        where the backing label has no instances (e.g. a shape-identical
        document missing the optional label).
        """
        forest = repro.parse_forest("<data><a><b>x</b></a><a><b>y</b></a></data>")
        index = DocumentIndex(forest)
        phantom = index.type_table.intern(("data", "a", "phantom"))
        assert index.nodes_of(phantom) == []

        by_name = {t.dotted: t for t in index.types()}
        shape = Shape()
        root = ShapeType.for_source(by_name["data.a"])
        placeholder = ShapeType(
            source=phantom, out_name="phantom", synthesized=True
        )
        child = ShapeType.for_source(by_name["data.a.b"])
        shape.add_type(root)
        shape.add_type(placeholder)
        shape.add_type(child)
        shape.add_edge(root, placeholder, Card(1, 1))
        shape.add_edge(root, child, Card(0, None))

        batch = render(shape, index)
        streamed = emitted_text(shape, index)
        assert parse_forest(streamed).canonical() == batch.forest.canonical()
        assert streamed == serialize(batch.forest)
        # And the placeholders genuinely appear, once per parent instance.
        assert streamed.count("<phantom/>") == 2
