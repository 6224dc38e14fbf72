"""Tests for streaming output: the compiled emitter written into a stream
must agree with the batch renderer."""

from io import StringIO

import pytest

import repro
from repro.engine.compile import compile_render
from repro.workloads import generate_dblp
from repro.xmltree import parse_forest
from repro.xmltree.serializer import serialize


def render_stream(shape, index, out):
    """Stream ``shape`` over ``index`` into ``out``; the render's counters."""
    return compile_render(shape, index).stream(index, out)


def both_renders(forest, guard):
    """(batch result, streamed text) for the same guard."""
    interpreter = repro.Interpreter(forest)
    result = interpreter.transform(f"CAST ({guard})")
    compiled = interpreter.compile(f"CAST ({guard})")
    sink = StringIO()
    render_stream(compiled.target_shape, interpreter.index, sink)
    return result, sink.getvalue()


GUARDS = [
    "MORPH author [ name book [ title ] ]",
    "MORPH publisher [ name book [ title ] ]",
    "MUTATE data",
    "MUTATE book [ publisher [ name ] ]",
    "MORPH author [ name ] | TRANSLATE author -> writer",
    "MUTATE (NEW scribe) [ author ]",
    "MORPH (RESTRICT name [ author ])",
]


class TestAgreesWithBatchRenderer:
    @pytest.mark.parametrize("guard", GUARDS)
    def test_same_output_fig1a(self, fig1a, guard):
        result, streamed = both_renders(fig1a, guard)
        assert parse_forest(streamed).canonical() == result.forest.canonical()
        assert streamed == serialize(result.forest)

    @pytest.mark.parametrize("guard", GUARDS[:4])
    def test_same_output_fig1c(self, fig1c, guard):
        result, streamed = both_renders(fig1c, guard)
        assert parse_forest(streamed).canonical() == result.forest.canonical()
        assert streamed == serialize(result.forest)

    def test_dblp_medium_guard(self):
        forest = generate_dblp(120)
        result, streamed = both_renders(forest, "MORPH author [ title [ year ] ]")
        assert parse_forest(streamed).canonical() == result.forest.canonical()
        assert streamed == serialize(result.forest)

    def test_attributes_stream_into_start_tags(self):
        forest = repro.parse_document('<r><item id="i1"><price>3</price></item></r>')
        _result, streamed = both_renders(forest, "MORPH item [ id price ]")
        assert 'id="i1"' in streamed


class TestStreamingBehaviour:
    def test_stats_counted(self, fig1a):
        interpreter = repro.Interpreter(fig1a)
        compiled = interpreter.compile("MORPH author [ name ]")
        sink = StringIO()
        stats = render_stream(compiled.target_shape, interpreter.index, sink)
        assert stats.nodes_written == 4  # 2 authors + 2 names
        assert stats.bytes_out == len(sink.getvalue().encode())
        assert stats.joins >= 1

    def test_indented_output_parses(self, fig1a):
        """Indented output is the serializer's: a compiled result builds
        its forest on demand for ``xml(indent=...)``."""
        interpreter = repro.Interpreter(fig1a, compile_renders=True)
        result = interpreter.transform("MORPH author [ name book [ title ] ]")
        assert result.rendered.compiled
        text = result.xml(indent=2)
        assert "\n" in text
        assert parse_forest(text).canonical() == repro.Interpreter(fig1a).transform(
            "MORPH author [ name book [ title ] ]"
        ).forest.canonical()

    def test_incremental_writes(self, fig1a):
        """Output arrives in many small writes, not one big one."""

        class CountingSink:
            def __init__(self):
                self.writes = 0
                self.pieces = []

            def write(self, text):
                self.writes += 1
                self.pieces.append(text)

        interpreter = repro.Interpreter(fig1a)
        compiled = interpreter.compile("MORPH author [ name book [ title ] ]")
        sink = CountingSink()
        render_stream(compiled.target_shape, interpreter.index, sink)
        assert sink.writes > 10
