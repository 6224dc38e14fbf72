"""Property-based parity: the specialized renderer IS the interpreter.

The compiled renderer's one correctness claim is byte-identity with the
interpretive Render algorithm on every plan it accepts.  We fuzz that
claim directly: random small documents over a tiny tag alphabet (the
shared ``tests.strategies`` corpus — small alphabets maximize repeated
types and interesting closest joins), random guards over the same
alphabet, and for every plan that specializes, the compiled output must
match the interpreter byte for byte — the emitted XML text against the
serialized interpreter forest — and on every render counter; the
forest a compiled result builds on demand carries the interpreter's
Dewey identifiers and provenance.

Guards that fail to type-check on a particular document are out of
scope (both engines never run); plans where specialization declines
(``try_compile_render`` returned ``None``) are equally out of scope but
*counted* — the suite would silently prove nothing if every plan fell
back, so one sentinel test pins that the common forms do compile.
"""

from hypothesis import assume, given, settings

import repro
from repro.engine.interpreter import Interpreter
from repro.errors import XMorphError
from repro.xmltree.serializer import serialize

from tests.conftest import examples
from tests.strategies import documents, guards


def compile_pair(forest, guard):
    """(interpreted result, compiled result) for one plan, or None when
    the guard does not apply to this document."""
    text = serialize(forest)
    try:
        interp = Interpreter(repro.parse_forest(text))
        plan_i = interp.compile(f"CAST ({guard})")
        comp = Interpreter(repro.parse_forest(text), compile_renders=True)
        plan_c = comp.compile(f"CAST ({guard})")
    except XMorphError:
        return None
    if plan_c.compiled_render is None:
        return None
    return interp.render_compiled(plan_i), comp.render_compiled(plan_c)


def dewey_walk(forest):
    out = []

    def visit(node):
        out.append((node.name, node.text, str(node.dewey)))
        for child in node.children:
            visit(child)

    for root in forest.roots:
        visit(root)
    return out


class TestCompiledParityProperty:
    @given(forest=documents(), guard=guards())
    @settings(max_examples=examples(120), deadline=None)
    def test_byte_identical(self, forest, guard):
        pair = compile_pair(forest, guard)
        assume(pair is not None)
        res_i, res_c = pair
        ri, rc = res_i.rendered, res_c.rendered
        assert rc.compiled and not ri.compiled
        assert rc.text == serialize(ri.forest)
        assert dewey_walk(rc.forest) == dewey_walk(ri.forest)
        assert rc.nodes_written == ri.nodes_written
        assert rc.nodes_read == ri.nodes_read
        assert rc.joins == ri.joins
        assert len(rc.provenance) == len(ri.provenance)
        assert sorted(rc.rows_by_type.values()) == sorted(ri.rows_by_type.values())

    def test_common_forms_do_compile(self):
        """Sentinel: specialization must not silently decline the basic
        forms, or the property above vacuously passes."""
        forest = repro.parse_forest(
            "<r><a><b>x</b><c>1</c></a><a><b>y</b><c>2</c></a></r>"
        )
        compiled = 0
        for guard in ("MORPH a [ b ]", "MORPH a [ b [ c ] ]", "MUTATE b [ a ]"):
            interp = Interpreter(forest, compile_renders=True)
            plan = interp.compile(f"CAST ({guard})")
            compiled += plan.compiled_render is not None
        assert compiled == 3


class TestEvolutionInvalidationProperty:
    @given(forest=documents())
    @settings(max_examples=examples(25), deadline=None)
    def test_non_compatible_verdicts_drop_compiled_plans(self, forest):
        """After ``apply_evolution``, a surviving cached plan still
        carries its compiled renderer and a dropped one is gone — no
        half-invalidated state where a stale specialized renderer
        outlives its plan."""
        from repro.cache import CompiledPlan, PlanCache

        try:
            interp = Interpreter(forest, compile_renders=True)
            result = interp.compile("CAST (MORPH a [ b ])")
        except XMorphError:
            assume(False)
        assume(result.compiled_render is not None)

        cache = PlanCache(capacity=8)
        plan = CompiledPlan.from_result(result, fingerprint="doc" + "0" * 13)
        cache.put(plan)
        other = CompiledPlan.from_result(result, fingerprint="doc" + "0" * 13)
        other = type(other)(
            guard="other-guard",
            fingerprint=other.fingerprint,
            target_shape=other.target_shape,
            loss=other.loss,
            evaluation=other.evaluation,
            compile_seconds=0.0,
            compiled_render=other.compiled_render,
        )
        cache.put(other)

        outcome = cache.apply_evolution(
            plan.fingerprint,
            {plan.guard: "compatible", "other-guard": "degraded"},
        )
        assert outcome == {"kept": 1, "invalidated": 1}
        survivor = cache.get(plan.guard, plan.fingerprint)
        assert survivor is not None
        assert survivor.compiled_render is result.compiled_render
        assert cache.get("other-guard", plan.fingerprint) is None
