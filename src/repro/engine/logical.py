"""Architecture option 3: logically transform the data in situ.

Section VIII's third architecture — "re-engineer an evaluation engine
... to logically transform the data in situ" — is the paper's stated
near-term future work.  This module prototypes it: a *virtual forest*
that looks like the transformed document to the XQuery evaluator but
materializes nothing up front.  A virtual node computes its children on
first access by running the closest join for one shape edge *restricted
to its own anchor*; queries that touch a fraction of the output only
ever pay for that fraction.

Instances follow the batch renderer's rules exactly (RESTRICT filters,
self-pairs, NEW wrappers around their leading child, TYPE-FILL
placeholders), so serializing the virtual roots gives the same text as
every other renderer.

Virtual nodes implement the slice of the :class:`XmlNode` interface the
XQuery evaluator navigates (``name``, ``text``, ``children``,
``is_element``/``is_attribute``, ``iter_subtree``, ``copy_subtree``,
``parent``), so the evaluator works on them unchanged.  Copying out of
a constructor materializes, as it must.
"""

from __future__ import annotations

from typing import Optional

from repro.closeness.index import BaseIndex
from repro.engine.interpreter import Interpreter
from repro.engine.render import leading_backed_child
from repro.shape.shape import Shape
from repro.shape.types import ShapeType
from repro.xmltree.node import NodeKind, NodeLike, XmlForest, XmlNode


class VirtualNode(NodeLike):
    """A lazily materializing output node."""

    __slots__ = (
        "_view", "shape_type", "anchor", "parent", "copy", "lead", "_children", "dewey"
    )

    def __init__(
        self,
        view: "LogicalTransform",
        shape_type: ShapeType,
        anchor: Optional[XmlNode],
        parent: Optional["VirtualNode"],
        copy: bool = False,
        lead: Optional[ShapeType] = None,
    ):
        self._view = view
        self.shape_type = shape_type
        #: The source node joins are anchored on.
        self.anchor = anchor
        self.parent = parent
        #: True for a copy of ``anchor``; False for an empty NEW wrapper
        #: or TYPE-FILL placeholder element.
        self.copy = copy
        #: A NEW wrapper's leading child, which maps 1:1 onto the anchor.
        self.lead = lead
        self._children: Optional[list["VirtualNode"]] = None
        self.dewey = None

    # -- XmlNode interface ------------------------------------------------

    @property
    def name(self) -> str:
        return self.shape_type.out_name

    @property
    def kind(self) -> NodeKind:
        return self.anchor.kind if self.copy else NodeKind.ELEMENT

    @property
    def is_element(self) -> bool:
        return self.kind is NodeKind.ELEMENT

    @property
    def is_attribute(self) -> bool:
        return self.kind is NodeKind.ATTRIBUTE

    @property
    def text(self) -> str:
        return self.anchor.text if self.copy else ""

    @property
    def children(self) -> list["VirtualNode"]:
        if self._children is None:
            self._children = self._view.expand(self)
        return self._children

    def element_children(self) -> list["VirtualNode"]:
        return [child for child in self.children if child.is_element]

    def attributes(self) -> list["VirtualNode"]:
        return [child for child in self.children if child.is_attribute]

    def attribute(self, name: str):
        for child in self.children:
            if child.is_attribute and child.name == name:
                return child
        return None

    def find(self, name: str):
        for child in self.children:
            if child.name == name:
                return child
        return None

    def iter_subtree(self):
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def descendant_count(self) -> int:
        return sum(1 for _ in self.iter_subtree())

    def copy_subtree(self) -> XmlNode:
        """Materialize this subtree as a real node (constructors copy)."""
        real = XmlNode(self.name, self.kind, self.text)
        for child in self.children:
            real.append(child.copy_subtree())
        return real

    def __repr__(self) -> str:
        state = "expanded" if self._children is not None else "virtual"
        return f"<VirtualNode {self.name} ({state})>"


class LogicalTransform:
    """The lazily transformed view of one document under one guard."""

    def __init__(self, source: XmlForest | BaseIndex, guard: str):
        interpreter = Interpreter(source)
        self.index = interpreter.index
        compiled = interpreter.compile(guard)
        self.guard = guard
        self.shape: Shape = compiled.target_shape
        self.loss = compiled.loss
        self.nodes_materialized = 0
        self._roots: Optional[list[VirtualNode]] = None

    # -- the virtual document --------------------------------------------------

    @property
    def roots(self) -> list[VirtualNode]:
        if self._roots is None:
            self._roots = []
            for root_type in self.shape.roots():
                if root_type.source is not None:
                    for node in self._candidates(root_type):
                        self._roots.append(VirtualNode(self, root_type, node, None, True))
                    continue
                # A NEW root wraps each node of its leading child, or
                # renders once; its children use the generic rules.
                leading = leading_backed_child(self.shape, root_type)
                anchors = [None] if leading is None else self._candidates(leading)
                for anchor in anchors:
                    self._roots.append(VirtualNode(self, root_type, anchor, None))
            self.nodes_materialized += len(self._roots)
        return self._roots

    def virtual_document(self) -> VirtualNode:
        """A synthetic document node over the virtual roots."""
        document = VirtualNode(self, ShapeType.new("#document"), None, None)
        document._children = self.roots
        return document

    def query_context(self, name: str = "input"):
        """A QueryContext whose context item is the virtual document."""
        from repro.xquery.evaluator import QueryContext

        context = QueryContext()
        context.context_nodes = [self.virtual_document()]
        context.documents = {name: self}  # doc() resolves via duck typing
        return context

    # -- expansion ------------------------------------------------------------------

    def expand(self, node: VirtualNode) -> list[VirtualNode]:
        """Compute one virtual node's children (one closest join slice)."""
        children: list[VirtualNode] = []
        for child_type in self.shape.children(node.shape_type):
            children += self._instances(node, child_type)
        self.nodes_materialized += len(children)
        return children

    def _instances(self, node: VirtualNode, child: ShapeType) -> list[VirtualNode]:
        """``child``'s instances under ``node``, by the batch renderer's rules."""
        anchor = node.anchor
        if child is node.lead:
            return [VirtualNode(self, child, anchor, node, True)]
        if child.source is not None and (
            node.lead is not None
            or not child.synthesized
            or self.index.nodes_of(child.source)
        ):
            return [
                VirtualNode(self, child, partner, node, True)
                for partner in self._partners(anchor, child)
            ]
        leading = None
        if node.lead is not None or not child.synthesized:
            leading = leading_backed_child(self.shape, child)
        if leading is None:
            # A placeholder or a NEW type with no backed descendant: one
            # empty element, anchored where its parent is.
            return [VirtualNode(self, child, anchor, node)]
        return [
            VirtualNode(self, child, partner, node, lead=leading)
            for partner in self._partners(anchor, leading)
        ]

    def _partners(self, anchor: Optional[XmlNode], holder: ShapeType) -> list[XmlNode]:
        """The closest ``holder`` nodes of one anchor (all, without one)."""
        candidates = self._candidates(holder)
        if anchor is None or not candidates:
            return candidates
        if self.index.type_of(anchor) == holder.source:
            return [anchor]
        partners = self.index.closest_partners(anchor, holder.source)
        if holder.restrict_filter is None:
            return partners
        allowed = {id(candidate) for candidate in candidates}
        return [partner for partner in partners if id(partner) in allowed]

    def _candidates(self, holder: ShapeType) -> list[XmlNode]:
        nodes = self.index.nodes_of(holder.source)
        if holder.restrict_filter is None:
            return nodes
        return self.index.restrict_pass(nodes, holder.source, holder.restrict_filter)


def guarded_query_lazy(source: XmlForest, guard: str, query: str):
    """Evaluate a guarded query without materializing the transformation."""
    from repro.xquery.evaluator import evaluate

    view = LogicalTransform(source, guard)
    return evaluate(query, view.query_context()), view
