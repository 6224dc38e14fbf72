"""Shape diffs: what changed between two arrangements of the same data.

Supports the paper's schema-evolution motivation: when a DBA revises a
document design, the *types* largely survive but their arrangement
changes.  ``diff_shapes`` matches types across two shapes by
``(element name, parent name)`` — name alone is ambiguous the moment a
design holds two same-named types under different parents — then
classifies each as unchanged, moved (new parent), added or removed, and
compares cardinalities on surviving edges.  Where several same-keyed
vertices could pair more than one way, the pairing is deterministic
(sorted by full root path) and the diff carries an ``ambiguous match``
note instead of silently picking one.  The textual report is the "what
did this migration do" summary a guard author reads before writing the
MUTATE — and the change classification the evolution analyzer
(:mod:`repro.analysis.evolve`) anchors its XM6xx diagnostics to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.shape.shape import Shape
from repro.shape.types import ShapeType


@dataclass(frozen=True, slots=True)
class TypeChange:
    """One classified difference."""

    kind: str  # "moved" | "added" | "removed" | "cardinality"
    name: str
    detail: str
    #: Dotted root path(s) of the affected vertices, for machine
    #: consumers (the evolution analyzer); empty for aggregate changes.
    before_paths: tuple[str, ...] = ()
    after_paths: tuple[str, ...] = ()

    def __str__(self) -> str:
        return f"{self.kind}: {self.name} — {self.detail}"


@dataclass
class ShapeDiff:
    unchanged: list[str] = field(default_factory=list)
    changes: list[TypeChange] = field(default_factory=list)
    #: Pairings the matcher could not prove unique; each note names the
    #: element and the candidate placements that tie-broke by root path.
    notes: list[str] = field(default_factory=list)
    #: Element names with such a pairing: root-path order is a
    #: heuristic, so nothing that reads them is provably unchanged.
    ambiguous: set[str] = field(default_factory=set)

    @property
    def moved(self) -> list[TypeChange]:
        return [c for c in self.changes if c.kind == "moved"]

    @property
    def added(self) -> list[TypeChange]:
        return [c for c in self.changes if c.kind == "added"]

    @property
    def removed(self) -> list[TypeChange]:
        return [c for c in self.changes if c.kind == "removed"]

    @property
    def cardinality_changes(self) -> list[TypeChange]:
        return [c for c in self.changes if c.kind == "cardinality"]

    @property
    def identical(self) -> bool:
        return not self.changes

    def changes_for(self, name: str) -> list[TypeChange]:
        """Every change touching an element name (case-insensitive)."""
        lowered = name.lower()
        return [c for c in self.changes if c.name.lower() == lowered]

    def pretty(self) -> str:
        if self.identical:
            return "shapes are identical (up to sibling order)"
        lines = [str(change) for change in self.changes]
        lines.extend(f"note: {note}" for note in self.notes)
        lines.append(f"unchanged types: {len(self.unchanged)}")
        return "\n".join(lines)


def diff_shapes(before: Shape, after: Shape) -> ShapeDiff:
    """Classify the differences from ``before`` to ``after``."""
    diff = ShapeDiff()
    before_keys = _by_key(before)
    after_keys = _by_key(after)
    before_names = _names(before_keys)
    after_names = _names(after_keys)

    # Pass 1: vertices whose (name, parent-name) key survives keep their
    # placement; pair them deterministically and compare cardinalities.
    leftovers_before: dict[str, list[_Placed]] = {}
    leftovers_after: dict[str, list[_Placed]] = {}
    placement_stable: set[str] = set()
    placement_changed: set[str] = set()

    for key in before_keys:
        name = key[0]
        before_placed = before_keys[key]
        after_placed = after_keys.get(key, [])
        if len(before_placed) > 1 and len(after_placed) > 1:
            diff.notes.append(_ambiguity_note(name, before_placed, after_placed))
            diff.ambiguous.add(name)
        for first, second in zip(before_placed, after_placed):
            placement_stable.add(name)
            if first.card != second.card:
                diff.changes.append(
                    TypeChange(
                        "cardinality",
                        name,
                        f"{first.card} -> {second.card}",
                        before_paths=(first.path,),
                        after_paths=(second.path,),
                    )
                )
        for extra in before_placed[len(after_placed):]:
            leftovers_before.setdefault(name, []).append(extra)
        for extra in after_placed[len(before_placed):]:
            leftovers_after.setdefault(name, []).append(extra)
    for key in after_keys:
        if key not in before_keys:
            for placed in after_keys[key]:
                leftovers_after.setdefault(key[0], []).append(placed)

    # Pass 2: leftovers pair up *within a name* as moves; the remainder
    # was genuinely added or removed.
    for name in sorted(set(leftovers_before) | set(leftovers_after)):
        before_left = sorted(leftovers_before.get(name, []), key=lambda p: p.path)
        after_left = sorted(leftovers_after.get(name, []), key=lambda p: p.path)
        if before_left and after_left:
            placement_changed.add(name)
            if len(before_left) > 1 and len(after_left) > 1:
                diff.notes.append(_ambiguity_note(name, before_left, after_left))
                diff.ambiguous.add(name)
            diff.changes.append(
                TypeChange(
                    "moved",
                    name,
                    "parent "
                    + "/".join(sorted(p.parent for p in before_left))
                    + " -> "
                    + "/".join(sorted(p.parent for p in after_left)),
                    before_paths=tuple(p.path for p in before_left),
                    after_paths=tuple(p.path for p in after_left),
                )
            )
        paired = min(len(before_left), len(after_left))
        for placed in before_left[paired:]:
            diff.changes.append(
                TypeChange(
                    "removed",
                    name,
                    f"was under {placed.parent}",
                    before_paths=(placed.path,),
                )
            )
        for placed in after_left[paired:]:
            diff.changes.append(
                TypeChange(
                    "added",
                    name,
                    f"under {placed.parent}",
                    after_paths=(placed.path,),
                )
            )

    changed_names = {change.name for change in diff.changes}
    diff.unchanged = [
        name
        for name in before_names
        if name in after_names
        and name in placement_stable
        and name not in placement_changed
        and name not in changed_names
    ]
    return diff


@dataclass(frozen=True, slots=True)
class _Placed:
    """One shape vertex with its matching key ingredients resolved."""

    vertex: ShapeType
    parent: str  # parent element name, or "(root)"
    path: str    # full root path of output names (the tie-break)
    card: str    # incoming-edge cardinality, or "(root)"


def _by_key(shape: Shape) -> dict[tuple[str, str], list[_Placed]]:
    """Vertices bucketed by (name, parent name), each bucket path-sorted."""
    paths: dict[ShapeType, str] = {}
    buckets: dict[tuple[str, str], list[_Placed]] = {}
    for vertex, _depth in shape.walk():
        parent = shape.parent(vertex)
        if parent is None:
            parent_name, card = "(root)", "(root)"
            paths[vertex] = vertex.out_name
        else:
            parent_name = parent.out_name
            card = str(shape.card(parent, vertex))
            paths[vertex] = f"{paths[parent]}.{vertex.out_name}"
        buckets.setdefault((vertex.out_name, parent_name), []).append(
            _Placed(vertex, parent_name, paths[vertex], card)
        )
    for placed in buckets.values():
        placed.sort(key=lambda p: p.path)
    return buckets


def _names(buckets: dict[tuple[str, str], list[_Placed]]) -> set[str]:
    return {name for name, _parent in buckets}


def _ambiguity_note(name, before_placed, after_placed) -> str:
    return (
        f"ambiguous match for {name!r}: "
        + "/".join(p.path for p in before_placed)
        + " paired with "
        + "/".join(p.path for p in after_placed)
        + " by root-path order"
    )
