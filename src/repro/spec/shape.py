"""Structural facts about a recurring compound structure.

The paper's first specialization opportunity (section 3.2) exploits *the
structure of the checkpointed data*: the exact class of every sub-object of
a recurring compound structure, declared by the programmer through
specialization classes. Here the declaration is made by example: the
programmer hands a prototype instance to :meth:`Shape.of`, and the shape —
class of every node, presence of optional children, lengths of child lists
— is read off it.

A shape node is addressed by its *path* from the root: a tuple of edge
labels, where an edge label is a field name for ``child`` fields and a
``(field name, index)`` pair for ``child_list`` members, e.g.::

    ()                              the root
    ("bt_entry",)                   root.bt_entry
    ("bt_entry", "bt")              root.bt_entry.bt
    (("lists", 2), "next")          root.lists[2].next
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.core.checkpointable import Checkpointable
from repro.core.errors import CycleError, SpecializationError

PathSegment = Union[str, Tuple[str, int]]
Path = Tuple[PathSegment, ...]


class ShapeEdge:
    """One parent→child edge of a shape."""

    __slots__ = ("field", "index", "node")

    def __init__(self, field: str, index: Optional[int], node: "ShapeNode") -> None:
        self.field = field
        #: position within a child_list, or None for a plain child field
        self.index = index
        self.node = node

    @property
    def segment(self) -> PathSegment:
        return self.field if self.index is None else (self.field, self.index)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShapeEdge({self.segment!r} -> {self.node.cls.__name__})"


class ShapeNode:
    """Class and child layout of one position in the structure."""

    __slots__ = ("cls", "path", "edges", "absent_children", "list_lengths")

    def __init__(self, cls: type, path: Path) -> None:
        self.cls = cls
        self.path = path
        #: outgoing edges, in schema order
        self.edges: List[ShapeEdge] = []
        #: names of child fields that are None in the prototype
        self.absent_children: List[str] = []
        #: child_list field name -> length in the prototype
        self.list_lengths: Dict[str, int] = {}

    def edge(self, segment: PathSegment) -> "ShapeEdge":
        for candidate in self.edges:
            if candidate.segment == segment:
                return candidate
        raise SpecializationError(f"shape node {self.path!r} has no edge {segment!r}")

    def child_node(self, field: str) -> Optional["ShapeNode"]:
        """The shape node behind a plain child field (None when absent)."""
        if field in self.absent_children:
            return None
        return self.edge(field).node

    def list_nodes(self, field: str) -> List["ShapeNode"]:
        """Shape nodes of every member of a child_list field, in order."""
        members = [e for e in self.edges if e.field == field and e.index is not None]
        members.sort(key=lambda e: e.index)
        return [e.node for e in members]

    def walk(self) -> Iterator["ShapeNode"]:
        """Preorder traversal of this subtree."""
        yield self
        for edge in self.edges:
            yield from edge.node.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShapeNode({self.cls.__name__}, path={self.path!r})"


class Shape:
    """The complete structural description of one compound structure."""

    def __init__(self, root: ShapeNode) -> None:
        self.root = root
        self._by_path: Dict[Path, ShapeNode] = {n.path: n for n in root.walk()}

    @classmethod
    def of(cls, prototype: Checkpointable) -> "Shape":
        """Derive a shape from a prototype instance.

        Raises :class:`~repro.core.errors.CycleError` when the prototype
        contains a cycle and :class:`SpecializationError` when the same
        object is shared between two positions (the structure would not be
        a tree, so per-position specialization facts would be ambiguous).
        """
        seen: Dict[int, Path] = {}

        def build(obj: Checkpointable, path: Path, on_path: frozenset) -> ShapeNode:
            oid = obj._ckpt_id
            if oid in on_path:
                raise CycleError(
                    f"prototype contains a cycle through object id {oid} "
                    f"at path {path!r}"
                )
            if oid in seen:
                raise SpecializationError(
                    f"prototype shares object id {oid} between paths "
                    f"{seen[oid]!r} and {path!r}; shapes must be trees"
                )
            seen[oid] = path
            node = ShapeNode(type(obj), path)
            next_on_path = on_path | {oid}
            for spec in obj._ckpt_schema:
                if spec.role == "child":
                    value = getattr(obj, spec.slot)
                    if value is None:
                        node.absent_children.append(spec.name)
                    else:
                        child_node = build(value, path + (spec.name,), next_on_path)
                        node.edges.append(ShapeEdge(spec.name, None, child_node))
                elif spec.role == "child_list":
                    members = getattr(obj, spec.slot)._items
                    node.list_lengths[spec.name] = len(members)
                    for index, member in enumerate(members):
                        child_node = build(
                            member, path + ((spec.name, index),), next_on_path
                        )
                        node.edges.append(ShapeEdge(spec.name, index, child_node))
            return node

        return cls(build(prototype, (), frozenset()))

    def node_at(self, path: Path) -> ShapeNode:
        """The shape node at ``path`` (raises when the path does not exist)."""
        try:
            return self._by_path[path]
        except KeyError:
            raise SpecializationError(f"shape has no node at path {path!r}")

    def paths(self) -> List[Path]:
        """Every node path, in preorder."""
        return [node.path for node in self.root.walk()]

    def node_count(self) -> int:
        return len(self._by_path)

    def matches(self, obj: Checkpointable) -> bool:
        """Structural conformance check used by guarded specialization."""
        try:
            other = Shape.of(obj)
        except (CycleError, SpecializationError):
            return False
        return self.describes(other)

    def describes(self, other: "Shape") -> bool:
        """True when ``other`` has the same classes and layout everywhere."""
        if set(self._by_path) != set(other._by_path):
            return False
        for path, node in self._by_path.items():
            peer = other._by_path[path]
            if node.cls is not peer.cls:
                return False
            if node.absent_children != peer.absent_children:
                return False
            if node.list_lengths != peer.list_lengths:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Shape({self.root.cls.__name__}, {self.node_count()} nodes)"
