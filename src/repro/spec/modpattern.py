"""Modification-pattern facts (the paper's second specialization input).

A :class:`ModificationPattern` declares, for one :class:`~repro.spec.shape.Shape`
and one program phase, which positions of the structure *may* be modified
between checkpoints. The specializer uses it to

- fold the ``if info.modified`` test to false at quiescent positions
  (eliminating the record block), and
- skip the traversal of subtrees in which *no* position may be modified
  (eliminating the visit entirely — the paper's biggest win).

The paper's synthetic evaluation (section 5) uses three families of
patterns, all constructible here:

- everything may be modified (:meth:`ModificationPattern.all_dynamic`),
- only some of the lists may contain modified elements
  (:meth:`ModificationPattern.restricted_to_lists`),
- a modified object may only occur at specific positions within each list,
  e.g. the last element (:meth:`ModificationPattern.last_element_of_lists`).

Declaring a pattern is a programmer promise, exactly as in the paper;
guarded specialization (``guards=True``) verifies it at run time.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional

from repro.core.errors import SpecializationError
from repro.spec.shape import Path, Shape, ShapeNode


class ModificationPattern:
    """The set of structure positions that may be modified in a phase."""

    def __init__(self, shape: Shape, may_modify: Optional[Iterable[Path]] = None) -> None:
        self.shape = shape
        all_paths = set(shape.paths())
        if may_modify is None:
            self._may_modify: FrozenSet[Path] = frozenset(all_paths)
        else:
            requested = frozenset(may_modify)
            unknown = requested - all_paths
            if unknown:
                raise SpecializationError(
                    f"pattern names paths missing from the shape: {sorted(unknown)!r}"
                )
            self._may_modify = requested
        self._subtree_cache: Dict[Path, bool] = {}

    # -- constructors --------------------------------------------------------

    @classmethod
    def all_dynamic(cls, shape: Shape) -> "ModificationPattern":
        """No quiescence facts: every position may be modified."""
        return cls(shape, None)

    @classmethod
    def none_modified(cls, shape: Shape) -> "ModificationPattern":
        """Fully quiescent structure (checkpointing it is a no-op)."""
        return cls(shape, ())

    @classmethod
    def only(cls, shape: Shape, paths: Iterable[Path]) -> "ModificationPattern":
        """Exactly the given positions may be modified."""
        return cls(shape, paths)

    @classmethod
    def subtrees(cls, shape: Shape, prefixes: Iterable[Path]) -> "ModificationPattern":
        """Every position at or below one of the given paths may be modified."""
        prefixes = [tuple(p) for p in prefixes]
        selected: List[Path] = []
        for path in shape.paths():
            if any(path[: len(prefix)] == prefix for prefix in prefixes):
                selected.append(path)
        if prefixes and not selected:
            raise SpecializationError(
                f"no shape position lies under any of {prefixes!r}"
            )
        return cls(shape, selected)

    @classmethod
    def restricted_to_lists(
        cls, shape: Shape, list_fields: Iterable[str]
    ) -> "ModificationPattern":
        """Only elements of the named root list fields may be modified.

        ``list_fields`` names ``child`` fields of the root that head linked
        lists (the synthetic benchmark's layout) or ``child_list`` fields.
        """
        prefixes: List[Path] = []
        for field in list_fields:
            prefixes.extend(cls._root_list_prefixes(shape, field))
        return cls.subtrees(shape, prefixes)

    @classmethod
    def last_element_of_lists(
        cls, shape: Shape, list_fields: Iterable[str]
    ) -> "ModificationPattern":
        """Only the *last* element of each named list may be modified.

        This is the paper's strongest pattern (Figure 10): traversal of a
        whole list collapses to a direct access of its final element.
        """
        selected: List[Path] = []
        for field in list_fields:
            for prefix in cls._root_list_prefixes(shape, field):
                selected.append(cls._deepest_under(shape, prefix))
        return cls(shape, selected)

    @staticmethod
    def _root_list_prefixes(shape: Shape, field: str) -> List[Path]:
        root = shape.root
        if field in root.list_lengths:
            return [
                (p,)
                for p in ((field, i) for i in range(root.list_lengths[field]))
            ]
        if field in root.absent_children:
            return []
        root.edge(field)  # raises SpecializationError when the field is unknown
        return [(field,)]

    @staticmethod
    def _deepest_under(shape: Shape, prefix: Path) -> Path:
        """The longest path extending ``prefix`` (tail of a linked list)."""
        best = prefix
        for path in shape.paths():
            if path[: len(prefix)] == prefix and len(path) > len(best):
                best = path
        return best

    def widened(self, extra: Iterable[Path]) -> "ModificationPattern":
        """A new pattern additionally allowing modification of ``extra``.

        Patterns are immutable (``_may_modify`` is a frozenset and the lazy
        ``_subtree_cache`` only memoizes facts derived from it), so widening
        always builds a fresh pattern — and therefore a fresh cache — rather
        than mutating this one. :class:`~repro.spec.autospec.AutoSpecializer`
        and the soundness checker rely on this to never see stale subtree
        facts after a refinement.
        """
        return ModificationPattern(self.shape, self._may_modify | set(extra))

    # -- queries ---------------------------------------------------------------

    def node_may_be_modified(self, node: ShapeNode) -> bool:
        """May the object at this position itself be dirty?"""
        return node.path in self._may_modify

    def subtree_may_be_modified(self, node: ShapeNode) -> bool:
        """May *any* object in this subtree be dirty?

        When false, specialization removes the entire traversal of the
        subtree from the residual program.
        """
        cached = self._subtree_cache.get(node.path)
        if cached is not None:
            return cached
        result = node.path in self._may_modify or any(
            self.subtree_may_be_modified(edge.node) for edge in node.edges
        )
        self._subtree_cache[node.path] = result
        return result

    def may_modify_paths(self) -> FrozenSet[Path]:
        """The declared set of possibly-modified positions."""
        return self._may_modify

    def skipped_subtrees(self) -> List[Path]:
        """Roots of the maximal quiescent subtrees specialization elides.

        Each returned path heads a subtree in which no position may be
        modified: the compiled routine skips its entire traversal (the
        paper's biggest win). Nested quiescent positions are not listed
        separately — only the outermost skip points.
        """
        skipped: List[Path] = []
        stack: List[ShapeNode] = [self.shape.root]
        while stack:
            node = stack.pop()
            if not self.subtree_may_be_modified(node):
                skipped.append(node.path)
            else:
                stack.extend(edge.node for edge in node.edges)
        return sorted(skipped, key=repr)

    def quiescent_paths(self) -> List[Path]:
        """Positions declared never modified, in preorder."""
        return [p for p in self.shape.paths() if p not in self._may_modify]

    def validate_against(self, root) -> List[Path]:
        """Paths whose live object violates the pattern (dirty but quiescent).

        Used by tests and by guarded mode diagnostics; an empty list means
        the live structure conforms.
        """
        violations: List[Path] = []

        def visit(obj, node: ShapeNode) -> None:
            if obj._ckpt_dirty and not self.node_may_be_modified(node):
                violations.append(node.path)
            for edge in node.edges:
                child = self._follow(obj, edge)
                if child is not None:
                    visit(child, edge.node)

        visit(root, self.shape.root)
        return violations

    @staticmethod
    def _follow(obj, edge):
        if edge.index is None:
            return getattr(obj, "_f_" + edge.field)
        items = getattr(obj, "_f_" + edge.field)._items
        if edge.index >= len(items):
            return None
        return items[edge.index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        total = self.shape.node_count()
        live = len(self._may_modify)
        return f"ModificationPattern({live}/{total} positions may be modified)"
