"""Automatic construction of specialization classes (paper section 7).

The paper's future work proposes "to automatically construct
specialization classes based on an analysis of the data modification
pattern of the program". This module implements the dynamic variant: a
:class:`PatternObserver` watches one or more representative runs of a
program phase, records *which positions of the structure actually got
dirty*, and derives the :class:`~repro.spec.modpattern.ModificationPattern`
— no programmer declaration needed.

Because an observed pattern is an under-approximation (a future run might
modify a position never seen dirty), auto-derived specializations default
to guarded compilation: a violation raises
:class:`~repro.core.errors.PatternViolationError` instead of silently
dropping data, and :meth:`AutoSpecializer.refine` folds the new
observation in and recompiles.

Typical use::

    observer = PatternObserver(shape)
    for _ in range(warmup_rounds):
        run_phase()
        observer.observe(root)        # record dirty positions, keep flags

    auto = AutoSpecializer(shape, observer, name="phase_ckpt")
    fn = auto.compiled()              # guarded specialized checkpointer
    while running:
        run_phase()
        try:
            fn(root, out)
        except PatternViolationError:
            fn = auto.refine(root)    # widen the pattern, recompile
            fn(root, out)
"""

from __future__ import annotations

from typing import Optional, Set

from repro.core.checkpointable import Checkpointable
from repro.spec.modpattern import ModificationPattern
from repro.spec.shape import Path, Shape, ShapeNode
from repro.spec.specclass import SpecClass, SpecializedCheckpointer


class PatternObserver:
    """Accumulates the set of positions seen modified across runs."""

    def __init__(self, shape: Shape) -> None:
        self.shape = shape
        self._seen_dirty: Set[Path] = set()
        self.observations = 0

    def observe(self, root: Checkpointable) -> int:
        """Record every currently-dirty position of ``root``.

        Flags are left untouched (observation happens *before* the
        checkpoint). Returns how many new positions this observation
        contributed.
        """
        before = len(self._seen_dirty)
        self._walk(root, self.shape.root)
        self.observations += 1
        return len(self._seen_dirty) - before

    def _walk(self, obj: Checkpointable, node: ShapeNode) -> None:
        if obj._ckpt_dirty:
            self._seen_dirty.add(node.path)
        for edge in node.edges:
            child = self._follow(obj, edge)
            if child is not None:
                self._walk(child, edge.node)

    @staticmethod
    def _follow(obj, edge):
        if edge.index is None:
            return getattr(obj, "_f_" + edge.field)
        items = getattr(obj, "_f_" + edge.field)._items
        if edge.index >= len(items):
            return None
        return items[edge.index]

    def seed(self, paths, count_as_observation: bool = True) -> int:
        """Pre-load positions from a static effect analysis.

        A statically inferred may-write set is a sound *over*-approximation,
        so seeding it lets :class:`AutoSpecStrategy` skip the generic
        first-commit observation round entirely: the derived pattern
        already covers everything the phase can touch, and the guarded
        routine only ever widens if the static facts were built for a
        different phase. Returns how many new positions were added.
        """
        known = set(self.shape.paths())
        before = len(self._seen_dirty)
        for path in paths:
            path = tuple(path)
            if path not in known:
                from repro.core.errors import SpecializationError

                raise SpecializationError(
                    f"cannot seed observer with {path!r}: not a position "
                    "of the observed shape"
                )
            self._seen_dirty.add(path)
        if count_as_observation:
            self.observations += 1
        return len(self._seen_dirty) - before

    def seen_dirty(self) -> Set[Path]:
        """Positions observed modified so far."""
        return set(self._seen_dirty)

    def pattern(self) -> ModificationPattern:
        """The modification pattern implied by the observations so far."""
        return ModificationPattern.only(self.shape, self._seen_dirty)

    def coverage(self) -> float:
        """Fraction of structure positions observed dirty (0.0-1.0)."""
        return len(self._seen_dirty) / self.shape.node_count()


class AutoSpecializer:
    """Derives and maintains a specialized checkpointer from observations."""

    def __init__(
        self,
        shape: Shape,
        observer: Optional[PatternObserver] = None,
        name: str = "auto_spec_checkpoint",
        guards: bool = True,
    ) -> None:
        self.shape = shape
        self.observer = observer or PatternObserver(shape)
        self.name = name
        self.guards = guards
        self._compiled: Optional[SpecializedCheckpointer] = None
        self.recompilations = 0

    @classmethod
    def from_static(
        cls,
        report,
        name: str = "auto_spec_checkpoint",
        guards: bool = True,
    ) -> "AutoSpecializer":
        """Warm-start from an :class:`~repro.spec.effects.analysis.EffectReport`.

        The observer is seeded with the report's may-write set, so the
        first commit already runs the derived (guarded) routine instead
        of observing generically — the hybrid of paper section 7's static
        and dynamic proposals.
        """
        observer = PatternObserver(report.shape)
        observer.seed(report.may_write)
        return cls(report.shape, observer, name=name, guards=guards)

    def compiled(self) -> SpecializedCheckpointer:
        """The current specialized checkpointer (compiling on first use)."""
        if self._compiled is None:
            self._compiled = self._compile()
        return self._compiled

    def _compile(self) -> SpecializedCheckpointer:
        self.recompilations += 1
        return SpecializedCheckpointer(
            SpecClass(
                self.shape,
                self.observer.pattern(),
                name=f"{self.name}_{self.recompilations}",
                guards=self.guards,
            )
        )

    def refine(self, root: Checkpointable) -> SpecializedCheckpointer:
        """Widen the pattern with ``root``'s current dirty set; recompile.

        Call this after a :class:`PatternViolationError`: the violating
        positions become part of the pattern, so the recompiled routine
        accepts (and records) them.
        """
        self.observer.observe(root)
        self._compiled = self._compile()
        return self._compiled
