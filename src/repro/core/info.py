"""Per-object checkpoint metadata (paper Figure 1, ``CheckpointInfo``).

The paper gives every checkpointable object a ``CheckpointInfo``: its
process-wide unique identifier and its modification flag. Here those
live in three slots of the object itself (declared by
:class:`~repro.core.checkpointable.Checkpointable`):

- ``_ckpt_id`` — the identifier;
- ``_ckpt_dirty`` — the modification flag, set by every field assignment
  (see :mod:`repro.core.fields`) and reset when the object's local state
  is recorded into a checkpoint;
- ``_ckpt_block`` — the dirtiness block the object belongs to, or None.

A separate header object would double the allocations of every graph.
:class:`CheckpointInfo` remains as the paper's interface type: a view
over those slots, built on demand and never stored.

On top of the paper's design, the flag doubles as the *block tier's*
change feed (see :mod:`repro.core.blocks`): when an object has been
assigned to a dirtiness block, every flag store also bumps that block's
generation counter and dirty bit (:func:`mark_modified`). Every
flag-setting site — field descriptors, :class:`~repro.core.fields.TrackedList`
mutations, ``set_all_flags``, ``restore_flags``,
:meth:`CheckpointInfo.set_modified` — performs that write barrier, so
the block tier inherits the paper's "no programmer effort" property.
"""

from __future__ import annotations

#: Generation counters wrap at the int32 boundary so they stay
#: representable in the wire/metadata formats; the per-block dirty *bit*
#: (which cannot wrap) is what makes the skip decision wrap-proof.
GENERATION_MASK = 0xFFFFFFFF

#: the header slots every checkpointable carries: identifier, flag, block
HEADER_SLOTS = ("_ckpt_id", "_ckpt_dirty", "_ckpt_block")


class _TopologyClock:
    """Process-wide counter of structural (parent/child edge) mutations.

    Block membership is a function of graph topology: an edge insertion or
    removal can move an object's first-preorder position to a different
    block. Rather than burden every edge write with per-tier bookkeeping,
    edge writes tick this clock and every
    :class:`~repro.core.blocks.BlockTier` re-partitions when the clock has
    moved since its last partition. Scalar writes never tick it, so the
    hot path (value mutation between commits) keeps its block skipping.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def tick(self) -> None:
        self.value += 1


TOPOLOGY_CLOCK = _TopologyClock()


def note_topology_change() -> None:
    """Record that a parent/child edge somewhere was created or removed."""
    TOPOLOGY_CLOCK.value += 1


def mark_modified(obj) -> None:
    """Set ``obj``'s modification flag: the write barrier, out of line.

    The flag store plus, when a :class:`~repro.core.blocks.BlockTier` has
    partitioned the object, its block's generation bump and dirty bit.
    Scalar field writes and :class:`~repro.core.fields.TrackedList`
    mutations, the hot paths, inline these same statements; every other
    flag-setting site (list and child field assignments, ``set_all_flags``,
    ``restore_flags``, :meth:`CheckpointInfo.set_modified`, block healing)
    calls this function.
    """
    obj._ckpt_dirty = True
    block = obj._ckpt_block
    if block is not None:
        block.generation = (block.generation + 1) & GENERATION_MASK
        block.dirty = True


def clear_modified(obj) -> None:
    """Clear ``obj``'s modification flag (a recorded or restored object)."""
    obj._ckpt_dirty = False


class CheckpointInfo:
    """The paper's per-object ``CheckpointInfo``, as a view of the header.

    The identifier, flag and block live in the checkpointable's own
    ``_ckpt_id``, ``_ckpt_dirty`` and ``_ckpt_block`` slots, so an object
    is one allocation. :meth:`~repro.core.checkpointable.Checkpointable.get_checkpoint_info`
    builds one of these views per call; nothing stores it, and every read
    and write goes straight through to the owner's slots.
    """

    __slots__ = ("_obj",)

    def __init__(self, obj) -> None:
        self._obj = obj

    @property
    def object_id(self) -> int:
        return self._obj._ckpt_id

    @property
    def modified(self) -> bool:
        return self._obj._ckpt_dirty

    @modified.setter
    def modified(self, value: bool) -> None:
        if value:
            mark_modified(self._obj)
        else:
            self._obj._ckpt_dirty = False

    def set_modified(self) -> None:
        """Mark the owning object as modified since the last checkpoint."""
        mark_modified(self._obj)

    def reset_modified(self) -> None:
        """Clear the flag, typically right after recording the object."""
        self._obj._ckpt_dirty = False

    def __eq__(self, other) -> bool:
        return isinstance(other, CheckpointInfo) and other._obj is self._obj

    def __hash__(self) -> int:
        return id(self._obj)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "modified" if self.modified else "clean"
        return f"CheckpointInfo(id={self.object_id}, {state})"
