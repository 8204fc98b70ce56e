"""The block dirtiness tier: differential change detection over object blocks.

The paper's modification flags make checkpoint *content* incremental, but
the flag scan itself still traverses every reachable object. Following the
application-level differential checkpointing of Keller & Bautista-Gomez,
this module adds a second, coarser dirtiness tier above the flags:

- the recorded object graph is *partitioned* into blocks — contiguous runs
  of session roots plus everything first reachable from them in the
  drivers' preorder traversal order;
- every flag store bumps the owning block's *generation counter* and
  *dirty bit* (the write barrier of :func:`~repro.core.info.mark_modified`,
  which every flag-setting site performs; an object's block is its
  ``_ckpt_block`` header slot);
- at commit, a block whose generation still equals its committed
  generation (and whose dirty bit is clear) provably contains no flagged
  object, so the whole run is skipped without traversal; the flag walk
  runs only inside dirty blocks.

Because a block is a contiguous run of the baseline traversal, skipping a
clean block elides exactly a stretch of traversal that would have written
zero bytes: the differential commit is *byte-identical* to the flag-walk
commit (pinned by the runtime byte-equivalence suite).

Soundness depends on block membership matching the baseline traversal's
first-reach order. Structural edge writes can move objects between
blocks, so every parent/child edge mutation ticks the process-wide
:data:`~repro.core.info.TOPOLOGY_CLOCK`; a tier whose partition predates
the latest tick re-partitions before trusting any generation counter.
Scalar writes never tick the clock, keeping the mutation-heavy hot path
fully skippable.

Generation counters wrap at 2**32 (:data:`~repro.core.info.GENERATION_MASK`)
to stay metadata-representable; the dirty *bit*, which cannot wrap, makes
the clean test immune to a counter that wraps exactly back to its
committed value.

Content hashes
--------------

Each block can additionally carry a ``(length, digest)`` fingerprint of
its members' full wire content:

- ``hash_mode="verify"``: generation-clean blocks are re-fingerprinted at
  commit; a mismatch means some mutation bypassed the flag protocol, and
  the tier *heals* by re-flagging the whole block (over-approximation,
  never silent loss).
- ``hash_mode="skip"``: flag-dirty blocks whose fingerprint is unchanged
  (e.g. a value written back to its previous state) are skipped and their
  flags cleared — a *restore-equivalent* but not byte-identical mode that
  trades hashing CPU for epoch bytes, exactly Keller's trade.

The fingerprint comparison always includes the content *length*, so even
a colliding digest cannot mask a size-changing mutation (the
hash-collision-fallback regression test pins this).
"""

from __future__ import annotations

import hashlib
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import CheckpointError
from repro.core.info import TOPOLOGY_CLOCK, mark_modified
from repro.core.streams import DataOutputStream

HASH_OFF = "off"
HASH_VERIFY = "verify"
HASH_SKIP = "skip"
HASH_MODES = (HASH_OFF, HASH_VERIFY, HASH_SKIP)

DEFAULT_BLOCK_SIZE = 64


def content_fingerprint(data: bytes) -> str:
    """Digest half of a block fingerprint (monkeypatched by collision tests)."""
    return hashlib.sha256(data).hexdigest()


class Block:
    """One contiguous run of roots plus its dirtiness metadata."""

    __slots__ = (
        "index",
        "roots",
        "generation",
        "committed_generation",
        "dirty",
        "content_length",
        "content_digest",
    )

    def __init__(self, index: int, roots: Sequence) -> None:
        self.index = index
        self.roots = list(roots)
        #: bumped (mod 2**32) by every member's ``modified = True`` store
        self.generation = 0
        #: :attr:`generation` as of the last commit that covered the block
        self.committed_generation = 0
        #: wrap-proof companion of the generation comparison
        self.dirty = True
        #: fingerprint of the members' full wire content (hash modes only)
        self.content_length = -1
        self.content_digest: Optional[str] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "dirty" if self.dirty else "clean"
        return (
            f"Block({self.index}, roots={len(self.roots)}, "
            f"gen={self.generation}/{self.committed_generation}, {state})"
        )


class BlockTier:
    """Partition of a root population into generation-counted blocks."""

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        hash_mode: str = HASH_OFF,
    ) -> None:
        if block_size < 1:
            raise CheckpointError(f"block_size must be >= 1, got {block_size}")
        if hash_mode not in HASH_MODES:
            raise CheckpointError(
                f"hash_mode must be one of {HASH_MODES}, got {hash_mode!r}"
            )
        self.block_size = block_size
        self.hash_mode = hash_mode
        self.blocks: List[Block] = []
        self._roots: Optional[List] = None
        self._topology_mark: Optional[int] = None
        #: cumulative counters, exposed through strategy/bench reporting
        self.repartitions = 0
        self.hash_fallbacks = 0

    # -- partitioning ------------------------------------------------------

    @property
    def partitioned(self) -> bool:
        return self._roots is not None

    def in_sync(self, roots: Sequence) -> bool:
        """True when the current partition is still trustworthy.

        Requires the same root objects (by identity — a restored graph
        reuses identifiers but not objects) in the same order, and no
        structural edge mutation anywhere since the partition was taken.
        """
        mine = self._roots
        if mine is None or self._topology_mark != TOPOLOGY_CLOCK.value:
            return False
        if len(mine) != len(roots):
            return False
        return all(a is b for a, b in zip(mine, roots))

    def partition(self, roots: Sequence) -> None:
        """(Re)build blocks over ``roots`` and assign membership.

        Membership is the block of an object's *first* reach in the
        drivers' preorder traversal — the position where the baseline
        flag walk would record it — so a generation bump always lands on
        a block whose walk covers the object. All blocks start dirty:
        the commit that follows a partition walks everything once to
        establish the committed baseline.
        """
        roots = list(roots)
        self.blocks = []
        seen = set()
        for index in range(0, max(len(roots), 1), self.block_size):
            run = roots[index : index + self.block_size]
            if not run and index > 0:
                break
            block = Block(len(self.blocks), run)
            self.blocks.append(block)
            for root in run:
                self._claim(root, block, seen)
        self._roots = roots
        self._topology_mark = TOPOLOGY_CLOCK.value
        self.repartitions += 1
        if self.hash_mode != HASH_OFF:
            for block in self.blocks:
                self.refresh_fingerprint(block)

    @staticmethod
    def _claim(root, block: Block, seen: set) -> None:
        stack = [root]
        while stack:
            obj = stack.pop()
            oid = obj._ckpt_id
            if oid in seen:
                continue
            seen.add(oid)
            obj._ckpt_block = block
            stack.extend(reversed(obj.children()))

    # -- the skip decision -------------------------------------------------

    def is_clean(self, block: Block) -> bool:
        """True when no member's flag was raised since the last commit."""
        return (
            not block.dirty
            and block.generation == block.committed_generation
        )

    def mark_committed(self, block: Block) -> None:
        """Adopt the block's current generation as the committed baseline."""
        block.committed_generation = block.generation
        block.dirty = False

    # -- content fingerprints ----------------------------------------------

    def members(self, block: Block) -> Iterator:
        """The block's members in baseline traversal (preorder) order."""
        seen = set()
        for root in block.roots:
            stack = [root]
            while stack:
                obj = stack.pop()
                oid = obj._ckpt_id
                if oid in seen:
                    continue
                seen.add(oid)
                if obj._ckpt_block is block:
                    yield obj
                stack.extend(reversed(obj.children()))

    def content_of(self, block: Block) -> bytes:
        """The members' full wire content (id | serial | record, preorder)."""
        out = DataOutputStream()
        for obj in self.members(block):
            out.write_int32(obj._ckpt_id)
            out.write_int32(obj._ckpt_serial)
            obj.record(out)
        return out.getvalue()

    def fingerprint_of(self, block: Block) -> Tuple[int, str]:
        data = self.content_of(block)
        return len(data), content_fingerprint(data)

    def refresh_fingerprint(self, block: Block) -> None:
        block.content_length, block.content_digest = self.fingerprint_of(block)

    def fingerprint_unchanged(self, block: Block) -> bool:
        """Compare content against the stored fingerprint (length first)."""
        if block.content_digest is None:
            return False
        length, digest = self.fingerprint_of(block)
        return length == block.content_length and digest == block.content_digest

    def heal(self, block: Block) -> int:
        """Re-flag every member (verify-mode response to a hash mismatch)."""
        count = 0
        for obj in self.members(block):
            mark_modified(obj)
            count += 1
        self.hash_fallbacks += 1
        return count

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        """Forget the partition (e.g. after a session restore/fork)."""
        self.blocks = []
        self._roots = None
        self._topology_mark = None

    def snapshot_state(self):
        """Capture all tier state a trial commit could disturb.

        :meth:`~repro.runtime.session.CheckpointSession.measure` runs a
        live strategy and must leave no trace; pair with
        :meth:`restore_state`.
        """
        return [
            (
                block.generation,
                block.committed_generation,
                block.dirty,
                block.content_length,
                block.content_digest,
            )
            for block in self.blocks
        ]

    def restore_state(self, state) -> None:
        for block, saved in zip(self.blocks, state):
            (
                block.generation,
                block.committed_generation,
                block.dirty,
                block.content_length,
                block.content_digest,
            ) = saved
