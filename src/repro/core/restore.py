"""Recovery: rebuilding object state from checkpoint streams.

A recovery line is a *base* checkpoint (normally a full checkpoint)
followed by zero or more *incremental* deltas. The state it stands for
is, per identifier, the payload of the newest record of that id. Replay
therefore walks the line newest-first and builds each object once:

1. *Index.* Every record's header is read and its class checked against
   the class already decided for its id (a mismatch is an error). The
   first record of an id in this walk wins: the object is materialized
   from ``cls.__new__`` and the three header slots, and its payload
   position is kept. Every payload, winner or superseded, is stepped
   over by the class's generated ``skip_packed`` (or by its fixed size),
   which checks lengths and booleans and so rejects truncated or garbled
   records anywhere in the line.
2. *Decode.* Each winning payload is decoded once by the class's
   generated ``restore_packed``: fused ``struct.unpack_from`` calls over
   the bytes, with child ids resolved through the now complete id table
   (forward references included).

Decode errors report offsets within the whole line (the epochs laid end
to end), so an fsck quarantine line points at the failing record. The
id allocator is advanced once per replay, past the largest id read.

The resulting :class:`ObjectTable` maps identifiers to live objects; all
restored objects have their modification flag clear.
"""

from __future__ import annotations

import gc
import hashlib
import struct
from array import array
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.checkpointable import Checkpointable
from repro.core.errors import RestoreError
from repro.core.ids import DEFAULT_ALLOCATOR
from repro.core.registry import DEFAULT_REGISTRY, ClassRegistry
from repro.core.streams import run_error

_HEADER = struct.Struct("<ii")
#: the header's fields, for :func:`~repro.core.streams.run_error`
_HEADER_FIELDS = ((4, False), (4, False))


def _unknown_id(object_id: int) -> RestoreError:
    return RestoreError(f"checkpoint references unknown object id {object_id}")


class ObjectTable:
    """Identifier → object map produced by restoration."""

    def __init__(self) -> None:
        self._objects: Dict[int, Checkpointable] = {}

    def __getitem__(self, object_id: int) -> Checkpointable:
        try:
            return self._objects[object_id]
        except KeyError:
            raise _unknown_id(object_id) from None

    def get(self, object_id: int) -> Optional[Checkpointable]:
        return self._objects.get(object_id)

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def ids(self) -> Iterable[int]:
        return self._objects.keys()

    def objects(self) -> Iterable[Checkpointable]:
        return self._objects.values()


def _apply_line(
    table: ObjectTable,
    streams: Sequence[bytes],
    registry: Optional[ClassRegistry],
    serial_translation: Optional[Dict[int, int]],
    base_offset: int = 0,
) -> int:
    """Fold ``streams`` (oldest first, laid end to end from
    ``base_offset``) into ``table``; returns the number of records read.

    Objects already in the table are decoded in place, so references to
    them from outside the line stay valid. Within one stream the first
    record of an id wins: a stream is one instant, so every record of an
    id in it carries the same state (a full checkpoint of a shared
    object records it once per path).
    """
    registry = registry or DEFAULT_REGISTRY
    objects = table._objects
    # ids decided by this line, in decision order; a fresh table takes
    # them directly
    found = objects if not objects else {}
    kinds: Dict[int, tuple] = {}  # raw serial -> (class, span, skip)

    def kind_of(serial: int) -> tuple:
        if serial_translation is not None:
            try:
                serial = serial_translation[serial]
            except KeyError:
                raise RestoreError(f"class serial {serial} missing from manifest")
        cls = registry.class_for(serial)
        return cls, cls._ckpt_span, cls.skip_packed

    offsets = [base_offset]
    for data in streams:
        offsets.append(offsets[-1] + len(data))
    new = object.__new__
    header = _HEADER.unpack_from
    records = 0
    top = -1
    winners: List[tuple] = []  # (stream, payload offsets), newest first
    was_enabled = gc.isenabled()
    gc.disable()  # the replay allocates only live objects: nothing to collect
    try:
        # Index: newest stream first, each stream front to back.
        for index in range(len(streams) - 1, -1, -1):
            data = streams[index]
            base = offsets[index]
            positions = array("I")  # 4 bytes per winner, no boxed ints
            n = len(data)
            p = 0
            while p < n:
                if p + 8 > n:
                    raise run_error(data, p, n, base, _HEADER_FIELDS)
                object_id, serial = header(data, p)
                try:
                    cls, span, skip = kinds[serial]
                except KeyError:
                    cls, span, skip = kinds[serial] = kind_of(serial)
                records += 1
                if object_id > top:
                    top = object_id
                if object_id in found:
                    decided = found[object_id]
                elif object_id in objects:
                    decided = found[object_id] = objects[object_id]
                    decided._ckpt_dirty = False
                    positions.append(p + 8)
                else:
                    decided = found[object_id] = new(cls)
                    decided._ckpt_id = object_id
                    decided._ckpt_dirty = False
                    decided._ckpt_block = None
                    positions.append(p + 8)
                if type(decided) is not cls:
                    raise RestoreError(
                        f"object id {object_id} recorded as {cls.__name__} but "
                        f"the table holds a {type(decided).__name__}"
                    )
                end = p + 8 + span
                if span < 0 or end > n:
                    end = skip(data, p + 8, n, base)
                p = end
            winners.append((data, positions))
        if found is not objects:
            objects.update(found)
        # Decode: every winner once, in the reverse of the order the index
        # decided them, so the base's offsets (usually the most) are the
        # first dropped.
        decided_objects = reversed(found.values())
        try:
            while winners:
                data, positions = winners.pop()
                for p, obj in zip(reversed(positions), decided_objects):
                    obj.restore_packed(data, p, objects)
        except KeyError as exc:
            raise _unknown_id(exc.args[0]) from None
    finally:
        if was_enabled:
            gc.enable()
    DEFAULT_ALLOCATOR.advance_past(top)
    return records


def restore_full(
    data: bytes,
    registry: Optional[ClassRegistry] = None,
    serial_translation: Optional[Dict[int, int]] = None,
) -> ObjectTable:
    """Rebuild an object table from a base (full) checkpoint."""
    return replay(data, (), registry, serial_translation)


def apply_incremental(
    table: ObjectTable,
    data: bytes,
    registry: Optional[ClassRegistry] = None,
    serial_translation: Optional[Dict[int, int]] = None,
    base_offset: int = 0,
) -> int:
    """Fold one incremental delta into an existing table; returns the
    number of entries applied.

    Objects the delta records that the table already holds are
    overwritten in place; the id allocator advances past the delta's ids.
    """
    return _apply_line(table, [data], registry, serial_translation, base_offset)


def replay(
    base: bytes,
    deltas: Iterable[bytes],
    registry: Optional[ClassRegistry] = None,
    serial_translation: Optional[Dict[int, int]] = None,
) -> ObjectTable:
    """Restore a full recovery line: base checkpoint plus deltas, in order.

    Epoch data is treated as one concatenated byte sequence for error
    reporting: a decode failure in the k-th delta names its offset within
    the whole line, so the failing record can be located directly.
    """
    table = ObjectTable()
    _apply_line(table, [base, *deltas], registry, serial_translation)
    return table


def replay_epochs(
    epochs: Iterable,
    registry: Optional[ClassRegistry] = None,
    serial_translation: Optional[Dict[int, int]] = None,
) -> ObjectTable:
    """Materialize the state at the end of a resolved base+delta chain.

    The generalization of :func:`replay` the epoch-lineage graph needs:
    ``epochs`` is any already-resolved chain of epoch records (anything
    with ``kind`` and ``data`` attributes, e.g. what
    ``Lineage.chain`` returns for an *arbitrary* epoch) whose first
    element is a full checkpoint and whose remainder are the
    incremental deltas down to the target epoch, oldest first.
    """
    chain = list(epochs)
    if not chain:
        raise RestoreError("cannot replay an empty epoch chain")
    for epoch in chain:
        if not hasattr(epoch, "data"):
            raise RestoreError(
                f"epoch {epoch.index} is a header without its payload; "
                "replay the store's recovery_line(), not its lineage()"
            )
    # Kind literals, not storage constants: importing storage here would
    # be circular (storage replays through this function).
    if chain[0].kind != "full":
        raise RestoreError(
            f"epoch chain must start at a full checkpoint, got "
            f"{chain[0].kind!r}"
        )
    for epoch in chain[1:]:
        if epoch.kind != "incremental":
            raise RestoreError(
                f"epoch chain continues with {epoch.kind!r} where an "
                "incremental delta was expected"
            )
    return replay(
        chain[0].data,
        [epoch.data for epoch in chain[1:]],
        registry,
        serial_translation,
    )


# ---------------------------------------------------------------------------
# State comparison helpers (used heavily by tests)
# ---------------------------------------------------------------------------


def state_digest(root: Checkpointable, include_ids: bool = False) -> str:
    """A stable digest of the reachable state (classes, values, topology)."""
    hasher = hashlib.sha256()
    for token in _state_tokens(root, include_ids):
        hasher.update(token.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


def _state_tokens(root: Checkpointable, include_ids: bool) -> Iterable[str]:
    # Iterative preorder walk; shared subobjects are emitted once and then
    # referenced by a local ordinal so that topology is part of the digest.
    ordinals: Dict[int, int] = {}
    stack: List[Checkpointable] = [root]
    while stack:
        obj = stack.pop()
        oid = obj._ckpt_id
        if oid in ordinals:
            yield f"ref:{ordinals[oid]}"
            continue
        ordinals[oid] = len(ordinals)
        yield f"obj:{type(obj).__qualname__}"
        if include_ids:
            yield f"id:{oid}"
        children: List[Checkpointable] = []
        for spec in obj._ckpt_schema:
            value = getattr(obj, spec.slot)
            if spec.role == "scalar":
                yield f"{spec.name}={value!r}"
            elif spec.role == "scalar_list":
                yield f"{spec.name}={value.as_list()!r}"
            elif spec.role == "child":
                if value is None:
                    yield f"{spec.name}=None"
                else:
                    yield f"{spec.name}:child"
                    children.append(value)
            else:  # child_list
                yield f"{spec.name}:children[{len(value)}]"
                children.extend(value._items)
        stack.extend(reversed(children))


def structurally_equal(
    a: Checkpointable, b: Checkpointable, compare_ids: bool = False
) -> bool:
    """True when two structures have identical classes, values and topology.

    With ``compare_ids=True`` object identifiers must match as well, which
    is the property restoration preserves.
    """
    return state_digest(a, compare_ids) == state_digest(b, compare_ids)
