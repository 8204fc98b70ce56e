"""Recovery: rebuilding object state from checkpoint streams.

A recovery line is a *base* checkpoint (normally a full checkpoint)
followed by zero or more *incremental* deltas. Restoration proceeds by

1. materializing a blank object for every identifier seen in a stream
   that is not already known (class serials in the entries say which
   class to instantiate), then
2. applying every entry's payload in stream order, resolving child
   references through the object table.

Because the paper's incremental traversal records a modified parent before
any newly-created children it references, each stream is processed in two
passes so that forward references resolve.

The resulting :class:`ObjectTable` maps identifiers to live objects; all
restored objects have their modification flag clear.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional

from repro.core.checkpointable import Checkpointable
from repro.core.errors import RestoreError
from repro.core.fields import FieldSpec
from repro.core.ids import DEFAULT_ALLOCATOR
from repro.core.registry import DEFAULT_REGISTRY, ClassRegistry
from repro.core.streams import DataInputStream


class ObjectTable:
    """Identifier → object map produced by restoration."""

    def __init__(self) -> None:
        self._objects: Dict[int, Checkpointable] = {}

    def __getitem__(self, object_id: int) -> Checkpointable:
        try:
            return self._objects[object_id]
        except KeyError:
            raise RestoreError(f"checkpoint references unknown object id {object_id}")

    def get(self, object_id: int) -> Optional[Checkpointable]:
        return self._objects.get(object_id)

    def add(self, obj: Checkpointable) -> None:
        self._objects[obj._ckpt_id] = obj

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def ids(self) -> Iterable[int]:
        return self._objects.keys()

    def objects(self) -> Iterable[Checkpointable]:
        return self._objects.values()

    def max_id(self) -> int:
        """Largest identifier in the table (−1 when empty)."""
        return max(self._objects, default=-1)


def _skip_payload(inp: DataInputStream, schema: List[FieldSpec]) -> None:
    """Advance ``inp`` past one payload without interpreting references."""
    for field in schema:
        if field.role == "scalar":
            _skip_scalar(inp, field.kind)
        elif field.role == "scalar_list":
            count = inp.read_int32()
            for _ in range(count):
                _skip_scalar(inp, field.kind)
        elif field.role == "child":
            inp.read_int32()
        else:  # child_list
            count = inp.read_int32()
            for _ in range(count):
                inp.read_int32()


def _skip_scalar(inp: DataInputStream, kind: str) -> None:
    if kind == "int":
        inp.read_int32()
    elif kind == "float":
        inp.read_float64()
    elif kind == "bool":
        inp.read_bool()
    else:
        inp.read_str()


def apply_stream(
    data: bytes,
    table: ObjectTable,
    registry: Optional[ClassRegistry] = None,
    serial_translation: Optional[Dict[int, int]] = None,
    base_offset: int = 0,
) -> int:
    """Apply one checkpoint stream to ``table`` (creating objects as needed).

    Returns the number of entries applied. Raises :class:`RestoreError`
    on truncation, unknown serials, or a class mismatch between an entry
    and an existing object.

    ``base_offset`` is this stream's position within the containing
    recovery line: decode errors report ``base_offset``-adjusted offsets,
    so that after a multi-epoch replay an fsck quarantine line points at
    the right record rather than an intra-record offset.
    """
    registry = registry or DEFAULT_REGISTRY

    # Pass 1: check entries, materialize blanks for unseen identifiers.
    inp = DataInputStream(data, base_offset)
    count = 0
    while not inp.at_eof:
        object_id = inp.read_int32()
        serial = inp.read_int32()
        if serial_translation is not None:
            try:
                serial = serial_translation[serial]
            except KeyError:
                raise RestoreError(f"class serial {serial} missing from manifest")
        cls = registry.class_for(serial)
        count += 1
        existing = table.get(object_id)
        if existing is None:
            table.add(cls._blank(object_id))
        elif type(existing) is not cls:
            raise RestoreError(
                f"object id {object_id} recorded as {cls.__name__} but the "
                f"table holds a {type(existing).__name__}"
            )
        _skip_payload(inp, registry.schema_of(cls))

    # Pass 2: apply payloads now that every referenced object can exist.
    # Pass 1 checked each entry's class against the table, so the id
    # alone finds the object; the serial is skipped.
    inp = DataInputStream(data, base_offset)
    for _ in range(count):
        obj = table[inp.read_int32()]
        inp.read_int32()
        obj.restore_local(inp, table)
        obj._ckpt_dirty = False
    return count


def restore_full(
    data: bytes,
    registry: Optional[ClassRegistry] = None,
    serial_translation: Optional[Dict[int, int]] = None,
) -> ObjectTable:
    """Rebuild an object table from a base (full) checkpoint."""
    table = ObjectTable()
    apply_stream(data, table, registry, serial_translation)
    DEFAULT_ALLOCATOR.advance_past(table.max_id())
    return table


def apply_incremental(
    table: ObjectTable,
    data: bytes,
    registry: Optional[ClassRegistry] = None,
    serial_translation: Optional[Dict[int, int]] = None,
    base_offset: int = 0,
) -> int:
    """Fold one incremental delta into an existing table; returns the
    number of entries applied."""
    applied = apply_stream(data, table, registry, serial_translation, base_offset)
    DEFAULT_ALLOCATOR.advance_past(table.max_id())
    return applied


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
    table = restore_full(base, registry, serial_translation)
    offset = len(base)
    for delta in deltas:
        apply_incremental(
            table, delta, registry, serial_translation, base_offset=offset
        )
        offset += len(delta)
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
