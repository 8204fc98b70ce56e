"""Field declarations for checkpointable classes.

The paper's preprocessor systematically adds checkpointing code to each
class (section 2.2). Here the same role is played by field descriptors:
a checkpointable class declares its state as

.. code-block:: python

    class BTEntry(Entry):
        bt = child(BT)

    class SEEntry(Entry):
        reads = scalar_list("int")
        writes = scalar_list("int")

and the framework derives, per class, the wire schema and the generated
``record``/``fold``/``restore_local`` methods. Every assignment through a
descriptor sets the owner's modification flag, which is what makes the
incremental checkpoints of the paper safe without any programmer effort.
That write barrier is :func:`repro.core.info.mark_modified`: the flag
store on the owner's ``_ckpt_dirty`` slot plus, once the owner is
partitioned, its block's generation bump. Scalar writes and
:class:`TrackedList` mutations, the hot paths, inline it.

Field kinds
-----------

``scalar(kind)``
    A value of base type; ``kind`` is one of ``"int"``, ``"float"``,
    ``"bool"``, ``"str"``. Recorded inline.
``scalar_list(kind)``
    A mutable sequence of base-type values, recorded wholesale
    (length-prefixed). Mutations through the returned
    :class:`TrackedList` set the owner's flag.
``child(cls=None)``
    A reference to another checkpointable object (or ``None``). Recorded
    as the child's unique identifier; traversed by ``fold``.
``child_list(cls=None)``
    A mutable sequence of checkpointable children. Recorded as a
    length-prefixed identifier list; each element is traversed by ``fold``.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional

from repro.core.errors import SchemaError
from repro.core.info import GENERATION_MASK, mark_modified, note_topology_change

SCALAR_KINDS = ("int", "float", "bool", "str")

_DEFAULTS = {"int": 0, "float": 0.0, "bool": False, "str": ""}


class TrackedList:
    """A list that marks its owning checkpointable object modified on mutation.

    Only the mutating subset of the ``list`` API is intercepted; reads are
    delegated to the underlying list.
    """

    __slots__ = ("_items", "_owner", "_topo")

    def __init__(
        self,
        owner: Any,
        items: Optional[Iterable[Any]] = None,
        topo: bool = False,
    ) -> None:
        self._owner = owner
        self._items = list(items) if items is not None else []
        #: True for child lists: their mutations change graph topology,
        #: which invalidates block-tier partitions (see repro.core.blocks)
        self._topo = topo

    # -- mutation (sets the owner's flag) ---------------------------------

    def _touch(self) -> None:
        owner = self._owner
        if owner is not None:
            owner._ckpt_dirty = True
            block = owner._ckpt_block
            if block is not None:
                block.generation = (block.generation + 1) & GENERATION_MASK
                block.dirty = True
        if self._topo:
            note_topology_change()

    def append(self, item: Any) -> None:
        self._items.append(item)
        self._touch()

    def extend(self, items: Iterable[Any]) -> None:
        self._items.extend(items)
        self._touch()

    def insert(self, index: int, item: Any) -> None:
        self._items.insert(index, item)
        self._touch()

    def remove(self, item: Any) -> None:
        self._items.remove(item)
        self._touch()

    def pop(self, index: int = -1) -> Any:
        value = self._items.pop(index)
        self._touch()
        return value

    def clear(self) -> None:
        self._items.clear()
        self._touch()

    def sort(self, **kwargs: Any) -> None:
        self._items.sort(**kwargs)
        self._touch()

    def __setitem__(self, index: Any, value: Any) -> None:
        self._items[index] = value
        self._touch()

    def __delitem__(self, index: Any) -> None:
        del self._items[index]
        self._touch()

    def replace(self, items: Iterable[Any]) -> None:
        """Replace the whole contents in one mutation."""
        self._items[:] = items
        self._touch()

    # -- reads (no flag) ---------------------------------------------------

    def __getitem__(self, index: Any) -> Any:
        return self._items[index]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: Any) -> bool:
        return item in self._items

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, TrackedList):
            return self._items == other._items
        return self._items == other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TrackedList({self._items!r})"

    def as_list(self) -> list:
        """A plain-list copy of the contents."""
        return list(self._items)


class FieldSpec:
    """Schema entry: one declared field of a checkpointable class."""

    __slots__ = ("name", "role", "kind", "slot")

    def __init__(self, name: str, role: str, kind: Optional[str]) -> None:
        self.name = name
        #: one of "scalar", "scalar_list", "child", "child_list"
        self.role = role
        #: scalar kind for scalar/scalar_list fields, else None
        self.kind = kind
        #: instance attribute the value lives under
        self.slot = "_f_" + name

    @property
    def default(self) -> Any:
        if self.role == "scalar":
            return _DEFAULTS[self.kind]
        return None  # lists and children are built per instance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = f", kind={self.kind}" if self.kind else ""
        return f"FieldSpec({self.name!r}, role={self.role}{kind})"


class _FieldDescriptor:
    """Base descriptor: stores the value on the instance, flags the owner."""

    role = ""

    def __init__(self, kind: Optional[str] = None) -> None:
        self.kind = kind
        self.name = None  # filled in by __set_name__
        self.slot = None

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name
        self.slot = "_f_" + name

    def spec(self) -> FieldSpec:
        if self.name is None:
            raise SchemaError("field descriptor used outside a class body")
        return FieldSpec(self.name, self.role, self.kind)

    def __get__(self, instance: Any, owner: Optional[type] = None) -> Any:
        if instance is None:
            return self
        return getattr(instance, self.slot)

    def __set__(self, instance: Any, value: Any) -> None:
        setattr(instance, self.slot, value)
        instance._ckpt_dirty = True
        block = instance._ckpt_block
        if block is not None:
            block.generation = (block.generation + 1) & GENERATION_MASK
            block.dirty = True


class _Scalar(_FieldDescriptor):
    role = "scalar"

    def __init__(self, kind: str) -> None:
        if kind not in SCALAR_KINDS:
            raise SchemaError(
                f"scalar kind must be one of {SCALAR_KINDS}, got {kind!r}"
            )
        super().__init__(kind)


class _ScalarList(_FieldDescriptor):
    role = "scalar_list"

    def __init__(self, kind: str) -> None:
        if kind not in SCALAR_KINDS:
            raise SchemaError(
                f"scalar_list kind must be one of {SCALAR_KINDS}, got {kind!r}"
            )
        super().__init__(kind)

    def __set__(self, instance: Any, value: Any) -> None:
        if not isinstance(value, TrackedList) or value._owner is not instance:
            value = TrackedList(instance, value)
        setattr(instance, self.slot, value)
        mark_modified(instance)


class _Child(_FieldDescriptor):
    role = "child"

    def __init__(self, cls: Optional[type] = None) -> None:
        super().__init__(None)
        #: optional declared class, used only for documentation/validation
        self.declared_class = cls

    def __set__(self, instance: Any, value: Any) -> None:
        old = getattr(instance, self.slot, None)
        setattr(instance, self.slot, value)
        mark_modified(instance)
        if value is not old and (old is not None or value is not None):
            note_topology_change()


class _ChildList(_FieldDescriptor):
    role = "child_list"

    def __init__(self, cls: Optional[type] = None) -> None:
        super().__init__(None)
        self.declared_class = cls

    def __set__(self, instance: Any, value: Any) -> None:
        if not isinstance(value, TrackedList) or value._owner is not instance:
            value = TrackedList(instance, value, topo=True)
        else:
            value._topo = True
        setattr(instance, self.slot, value)
        mark_modified(instance)
        note_topology_change()


def scalar(kind: str) -> _Scalar:
    """Declare a base-type field (``"int"``, ``"float"``, ``"bool"``, ``"str"``)."""
    return _Scalar(kind)


def scalar_list(kind: str) -> _ScalarList:
    """Declare a mutable list of base-type values."""
    return _ScalarList(kind)


def child(cls: Optional[type] = None) -> _Child:
    """Declare a reference to another checkpointable object (or ``None``)."""
    return _Child(cls)


def child_list(cls: Optional[type] = None) -> _ChildList:
    """Declare a mutable list of checkpointable children."""
    return _ChildList(cls)
