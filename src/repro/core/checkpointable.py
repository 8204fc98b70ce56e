"""The :class:`Checkpointable` base class and per-class method generation.

This is the Python analog of the paper's ``Checkpointable`` interface plus
the preprocessor that systematically fills it in (section 2.2). Subclassing
:class:`Checkpointable` and declaring fields with
:func:`~repro.core.fields.scalar` / :func:`~repro.core.fields.child` etc. is
all a user does; at class-definition time the framework

1. gives the class a fixed ``__slots__`` layout (one ``_f_<name>`` slot
   per declared field, so instances carry no ``__dict__``),
2. flattens the field schema (inherited fields first, mirroring the
   ``super().record()`` call order of the paper's generated Java methods),
3. registers the class with the :mod:`~repro.core.registry`, and
4. generates and compiles ``record``, ``fold``, ``restore_local`` and
   ``_init_defaults`` methods specialized to the class schema.

The generated methods are exactly what the paper's preprocessor would
produce: straight-line code over the declared fields, invoked virtually by
the generic :class:`~repro.core.checkpoint.Checkpoint` driver. They are
*per-class* generic code — the per-structure, per-phase *specialized*
checkpointers of the paper are produced separately by :mod:`repro.spec`.

Wire format of one object entry (written by the drivers)::

    int32 object_id | int32 class_serial | payload per schema

with the payload encoding each field in schema order:

- scalar int/float/bool/str: the value
- scalar_list: int32 count, then the values
- child: int32 child id (−1 for None)
- child_list: int32 count, then the child ids
"""

from __future__ import annotations

import struct
from typing import Any, ClassVar, Dict, List, Optional

from repro.core.errors import SchemaError
from repro.core.fields import FieldSpec, TrackedList, _FieldDescriptor
from repro.core.ids import DEFAULT_ALLOCATOR
from repro.core.info import HEADER_SLOTS, CheckpointInfo
from repro.core.registry import DEFAULT_REGISTRY, ClassRegistry
from repro.core.streams import DataOutputStream

_WRITERS = {
    "int": "out.write_int32",
    "float": "out.write_float64",
    "bool": "out.write_bool",
    "str": "out.write_str",
}
_READERS = {
    "int": "inp.read_int32",
    "float": "inp.read_float64",
    "bool": "inp.read_bool",
    "str": "inp.read_str",
}
_DEFAULT_LITERALS = {"int": "0", "float": "0.0", "bool": "False", "str": "''"}


def _generate_record(schema: List[FieldSpec]) -> str:
    lines = ["def record(self, out):"]
    if not schema:
        lines.append("    pass")
        return "\n".join(lines)
    for field in schema:
        slot = f"self.{field.slot}"
        if field.role == "scalar":
            lines.append(f"    {_WRITERS[field.kind]}({slot})")
        elif field.role == "scalar_list":
            writer = _WRITERS[field.kind]
            lines.append(f"    _v = {slot}._items")
            lines.append("    out.write_int32(len(_v))")
            lines.append("    for _e in _v:")
            lines.append(f"        {writer}(_e)")
        elif field.role == "child":
            lines.append(f"    _c = {slot}")
            lines.append(
                "    out.write_int32(_c._ckpt_id if _c is not None else -1)"
            )
        elif field.role == "child_list":
            lines.append(f"    _v = {slot}._items")
            lines.append("    out.write_int32(len(_v))")
            lines.append("    for _c in _v:")
            lines.append("        out.write_int32(_c._ckpt_id)")
        else:  # pragma: no cover - guarded by field constructors
            raise SchemaError(f"unknown field role {field.role!r}")
    return "\n".join(lines)


def _generate_fold(schema: List[FieldSpec]) -> str:
    lines = ["def fold(self, ckpt):"]
    body: List[str] = []
    for field in schema:
        slot = f"self.{field.slot}"
        if field.role == "child":
            body.append(f"    _c = {slot}")
            body.append("    if _c is not None:")
            body.append("        ckpt.checkpoint(_c)")
        elif field.role == "child_list":
            body.append(f"    for _c in {slot}._items:")
            body.append("        ckpt.checkpoint(_c)")
    if not body:
        body = ["    pass"]
    return "\n".join(lines + body)


#: fixed-size wire pieces the packed codec can coalesce into one
#: ``struct.pack_into`` call: format char + byte size per scalar kind
_PACK_FIXED = {"int": ("i", 4), "float": ("d", 8), "bool": ("?", 1)}


def _generate_record_packed(schema: List[FieldSpec]) -> str:
    """Generate ``record_packed``: the batched ``pack_into`` twin of ``record``.

    Runs of consecutive fixed-size fields (int/float/bool scalars and
    child ids) become a single ``struct.pack_into`` with a fused format
    string; strings and lists are emitted through the
    :class:`~repro.core.streams.PackedEncoder` helpers. The bytes
    produced are exactly those of the generated ``record`` — the
    equivalence suite pins this per class.
    """
    lines = ["def record_packed(self, enc):"]
    if not schema:
        lines.append("    pass")
        return "\n".join(lines)
    pending: List[tuple] = []  # (fmt char, size, setup lines, value expr)
    temp_count = 0

    def flush() -> None:
        if not pending:
            return
        fmt = "<" + "".join(entry[0] for entry in pending)
        size = sum(entry[1] for entry in pending)
        for entry in pending:
            lines.extend(entry[2])
        exprs = ", ".join(entry[3] for entry in pending)
        lines.append(f"    buf = enc.ensure({size})")
        lines.append("    _p = enc.pos")
        lines.append(f"    _pack_into({fmt!r}, buf, _p, {exprs})")
        lines.append(f"    enc.pos = _p + {size}")
        pending.clear()

    for field in schema:
        slot = f"self.{field.slot}"
        if field.role == "scalar":
            if field.kind == "str":
                flush()
                lines.append(f"    enc.put_str({slot})")
            else:
                char, size = _PACK_FIXED[field.kind]
                pending.append((char, size, [], slot))
        elif field.role == "child":
            temp = f"_c{temp_count}"
            temp_count += 1
            pending.append(
                (
                    "i",
                    4,
                    [f"    {temp} = {slot}"],
                    f"({temp}._ckpt_id if {temp} is not None else -1)",
                )
            )
        elif field.role == "scalar_list":
            flush()
            lines.append(f"    _v = {slot}._items")
            lines.append("    _n = len(_v)")
            if field.kind == "str":
                lines.append("    enc.put_int32(_n)")
                lines.append("    for _e in _v:")
                lines.append("        enc.put_str(_e)")
            else:
                char, size = _PACK_FIXED[field.kind]
                lines.append(f"    buf = enc.ensure(4 + {size} * _n)")
                lines.append("    _p = enc.pos")
                lines.append("    _INT32.pack_into(buf, _p, _n)")
                lines.append("    if _n:")
                lines.append(f"        _pack_into('<%d{char}' % _n, buf, _p + 4, *_v)")
                lines.append(f"    enc.pos = _p + 4 + {size} * _n")
        elif field.role == "child_list":
            flush()
            lines.append(f"    _v = {slot}._items")
            lines.append("    _n = len(_v)")
            lines.append("    buf = enc.ensure(4 + 4 * _n)")
            lines.append("    _p = enc.pos")
            lines.append("    _INT32.pack_into(buf, _p, _n)")
            lines.append("    if _n:")
            lines.append(
                "        _pack_into('<%di' % _n, buf, _p + 4, "
                "*[_c._ckpt_id for _c in _v])"
            )
            lines.append("    enc.pos = _p + 4 + 4 * _n")
        else:  # pragma: no cover - guarded by field constructors
            raise SchemaError(f"unknown field role {field.role!r}")
    flush()
    return "\n".join(lines)


# When the class body supplies a hand-written ``record``, its bytes are
# authoritative: the packed path must reproduce them, so it routes through
# that method instead of the schema.
_RECORD_PACKED_FALLBACK = (
    "def record_packed(self, enc):\n"
    "    _tmp = _DataOutputStream()\n"
    "    self.record(_tmp)\n"
    "    enc.put_bytes(_tmp.getvalue())"
)


def _generate_restore_local(schema: List[FieldSpec]) -> str:
    lines = ["def restore_local(self, inp, table):"]
    if not schema:
        lines.append("    pass")
        return "\n".join(lines)
    for field in schema:
        slot = f"self.{field.slot}"
        if field.role == "scalar":
            lines.append(f"    {slot} = {_READERS[field.kind]}()")
        elif field.role == "scalar_list":
            reader = _READERS[field.kind]
            lines.append("    _n = inp.read_int32()")
            lines.append(
                f"    {slot} = TrackedList(self, [{reader}() for _ in range(_n)])"
            )
        elif field.role == "child":
            lines.append("    _cid = inp.read_int32()")
            lines.append(f"    {slot} = table[_cid] if _cid != -1 else None")
        elif field.role == "child_list":
            lines.append("    _n = inp.read_int32()")
            lines.append(
                f"    {slot} = TrackedList(self, "
                "[table[inp.read_int32()] for _ in range(_n)], topo=True)"
            )
    return "\n".join(lines)


def _generate_init_defaults(schema: List[FieldSpec]) -> str:
    lines = ["def _init_defaults(self):"]
    if not schema:
        lines.append("    pass")
        return "\n".join(lines)
    for field in schema:
        slot = f"self.{field.slot}"
        if field.role == "scalar":
            lines.append(f"    {slot} = {_DEFAULT_LITERALS[field.kind]}")
        elif field.role == "scalar_list":
            lines.append(f"    {slot} = TrackedList(self)")
        elif field.role == "child_list":
            lines.append(f"    {slot} = TrackedList(self, topo=True)")
        else:  # child
            lines.append(f"    {slot} = None")
    return "\n".join(lines)


_GENERATORS = {
    "record": _generate_record,
    "fold": _generate_fold,
    "restore_local": _generate_restore_local,
    "_init_defaults": _generate_init_defaults,
}


def _compile_method(cls_name: str, name: str, source: str):
    namespace: Dict[str, Any] = {
        "TrackedList": TrackedList,
        "_pack_into": struct.pack_into,
        "_INT32": struct.Struct("<i"),
        "_DataOutputStream": DataOutputStream,
    }
    code = compile(source, f"<ckpt-gen:{cls_name}.{name}>", "exec")
    exec(code, namespace)
    function = namespace[name]
    function.__ckpt_generated__ = True
    function.__ckpt_source__ = source
    return function


class _CheckpointableMeta(type):
    """Gives every checkpointable class a fixed ``__slots__`` layout.

    The slots of a class are the ``_f_<name>`` value slot of each field
    it declares itself, plus any names its body lists in ``__slots__``
    (transient attributes: never part of the schema, never recorded).
    Instances therefore carry no per-object ``__dict__``, the analog of
    the fixed field layout Java gives a class, and an assignment to an
    undeclared attribute raises :class:`AttributeError` instead of
    silently escaping the checkpoint.
    """

    def __new__(mcls, name, bases, namespace, **kwargs):
        transient = namespace.get("__slots__", ())
        if isinstance(transient, str):
            transient = (transient,)
        fields = tuple(
            "_f_" + attr
            for attr, value in namespace.items()
            if isinstance(value, _FieldDescriptor)
        )
        namespace["__slots__"] = tuple(transient) + fields
        return super().__new__(mcls, name, bases, namespace, **kwargs)


class Checkpointable(metaclass=_CheckpointableMeta):
    """Base class for every object that participates in checkpointing.

    Subclasses declare their state with the descriptors from
    :mod:`repro.core.fields`; everything else is generated. A freshly
    constructed object is marked modified, so the next incremental
    checkpoint records it in full (paper Figure 1).

    Construction accepts keyword arguments naming declared fields::

        e = SEEntry(reads=[1, 2], writes=[3])

    Instances are slot-backed (see :class:`_CheckpointableMeta`): declare
    checkpointed state as fields, and list transient per-instance state
    in the class body's ``__slots__``.

    The paper's per-object ``CheckpointInfo`` is folded into three header
    slots declared here (see :mod:`repro.core.info`): ``_ckpt_id``, the
    unique identifier; ``_ckpt_dirty``, the modification flag; and
    ``_ckpt_block``, the dirtiness block (None until a
    :class:`~repro.core.blocks.BlockTier` partitions the graph). An object
    is one allocation; :meth:`get_checkpoint_info` returns a view.
    """

    __slots__ = HEADER_SLOTS

    _ckpt_schema: ClassVar[List[FieldSpec]] = []
    _ckpt_serial: ClassVar[int] = -1
    _ckpt_registry: ClassVar[ClassRegistry]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)

        inherited = list(cls.__mro__[1]._ckpt_schema)
        taken = {spec.name for spec in inherited}
        own: List[FieldSpec] = []
        for name, value in list(vars(cls).items()):
            if isinstance(value, _FieldDescriptor):
                if name in taken:
                    raise SchemaError(
                        f"{cls.__name__}.{name} shadows an inherited "
                        "checkpointable field"
                    )
                if name.startswith("_"):
                    raise SchemaError(
                        f"checkpointable field {cls.__name__}.{name} must not "
                        "start with an underscore"
                    )
                own.append(value.spec())
                taken.add(name)
        cls._ckpt_schema = inherited + own

        registry = getattr(cls, "_ckpt_registry", None) or DEFAULT_REGISTRY
        cls._ckpt_registry = registry
        cls._ckpt_serial = registry.register(cls, cls._ckpt_schema)

        for method_name, generator in _GENERATORS.items():
            if method_name in vars(cls):
                continue  # the class body supplies its own implementation
            source = generator(cls._ckpt_schema)
            setattr(cls, method_name, _compile_method(cls.__name__, method_name, source))

        if "record_packed" not in vars(cls):
            # Schema-driven packed codegen is only valid when `record`
            # itself is the schema-generated method; a hand-written
            # `record` is authoritative, so the packed path replays it.
            record_fn = vars(cls).get("record")
            if record_fn is not None and not getattr(
                record_fn, "__ckpt_generated__", False
            ):
                source = _RECORD_PACKED_FALLBACK
            else:
                source = _generate_record_packed(cls._ckpt_schema)
            setattr(
                cls,
                "record_packed",
                _compile_method(cls.__name__, "record_packed", source),
            )

    def __init__(self, **field_values: Any) -> None:
        self._ckpt_id = DEFAULT_ALLOCATOR.allocate()
        self._ckpt_dirty = True
        self._ckpt_block = None
        self._init_defaults()
        if field_values:
            schema_names = {spec.name for spec in self._ckpt_schema}
            for name, value in field_values.items():
                if name not in schema_names:
                    raise SchemaError(
                        f"{type(self).__name__} has no checkpointable "
                        f"field {name!r}"
                    )
                setattr(self, name, value)

    # -- the paper's Checkpointable interface ------------------------------

    def get_checkpoint_info(self) -> CheckpointInfo:
        """The object's identifier + modification flag (paper Figure 1).

        A fresh view of the header slots on each call; it holds no state
        of its own.
        """
        return CheckpointInfo(self)

    #: Read-only alias of :meth:`get_checkpoint_info`, kept for callers
    #: written against the separate-header layout; nothing is stored.
    _ckpt_info = property(get_checkpoint_info)

    def record(self, out) -> None:  # pragma: no cover - replaced per class
        """Record the complete local state into ``out`` (generated)."""
        raise NotImplementedError

    def record_packed(self, enc) -> None:  # pragma: no cover - replaced
        """Record the local state into a :class:`PackedEncoder` (generated).

        Byte-identical to :meth:`record`, but written with batched
        ``struct.pack_into`` calls against the encoder's preallocated
        buffer instead of per-field stream method calls.
        """
        raise NotImplementedError

    def fold(self, ckpt) -> None:  # pragma: no cover - replaced per class
        """Recursively apply ``ckpt.checkpoint`` to each child (generated)."""
        raise NotImplementedError

    def restore_local(self, inp, table) -> None:  # pragma: no cover
        """Read the local state back from ``inp`` (generated)."""
        raise NotImplementedError

    def _init_defaults(self) -> None:  # pragma: no cover - replaced per class
        pass

    # -- framework helpers --------------------------------------------------

    @classmethod
    def _blank(cls, object_id: int) -> "Checkpointable":
        """An uninitialized instance used by restore (bypasses ``__init__``)."""
        obj = cls.__new__(cls)
        obj._ckpt_id = object_id
        obj._ckpt_dirty = False
        obj._ckpt_block = None
        obj._init_defaults()
        return obj

    def children(self) -> List["Checkpointable"]:
        """All non-None child objects, in schema order (reflective)."""
        found: List[Checkpointable] = []
        for spec in self._ckpt_schema:
            if spec.role == "child":
                value = getattr(self, spec.slot)
                if value is not None:
                    found.append(value)
            elif spec.role == "child_list":
                found.extend(getattr(self, spec.slot)._items)
        return found

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} id={self._ckpt_id}>"


def reflective_record(obj: Checkpointable, out) -> None:
    """Schema-walking implementation of ``record`` (the reflection tier).

    Functionally identical to the generated per-class method, but driven by
    run-time schema interpretation — the analog of Java serialization's
    run-time reflection, kept as the slowest baseline (paper section 6).
    """
    for spec in obj._ckpt_schema:
        value = getattr(obj, spec.slot)
        if spec.role == "scalar":
            _write_scalar(out, spec.kind, value)
        elif spec.role == "scalar_list":
            out.write_int32(len(value._items))
            for element in value._items:
                _write_scalar(out, spec.kind, element)
        elif spec.role == "child":
            out.write_int32(value._ckpt_id if value is not None else -1)
        else:  # child_list
            out.write_int32(len(value._items))
            for element in value._items:
                out.write_int32(element._ckpt_id)


def reflective_fold(obj: Checkpointable, ckpt) -> None:
    """Schema-walking implementation of ``fold`` (the reflection tier)."""
    for spec in obj._ckpt_schema:
        if spec.role == "child":
            value = getattr(obj, spec.slot)
            if value is not None:
                ckpt.checkpoint(value)
        elif spec.role == "child_list":
            for element in getattr(obj, spec.slot)._items:
                ckpt.checkpoint(element)


def _write_scalar(out, kind: Optional[str], value: Any) -> None:
    if kind == "int":
        out.write_int32(value)
    elif kind == "float":
        out.write_float64(value)
    elif kind == "bool":
        out.write_bool(value)
    else:
        out.write_str(value)
