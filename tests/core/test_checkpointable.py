"""Unit tests for Checkpointable: generated methods, registry, reflection tier."""

import pytest

from repro.core.checkpoint import Checkpoint, FullCheckpoint, reset_flags
from repro.core.checkpointable import (
    Checkpointable,
    reflective_fold,
    reflective_record,
)
from repro.core.errors import SchemaError
from repro.core.registry import DEFAULT_REGISTRY
from repro.core.restore import state_digest
from repro.core.streams import DataInputStream, DataOutputStream
from tests.conftest import Leaf, Mid, Root, build_root, make_class
from repro.core.fields import child, child_list, scalar


class TestGeneratedMethods:
    def test_methods_are_generated(self):
        assert getattr(Leaf.record, "__ckpt_generated__", False)
        assert getattr(Leaf.fold, "__ckpt_generated__", False)
        assert getattr(Leaf.restore_local, "__ckpt_generated__", False)
        assert "write_int32" in Leaf.record.__ckpt_source__

    def test_record_payload_layout(self):
        leaf = Leaf(value=5, weight=2.0, label="x", flag=True)
        out = DataOutputStream()
        leaf.record(out)
        inp = DataInputStream(out.getvalue())
        assert inp.read_int32() == 5
        assert inp.read_float64() == 2.0
        assert inp.read_str() == "x"
        assert inp.read_bool() is True
        assert inp.at_eof

    def test_record_child_writes_id_or_minus_one(self):
        mid = Mid()
        out = DataOutputStream()
        mid.record(out)
        inp = DataInputStream(out.getvalue())
        assert inp.read_int32() == -1  # absent child
        assert inp.read_int32() == 0  # empty notes list

        leaf = Leaf()
        mid.leaf = leaf
        out = DataOutputStream()
        mid.record(out)
        inp = DataInputStream(out.getvalue())
        assert inp.read_int32() == leaf._ckpt_info.object_id

    def test_fold_visits_children_in_schema_order(self):
        root = build_root(kid_count=2)
        visited = []

        class Collector:
            def checkpoint(self, obj):
                visited.append(obj)

        root.fold(Collector())
        assert visited == [root.mid, root.extra, root.kids[0], root.kids[1]]

    def test_fold_skips_absent_child(self):
        root = build_root(with_extra=False, kid_count=0)
        visited = []

        class Collector:
            def checkpoint(self, obj):
                visited.append(obj)

        root.fold(Collector())
        assert visited == [root.mid]

    def test_manual_override_is_respected(self):
        sentinel = []

        class Custom(Checkpointable):
            __qualname__ = "CustomOverride_tm"
            x = scalar("int")

            def record(self, out):  # noqa: D102 - test double
                sentinel.append("called")
                out.write_int32(self.x * 2)

        instance = Custom(x=3)
        out = DataOutputStream()
        instance.record(out)
        assert sentinel == ["called"]
        assert DataInputStream(out.getvalue()).read_int32() == 6


class TestReflectiveTier:
    def test_reflective_record_matches_generated(self, root):
        for obj in (root, root.mid, root.extra, root.mid.leaf):
            generated = DataOutputStream()
            obj.record(generated)
            reflective = DataOutputStream()
            reflective_record(obj, reflective)
            assert generated.getvalue() == reflective.getvalue()

    def test_reflective_fold_matches_generated(self, root):
        class Collector:
            def __init__(self):
                self.seen = []

            def checkpoint(self, obj):
                self.seen.append(obj._ckpt_info.object_id)

        generated, reflective = Collector(), Collector()
        root.fold(generated)
        reflective_fold(root, reflective)
        assert generated.seen == reflective.seen


class TestRegistry:
    def test_classes_registered_with_serials(self):
        assert Leaf in DEFAULT_REGISTRY
        assert Root in DEFAULT_REGISTRY
        assert DEFAULT_REGISTRY.class_for(Leaf._ckpt_serial) is Leaf
        assert Leaf._ckpt_serial != Root._ckpt_serial

    def test_name_collision_rejected(self):
        def define():
            class Collider(Checkpointable):
                __qualname__ = "StableColliderName"
                x = scalar("int")

            return Collider

        define()
        with pytest.raises(SchemaError, match="share the name"):
            define()

    def test_schema_lookup(self):
        schema = DEFAULT_REGISTRY.schema_of(Mid)
        assert [spec.name for spec in schema] == ["leaf", "notes"]

    def test_unregistered_class_raises(self):
        class NotCheckpointable:
            pass

        with pytest.raises(SchemaError):
            DEFAULT_REGISTRY.serial_of(NotCheckpointable)


class TestBlankAndChildren:
    def test_blank_bypasses_init(self):
        blank = Leaf._blank(777)
        assert blank._ckpt_info.object_id == 777
        assert not blank._ckpt_info.modified
        assert blank.value == 0

    def test_children_reflects_structure(self, root):
        assert root.children() == [root.mid, root.extra, root.kids[0], root.kids[1]]
        assert root.mid.children() == [root.mid.leaf]
        assert root.mid.leaf.children() == []

    def test_get_checkpoint_info(self):
        leaf = Leaf()
        assert leaf.get_checkpoint_info() is leaf._ckpt_info


class TestSlotLayout:
    """Instances are slot-backed: declared fields plus transient slots."""

    def test_instances_have_no_dict(self):
        root = build_root()
        for obj in (root, root.mid, root.mid.leaf, Leaf._blank(4242)):
            assert not hasattr(obj, "__dict__")
        assert Leaf.__slots__ == ("_f_value", "_f_weight", "_f_label", "_f_flag")

    def test_undeclared_attribute_raises(self):
        leaf = Leaf()
        with pytest.raises(AttributeError):
            leaf.colour = "red"

    def test_class_body_slot_is_transient(self):
        class CachedLeaf(Checkpointable):
            __qualname__ = "CachedLeaf_slots"
            __slots__ = ("cache",)
            value = scalar("int")

        assert [spec.name for spec in CachedLeaf._ckpt_schema] == ["value"]
        plain = CachedLeaf(value=3)
        cached = CachedLeaf(value=3)
        reset_flags(cached)
        cached.cache = {"anything": [1, 2]}
        assert not cached._ckpt_info.modified
        assert cached.cache == {"anything": [1, 2]}

        def full_bytes(obj):
            driver = FullCheckpoint()
            driver.checkpoint(obj)
            return driver.getvalue()[8:]  # payload after id | serial

        assert full_bytes(cached) == full_bytes(plain)
        assert state_digest(cached) == state_digest(plain)
        with pytest.raises(SchemaError, match="no checkpointable field"):
            CachedLeaf(cache=1)

    def test_hand_written_init_keeps_subclass_defaults(self):
        base = make_class("InitBase", a=scalar("int"))

        class InitDerived(base):
            __qualname__ = "InitDerived_slots"
            label = scalar("str")
            kids = child_list(Leaf)

            def __init__(self, a):
                super().__init__(a=a)

        instance = InitDerived(5)
        assert (instance.a, instance.label, list(instance.kids)) == (5, "", [])
        assert instance._ckpt_info.modified


class TestInheritance:
    def test_subclass_records_parent_fields_first(self):
        base = make_class("RecBase", a=scalar("int"))
        derived = make_class("RecDerived", (base,), b=scalar("int"))
        instance = derived(a=1, b=2)
        out = DataOutputStream()
        instance.record(out)
        inp = DataInputStream(out.getvalue())
        assert inp.read_int32() == 1  # inherited field first
        assert inp.read_int32() == 2

    def test_abstract_entry_class_with_no_fields(self):
        entry = make_class("EmptyEntry")
        instance = entry()
        out = DataOutputStream()
        instance.record(out)
        assert out.size == 0
        instance.fold(Checkpoint())  # no children: no-op

    def test_new_object_is_captured_by_next_incremental(self):
        root = build_root()
        reset_flags(root)
        fresh = Leaf(value=99)
        root.kids.append(fresh)  # sets root's flag; fresh is born modified
        driver = Checkpoint()
        driver.checkpoint(root)
        data = driver.getvalue()
        inp = DataInputStream(data)
        recorded_ids = []
        while not inp.at_eof:
            recorded_ids.append(inp.read_int32())
            serial = inp.read_int32()
            cls = DEFAULT_REGISTRY.class_for(serial)
            from repro.core.restore import _skip_payload

            _skip_payload(inp, DEFAULT_REGISTRY.schema_of(cls))
        assert root._ckpt_info.object_id in recorded_ids
        assert fresh._ckpt_info.object_id in recorded_ids
