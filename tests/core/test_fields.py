"""Unit tests for field descriptors, flag discipline, and TrackedList."""

import pytest

from repro.core.errors import SchemaError
from repro.core.fields import TrackedList, child, scalar, scalar_list
from tests.conftest import Leaf, Mid, Root, build_root, make_class


class TestFlagDiscipline:
    def test_scalar_assignment_sets_flag(self):
        leaf = Leaf()
        leaf.get_checkpoint_info().modified = False
        leaf.value = 5
        assert leaf._ckpt_dirty

    def test_child_assignment_sets_parent_flag_only(self):
        mid = Mid()
        leaf = Leaf()
        mid.get_checkpoint_info().modified = False
        leaf.get_checkpoint_info().modified = False
        mid.leaf = leaf
        assert mid._ckpt_dirty
        assert not leaf._ckpt_dirty  # the child itself is untouched

    def test_read_does_not_set_flag(self):
        leaf = Leaf(value=3)
        leaf.get_checkpoint_info().modified = False
        _ = leaf.value
        _ = leaf.label
        assert not leaf._ckpt_dirty

    def test_same_value_rewrite_still_sets_flag(self):
        # The framework is conservative, like the paper's: any assignment
        # marks the object; analyses that want tighter flags compare first.
        leaf = Leaf(value=3)
        leaf.get_checkpoint_info().modified = False
        leaf.value = 3
        assert leaf._ckpt_dirty


class TestTrackedList:
    def _fresh(self):
        mid = Mid()
        mid.get_checkpoint_info().modified = False
        return mid

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda notes: notes.append(1),
            lambda notes: notes.extend([1, 2]),
            lambda notes: notes.insert(0, 9),
            lambda notes: notes.replace([5]),
            lambda notes: notes.clear(),
        ],
    )
    def test_mutations_set_owner_flag(self, mutate):
        mid = self._fresh()
        mutate(mid.notes)
        assert mid._ckpt_dirty

    def test_item_mutations(self):
        mid = self._fresh()
        mid.notes.extend([1, 2, 3])
        mid.get_checkpoint_info().modified = False
        mid.notes[1] = 9
        assert mid._ckpt_dirty
        mid.get_checkpoint_info().modified = False
        del mid.notes[0]
        assert mid._ckpt_dirty
        mid.get_checkpoint_info().modified = False
        assert mid.notes.pop() == 3
        assert mid._ckpt_dirty
        mid.get_checkpoint_info().modified = False
        mid.notes.remove(9)
        assert mid._ckpt_dirty
        mid.get_checkpoint_info().modified = False
        mid.notes.append(4)
        mid.notes.append(2)
        mid.notes.sort()
        assert mid._ckpt_dirty

    def test_reads_do_not_set_flag(self):
        mid = self._fresh()
        mid.notes.extend([3, 1])
        mid.get_checkpoint_info().modified = False
        assert len(mid.notes) == 2
        assert mid.notes[0] == 3
        assert 1 in mid.notes
        assert list(mid.notes) == [3, 1]
        assert mid.notes.as_list() == [3, 1]
        assert not mid._ckpt_dirty

    def test_equality(self):
        mid = self._fresh()
        mid.notes.extend([1, 2])
        assert mid.notes == [1, 2]
        other = Mid()
        other.notes.extend([1, 2])
        assert mid.notes == other.notes

    def test_assignment_wraps_plain_list(self):
        mid = Mid()
        mid.notes = [4, 5]
        assert isinstance(mid.notes, TrackedList)
        assert mid.notes.as_list() == [4, 5]


class TestSchemaConstruction:
    def test_schema_order_follows_declaration(self):
        names = [spec.name for spec in Root._ckpt_schema]
        assert names == ["name", "mid", "extra", "kids"]

    def test_inherited_fields_come_first(self):
        base = make_class("Base", value=scalar("int"))
        derived = make_class("Derived", (base,), extra=scalar("float"))
        names = [spec.name for spec in derived._ckpt_schema]
        assert names == [[s.name for s in base._ckpt_schema][0], "extra"]

    def test_shadowing_inherited_field_rejected(self):
        base = make_class("Base", value=scalar("int"))
        with pytest.raises(SchemaError, match="shadows"):
            make_class("Derived", (base,), value=scalar("int"))

    def test_underscore_field_rejected(self):
        with pytest.raises(SchemaError, match="underscore"):
            make_class("Bad", _hidden=scalar("int"))

    def test_bad_scalar_kind_rejected(self):
        with pytest.raises(SchemaError, match="scalar kind"):
            scalar("complex")
        with pytest.raises(SchemaError, match="scalar_list kind"):
            scalar_list("complex")

    def test_field_defaults(self):
        leaf = Leaf()
        assert leaf.value == 0
        assert leaf.weight == 0.0
        assert leaf.label == ""
        assert leaf.flag is False
        mid = Mid()
        assert mid.leaf is None
        assert mid.notes.as_list() == []

    def test_unknown_init_kwarg_rejected(self):
        with pytest.raises(SchemaError, match="no checkpointable field"):
            Leaf(nonexistent=1)


class TestFieldSpec:
    def test_spec_metadata(self):
        by_name = {spec.name: spec for spec in Root._ckpt_schema}
        assert by_name["name"].role == "scalar"
        assert by_name["name"].kind == "str"
        assert by_name["mid"].role == "child"
        assert by_name["kids"].role == "child_list"
        assert by_name["mid"].slot == "_f_mid"

    def test_descriptor_outside_class_rejected(self):
        descriptor = scalar("int")
        with pytest.raises(SchemaError):
            descriptor.spec()


def test_build_root_structure():
    root = build_root()
    assert root.mid.leaf.value == 7
    assert root.mid.notes.as_list() == [1, 2, 3]
    assert root.extra.label == "extra"
    assert [k.value for k in root.kids] == [0, 1]
