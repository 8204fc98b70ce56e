"""Unit tests for the checkpoint drivers (paper Figure 1 semantics)."""

import pytest

from repro.core.checkpoint import (
    CheckingCheckpoint,
    Checkpoint,
    FullCheckpoint,
    ReflectiveCheckpoint,
    collect_objects,
    reset_flags,
    set_all_flags,
)
from repro.core.errors import CycleError
from repro.core.streams import DataInputStream
from tests.conftest import Leaf, Mid, build_root, make_class
from repro.core.fields import child


def _entry_ids(data: bytes):
    """Object ids recorded in a checkpoint stream, in order."""
    from repro.core.registry import DEFAULT_REGISTRY
    from repro.core.restore import _skip_payload

    inp = DataInputStream(data)
    ids = []
    while not inp.at_eof:
        ids.append(inp.read_int32())
        cls = DEFAULT_REGISTRY.class_for(inp.read_int32())
        _skip_payload(inp, DEFAULT_REGISTRY.schema_of(cls))
    return ids


class TestIncremental:
    def test_fresh_structure_fully_recorded(self, root):
        driver = Checkpoint()
        driver.checkpoint(root)
        recorded = _entry_ids(driver.getvalue())
        expected = [o._ckpt_id for o in collect_objects(root)]
        assert sorted(recorded) == sorted(expected)

    def test_flags_cleared_after_checkpoint(self, root):
        driver = Checkpoint()
        driver.checkpoint(root)
        assert all(not o._ckpt_dirty for o in collect_objects(root))

    def test_second_checkpoint_is_empty(self, root):
        Checkpoint().checkpoint(root)
        driver = Checkpoint()
        driver.checkpoint(root)
        assert driver.size == 0

    def test_only_modified_objects_recorded(self, clean_root):
        clean_root.mid.leaf.value = 99
        driver = Checkpoint()
        driver.checkpoint(clean_root)
        recorded = _entry_ids(driver.getvalue())
        assert recorded == [clean_root.mid.leaf._ckpt_id]

    def test_traversal_order_is_preorder(self, root):
        driver = Checkpoint()
        driver.checkpoint(root)
        recorded = _entry_ids(driver.getvalue())
        expected = [o._ckpt_id for o in collect_objects(root)]
        assert recorded == expected

    def test_shared_subobject_recorded_once(self):
        # A DAG: the same leaf reachable through two parents. The first
        # visit records and clears the flag; the second records nothing.
        holder_cls = make_class("Holder", a=child(Leaf), b=child(Leaf))
        shared = Leaf(value=1)
        holder = holder_cls(a=shared, b=shared)
        driver = Checkpoint()
        driver.checkpoint(holder)
        recorded = _entry_ids(driver.getvalue())
        assert recorded.count(shared._ckpt_id) == 1


class TestFull:
    def test_records_everything_regardless_of_flags(self, clean_root):
        driver = FullCheckpoint()
        driver.checkpoint(clean_root)
        recorded = _entry_ids(driver.getvalue())
        expected = [o._ckpt_id for o in collect_objects(clean_root)]
        assert recorded == expected

    def test_full_resets_flags_to_base_a_chain(self, root):
        FullCheckpoint().checkpoint(root)
        follow_up = Checkpoint()
        follow_up.checkpoint(root)
        assert follow_up.size == 0

    def test_full_larger_than_incremental_on_partial_modification(self, clean_root):
        clean_root.extra.value = 5
        incremental = Checkpoint()
        incremental.checkpoint(clean_root)
        clean_root.extra.value = 5
        full = FullCheckpoint()
        full.checkpoint(clean_root)
        assert full.size > incremental.size


class TestReflective:
    def test_bytes_identical_to_generated_driver(self, root):
        import copy

        twin = build_root()
        # Align ids by construction order: rebuild both from scratch with
        # the same flag state instead; simplest: same structure, fresh.
        generated = Checkpoint()
        generated.checkpoint(root)
        reflective = ReflectiveCheckpoint()
        reflective.checkpoint(twin)
        # ids differ between the two structures, so compare shapes:
        assert len(generated.getvalue()) == len(reflective.getvalue())

    def test_reflective_resets_flags(self, root):
        ReflectiveCheckpoint().checkpoint(root)
        assert all(not o._ckpt_dirty for o in collect_objects(root))


class TestCycleDetection:
    def test_cycle_raises(self):
        node_cls = make_class("CycleNode", next=child())
        a = node_cls()
        b = node_cls()
        a.next = b
        b.next = a
        with pytest.raises(CycleError):
            CheckingCheckpoint().checkpoint(a)

    def test_acyclic_passes_and_matches_plain_driver(self, root):
        checking = CheckingCheckpoint()
        checking.checkpoint(root)
        assert len(checking.getvalue()) > 0

    def test_self_cycle(self):
        node_cls = make_class("SelfCycle", next=child())
        a = node_cls()
        a.next = a
        with pytest.raises(CycleError):
            CheckingCheckpoint().checkpoint(a)


class TestFlagHelpers:
    def test_reset_and_set_all(self, root):
        reset_flags(root)
        assert all(not o._ckpt_dirty for o in collect_objects(root))
        set_all_flags(root)
        assert all(o._ckpt_dirty for o in collect_objects(root))

    def test_collect_objects_counts(self, root):
        # root + mid + leaf + extra + 2 kids
        assert len(collect_objects(root)) == 6

    def test_collect_objects_handles_sharing(self):
        holder_cls = make_class("ShareHolder", a=child(Leaf), b=child(Leaf))
        shared = Leaf()
        holder = holder_cls(a=shared, b=shared)
        objects = collect_objects(holder)
        assert len(objects) == 2


class TestIterativeDriver:
    def test_bytes_identical_to_recursive(self, root):
        from repro.core.checkpoint import IterativeCheckpoint

        snapshot = [
            (o.get_checkpoint_info(), o._ckpt_dirty) for o in collect_objects(root)
        ]
        recursive = Checkpoint()
        recursive.checkpoint(root)
        for info, modified in snapshot:
            info.modified = modified
        iterative = IterativeCheckpoint()
        iterative.checkpoint(root)
        assert iterative.getvalue() == recursive.getvalue()

    def test_deep_structure_beyond_recursion_limit(self):
        import sys

        from repro.core.checkpoint import IterativeCheckpoint
        from repro.synthetic.structures import build_structure

        depth = sys.getrecursionlimit() + 500
        deep = build_structure(num_lists=1, list_length=depth, ints_per_element=1)
        with pytest.raises(RecursionError):
            Checkpoint().checkpoint(deep)
        set_all_flags(deep)
        driver = IterativeCheckpoint()
        driver.checkpoint(deep)
        assert driver.size > depth * 8
        assert all(not o._ckpt_dirty for o in collect_objects(deep))

    def test_deep_structure_restores(self):
        from repro.core.checkpoint import IterativeCheckpoint
        from repro.core.restore import restore_full, structurally_equal
        from repro.synthetic.structures import build_structure

        deep = build_structure(num_lists=1, list_length=3000, ints_per_element=1)
        driver = IterativeCheckpoint()
        driver.checkpoint(deep)
        # Restoration and comparison are also stack-based: no recursion.
        table = restore_full(driver.getvalue())
        recovered = table[deep._ckpt_id]
        assert structurally_equal(deep, recovered, compare_ids=True)
