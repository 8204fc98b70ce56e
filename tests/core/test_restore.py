"""Unit tests for restore/replay and state comparison."""

import pytest

from repro.core.checkpoint import Checkpoint, FullCheckpoint, collect_objects, reset_flags
from repro.core.errors import RestoreError
from repro.core.restore import (
    ObjectTable,
    apply_incremental,
    replay,
    restore_full,
    state_digest,
    structurally_equal,
)
from repro.core.streams import DataOutputStream
from tests.conftest import Leaf, Mid, Root, build_root, make_class
from repro.core.fields import child


def _full_bytes(root):
    driver = FullCheckpoint()
    driver.checkpoint(root)
    return driver.getvalue()


def _delta_bytes(root):
    driver = Checkpoint()
    driver.checkpoint(root)
    return driver.getvalue()


class TestRestoreFull:
    def test_roundtrip_identity(self, root):
        base = _full_bytes(root)
        table = restore_full(base)
        recovered = table[root._ckpt_info.object_id]
        assert structurally_equal(root, recovered, compare_ids=True)
        assert state_digest(recovered) == state_digest(root)
        assert type(recovered) is Root

    def test_all_objects_restored(self, root):
        table = restore_full(_full_bytes(root))
        assert len(table) == len(collect_objects(root))

    def test_restored_flags_are_clear(self, root):
        table = restore_full(_full_bytes(root))
        assert all(not o._ckpt_info.modified for o in table.objects())

    def test_forward_child_references_resolve(self, root):
        # Parent entries precede their children in the stream; restoration
        # must resolve the forward ids (two-pass).
        table = restore_full(_full_bytes(root))
        recovered = table[root._ckpt_info.object_id]
        assert recovered.mid.leaf.value == root.mid.leaf.value
        assert recovered.kids[1].label == root.kids[1].label

    def test_absent_child_stays_none(self):
        root = build_root(with_extra=False)
        table = restore_full(_full_bytes(root))
        assert table[root._ckpt_info.object_id].extra is None

    def test_empty_stream_restores_empty_table(self):
        table = restore_full(b"")
        assert len(table) == 0


class TestIncrementalReplay:
    def test_scalar_update_replayed(self, root):
        base = _full_bytes(root)
        root.mid.leaf.value = 123
        delta = _delta_bytes(root)
        table = replay(base, [delta])
        assert table[root._ckpt_info.object_id].mid.leaf.value == 123

    def test_pointer_update_replayed(self, root):
        base = _full_bytes(root)
        root.extra = root.kids[0]  # repoint child
        delta = _delta_bytes(root)
        recovered = replay(base, [delta])[root._ckpt_info.object_id]
        assert recovered.extra is recovered.kids[0]

    def test_new_object_in_delta_materialized(self, root):
        base = _full_bytes(root)
        newcomer = Leaf(value=55, label="new")
        root.kids.append(newcomer)
        delta = _delta_bytes(root)
        recovered = replay(base, [delta])[root._ckpt_info.object_id]
        assert recovered.kids[2].value == 55
        assert recovered.kids[2].label == "new"

    def test_multi_delta_chain(self, root):
        base = _full_bytes(root)
        deltas = []
        for value in (10, 20, 30):
            root.mid.leaf.value = value
            root.mid.notes.append(value)
            deltas.append(_delta_bytes(root))
        recovered = replay(base, deltas)[root._ckpt_info.object_id]
        assert recovered.mid.leaf.value == 30
        assert recovered.mid.notes.as_list() == [1, 2, 3, 10, 20, 30]
        assert structurally_equal(root, recovered, compare_ids=True)

    def test_later_entry_wins(self, root):
        base = _full_bytes(root)
        root.mid.leaf.value = 1
        first = _delta_bytes(root)
        root.mid.leaf.value = 2
        second = _delta_bytes(root)
        recovered = replay(base, [first, second])[root._ckpt_info.object_id]
        assert recovered.mid.leaf.value == 2

    def test_replay_equals_live_after_random_history(self, root):
        import random

        rng = random.Random(3)
        base = _full_bytes(root)
        deltas = []
        objects = collect_objects(root)
        leaves = [o for o in objects if isinstance(o, Leaf)]
        for _ in range(10):
            for __ in range(rng.randint(1, 4)):
                rng.choice(leaves).value = rng.randint(-100, 100)
            if rng.random() < 0.4:
                root.mid.notes.append(rng.randint(0, 9))
            deltas.append(_delta_bytes(root))
        recovered = replay(base, deltas)[root._ckpt_info.object_id]
        assert structurally_equal(root, recovered, compare_ids=True)


class TestErrors:
    def test_unknown_object_id(self):
        table = ObjectTable()
        with pytest.raises(RestoreError, match="unknown object id"):
            table[999999]

    def test_truncated_stream(self, root):
        base = _full_bytes(root)
        with pytest.raises(RestoreError):
            restore_full(base[: len(base) - 3])

    def test_unknown_serial(self):
        out = DataOutputStream()
        out.write_int32(1)
        out.write_int32(2**28)  # never allocated
        with pytest.raises(RestoreError, match="unknown class serial"):
            restore_full(out.getvalue())

    def test_class_mismatch_between_delta_and_table(self, root):
        base = _full_bytes(root)
        table = restore_full(base)
        out = DataOutputStream()
        out.write_int32(root._ckpt_info.object_id)
        out.write_int32(Leaf._ckpt_serial)  # but the table holds a Root
        Leaf().record(out)
        with pytest.raises(RestoreError, match="recorded as"):
            apply_incremental(table, out.getvalue())

    def test_missing_serial_translation(self, root):
        base = _full_bytes(root)
        with pytest.raises(RestoreError, match="missing from manifest"):
            restore_full(base, serial_translation={})


class TestStateDigest:
    def test_digest_stable(self, root):
        assert state_digest(root) == state_digest(root)

    def test_digest_differs_on_value_change(self, root):
        before = state_digest(root)
        root.mid.leaf.value += 1
        assert state_digest(root) != before

    def test_digest_differs_on_topology_change(self, root):
        before = state_digest(root)
        root.extra = None
        assert state_digest(root) != before

    def test_digest_ignores_ids_by_default(self):
        a = build_root()
        b = build_root()
        assert state_digest(a) == state_digest(b)
        assert state_digest(a, include_ids=True) != state_digest(b, include_ids=True)

    def test_digest_captures_sharing(self):
        holder_cls = make_class("DigestHolder", a=child(Leaf), b=child(Leaf))
        shared = holder_cls(a=Leaf(value=1))
        shared.b = shared.a
        separate = holder_cls(a=Leaf(value=1), b=Leaf(value=1))
        assert state_digest(shared) != state_digest(separate)

    def test_structurally_equal_flags_independent(self, root):
        twin = build_root()
        reset_flags(twin)
        assert structurally_equal(root, twin)  # flags don't affect state
