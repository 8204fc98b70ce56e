"""Unit tests for restore/replay and state comparison."""

import random
import sys

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
from repro.core.storage import FileStore
from repro.core.streams import DataOutputStream
from repro.runtime import CheckpointSession, EpochPolicy
from repro.synthetic.structures import build_structures, structure_objects
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
        recovered = table[root._ckpt_id]
        assert structurally_equal(root, recovered, compare_ids=True)
        assert state_digest(recovered) == state_digest(root)
        assert type(recovered) is Root

    def test_all_objects_restored(self, root):
        table = restore_full(_full_bytes(root))
        assert len(table) == len(collect_objects(root))

    def test_restored_flags_are_clear(self, root):
        table = restore_full(_full_bytes(root))
        assert all(not o._ckpt_dirty for o in table.objects())

    def test_forward_child_references_resolve(self, root):
        # Parent entries precede their children in the stream; restoration
        # must resolve the forward ids (index first, then decode).
        table = restore_full(_full_bytes(root))
        recovered = table[root._ckpt_id]
        assert recovered.mid.leaf.value == root.mid.leaf.value
        assert recovered.kids[1].label == root.kids[1].label

    def test_absent_child_stays_none(self):
        root = build_root(with_extra=False)
        table = restore_full(_full_bytes(root))
        assert table[root._ckpt_id].extra is None

    def test_empty_stream_restores_empty_table(self):
        table = restore_full(b"")
        assert len(table) == 0


class TestIncrementalReplay:
    def test_scalar_update_replayed(self, root):
        base = _full_bytes(root)
        root.mid.leaf.value = 123
        delta = _delta_bytes(root)
        table = replay(base, [delta])
        assert table[root._ckpt_id].mid.leaf.value == 123

    def test_pointer_update_replayed(self, root):
        base = _full_bytes(root)
        root.extra = root.kids[0]  # repoint child
        delta = _delta_bytes(root)
        recovered = replay(base, [delta])[root._ckpt_id]
        assert recovered.extra is recovered.kids[0]

    def test_new_object_in_delta_materialized(self, root):
        base = _full_bytes(root)
        newcomer = Leaf(value=55, label="new")
        root.kids.append(newcomer)
        delta = _delta_bytes(root)
        recovered = replay(base, [delta])[root._ckpt_id]
        assert recovered.kids[2].value == 55
        assert recovered.kids[2].label == "new"

    def test_multi_delta_chain(self, root):
        base = _full_bytes(root)
        deltas = []
        for value in (10, 20, 30):
            root.mid.leaf.value = value
            root.mid.notes.append(value)
            deltas.append(_delta_bytes(root))
        recovered = replay(base, deltas)[root._ckpt_id]
        assert recovered.mid.leaf.value == 30
        assert recovered.mid.notes.as_list() == [1, 2, 3, 10, 20, 30]
        assert structurally_equal(root, recovered, compare_ids=True)

    def test_later_entry_wins(self, root):
        base = _full_bytes(root)
        root.mid.leaf.value = 1
        first = _delta_bytes(root)
        root.mid.leaf.value = 2
        second = _delta_bytes(root)
        recovered = replay(base, [first, second])[root._ckpt_id]
        assert recovered.mid.leaf.value == 2

    def test_winner_references_id_recorded_only_in_base(self, root):
        base = _full_bytes(root)
        root.name = "renamed"  # only the root is recorded again
        table = replay(base, [_delta_bytes(root)])
        recovered = table[root._ckpt_id]
        assert recovered.name == "renamed"
        assert recovered.mid is table[root.mid._ckpt_id]
        assert recovered.mid.leaf.label == "seven"

    def test_apply_incremental_overwrites_existing_objects(self, root):
        table = restore_full(_full_bytes(root))
        leaf = table[root.mid.leaf._ckpt_id]
        root.mid.leaf.value = 99
        assert apply_incremental(table, _delta_bytes(root)) == 1
        # decoded in place: references from the rest of the table hold
        assert table[root.mid.leaf._ckpt_id] is leaf
        assert table[root.mid._ckpt_id].leaf is leaf
        assert leaf.value == 99 and not leaf._ckpt_dirty

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
        recovered = replay(base, deltas)[root._ckpt_id]
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
        out.write_int32(root._ckpt_id)
        out.write_int32(Leaf._ckpt_serial)  # but the table holds a Root
        Leaf().record(out)
        with pytest.raises(RestoreError, match="recorded as"):
            apply_incremental(table, out.getvalue())

    def test_truncated_superseded_record_reports_line_offset(self, root):
        base = _full_bytes(root)
        root.mid.leaf.value = 1
        older = _delta_bytes(root)  # superseded by the next delta
        root.mid.leaf.value = 2
        newer = _delta_bytes(root)
        cut = older[:-1]  # drop the record's closing bool
        at = len(base) + len(cut)
        with pytest.raises(RestoreError, match=f"wanted 1 bytes at offset {at}, have 0"):
            replay(base, [cut, newer])

    def test_garbled_superseded_record_reports_line_offset(self, root):
        base = _full_bytes(root)
        root.mid.leaf.value = 1
        older = _delta_bytes(root)
        root.mid.leaf.value = 2
        newer = _delta_bytes(root)
        garbled = older[:-1] + b"\x07"  # the closing bool is neither 0 nor 1
        at = len(base) + len(older) - 1
        with pytest.raises(RestoreError, match=f"invalid boolean byte 7 at offset {at}"):
            replay(base, [garbled, newer])

    def test_id_recorded_under_two_classes_across_epochs(self, root):
        base = _full_bytes(root)
        out = DataOutputStream()
        out.write_int32(root.mid.leaf._ckpt_id)
        out.write_int32(Mid._ckpt_serial)  # the base recorded it as a Leaf
        Mid().record(out)
        with pytest.raises(RestoreError, match="recorded as"):
            replay(base, [out.getvalue()])

    def test_missing_serial_translation(self, root):
        base = _full_bytes(root)
        with pytest.raises(RestoreError, match="missing from manifest"):
            restore_full(base, serial_translation={})


class TestReplayCost:
    """Python calls per restored object in one cold ``FileStore.recover()``.

    A gate on the replay's per-object work. The bound is the newest-first
    packed replay's measured 5.3 calls per object on this chain (the
    two-pass stream decoder it replaced took 51.7) with a little slack;
    tighten it when replay gets cheaper, never loosen it.
    """

    CALLS_PER_OBJECT = 6.0

    def test_recover_call_budget(self, tmp_path):
        roots = build_structures(50, 5, 20, 1)
        elements = [obj for c in roots for obj in structure_objects(c)[1:]]
        session = CheckpointSession(
            roots,
            strategy="incremental",
            sink=FileStore(str(tmp_path)),
            policy=EpochPolicy.delta_only(),
        )
        session.base()
        rng = random.Random(2024)
        for _ in range(10):
            for element in rng.sample(elements, 50):
                element.v0 = rng.randint(0, 1000)
            session.commit()
        session.close()

        store = FileStore(str(tmp_path))
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event in ("call", "c_call"):
                calls += 1

        sys.setprofile(count)
        try:
            table = store.recover()
        finally:
            sys.setprofile(None)
        assert len(table) == 50 * 101
        assert calls / len(table) < self.CALLS_PER_OBJECT


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
