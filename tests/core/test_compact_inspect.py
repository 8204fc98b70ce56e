"""Unit tests for store compaction and checkpoint inspection."""

import os

import pytest

from repro.core.checkpoint import Checkpoint, FullCheckpoint
from repro.core.inspect import decode_stream, render_store, render_stream
from repro.core.restore import state_digest
from repro.core.storage import FULL, INCREMENTAL, FileStore, MemoryStore, compact
from tests.conftest import Leaf, build_root


def _history(store, rounds=4):
    root = build_root()
    base = FullCheckpoint()
    base.checkpoint(root)
    store.append(FULL, base.getvalue())
    for round_index in range(rounds):
        root.mid.leaf.value = round_index
        root.kids[round_index % 2].weight = round_index / 2
        if round_index == 2:
            root.kids.append(Leaf(value=99, label="late"))
        delta = Checkpoint()
        delta.checkpoint(root)
        store.append(INCREMENTAL, delta.getvalue())
    return root


class TestCompaction:
    def test_recovery_equivalent_after_compaction(self):
        store = MemoryStore()
        root = _history(store)
        before = state_digest(
            store.recover()[root._ckpt_id], include_ids=True
        )
        compact(store)
        after = state_digest(
            store.recover()[root._ckpt_id], include_ids=True
        )
        assert before == after

    def test_compacted_line_is_single_epoch(self):
        store = MemoryStore()
        _history(store)
        new_index = compact(store)
        line = store.recovery_line()
        assert [e.index for e in line] == [new_index]
        assert line[0].kind == FULL

    def test_new_objects_survive_compaction(self):
        store = MemoryStore()
        root = _history(store)  # appends a Leaf in round 2
        compact(store)
        recovered = store.recover()[root._ckpt_id]
        assert recovered.kids[2].label == "late"

    def test_file_store_history_deleted(self, tmp_path):
        store = FileStore(str(tmp_path / "ckpt"))
        _history(store)
        assert len(store._epoch_files()) == 5
        new_index = compact(store)
        remaining = [index for index, _ in store._epoch_files()]
        assert remaining == [new_index]

    def test_file_store_keep_history(self, tmp_path):
        store = FileStore(str(tmp_path / "ckpt"))
        root = _history(store)
        compact(store, keep_history=True)
        assert len(store._epoch_files()) == 6
        recovered = store.recover()[root._ckpt_id]
        assert state_digest(recovered) == state_digest(root)

    def test_further_deltas_chain_off_new_base(self, tmp_path):
        store = FileStore(str(tmp_path / "ckpt"))
        root = _history(store)
        compact(store)
        root.extra.label = "post-compaction"
        delta = Checkpoint()
        delta.checkpoint(root)
        store.append(INCREMENTAL, delta.getvalue())
        recovered = FileStore(store.directory).recover()[
            root._ckpt_id
        ]
        assert recovered.extra.label == "post-compaction"


class TestInspection:
    def test_decode_stream_entries(self):
        root = build_root()
        driver = FullCheckpoint()
        driver.checkpoint(root)
        entries = decode_stream(driver.getvalue())
        assert len(entries) == 6
        head = entries[0]
        assert head.object_id == root._ckpt_id
        assert head.class_name == "Root"
        assert head.fields["name"] == "root"
        assert head.fields["mid"] == f"@{root.mid._ckpt_id}"
        assert head.fields["kids"] == [
            f"@{k._ckpt_id}" for k in root.kids
        ]
        assert sum(e.byte_size for e in entries) == driver.size

    def test_decode_absent_child(self):
        root = build_root(with_extra=False)
        driver = FullCheckpoint()
        driver.checkpoint(root)
        entries = decode_stream(driver.getvalue())
        assert entries[0].fields["extra"] is None

    def test_render_stream_limit(self):
        root = build_root()
        driver = FullCheckpoint()
        driver.checkpoint(root)
        text = render_stream(driver.getvalue(), limit=2)
        assert "6 entries" in text
        assert "... 4 more" in text

    def test_render_store(self, tmp_path):
        store = FileStore(str(tmp_path / "ckpt"))
        _history(store, rounds=2)
        text = render_store(store.directory, limit=1)
        assert "3 intact epochs" in text
        assert "[full]" in text and "[incremental]" in text

    def test_decode_rejects_garbage(self):
        from repro.core.errors import RestoreError

        with pytest.raises(RestoreError):
            decode_stream(b"\x01\x02\x03")
