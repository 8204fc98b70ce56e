"""The session's ``sink=`` keyword and the store it commits straight into."""

from pathlib import Path

import pytest

from repro.core.checkpoint import Checkpoint, FullCheckpoint
from repro.core.errors import StorageError
from repro.core.restore import structurally_equal
from repro.core.storage import (
    FULL,
    INCREMENTAL,
    BackgroundWriter,
    FileStore,
    MemoryStore,
)
from repro.runtime import CheckpointSession
from tests.conftest import build_root


def _base_and_delta(root):
    base = FullCheckpoint()
    base.checkpoint(root)
    root.mid.leaf.value = 31
    delta = Checkpoint()
    delta.checkpoint(root)
    return base.getvalue(), delta.getvalue()


def _commit_line(session, root):
    """Commit a base and one delta of ``root``; returns their indices."""
    base, delta = _base_and_delta(root)
    return (
        session.commit_bytes(FULL, base).epoch_index,
        session.commit_bytes(INCREMENTAL, delta).epoch_index,
    )


class TestSinkFor:
    def test_none_gives_null_sink(self):
        assert CheckpointSession(sink=None).store is None

    def test_sink_passes_through(self):
        writer = BackgroundWriter(MemoryStore())
        session = CheckpointSession(sink=writer)
        assert session.store is writer
        session.close()

    def test_store_is_used_as_is(self):
        store = MemoryStore()
        assert CheckpointSession(sink=store).store is store

    def test_path_makes_a_file_store(self, tmp_path):
        session = CheckpointSession(sink=str(tmp_path / "ckpt"))
        assert isinstance(session.store, FileStore)
        pathlike = CheckpointSession(sink=Path(tmp_path) / "ckpt2")
        assert isinstance(pathlike.store, FileStore)

    def test_garbage_rejected(self):
        with pytest.raises(StorageError, match="cannot use"):
            CheckpointSession(sink=42)


class TestNoStore:
    def test_counts_discards(self):
        session = CheckpointSession(sink=None)
        first = session.commit_bytes(FULL, b"x")
        second = session.commit_bytes(INCREMENTAL, b"y")
        assert first.epoch_index is None and second.epoch_index is None
        assert first.receipt.durability == "discarded"
        assert session.commits == 2

    def test_recover_and_compact_raise(self):
        with pytest.raises(StorageError, match="cannot recover"):
            CheckpointSession(sink=None).recover()
        with pytest.raises(StorageError, match="cannot compact"):
            CheckpointSession(sink=None).compact()


class TestMemoryStore:
    def test_epochs_addressable(self):
        store = MemoryStore()
        session = CheckpointSession(sink=store)
        session.commit_bytes(FULL, b"base")
        session.commit_bytes(INCREMENTAL, b"delta")
        assert len(store) == 2
        assert [epoch.data for epoch in store.epochs()] == [b"base", b"delta"]

    def test_recovery_line_replay(self):
        root = build_root()
        session = CheckpointSession(sink=MemoryStore())
        _commit_line(session, root)
        recovered = session.recover()[root._ckpt_info.object_id]
        assert structurally_equal(root, recovered, compare_ids=True)


class TestStoreSession:
    def test_file_store_roundtrip(self, tmp_path):
        root = build_root()
        session = CheckpointSession(sink=str(tmp_path / "ckpt"))
        assert _commit_line(session, root) == (0, 1)
        recovered = session.recover()[root._ckpt_info.object_id]
        assert structurally_equal(root, recovered, compare_ids=True)
        assert [e.kind for e in session.store.epochs()] == [FULL, INCREMENTAL]

    def test_compact_folds_the_line(self, tmp_path):
        root = build_root()
        session = CheckpointSession(sink=str(tmp_path / "ckpt"))
        _commit_line(session, root)
        new_base = session.compact()
        assert [e.index for e in session.store.epochs()] == [new_base]
        recovered = session.recover()[root._ckpt_info.object_id]
        assert structurally_equal(root, recovered, compare_ids=True)

    def test_background_writer_flushed_before_recovery(self, tmp_path):
        root = build_root()
        writer = BackgroundWriter(FileStore(str(tmp_path / "ckpt")))
        session = CheckpointSession(sink=writer)
        _commit_line(session, root)
        recovered = session.recover()[root._ckpt_info.object_id]
        assert structurally_equal(root, recovered, compare_ids=True)
        session.close()

    def test_background_writer_compaction_unwraps(self, tmp_path):
        root = build_root()
        backing = FileStore(str(tmp_path / "ckpt"))
        session = CheckpointSession(sink=BackgroundWriter(backing))
        _commit_line(session, root)
        new_base = session.compact()  # flushes the queue, compacts the backing
        assert [e.index for e in backing.epochs()] == [new_base]
        session.close()

    def test_flush_and_close_tolerate_plain_stores(self):
        session = CheckpointSession(sink=MemoryStore())  # synchronous store
        session.flush()
        session.close()
