"""Unit tests for the durable checkpoint stores (incl. failure injection)."""

import json
import os

import pytest

from repro.core.checkpoint import Checkpoint, FullCheckpoint
from repro.core.errors import StorageError
from repro.core.restore import structurally_equal
from repro.core.storage import FULL, INCREMENTAL, FileStore, MemoryStore
from tests.conftest import build_root


def _persist_history(store):
    """Build a root, persist a base + two deltas; returns the live root."""
    root = build_root()
    base = FullCheckpoint()
    base.checkpoint(root)
    store.append(FULL, base.getvalue())
    root.mid.leaf.value = 77
    delta = Checkpoint()
    delta.checkpoint(root)
    store.append(INCREMENTAL, delta.getvalue())
    root.extra.label = "patched"
    delta = Checkpoint()
    delta.checkpoint(root)
    store.append(INCREMENTAL, delta.getvalue())
    return root


class TestMemoryStore:
    def test_append_and_recover(self):
        store = MemoryStore()
        root = _persist_history(store)
        recovered = store.recover()[root._ckpt_id]
        assert recovered.mid.leaf.value == 77
        assert recovered.extra.label == "patched"
        assert structurally_equal(root, recovered, compare_ids=True)

    def test_epoch_indices(self):
        store = MemoryStore()
        _persist_history(store)
        assert [e.index for e in store.epochs()] == [0, 1, 2]
        assert [e.kind for e in store.epochs()] == [FULL, INCREMENTAL, INCREMENTAL]

    def test_unknown_kind_rejected(self):
        with pytest.raises(StorageError):
            MemoryStore().append("bogus", b"")

    def test_recover_without_full_raises(self):
        store = MemoryStore()
        store.append(INCREMENTAL, b"")
        with pytest.raises(StorageError, match="no full checkpoint"):
            store.recover()

    def test_recovery_line_starts_at_latest_full(self):
        store = MemoryStore()
        _persist_history(store)
        root = build_root()
        base = FullCheckpoint()
        base.checkpoint(root)
        store.append(FULL, base.getvalue())
        line = store.recovery_line()
        assert [e.index for e in line] == [3]


class TestFileStore:
    def test_roundtrip(self, tmp_path):
        store = FileStore(str(tmp_path / "ckpt"))
        root = _persist_history(store)
        fresh = FileStore(str(tmp_path / "ckpt"))
        recovered = fresh.recover()[root._ckpt_id]
        assert structurally_equal(root, recovered, compare_ids=True)

    def test_manifest_written(self, tmp_path):
        store = FileStore(str(tmp_path / "ckpt"))
        _persist_history(store)
        with open(store.manifest_path) as handle:
            manifest = json.load(handle)
        assert manifest["format_version"] == 2
        assert any(name.endswith("Root") or "Root" in name for name in manifest["classes"])
        # manifest v2 carries the lineage map, one entry per epoch
        assert set(manifest["lineage"]) == {"0", "1", "2"}
        assert manifest["lineage"]["1"]["parent"] == 0
        assert manifest["lineage"]["1"]["branch"] == "main"

    def test_torn_tail_discarded(self, tmp_path):
        store = FileStore(str(tmp_path / "ckpt"))
        root = _persist_history(store)
        # Simulate a crash mid-write of epoch 3.
        with open(os.path.join(store.directory, "epoch-000003.ckpt"), "wb") as fh:
            fh.write(b"RCKP\x01\x00\x10")
        fresh = FileStore(store.directory)
        assert len(fresh.epochs()) == 3
        recovered = fresh.recover()[root._ckpt_id]
        assert recovered.extra.label == "patched"

    def test_corrupt_payload_ends_sequence(self, tmp_path):
        store = FileStore(str(tmp_path / "ckpt"))
        _persist_history(store)
        path = os.path.join(store.directory, "epoch-000001.ckpt")
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 0xFF  # flip a payload bit -> CRC mismatch
        with open(path, "wb") as fh:
            fh.write(data)
        fresh = FileStore(store.directory)
        # Epoch 1 is bad; 2 cannot be applied over a hole: only epoch 0 left.
        assert [e.index for e in fresh.epochs()] == [0]

    def test_bad_magic_rejected(self, tmp_path):
        store = FileStore(str(tmp_path / "ckpt"))
        _persist_history(store)
        path = os.path.join(store.directory, "epoch-000000.ckpt")
        data = bytearray(open(path, "rb").read())
        data[:4] = b"XXXX"
        with open(path, "wb") as fh:
            fh.write(data)
        assert FileStore(store.directory).epochs() == []

    def test_append_continues_numbering(self, tmp_path):
        store = FileStore(str(tmp_path / "ckpt"))
        _persist_history(store)
        fresh = FileStore(store.directory)
        index = fresh.append(INCREMENTAL, b"")
        assert index == 3

    def test_missing_manifest_raises_on_recover(self, tmp_path):
        store = FileStore(str(tmp_path / "ckpt"))
        _persist_history(store)
        os.remove(store.manifest_path)
        with pytest.raises(StorageError, match="missing manifest"):
            FileStore(store.directory).recover()

    def test_corrupt_manifest_raises(self, tmp_path):
        store = FileStore(str(tmp_path / "ckpt"))
        _persist_history(store)
        with open(store.manifest_path, "w") as fh:
            fh.write("{not json")
        with pytest.raises(StorageError, match="corrupt manifest"):
            FileStore(store.directory).recover()

    def test_stray_files_ignored(self, tmp_path):
        store = FileStore(str(tmp_path / "ckpt"))
        _persist_history(store)
        open(os.path.join(store.directory, "epoch-junk.ckpt"), "w").close()
        open(os.path.join(store.directory, "README"), "w").close()
        assert len(FileStore(store.directory).epochs()) == 3


class TestCompressedFileStore:
    def test_roundtrip_with_compression(self, tmp_path):
        store = FileStore(str(tmp_path / "ckpt"), compress=True)
        root = _persist_history(store)
        fresh = FileStore(str(tmp_path / "ckpt"))  # reader needs no flag
        recovered = fresh.recover()[root._ckpt_id]
        assert structurally_equal(root, recovered, compare_ids=True)

    def test_compression_shrinks_redundant_epochs(self, tmp_path):
        import os

        plain_dir = str(tmp_path / "plain")
        packed_dir = str(tmp_path / "packed")
        _persist_history(FileStore(plain_dir))
        _persist_history(FileStore(packed_dir, compress=True))

        def total(directory):
            return sum(
                os.path.getsize(os.path.join(directory, name))
                for name in os.listdir(directory)
                if name.endswith(".ckpt")
            )

        assert total(packed_dir) < total(plain_dir)

    def test_mixed_plain_and_compressed_chain(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        plain = FileStore(directory)
        root = _persist_history(plain)  # plain epochs 0-2
        packed = FileStore(directory, compress=True)
        root.mid.leaf.value = 4242
        delta = Checkpoint()
        delta.checkpoint(root)
        packed.append(INCREMENTAL, delta.getvalue())  # compressed epoch 3
        recovered = FileStore(directory).recover()[root._ckpt_id]
        assert recovered.mid.leaf.value == 4242

    def test_corrupt_compressed_payload_rejected(self, tmp_path):
        import os
        import struct
        import zlib as _zlib

        store = FileStore(str(tmp_path / "ckpt"), compress=True)
        _persist_history(store)
        # Craft a frame whose CRC matches garbage that fails to inflate.
        garbage = b"not-deflate-data"
        header = struct.pack(
            "<4sBBII", b"RCKP", 1, 2, len(garbage), _zlib.crc32(garbage)
        )
        with open(os.path.join(store.directory, "epoch-000001.ckpt"), "wb") as fh:
            fh.write(header + garbage)
        fresh = FileStore(store.directory)
        assert [e.index for e in fresh.epochs()] == [0]


class TestFileStoreEpochCache:
    """The cache holds verified headers; payloads are read on demand."""

    @staticmethod
    def _count_reads(monkeypatch):
        """Record the path of every epoch file read (and CRC-checked)."""
        paths = []
        original = FileStore._read_epoch

        def counting(path):
            paths.append(os.path.basename(path))
            return original(path)

        monkeypatch.setattr(FileStore, "_read_epoch", staticmethod(counting))
        return paths

    def test_repeated_lineage_reads_each_file_once(self, tmp_path, monkeypatch):
        directory = str(tmp_path / "ckpt")
        _persist_history(FileStore(directory))
        reader = FileStore(directory)  # cold cache: knows nothing yet
        reads = self._count_reads(monkeypatch)
        first = reader.lineage()
        assert len(reads) == 3
        second = reader.lineage()
        assert len(reads) == 3  # all served from the header cache
        assert [second.epoch(i) for i in second.indices()] == [
            first.epoch(i) for i in first.indices()
        ]

    def test_writer_never_rereads_own_appends(self, tmp_path, monkeypatch):
        reads = self._count_reads(monkeypatch)
        store = FileStore(str(tmp_path / "ckpt"))
        _persist_history(store)
        lineage = store.lineage()
        assert [lineage.epoch(i).kind for i in lineage.indices()] == [
            FULL, INCREMENTAL, INCREMENTAL,
        ]
        assert len(store) == 3
        assert reads == []  # appends seeded the header cache

    def test_only_new_files_are_scanned(self, tmp_path, monkeypatch):
        directory = str(tmp_path / "ckpt")
        _persist_history(FileStore(directory))
        reader = FileStore(directory)
        reader.lineage()  # warm the cache on epochs 0-2
        writer = FileStore(directory)  # second handle appends epoch 3
        writer.append(INCREMENTAL, b"")
        reads = self._count_reads(monkeypatch)
        assert reader.lineage().indices() == [0, 1, 2, 3]
        assert reads == ["epoch-000003.ckpt"]  # only the new file was read

    def test_recover_reads_exactly_the_chain(self, tmp_path, monkeypatch):
        directory = str(tmp_path / "ckpt")
        store = FileStore(directory)
        _persist_history(store)
        root = _persist_history(store)  # a second full base at epoch 3
        reads = self._count_reads(monkeypatch)
        recovered = store.recover()[root._ckpt_id]
        assert structurally_equal(root, recovered, compare_ids=True)
        assert reads == [f"epoch-00000{i}.ckpt" for i in (3, 4, 5)]
        reads.clear()
        cold = FileStore(directory)
        cold.lineage()  # verifies all six headers once
        reads.clear()
        cold.recover()
        assert len(reads) == 3

    def test_epochs_read_payloads_on_every_call(self, tmp_path, monkeypatch):
        store = FileStore(str(tmp_path / "ckpt"))
        _persist_history(store)
        reads = self._count_reads(monkeypatch)
        first = store.epochs()
        assert store.epochs() == first
        assert store.epoch_map() == {e.index: e for e in first}
        assert len(reads) == 9  # nothing is served from memory
        # the cache kept headers only
        assert all(not hasattr(header, "data")
                   for _, header in store._verified.values())

    def test_payload_changed_after_header_verified_fails_recover(
        self, tmp_path
    ):
        directory = str(tmp_path / "ckpt")
        store = FileStore(directory)
        root = _persist_history(store)
        store.lineage()  # every header verified and cached
        # Corrupt epoch 2's payload in place, keeping its stat signature
        # (size, mtime, inode): the cached header still vouches for it.
        path = os.path.join(directory, "epoch-000002.ckpt")
        before = os.stat(path)
        with open(path, "r+b") as handle:
            handle.seek(before.st_size - 1)
            last = handle.read(1)
            handle.seek(before.st_size - 1)
            handle.write(bytes([last[0] ^ 0xFF]))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert store._stat_signature(path) == store._verified[2][0]
        with pytest.raises(StorageError, match="changed or was damaged"):
            store.recover()
        # The failed read dropped the header: the durable prefix now
        # ends before epoch 2, exactly as a cold store would see it.
        assert store.lineage().indices() == [0, 1]
        recovered = store.recover()[root._ckpt_id]
        assert recovered.mid.leaf.value == 77
        assert recovered.extra.label == "extra"

    def test_replaying_a_header_raises(self, tmp_path):
        from repro.core.errors import RestoreError
        from repro.core.restore import replay_epochs

        store = FileStore(str(tmp_path / "ckpt"))
        _persist_history(store)
        headers = store.lineage().chain(2)
        assert [type(h).__name__ for h in headers] == ["EpochHeader"] * 3
        with pytest.raises(RestoreError, match="header without its payload"):
            replay_epochs(headers)

    def test_cached_payload_is_decompressed(self, tmp_path):
        store = FileStore(str(tmp_path / "ckpt"), compress=True)
        root = _persist_history(store)
        cold = FileStore(store.directory)
        assert store.epochs() == cold.epochs()
        recovered = store.recover()[root._ckpt_id]
        assert structurally_equal(root, recovered, compare_ids=True)

    def test_external_change_invalidates_entry(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        store = FileStore(directory)
        _persist_history(store)
        assert len(store.epochs()) == 3  # cache is warm
        # Another process truncates the last epoch mid-write.
        path = os.path.join(directory, "epoch-000002.ckpt")
        with open(path, "wb") as handle:
            handle.write(b"RCKP")
        assert [e.index for e in store.epochs()] == [0, 1]

    def test_deleted_files_are_dropped_from_cache(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        store = FileStore(directory)
        _persist_history(store)
        store.epochs()
        os.remove(os.path.join(directory, "epoch-000001.ckpt"))
        os.remove(os.path.join(directory, "epoch-000002.ckpt"))
        assert [e.index for e in store.epochs()] == [0]
        assert set(store._verified) == {0}

    def test_compaction_with_warm_cache(self, tmp_path):
        from repro.core.storage import compact

        directory = str(tmp_path / "ckpt")
        store = FileStore(directory)
        root = _persist_history(store)
        store.epochs()  # warm
        new_base = compact(store)
        epochs = store.epochs()
        assert [e.index for e in epochs] == [new_base]
        assert epochs[0].kind == FULL
        recovered = store.recover()[root._ckpt_id]
        assert structurally_equal(root, recovered, compare_ids=True)


class TestNextIndexCache:
    """Appends must not rescan the directory per epoch (was O(n²))."""

    def test_directory_scanned_once_across_appends(self, tmp_path, monkeypatch):
        import repro.core.storage as storage_module

        store = FileStore(str(tmp_path / "ckpt"))
        real_listdir = os.listdir
        calls = []

        def counting_listdir(path):
            calls.append(path)
            return real_listdir(path)

        monkeypatch.setattr(storage_module.os, "listdir", counting_listdir)
        for index in range(20):
            assert store.append(INCREMENTAL, b"x") == index
        # One scan to seat the counter; every later append uses the cache.
        scans = [path for path in calls if path == store.directory]
        assert len(scans) <= 1

    def test_explicit_parent_append_does_not_list(self, tmp_path, monkeypatch):
        import repro.core.storage as storage_module

        store = FileStore(str(tmp_path / "ckpt"))
        _persist_history(store)  # seats the next-index counter
        calls = []
        real_listdir = os.listdir

        def counting_listdir(path):
            calls.append(path)
            return real_listdir(path)

        monkeypatch.setattr(storage_module.os, "listdir", counting_listdir)
        # the first commit after a restore or fork pins an explicit parent
        assert store.append(INCREMENTAL, b"x", parent=1, branch="b") == 3
        assert calls == []
        with pytest.raises(StorageError, match="does not exist"):
            store.append(INCREMENTAL, b"y", parent=99)

    def test_cache_survives_compaction(self, tmp_path):
        from repro.core.storage import compact

        store = FileStore(str(tmp_path / "ckpt"))
        _persist_history(store)
        new_base = compact(store)  # removes epochs below the new base
        assert store.append(INCREMENTAL, b"after") == new_base + 1

    def test_fresh_store_continues_the_sequence(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        first = FileStore(directory)
        first.append(FULL, b"a")
        first.append(INCREMENTAL, b"b")
        second = FileStore(directory)
        assert second.append(INCREMENTAL, b"c") == 2


class TestOrphanQuarantine:
    """Stranded ``*.tmp`` files are moved aside when the store opens."""

    def test_orphan_tmp_quarantined_on_init(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        os.makedirs(directory)
        orphan = os.path.join(directory, "epoch-000004.ckpt.tmp")
        open(orphan, "wb").write(b"partial write")
        store = FileStore(directory)
        assert not os.path.exists(orphan)
        moved = os.path.join(store.quarantine_dir, "epoch-000004.ckpt.tmp")
        assert os.path.exists(moved)
        assert store.quarantined == [moved]
        assert open(moved, "rb").read() == b"partial write"

    def test_quarantine_collisions_get_suffixes(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        os.makedirs(directory)
        name = "epoch-000001.ckpt.tmp"
        open(os.path.join(directory, name), "wb").write(b"first")
        FileStore(directory)
        open(os.path.join(directory, name), "wb").write(b"second")
        store = FileStore(directory)
        quarantined = sorted(os.listdir(store.quarantine_dir))
        assert quarantined == [name, f"{name}.0"]

    def test_clean_directory_gets_no_quarantine_dir(self, tmp_path):
        store = FileStore(str(tmp_path / "ckpt"))
        store.append(FULL, b"x")
        assert not os.path.exists(store.quarantine_dir)
        assert store.quarantined == []

    def test_quarantined_orphans_do_not_shadow_epochs(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        store = FileStore(directory)
        store.append(FULL, b"base")
        open(os.path.join(directory, "epoch-000001.ckpt.tmp"), "wb").write(
            b"torn"
        )
        reopened = FileStore(directory)
        # The orphan index is reusable: nothing durable occupies it.
        assert reopened.append(INCREMENTAL, b"delta") == 1
        assert [e.data for e in reopened.epochs()] == [b"base", b"delta"]
