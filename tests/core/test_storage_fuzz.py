"""Robustness fuzzing of the durable store's recovery path.

A crash can leave arbitrary bytes on disk; recovery must never crash the
process, never apply corrupt data, and always recover the longest intact
prefix of the epoch chain.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import Checkpoint, FullCheckpoint
from repro.core.errors import StorageError
from repro.core.restore import state_digest
from repro.core.storage import FULL, INCREMENTAL, FileStore
from tests.conftest import build_root


def _write_history(directory, rounds=3):
    store = FileStore(directory)
    root = build_root()
    base = FullCheckpoint()
    base.checkpoint(root)
    store.append(FULL, base.getvalue())
    digests = [state_digest(root, include_ids=True)]
    for round_index in range(rounds):
        root.mid.leaf.value = round_index + 100
        root.kids[round_index % 2].label = f"r{round_index}"
        delta = Checkpoint()
        delta.checkpoint(root)
        store.append(INCREMENTAL, delta.getvalue())
        digests.append(state_digest(root, include_ids=True))
    return store, root, digests


class TestCorruptionFuzz:
    @settings(max_examples=40, deadline=None)
    @given(
        epoch=st.integers(0, 3),
        offset=st.integers(0, 4000),
        patch=st.binary(min_size=1, max_size=16),
    )
    def test_single_epoch_corruption_recovers_prefix(
        self, tmp_path_factory, epoch, offset, patch
    ):
        directory = str(tmp_path_factory.mktemp("fuzz"))
        store, root, digests = _write_history(directory)

        path = os.path.join(directory, f"epoch-{epoch:06d}.ckpt")
        data = bytearray(open(path, "rb").read())
        offset = offset % len(data)
        # Overwrite in place only (appended trailing junk after the frame
        # is legitimately ignored by the frame-length-based reader).
        patch = patch[: len(data) - offset]
        original_slice = bytes(data[offset : offset + len(patch)])
        data[offset : offset + len(patch)] = patch
        corrupted = patch != original_slice
        with open(path, "wb") as handle:
            handle.write(data)

        fresh = FileStore(directory)
        epochs = fresh.epochs()
        # Never more epochs than written; corruption of epoch k keeps at
        # most the prefix before k (CRC detects any payload change).
        assert len(epochs) <= 4
        if corrupted:
            assert len(epochs) <= epoch if epoch > 0 else len(epochs) == 0
        if epochs and epochs[0].kind == FULL:
            table = fresh.recover()
            recovered = table[root._ckpt_id]
            # The recovered state must exactly match one of the states the
            # application actually went through.
            assert state_digest(recovered, include_ids=True) in digests
        else:
            with pytest.raises(StorageError):
                fresh.recover()

    @settings(max_examples=25, deadline=None)
    @given(cut=st.integers(1, 400))
    def test_truncation_recovers_prefix(self, tmp_path_factory, cut):
        directory = str(tmp_path_factory.mktemp("trunc"))
        store, root, digests = _write_history(directory)
        path = os.path.join(directory, "epoch-000003.ckpt")
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[: max(0, len(data) - cut)])
        fresh = FileStore(directory)
        epochs = fresh.epochs()
        assert [e.index for e in epochs] == [0, 1, 2] or len(epochs) == 4
        recovered = fresh.recover()[root._ckpt_id]
        assert state_digest(recovered, include_ids=True) in digests

    def test_all_epochs_destroyed(self, tmp_path):
        directory = str(tmp_path / "gone")
        store, root, digests = _write_history(directory)
        for name in os.listdir(directory):
            if name.endswith(".ckpt"):
                with open(os.path.join(directory, name), "wb") as handle:
                    handle.write(b"garbage")
        with pytest.raises(StorageError):
            FileStore(directory).recover()
