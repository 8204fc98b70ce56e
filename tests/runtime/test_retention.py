"""Epoch payloads live on disk, not in the session or the store's memory.

A long session used to keep every epoch's bytes twice: on each
``session.history`` entry and in the ``FileStore`` verified cache. Both
now keep metadata only, and a restore reads the store's headers once and
only its chain's payloads.
"""

import gc
import os
import tracemalloc
import types

import pytest

import repro.core.storage as storage_module
from repro.core.replica import ReplicatedStore
from repro.core.restore import state_digest
from repro.core.storage import BackgroundWriter, FileStore
from repro.runtime.session import CheckpointSession
from tests.conftest import Leaf, build_root

#: bytes of the label each commit rewrites: one ~12 KB delta per commit
LABEL_BYTES = 12_000
COMMITS = 200


def _label(step: int) -> str:
    return f"{step:06d}" * (LABEL_BYTES // 6)


def _reachable_payloads(*roots) -> list:
    """Sizes of epoch-sized ``bytes`` objects reachable from ``roots``.

    Follows object references, but not into classes, modules or a
    function's globals: those reach the whole interpreter.
    """
    seen = set()
    stack = list(roots)
    found = []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, (bytes, bytearray)):
            if len(obj) >= LABEL_BYTES // 2:
                found.append(len(obj))
            continue
        if isinstance(obj, types.FunctionType):
            stack.extend(c.cell_contents for c in obj.__closure__ or ())
            continue
        stack.extend(gc.get_referents(obj))
    return found


def test_long_session_does_not_retain_payloads(tmp_path):
    leaf = Leaf(label="")
    session = CheckpointSession(roots=leaf, sink=str(tmp_path / "ckpts"))
    session.base()
    for step in range(3):  # settle one-off allocations
        leaf.label = _label(step)
        session.commit()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        written = session.bytes_written
        for step in range(COMMITS):
            leaf.label = _label(step)
            session.commit()
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before
        # epoch-sized blocks allocated during the loop and still alive:
        # the live label, not one block per commit
        epoch_sized = [
            trace.size
            for trace in tracemalloc.take_snapshot().traces
            if trace.size >= LABEL_BYTES
        ]
    finally:
        tracemalloc.stop()
    written = session.bytes_written - written
    assert written > COMMITS * LABEL_BYTES
    assert sum(epoch_sized) < 3 * LABEL_BYTES, epoch_sized
    # what does grow is per-commit metadata: a history entry, a lineage
    # entry and a cached header (about 1.2 KB per commit)
    assert growth < 3 * LABEL_BYTES + COMMITS * 2048, growth
    assert all(entry.data is None for entry in session.history)
    assert sum(entry.size for entry in session.history) == session.bytes_written

    session.compact()
    session.restore(session.lineage().newest())
    assert session.roots()[0].label == _label(COMMITS - 1)
    assert _reachable_payloads(session) == []
    session.close()


def _stores(tmp_path):
    return {
        "file": lambda: FileStore(str(tmp_path / "ckpts")),
        "background": lambda: BackgroundWriter(
            FileStore(str(tmp_path / "ckpts"))
        ),
        "replicated": lambda: ReplicatedStore(
            [FileStore(str(tmp_path / f"r{i}")) for i in range(3)]
        ),
    }


@pytest.mark.parametrize("kind", ["file", "background", "replicated"])
def test_restore_scans_headers_once_and_reads_the_chain(
    tmp_path, monkeypatch, kind
):
    store = _stores(tmp_path)[kind]()
    root = build_root()
    session = CheckpointSession(roots=root, sink=store)
    # a fresh store: the n-th commit is epoch n (a BackgroundWriter's
    # epoch_index is a queue position, not the durable index)
    session.base()
    digests = [state_digest(root)]
    for step in range(1, 5):
        root.mid.leaf.value = step
        session.commit()
        digests.append(state_digest(root))
    session.flush()

    listed, reads = [], []
    real_listdir, real_read = os.listdir, FileStore._read_epoch

    def counting_listdir(path):
        listed.append(path)
        return real_listdir(path)

    def counting_read(path):
        reads.append(os.path.basename(path))
        return real_read(path)

    monkeypatch.setattr(storage_module.os, "listdir", counting_listdir)
    monkeypatch.setattr(FileStore, "_read_epoch", staticmethod(counting_read))
    session.restore(2)
    assert state_digest(session.roots()[0]) == digests[2]
    if kind != "replicated":  # a quorum read reads every replica in full
        assert listed == [str(tmp_path / "ckpts")]
        assert reads == [f"epoch-00000{i}.ckpt" for i in (0, 1, 2)]
    session.close()
