"""Store thread-safety: concurrent append/epochs under a drain thread.

Before the locks, ``FileStore.epochs()`` iterated the verified-epoch
cache while the :class:`BackgroundWriter` drain thread seeded it
(``RuntimeError: dictionary changed size during iteration``), and two
racing appends could both scan the directory and claim the same epoch
index. These tests hammer exactly those interleavings.
"""

import sys
import threading

import pytest

from repro.core.storage import (
    FULL,
    INCREMENTAL,
    BackgroundWriter,
    FileStore,
    MemoryStore,
)

EPOCHS = 120
READ_ROUNDS = 400


def _hammer_epochs(store, stop, errors):
    while not stop.is_set():
        try:
            epochs = store.epochs()
            # indices of the intact prefix must be contiguous from 0
            for position, epoch in enumerate(epochs):
                assert epoch.index == position
        except Exception as exc:  # pragma: no cover - the failure we hunt
            errors.append(exc)
            return


def _hammer_lineage(store, stop, errors):
    """Header-cache reads: lineage() plus the payload read of its tip."""
    while not stop.is_set():
        try:
            lineage = store.lineage()
            if len(lineage):
                assert lineage.indices() == list(range(len(lineage)))
                line = store.recovery_line(lineage=lineage)
                assert [epoch.index for epoch in line] == lineage.indices()
        except Exception as exc:  # pragma: no cover - the failure we hunt
            errors.append(exc)
            return


class TestConcurrentReads:
    @pytest.mark.parametrize("make_store", [MemoryStore, None])
    def test_epochs_while_background_writer_drains(self, tmp_path, make_store):
        backing = (
            make_store() if make_store else FileStore(str(tmp_path / "store"))
        )
        writer = BackgroundWriter(backing, max_queued=16)
        stop = threading.Event()
        errors = []
        readers = [
            threading.Thread(
                target=_hammer_epochs, args=(backing, stop, errors)
            )
            for _ in range(2)
        ]
        for reader in readers:
            reader.start()
        try:
            writer.append(FULL, b"base")
            for step in range(1, EPOCHS):
                writer.append(INCREMENTAL, b"delta-%d" % step)
            writer.flush()
        finally:
            stop.set()
            for reader in readers:
                reader.join()
            writer.close()
        assert errors == []
        epochs = backing.epochs()
        assert len(epochs) == EPOCHS
        assert [epoch.index for epoch in epochs] == list(range(EPOCHS))

    def test_header_cache_while_background_writer_drains(self, tmp_path):
        backing = FileStore(str(tmp_path / "store"))
        writer = BackgroundWriter(backing, max_queued=16)
        stop = threading.Event()
        errors = []
        readers = [
            threading.Thread(
                target=_hammer_lineage, args=(backing, stop, errors)
            )
            for _ in range(3)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for reader in readers:
                reader.start()
            writer.append(FULL, b"base")
            for step in range(1, EPOCHS):
                writer.append(INCREMENTAL, b"delta-%d" % step)
            writer.flush()
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=30)
            writer.close()
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert errors == []
        assert backing.lineage().indices() == list(range(EPOCHS))
        assert len(backing.recovery_line()) == EPOCHS

    def test_memory_store_concurrent_appends_assign_unique_indices(self):
        store = MemoryStore()
        barrier = threading.Barrier(4)
        indices = []
        lock = threading.Lock()

        def append_many():
            barrier.wait()
            for _ in range(50):
                index = store.append(INCREMENTAL, b"x")
                with lock:
                    indices.append(index)

        threads = [threading.Thread(target=append_many) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(indices) == list(range(200))

    def test_file_store_concurrent_appends_assign_unique_indices(
        self, tmp_path
    ):
        store = FileStore(str(tmp_path / "store"))
        barrier = threading.Barrier(3)
        indices = []
        lock = threading.Lock()

        def append_many():
            barrier.wait()
            for _ in range(15):
                index = store.append(INCREMENTAL, b"x")
                with lock:
                    indices.append(index)

        threads = [threading.Thread(target=append_many) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(indices) == list(range(45))

    def test_file_store_reads_while_another_thread_appends(self, tmp_path):
        store = FileStore(str(tmp_path / "store"))
        store.append(FULL, b"base")
        stop = threading.Event()
        errors = []
        reader = threading.Thread(
            target=_hammer_epochs, args=(store, stop, errors)
        )
        reader.start()
        try:
            for step in range(1, 60):
                store.append(INCREMENTAL, b"delta-%d" % step)
        finally:
            stop.set()
            reader.join()
        assert errors == []
        assert len(store.epochs()) == 60


class TestWriterInstrumentation:
    def test_drain_thread_emits_writer_events_and_metrics(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracer import MemoryExporter, Tracer

        exporter = MemoryExporter()
        registry = MetricsRegistry()
        writer = BackgroundWriter(FileStore(str(tmp_path / "store")))
        writer.instrument(Tracer([exporter]), registry)
        writer.append(FULL, b"base")
        writer.append(INCREMENTAL, b"delta")
        writer.close()
        drains = exporter.of_type("writer.drain")
        assert len(drains) == 2
        assert drains[0]["kind"] == FULL
        assert drains[0]["wall_seconds"] >= 0.0
        snapshot = registry.snapshot()
        assert snapshot["counters"]["writer_drained_total"] == 2
        assert "writer_drain_seconds" in snapshot["histograms"]

    def test_degradation_is_traced(self, tmp_path):
        from repro.obs.tracer import MemoryExporter, Tracer

        exporter = MemoryExporter()
        writer = BackgroundWriter(FileStore(str(tmp_path / "store")))
        writer.instrument(Tracer([exporter]), writer.metrics)
        # simulate the writer thread dying outside the guarded write
        writer._queue.put(writer._STOP)
        writer._thread.join(timeout=5.0)
        writer._closed = False
        writer.append(FULL, b"sync")
        assert writer.degraded
        assert len(exporter.of_type("writer.degraded")) == 1

    def test_uninstrumented_writer_uses_the_null_singletons(self, tmp_path):
        from repro.obs.metrics import NULL_METRICS
        from repro.obs.tracer import NULL_TRACER

        writer = BackgroundWriter(FileStore(str(tmp_path / "store")))
        try:
            assert writer.tracer is NULL_TRACER
            assert writer.metrics is NULL_METRICS
        finally:
            writer.close()
