"""Unit tests for identifier allocation and CheckpointInfo."""

import threading

from repro.core.checkpointable import Checkpointable
from repro.core.fields import scalar
from repro.core.ids import DEFAULT_ALLOCATOR, IdAllocator
from repro.core.info import CheckpointInfo


class TestIdAllocator:
    def test_monotonic(self):
        allocator = IdAllocator()
        ids = [allocator.allocate() for _ in range(100)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 100
        assert allocator.last_allocated == ids[-1]

    def test_reset(self):
        allocator = IdAllocator(start=10)
        assert allocator.allocate() == 10
        allocator.reset(start=100)
        assert allocator.allocate() == 100

    def test_advance_past(self):
        allocator = IdAllocator()
        allocator.allocate()
        allocator.advance_past(500)
        assert allocator.allocate() == 501

    def test_advance_past_smaller_is_noop(self):
        allocator = IdAllocator(start=1000)
        allocator.allocate()
        allocator.advance_past(5)
        assert allocator.allocate() == 1001

    def test_thread_safety(self):
        allocator = IdAllocator()
        collected = []
        lock = threading.Lock()

        def worker():
            local = [allocator.allocate() for _ in range(500)]
            with lock:
                collected.extend(local)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(collected)) == 4000


class InfoProbe(Checkpointable):
    value = scalar("int")


class TestCheckpointInfo:
    """``CheckpointInfo`` is a view over the object's header slots."""

    def test_fresh_info_is_modified(self):
        info = InfoProbe().get_checkpoint_info()
        assert info.modified  # a new object must appear in the next checkpoint

    def test_explicit_id(self):
        info = InfoProbe._blank(42).get_checkpoint_info()
        assert info.object_id == 42
        assert not info.modified

    def test_paper_interface(self):
        probe = InfoProbe()
        info = probe.get_checkpoint_info()
        info.reset_modified()
        assert not info.modified and not probe._ckpt_dirty
        info.set_modified()
        assert info.modified and probe._ckpt_dirty

    def test_allocates_from_default_allocator(self):
        before = DEFAULT_ALLOCATOR.last_allocated
        info = InfoProbe().get_checkpoint_info()
        assert info.object_id > before

    def test_view_is_built_per_call_and_never_stored(self):
        probe = InfoProbe()
        first, second = probe.get_checkpoint_info(), probe.get_checkpoint_info()
        assert first is not second and first == second
        assert "_ckpt_info" not in Checkpointable.__slots__
        assert not any(
            isinstance(getattr(probe, slot), CheckpointInfo)
            for slot in Checkpointable.__slots__
        )
