"""The epoch lineage graph: parents, branches, names, chains, protection."""

import pytest

from repro.core.errors import StorageError
from repro.core.lineage import AUTO, MAIN_BRANCH, Lineage, resolve_parent
from repro.core.storage import FULL, INCREMENTAL, FileStore, MemoryStore, compact

PAYLOAD = b"p" * 24


def _snapshot(roots, full):
    from repro.core.checkpoint import Checkpoint, FullCheckpoint

    driver = FullCheckpoint() if full else Checkpoint()
    for root in roots:
        driver.checkpoint(root)
    return driver.getvalue()


def linear_store(store, epochs=4):
    for index in range(epochs):
        store.append(FULL if index == 0 else INCREMENTAL, PAYLOAD)
    return store


def branched_store(store):
    """0 full -- 1 delta -- 2 delta(named mid) -- 3 delta   (main)
                              \\-- 4 delta -- 5 delta        (side)"""
    store.append(FULL, PAYLOAD)
    store.append(INCREMENTAL, PAYLOAD)
    store.append(INCREMENTAL, PAYLOAD, name="mid")
    store.append(INCREMENTAL, PAYLOAD)
    store.append(INCREMENTAL, PAYLOAD, parent=2, branch="side")
    store.append(INCREMENTAL, PAYLOAD, branch="side")
    return store


class TestLinearLineage:
    def test_implied_linear_parents(self):
        lineage = linear_store(MemoryStore()).lineage()
        assert lineage.epoch(0).parent is None
        assert [lineage.epoch(i).parent for i in (1, 2, 3)] == [0, 1, 2]
        assert all(
            lineage.epoch(i).branch == MAIN_BRANCH for i in range(4)
        )

    def test_chain_walks_back_to_full(self):
        lineage = linear_store(MemoryStore()).lineage()
        assert lineage.chain_indices(3) == [0, 1, 2, 3]
        assert lineage.chain_indices(0) == [0]

    def test_heads_and_branches(self):
        lineage = linear_store(MemoryStore()).lineage()
        assert lineage.heads() == [3]
        assert lineage.branches() == {MAIN_BRANCH: 3}


class TestBranchedLineage:
    def test_branch_tips(self):
        lineage = branched_store(MemoryStore()).lineage()
        assert lineage.branches() == {MAIN_BRANCH: 3, "side": 5}
        assert sorted(lineage.heads()) == [3, 5]

    def test_chains_cross_the_branch_point(self):
        lineage = branched_store(MemoryStore()).lineage()
        assert lineage.chain_indices(3) == [0, 1, 2, 3]
        assert lineage.chain_indices(5) == [0, 1, 2, 4, 5]

    def test_named_resolution(self):
        lineage = branched_store(MemoryStore()).lineage()
        assert lineage.named() == {"mid": 2}
        assert lineage.resolve("mid") == 2
        assert lineage.resolve(4) == 4

    def test_unknown_name_raises(self):
        lineage = branched_store(MemoryStore()).lineage()
        with pytest.raises(StorageError, match="no checkpoint named"):
            lineage.resolve("nope")

    def test_duplicate_name_rejected(self):
        store = branched_store(MemoryStore())
        with pytest.raises(StorageError, match="already pins epoch 2"):
            store.append(INCREMENTAL, PAYLOAD, name="mid")

    def test_explicit_parent_must_exist(self):
        store = MemoryStore()
        store.append(FULL, PAYLOAD)
        with pytest.raises(StorageError):
            store.append(INCREMENTAL, PAYLOAD, parent=7)

    def test_auto_parent_follows_last_branch(self):
        store = branched_store(MemoryStore())
        # no branch given: continue whatever branch was appended last
        index = store.append(INCREMENTAL, PAYLOAD)
        assert store.lineage().epoch(index).branch == "side"
        assert store.lineage().epoch(index).parent == 5

    def test_protected_covers_heads_and_names(self):
        lineage = branched_store(MemoryStore()).lineage()
        # chains of both heads plus the named epoch's chain
        assert lineage.protected() == {0, 1, 2, 3, 4, 5}


class TestResolveParent:
    def test_auto_on_empty_store(self):
        parent, branch = resolve_parent(AUTO, None, {}, lambda i: MAIN_BRANCH, None)
        assert parent is None
        assert branch == MAIN_BRANCH

    def test_explicit_parent_inherits_branch(self):
        parent, branch = resolve_parent(
            2, None, {MAIN_BRANCH: 3}, lambda i: "side", "side"
        )
        assert (parent, branch) == (2, "side")


class TestFileStoreLineage:
    def test_branched_lineage_survives_reopen(self, tmp_path):
        directory = str(tmp_path / "ckpts")
        branched_store(FileStore(directory))
        lineage = FileStore(directory).lineage()
        assert lineage.branches() == {MAIN_BRANCH: 3, "side": 5}
        assert lineage.named() == {"mid": 2}
        assert lineage.epoch(4).parent == 2

    def test_reopened_store_continues_last_branch(self, tmp_path):
        directory = str(tmp_path / "ckpts")
        branched_store(FileStore(directory))
        reopened = FileStore(directory)
        index = reopened.append(INCREMENTAL, PAYLOAD)
        assert reopened.lineage().epoch(index).branch == "side"

    def test_materialize_interior_epoch(self, tmp_path):
        from repro.synthetic.structures import build_structures, element_at

        directory = str(tmp_path / "ckpts")
        store = FileStore(directory)
        roots = build_structures(2, 2, 2, 1)
        store.append(FULL, _snapshot(roots, full=True))
        values = []
        for step in (1, 2):
            element_at(roots[0], 0, 0).v0 = step * 11
            values.append(step * 11)
            store.append(INCREMENTAL, _snapshot(roots, full=False))
        table = store.materialize(1)
        restored = table[roots[0]._ckpt_id]
        assert element_at(restored, 0, 0).v0 == values[0]


class TestCompactLineage:
    def test_compact_spares_other_branches(self, tmp_path):
        from repro.synthetic.structures import build_structures, element_at

        directory = str(tmp_path / "ckpts")
        store = FileStore(directory)
        roots = build_structures(2, 2, 2, 1)
        store.append(FULL, _snapshot(roots, full=True))
        for step in (1, 2):
            element_at(roots[0], 0, 0).v0 = step
            store.append(INCREMENTAL, _snapshot(roots, full=False))
        # fork a side branch off the full base
        element_at(roots[0], 0, 0).v0 = 99
        store.append(
            INCREMENTAL, _snapshot(roots, full=False), parent=0, branch="side"
        )

        compact(store, branch=MAIN_BRANCH)
        lineage = store.lineage()
        # the side branch and its base chain survive compaction
        assert 3 in lineage.indices()
        assert 0 in lineage.indices()  # epoch 3's base
        assert lineage.branches()[MAIN_BRANCH] > 3

    def test_compact_unknown_branch_raises(self):
        store = linear_store(MemoryStore())
        with pytest.raises(StorageError, match="unknown branch"):
            compact(store, branch="nope")

    def test_compact_never_deletes_named_chain(self, tmp_path):
        from repro.synthetic.structures import build_structures, element_at

        directory = str(tmp_path / "ckpts")
        store = FileStore(directory)
        roots = build_structures(2, 2, 2, 1)
        store.append(FULL, _snapshot(roots, full=True))
        for step, name in ((1, "keep"), (2, None)):
            element_at(roots[0], 0, 0).v0 = step
            store.append(INCREMENTAL, _snapshot(roots, full=False), name=name)
        compact(store)
        lineage = store.lineage()
        assert lineage.named() == {"keep": 1}
        # the named epoch's whole chain survives
        assert {0, 1}.issubset(set(lineage.indices()))
