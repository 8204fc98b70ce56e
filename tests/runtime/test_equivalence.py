"""The refactor's acceptance suite: sessions are byte-identical to drivers.

`repro.runtime` replaced four open-coded `driver -> stream -> store`
wirings. These tests pin the invariant that made the replacement safe:
for every strategy tier, a session commit produces exactly the bytes the
direct driver call produced, and a session-written store replays to the
same live state — including across full -> delta -> compact sequences.
"""

import pytest

from repro.core.checkpoint import (
    CheckingCheckpoint,
    Checkpoint,
    FullCheckpoint,
    IterativeCheckpoint,
    ReflectiveCheckpoint,
    collect_objects,
    reset_flags,
)
from repro.core.restore import state_digest, structurally_equal
from repro.core.storage import FULL, INCREMENTAL, FileStore, MemoryStore
from repro.core.streams import DataOutputStream
from repro.runtime import (
    AutoSpecStrategy,
    CheckpointSession,
    SpecializedStrategy,
)
from repro.spec.shape import Shape
from repro.synthetic.runner import (
    SyntheticConfig,
    SyntheticWorkload,
    variant_strategy,
)
from tests.conftest import build_root

TIER_DRIVERS = {
    "full": FullCheckpoint,
    "incremental": Checkpoint,
    "reflective": ReflectiveCheckpoint,
    "iterative": IterativeCheckpoint,
    "checking": CheckingCheckpoint,
    # The packed codec and the block tier above it both pin the paper
    # driver's exact bytes — their reference is the generic flag walk.
    "packed": Checkpoint,
    "differential": Checkpoint,
    "differential-verify": Checkpoint,
}


def _snapshot_flags(roots):
    return [
        (o.get_checkpoint_info(), o._ckpt_dirty)
        for root in roots
        for o in collect_objects(root)
    ]


def _restore_flags(snapshot):
    for info, modified in snapshot:
        info.modified = modified


def _driver_bytes(driver_cls, roots):
    """The pre-runtime direct wiring: one driver, looped over the roots."""
    out = DataOutputStream()
    driver = driver_cls(out)
    for root in roots:
        driver.checkpoint(root)
    return out.getvalue()


def _mutate(root, round_index):
    root.mid.leaf.value = 100 + round_index
    if round_index % 2:
        root.extra.label = f"round-{round_index}"


class TestTierEquivalence:
    @pytest.mark.parametrize("tier", sorted(TIER_DRIVERS))
    def test_session_commit_matches_direct_driver(self, tier):
        roots = [build_root(), build_root()]
        reset_flags(roots[0])
        _mutate(roots[0], 1)  # partially modified; roots[1] fully flagged
        flags = _snapshot_flags(roots)
        expected = _driver_bytes(TIER_DRIVERS[tier], roots)
        _restore_flags(flags)
        session = CheckpointSession(
            roots=roots, strategy=tier, sink=MemoryStore()
        )
        result = session.commit(kind=INCREMENTAL)
        assert result.data == expected
        assert result.strategy == tier

    @pytest.mark.parametrize("tier", sorted(TIER_DRIVERS))
    def test_commit_sequence_matches_driver_written_store(self, tier):
        driver_root = build_root()
        session_root = build_root()

        store = MemoryStore()
        store.append(FULL, _driver_bytes(FullCheckpoint, [driver_root]))
        for round_index in range(3):
            _mutate(driver_root, round_index)
            store.append(
                INCREMENTAL, _driver_bytes(TIER_DRIVERS[tier], [driver_root])
            )

        session = CheckpointSession(
            roots=session_root, strategy=tier, sink=MemoryStore()
        )
        session.base()
        for round_index in range(3):
            _mutate(session_root, round_index)
            session.commit(kind=INCREMENTAL)

        driver_epochs = store.epochs()
        session_epochs = session.store.epochs()
        assert len(driver_epochs) == len(session_epochs) == 4
        for driver_epoch, session_epoch in zip(driver_epochs, session_epochs):
            assert driver_epoch.kind == session_epoch.kind
            # the two structures have distinct object ids; compare payload
            # sizes byte-for-byte and the replayed state structurally
            assert len(driver_epoch.data) == len(session_epoch.data)
        assert structurally_equal(
            store.recover()[driver_root._ckpt_id],
            session.recover()[session_root._ckpt_id],
        )


class TestDifferentialSteadyState:
    """Byte-identity while block skipping is actually happening."""

    def test_multi_commit_sequence_matches_generic_driver(self):
        from repro.runtime.strategy import DifferentialStrategy

        roots = [build_root() for _ in range(8)]
        strategy = DifferentialStrategy(block_size=2)
        session = CheckpointSession(
            roots=roots, strategy=strategy, sink=MemoryStore()
        )
        session.commit(kind=INCREMENTAL)  # baseline: partition, full walk
        for round_index in range(5):
            _mutate(roots[round_index % len(roots)], round_index)
            flags = _snapshot_flags(roots)
            expected = _driver_bytes(Checkpoint, roots)
            _restore_flags(flags)
            result = session.commit(kind=INCREMENTAL)
            assert result.data == expected
            # the equivalence must hold *because of* skipping, not in its
            # absence: one structure dirty out of eight -> blocks skipped
            assert strategy.last_stats["skipped"] > 0

    def test_sequence_with_compaction_recovers_live_state(self, tmp_path):
        root = build_root()
        directory = str(tmp_path / "ckpt")
        session = CheckpointSession(
            roots=root, strategy="differential", sink=directory
        )
        session.base()
        for round_index in range(4):
            _mutate(root, round_index)
            session.commit()
        session.compact()
        _mutate(root, 9)
        session.commit()
        table = FileStore(directory).recover()
        assert state_digest(
            table[root._ckpt_id], include_ids=True
        ) == state_digest(root, include_ids=True)


class TestPackedFaultRecovery:
    """Torn-write recovery over epochs written by the packed code paths."""

    @pytest.mark.parametrize("tier", ["packed", "differential"])
    def test_torn_tail_recovers_intact_prefix(self, tier, tmp_path):
        import os
        import shutil

        from repro.faults.crashsim import table_fingerprint

        directory = str(tmp_path / "ckpts")
        root = build_root()
        session = CheckpointSession(roots=root, strategy=tier, sink=directory)
        session.base()
        epochs = 4
        for step in range(1, epochs):
            _mutate(root, step)
            session.commit()
        session.flush()

        prefix_dir = str(tmp_path / "prefix")
        shutil.copytree(directory, prefix_dir)
        tail = os.path.join(prefix_dir, f"epoch-{epochs - 1:06d}.ckpt")
        os.remove(tail)
        expected = table_fingerprint(FileStore(prefix_dir).recover())

        path = os.path.join(directory, f"epoch-{epochs - 1:06d}.ckpt")
        size = os.path.getsize(path)
        for cut in sorted({0, 1, 7, 13, 14, size // 2, size - 1}):
            if cut >= size:
                continue
            torn_dir = str(tmp_path / f"torn-{cut}")
            shutil.copytree(directory, torn_dir)
            with open(os.path.join(
                torn_dir, f"epoch-{epochs - 1:06d}.ckpt"
            ), "rb+") as handle:
                handle.truncate(cut)
            store = FileStore(torn_dir)
            assert [e.index for e in store.epochs()] == list(range(epochs - 1))
            assert table_fingerprint(store.recover()) == expected


class TestSpecializedEquivalence:
    def test_specialized_session_matches_generic_driver(self):
        root = build_root()
        flags = _snapshot_flags([root])
        expected = _driver_bytes(Checkpoint, [root])
        _restore_flags(flags)
        session = CheckpointSession(
            roots=root,
            strategy=SpecializedStrategy.for_prototype(build_root()),
            sink=MemoryStore(),
        )
        assert session.commit(kind=INCREMENTAL).data == expected

    def test_autospec_session_matches_generic_driver_across_commits(self):
        root = build_root()
        session = CheckpointSession(
            roots=root,
            strategy=AutoSpecStrategy(shape=Shape.of(root)),
            sink=MemoryStore(),
        )
        for round_index in range(3):
            flags = _snapshot_flags([root])
            expected = _driver_bytes(Checkpoint, [root])
            _restore_flags(flags)
            result = session.commit(kind=INCREMENTAL)
            assert result.data == expected
            _mutate(root, round_index)

    @pytest.mark.parametrize("variant", ["spec_struct", "spec_struct_mod"])
    def test_synthetic_variants_match_generic_driver(self, variant):
        workload = SyntheticWorkload(
            SyntheticConfig(num_structures=20, percent_modified=0.5)
        )
        workload.snapshot.restore()
        expected = _driver_bytes(Checkpoint, workload.structures)
        workload.snapshot.restore()
        strategy = variant_strategy(workload, variant)
        session = CheckpointSession(roots=workload.structures, strategy=strategy)
        assert session.commit(kind=INCREMENTAL).data == expected


class TestSequencesWithCompaction:
    def test_full_delta_compact_delta_recovers_live_state(self, tmp_path):
        root = build_root()
        directory = str(tmp_path / "ckpt")
        session = CheckpointSession(roots=root, sink=directory)
        session.base()
        for round_index in range(4):
            _mutate(root, round_index)
            session.commit()
        session.compact()
        _mutate(root, 9)
        session.commit()

        live = state_digest(root, include_ids=True)
        # acceptance: a *plain* FileStore over the session's directory (a
        # fresh process) replays to the live state
        table = FileStore(directory).recover()
        assert state_digest(table[root._ckpt_id], include_ids=True) == live
        # the line is now: compacted base + one delta
        epochs = FileStore(directory).epochs()
        assert [e.kind for e in epochs] == [FULL, INCREMENTAL]

    def test_compaction_preserves_recovery_equivalence(self, tmp_path):
        # recover() before and after compaction yields the same state
        root = build_root()
        directory = str(tmp_path / "ckpt")
        session = CheckpointSession(roots=root, sink=directory)
        session.base()
        for round_index in range(3):
            _mutate(root, round_index)
            session.commit()
        before = state_digest(
            session.recover()[root._ckpt_id], include_ids=True
        )
        session.compact()
        after = state_digest(
            session.recover()[root._ckpt_id], include_ids=True
        )
        assert before == after

    def test_periodic_full_line_recovers_from_latest_base(self, tmp_path):
        from repro.runtime import EpochPolicy

        root = build_root()
        directory = str(tmp_path / "ckpt")
        session = CheckpointSession(
            roots=root, sink=directory, policy=EpochPolicy.periodic_full(3)
        )
        for round_index in range(7):
            _mutate(root, round_index)
            session.commit()
        store = FileStore(directory)
        line = store.recovery_line()
        assert line[0].kind == FULL and line[0].index == 6
        assert structurally_equal(
            root, store.recover()[root._ckpt_id], compare_ids=True
        )
