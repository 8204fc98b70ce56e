"""Unit tests for the checkpoint session lifecycle."""

import pytest

from repro.core.checkpoint import reset_flags
from repro.core.errors import CheckpointError, StorageError
from repro.core.restore import state_digest, structurally_equal
from repro.core.storage import FULL, INCREMENTAL, FileStore, MemoryStore
from repro.runtime import (
    CheckpointSession,
    EpochPolicy,
    SpecializedStrategy,
)
from repro.runtime.strategy import NullStrategy
from tests.conftest import build_root


class TestRoots:
    def test_single_checkpointable(self):
        root = build_root()
        session = CheckpointSession(roots=root)
        assert list(session.roots()) == [root]

    def test_sequence(self):
        roots = [build_root(), build_root()]
        session = CheckpointSession(roots=roots)
        assert list(session.roots()) == roots

    def test_callable_sees_live_collection(self):
        roots = [build_root()]
        session = CheckpointSession(roots=lambda: roots)
        roots.append(build_root())
        assert len(session.roots()) == 2

    def test_non_checkpointable_rejected(self):
        with pytest.raises(CheckpointError, match="not a Checkpointable"):
            CheckpointSession(roots=[42])
        with pytest.raises(CheckpointError, match="cannot use"):
            CheckpointSession(roots=42)

    def test_per_commit_roots_override(self):
        a, b = build_root(), build_root()
        session = CheckpointSession(roots=a, sink=MemoryStore())
        result = session.base(roots=[a, b])
        solo = CheckpointSession(roots=[a, b], sink=MemoryStore()).base()
        assert result.data == solo.data


class TestCommitLifecycle:
    def test_base_then_deltas_then_recover(self):
        root = build_root()
        session = CheckpointSession(roots=root, sink=MemoryStore())
        base = session.base()
        assert base.kind == FULL and base.strategy == "full"
        root.mid.leaf.value = 8
        delta = session.commit()
        assert delta.kind == INCREMENTAL
        assert 0 < delta.size < base.size
        recovered = session.recover()[root._ckpt_id]
        assert structurally_equal(root, recovered, compare_ids=True)

    def test_counters(self):
        root = build_root()
        session = CheckpointSession(roots=root, sink=MemoryStore())
        session.base()
        root.mid.leaf.value = 1
        session.commit()
        root.mid.leaf.value = 2
        session.commit()
        assert session.commits == 3
        assert session.deltas_since_full == 2
        assert session.bytes_written == sum(r.size for r in session.history)
        assert [r.kind for r in session.history] == [FULL, INCREMENTAL, INCREMENTAL]

    def test_base_always_uses_full_driver(self):
        root = build_root()
        session = CheckpointSession(
            roots=root, strategy=NullStrategy(), sink=MemoryStore()
        )
        base = session.base()
        assert base.strategy == "full"
        assert base.size > 0  # the null default did not produce it

    def test_explicit_kind_labels_without_switching_strategy(self):
        root = build_root()
        session = CheckpointSession(roots=root, sink=MemoryStore())
        result = session.commit(kind=FULL)
        # labelled full, but produced by the bound incremental strategy
        assert result.kind == FULL and result.strategy == "incremental"

    def test_unknown_kind_rejected(self):
        session = CheckpointSession(roots=build_root())
        with pytest.raises(StorageError, match="unknown checkpoint kind"):
            session.commit(kind="bogus")

    def test_epoch_indices_from_store(self, tmp_path):
        root = build_root()
        session = CheckpointSession(roots=root, sink=str(tmp_path / "ckpt"))
        assert session.base().epoch_index == 0
        root.mid.leaf.value = 3
        assert session.commit().epoch_index == 1

    def test_null_sink_assigns_no_index(self):
        session = CheckpointSession(roots=build_root())
        assert session.store is None
        assert session.base().epoch_index is None


class TestPolicyDriven:
    def test_periodic_full_cadence(self):
        root = build_root()
        session = CheckpointSession(
            roots=root, sink=MemoryStore(), policy=EpochPolicy.periodic_full(3)
        )
        kinds, strategies = [], []
        for i in range(6):
            root.mid.leaf.value = i
            result = session.commit()
            kinds.append(result.kind)
            strategies.append(result.strategy)
        assert kinds == [FULL, INCREMENTAL, INCREMENTAL] * 2
        # scheduled fulls are produced by the full driver (standalone base)
        assert strategies == ["full", "incremental", "incremental"] * 2

    def test_bounded_chain_auto_compacts(self, tmp_path):
        root = build_root()
        session = CheckpointSession(
            roots=root,
            sink=str(tmp_path / "ckpt"),
            policy=EpochPolicy.bounded_chain(2),
        )
        session.base()
        results = []
        for i in range(3):
            root.mid.leaf.value = i
            results.append(session.commit())
        assert [r.compacted for r in results] == [False, False, True]
        assert session.compactions == 1
        assert session.deltas_since_full == 0
        # the store now holds exactly the compacted base
        epochs = session.store.epochs()
        assert len(epochs) == 1 and epochs[0].kind == FULL
        recovered = session.recover()[root._ckpt_id]
        assert structurally_equal(root, recovered, compare_ids=True)

    def test_no_auto_compaction_without_capable_sink(self):
        root = build_root()
        session = CheckpointSession(
            roots=root, policy=EpochPolicy.bounded_chain(1)
        )  # no store: nothing to compact
        session.base()
        for i in range(4):
            root.mid.leaf.value = i
            session.commit()
        assert session.compactions == 0


class TestPhaseBinding:
    def test_bound_phase_overrides_default(self):
        root = build_root()
        session = CheckpointSession(roots=root, sink=MemoryStore())
        session.base()  # a policy-decided commit on a base-less chain is full
        session.bind("quiet", NullStrategy())
        assert session.bound("quiet") and not session.bound("other")
        root.mid.leaf.value = 1
        assert session.commit(phase="quiet").size == 0
        root.mid.leaf.value = 2
        assert session.commit(phase="other").size > 0  # default strategy

    def test_bind_resolves_names_via_registry(self):
        session = CheckpointSession(roots=build_root(), sink=MemoryStore())
        session.bind("p", "full")
        assert session.strategy_for("p").name == "full"

    def test_factory_resolved_lazily_and_cached(self):
        calls = []

        def factory():
            calls.append(1)
            return NullStrategy()

        session = CheckpointSession(roots=build_root(), sink=MemoryStore())
        session.bind("p", factory)
        assert calls == []  # not resolved at bind time
        session.commit(phase="p")
        session.commit(phase="p")
        assert calls == [1]  # resolved once

    def test_rebind_replaces_and_unbind_removes(self):
        root = build_root()
        session = CheckpointSession(roots=root, sink=MemoryStore())
        session.bind("p", NullStrategy())
        session.bind("p", "full")
        assert session.strategy_for("p").name == "full"
        session.unbind("p")
        assert not session.bound("p")
        assert session.strategy_for("p").name == "incremental"

    def test_unbind_all(self):
        session = CheckpointSession(roots=build_root())
        session.bind("a", NullStrategy())
        session.bind("b", NullStrategy())
        session.unbind()
        assert not session.bound("a") and not session.bound("b")

    def test_specialized_phase_binding(self):
        root = build_root()
        session = CheckpointSession(roots=root, sink=MemoryStore())
        session.base()
        session.bind("hot", SpecializedStrategy.for_prototype(build_root()))
        root.mid.leaf.value = 77
        result = session.commit(phase="hot")
        assert result.phase == "hot"
        assert result.strategy.startswith("specialized:")
        recovered = session.recover()[root._ckpt_id]
        assert recovered.mid.leaf.value == 77


class TestMeasureAndBytes:
    def test_measure_does_not_persist_or_count(self):
        root = build_root()
        session = CheckpointSession(roots=root, sink=MemoryStore())
        result = session.measure()
        assert result.size > 0  # fresh structure: everything is flagged
        assert session.commits == 0
        assert len(session.store) == 0
        assert result.wall_seconds >= 0

    def test_commit_bytes_goes_through_sink_and_policy(self, tmp_path):
        root = build_root()
        session = CheckpointSession(
            roots=root,
            sink=str(tmp_path / "ckpt"),
            policy=EpochPolicy.bounded_chain(1),
        )
        base = session.base()
        first = session.commit_bytes(INCREMENTAL, b"", wall_seconds=0.5)
        assert first.strategy == "bytes" and first.wall_seconds == 0.5
        second = session.commit_bytes(INCREMENTAL, b"")
        assert second.compacted  # chain bound enforced for raw bytes too
        assert session.commits == 3
        assert session.bytes_written == base.size

    def test_commit_bytes_validates_kind(self):
        session = CheckpointSession(roots=build_root())
        with pytest.raises(StorageError, match="unknown checkpoint kind"):
            session.commit_bytes("bogus", b"")


class TestClose:
    def test_closed_session_rejects_commits(self):
        root = build_root()
        session = CheckpointSession(roots=root, sink=MemoryStore())
        session.close()
        with pytest.raises(CheckpointError, match="closed"):
            session.commit()
        with pytest.raises(CheckpointError, match="closed"):
            session.base()
        session.close()  # idempotent

    def test_context_manager_closes(self):
        root = build_root()
        with CheckpointSession(roots=root, sink=MemoryStore()) as session:
            session.base()
        with pytest.raises(CheckpointError, match="closed"):
            session.commit()

    def test_file_backed_session_recovers_in_new_process(self, tmp_path):
        root = build_root()
        directory = str(tmp_path / "ckpt")
        with CheckpointSession(roots=root, sink=directory) as session:
            session.base()
            root.mid.leaf.value = 55
            session.commit()
        # a "fresh process": a plain FileStore over the same directory
        recovered = FileStore(directory).recover()[root._ckpt_id]
        assert structurally_equal(root, recovered, compare_ids=True)

    def test_explicit_flag_reset_keeps_sessions_independent(self):
        # Two sessions over the same structure: flags are global state, so
        # a commit in one clears what the other would record. This pins the
        # (documented) sharing semantics rather than isolation.
        root = build_root()
        first = CheckpointSession(roots=root, sink=MemoryStore())
        second = CheckpointSession(roots=root, sink=MemoryStore())
        first.base()
        reset_flags(root)
        root.mid.leaf.value = 5
        assert second.commit().size > 0
        assert second.commit().size == 0  # the first commit cleared the flag


class TestRecoverableByDefault:
    """Under the default policy a store is recoverable without base()."""

    def test_plain_commits_without_base_recover(self, tmp_path):
        root = build_root()
        session = CheckpointSession(
            roots=root, strategy="differential", sink=str(tmp_path)
        )
        root.mid.leaf.value = 1
        first = session.commit()
        root.mid.leaf.value = 2
        second = session.commit()
        session.close()
        assert (first.kind, second.kind) == (FULL, INCREMENTAL)
        recovered = FileStore(str(tmp_path)).recover()[root._ckpt_id]
        assert state_digest(recovered, include_ids=True) == state_digest(
            root, include_ids=True
        )

    def test_reopened_store_keeps_its_base(self, tmp_path):
        root = build_root()
        session = CheckpointSession(roots=root, sink=str(tmp_path))
        session.base()
        session.close()
        root.mid.leaf.value = 3
        reopened = CheckpointSession(roots=root, sink=str(tmp_path))
        # the tip already chains to a full epoch: no extra base
        assert reopened.commit().kind == INCREMENTAL
        reopened.close()
        recovered = FileStore(str(tmp_path)).recover()[root._ckpt_id]
        assert state_digest(recovered) == state_digest(root)
