"""Session time travel: restore-to-any-epoch, named pins, branching fork."""

import gc

import pytest

from repro.core.blocks import Block
from repro.core.checkpoint import Checkpoint, restore_flags, snapshot_flags
from repro.core.checkpointable import Checkpointable
from repro.core.errors import RestoreError, StorageError
from repro.core.fields import child, scalar
from repro.core.restore import state_digest
from repro.core.storage import FULL, INCREMENTAL, MemoryStore
from repro.core.streams import DataOutputStream
from repro.runtime.policy import EpochPolicy
from repro.runtime.session import CheckpointSession
from repro.runtime.strategy import Strategy
from tests.conftest import build_root


def make_session(tmp_path=None, **kwargs):
    sink = MemoryStore() if tmp_path is None else str(tmp_path / "ckpts")
    kwargs.setdefault("policy", EpochPolicy.delta_only())
    return CheckpointSession(roots=build_root(), sink=sink, **kwargs)


def run_history(session, steps=4):
    """base + ``steps`` delta commits; returns {epoch_index: digest}."""
    digests = {}
    root = session.roots()[0]
    result = session.base()
    digests[result.epoch_index] = state_digest(root)
    for step in range(1, steps + 1):
        root.mid.leaf.value = step * 10
        root.mid.notes.append(step)
        result = session.commit()
        digests[result.epoch_index] = state_digest(root)
    return digests


def restored_digest(session, target):
    table = session.restore(target)
    return state_digest(session.roots()[0])


class TestRestoreByteIdentity:
    def test_full_epoch_restores_byte_identical(self):
        session = make_session()
        digests = run_history(session)
        assert restored_digest(session, 0) == digests[0]

    def test_every_delta_chain_epoch_restores_byte_identical(self):
        session = make_session()
        digests = run_history(session)
        for index in sorted(digests, reverse=True):
            assert restored_digest(session, index) == digests[index]

    def test_restore_after_compaction_is_byte_identical(self, tmp_path):
        session = make_session(tmp_path)
        digests = run_history(session)
        tip = max(digests)
        tip_digest = digests[tip]
        new_base = session.compact()
        assert session.store.epochs()[0].kind == FULL or new_base >= 0
        assert restored_digest(session, new_base) == tip_digest

    def test_restore_with_periodic_fulls(self):
        session = CheckpointSession(
            roots=build_root(),
            sink=MemoryStore(),
            policy=EpochPolicy.periodic_full(3),
        )
        digests = run_history(session, steps=7)
        for index in digests:
            assert restored_digest(session, index) == digests[index]


class TestRestoreThenCommit:
    def test_commit_after_restore_has_correct_kind_and_parent(self):
        session = make_session()
        run_history(session)
        session.restore(2)
        root = session.roots()[0]
        root.mid.leaf.value = 999
        result = session.commit()
        assert result.kind == INCREMENTAL
        lineage = session.lineage()
        assert lineage.epoch(result.epoch_index).parent == 2
        assert result.branch != "main"

    def test_commit_after_restore_carries_no_stale_flags(self):
        """Mutations made *before* the restore must not leak into the
        first post-restore delta: the restored objects' state is exactly
        epoch 2, so an unmodified commit replays to the same digest."""
        session = make_session()
        digests = run_history(session)
        root = session.roots()[0]
        root.mid.leaf.value = -12345  # dirty the pre-restore objects
        session.restore(2)
        result = session.commit()  # nothing touched since restore
        assert (
            state_digest(
                session.store.materialize(result.epoch_index)[
                    session.roots()[0]._ckpt_info.object_id
                ]
            )
            == digests[2]
        )

    def test_restore_tip_continues_branch(self):
        session = make_session()
        digests = run_history(session)
        tip = max(digests)
        session.restore(tip)
        assert session.current_branch == "main"
        result = session.commit()
        assert result.branch == "main"
        assert session.lineage().epoch(result.epoch_index).parent == tip

    def test_restore_interior_epoch_auto_forks(self):
        session = make_session()
        run_history(session)
        session.restore(1)
        assert session.current_branch == "main@1"
        result = session.commit()
        assert result.branch == "main@1"
        # original branch head is untouched
        assert session.branches()["main"] == 4

    def test_restore_resets_deltas_since_full(self):
        session = make_session()
        run_history(session)
        session.restore(2)
        assert session.deltas_since_full == 2
        session.restore(0)
        assert session.deltas_since_full == 0


class ReleaseCell(Checkpointable):
    """Element class counted by the restore-release tests (used only there)."""

    value = scalar("int")
    next = child()


class ReleaseChain(Checkpointable):
    head = child(ReleaseCell)


CHAINS, CHAIN_LENGTH = 40, 5


def _differential_session():
    """A differential session with a partitioned block tier, 3 epochs."""
    roots = []
    for _ in range(CHAINS):
        node = None
        for value in range(CHAIN_LENGTH):
            node = ReleaseCell(value=value, next=node)
        roots.append(ReleaseChain(head=node))
    session = CheckpointSession(
        roots=roots,
        sink=MemoryStore(),
        strategy="differential",
        policy=EpochPolicy.delta_only(),
    )
    session.base()
    for step in (1, 2):
        for chain in roots[::7]:
            chain.head.value += step
        session.commit()
    assert session.strategy_for().tier.partitioned
    return session


def _live_cells() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is ReleaseCell)


def _stale_block_roots(session) -> list:
    """Chains some live :class:`Block` holds that are not session roots."""
    current = {id(root) for root in session.roots()}
    return [
        root
        for obj in gc.get_objects()
        if type(obj) is Block
        for root in obj.roots
        if type(root) is ReleaseChain and id(root) not in current
    ]


class TestRestoreReleasesOldGraph:
    """Restore drops the block partition that pinned the replaced graph."""

    @pytest.mark.parametrize("travel", ["restore", "fork"])
    def test_one_live_graph_after_time_travel(self, travel):
        session = _differential_session()
        assert _live_cells() == CHAINS * CHAIN_LENGTH
        if travel == "restore":
            session.restore(1)
        else:
            session.fork(at=1)
        assert _live_cells() == CHAINS * CHAIN_LENGTH
        assert _stale_block_roots(session) == []

        roots = session.roots()
        for chain in roots[::5]:
            chain.head.next.value += 100
        flags = snapshot_flags(roots)
        out = DataOutputStream()
        driver = Checkpoint(out)
        for root in roots:
            driver.checkpoint(root)
        restore_flags(flags)
        assert session.commit().data == out.getvalue()
        assert session.strategy_for().tier.partitioned
        assert _stale_block_roots(session) == []
        assert _live_cells() == CHAINS * CHAIN_LENGTH


class TestNamedCheckpoints:
    def test_checkpoint_names_resolve_on_restore(self):
        session = make_session()
        root = session.roots()[0]
        session.base()
        root.mid.leaf.value = 42
        session.checkpoint("answer")
        root.mid.leaf.value = 43
        session.commit()
        session.restore("answer")
        assert session.roots()[0].mid.leaf.value == 42
        assert session.named_checkpoints() == {"answer": 1}

    def test_duplicate_checkpoint_name_rejected(self):
        session = make_session()
        session.base(name="start")
        session.roots()[0].mid.leaf.value = 5
        with pytest.raises(StorageError, match="already pins"):
            session.checkpoint("start")

    def test_commit_result_records_name(self):
        session = make_session()
        session.base()
        session.roots()[0].mid.leaf.value = 3
        result = session.checkpoint("pin", phase=None)
        assert result.epoch_name == "pin"


class TestFork:
    def test_fork_produces_divergent_branches(self):
        session = make_session()
        digests = run_history(session, steps=2)
        root = session.roots()[0]

        session.fork(at=0, branch="alt")
        alt_root = session.roots()[0]
        alt_root.mid.leaf.value = 777
        alt = session.commit()
        assert alt.branch == "alt"

        session.restore(2)  # back to the main tip
        main_root = session.roots()[0]
        main_root.mid.leaf.value = 888
        main = session.commit()

        alt_digest = state_digest(
            session.store.materialize(alt.epoch_index)[
                alt_root._ckpt_info.object_id
            ]
        )
        main_digest = state_digest(
            session.store.materialize(main.epoch_index)[
                main_root._ckpt_info.object_id
            ]
        )
        assert alt_digest != main_digest
        branches = session.branches()
        assert branches["alt"] == alt.epoch_index
        assert branches["main"] == main.epoch_index

    def test_fork_without_at_keeps_live_state(self):
        session = make_session()
        run_history(session, steps=2)
        root = session.roots()[0]
        root.mid.leaf.value = 31337  # dirty, uncommitted
        session.fork(branch="wip")
        result = session.commit()
        assert result.branch == "wip"
        assert session.lineage().epoch(result.epoch_index).parent == 2
        restored = session.store.materialize(result.epoch_index)[
            root._ckpt_info.object_id
        ]
        assert restored.mid.leaf.value == 31337

    def test_fork_existing_branch_name_rejected(self):
        session = make_session()
        session.base()
        with pytest.raises(StorageError, match="already exists"):
            session.fork(branch="main")

    def test_fork_auto_names(self):
        session = make_session()
        session.base()
        session.fork()
        assert session.current_branch == "fork-1"

    def test_counters(self):
        session = make_session()
        run_history(session, steps=1)
        session.restore(0)
        session.commit()
        session.fork()
        assert session.restores == 1
        assert session.forks == 1


class TestRestoreGuards:
    def test_compact_refused_between_restore_and_commit(self, tmp_path):
        session = make_session(tmp_path)
        run_history(session)
        session.restore(1)
        with pytest.raises(StorageError, match="not yet anchored"):
            session.compact()
        session.commit()  # anchors the pending chain
        session.compact()

    def test_restore_unknown_name_raises(self):
        session = make_session()
        session.base()
        with pytest.raises(StorageError, match="no checkpoint named"):
            session.restore("missing")

    def test_restore_missing_root_raises(self):
        session = make_session()
        session.base()
        orphan = build_root()  # never committed: unknown object id
        session2 = CheckpointSession(roots=orphan, sink=session.store)
        with pytest.raises(RestoreError, match="does not exist"):
            session2.restore(0)


class _BrokenSpecialized(Strategy):
    """Specialized routine that half-commits the first root, then dies."""

    name = "broken_spec"

    def __init__(self, fail_times=1):
        self.fail_times = fail_times
        self.calls = 0

    def write(self, roots, out):
        from repro.core.checkpoint import Checkpoint

        self.calls += 1
        if self.calls <= self.fail_times:
            if roots:
                Checkpoint(out).checkpoint(roots[0])
            raise RuntimeError("specialized routine hit an unproved shape")


class TestCompactAfterEscalation:
    """Satellite: ``compact()`` x ``recovery_line()`` after a degraded
    commit forced the next epoch to escalate to a full checkpoint."""

    def _escalated_session(self, tmp_path):
        session = CheckpointSession(
            roots=build_root(),
            sink=str(tmp_path / "ckpts"),
            strategy=_BrokenSpecialized(),
            policy=EpochPolicy.delta_only(),
        )
        root = session.roots()[0]
        session.base()
        root.mid.leaf.value = 11
        degraded = session.commit()  # falls back, schedules escalation
        assert degraded.receipt.degraded
        root.mid.leaf.value = 22
        escalated = session.commit()
        assert escalated.kind == FULL
        assert escalated.receipt.escalated
        # later commits go through the real incremental driver
        session.bind("post", "incremental")
        return session, root, escalated

    def test_recovery_line_starts_at_escalated_full_after_compact(
        self, tmp_path
    ):
        session, root, escalated = self._escalated_session(tmp_path)
        root.mid.leaf.value = 33
        session.commit(phase="post")
        expected = state_digest(root)
        new_base = session.compact()
        store = session.store
        line = store.recovery_line()
        assert line[0].kind == FULL
        assert line[0].index == new_base
        table = store.materialize(store.lineage().branches()["main"])
        assert state_digest(table[root._ckpt_info.object_id]) == expected

    def test_restore_into_escalated_history_is_byte_identical(
        self, tmp_path
    ):
        session, root, escalated = self._escalated_session(tmp_path)
        expected = state_digest(root)
        root.mid.leaf.value = 44
        session.commit(phase="post")
        assert restored_digest(session, escalated.epoch_index) == expected
