"""Session-level observability and the commit-path bugfix regressions.

The three regressions here guard the bugs fixed alongside the
observability layer:

1. ``measure()`` used to run the live strategy destructively — its
   ``record`` pass cleared modification flags, so a ``commit()`` after a
   ``measure()`` under-reported the delta.
2. ``_commit``'s fallback path folded the failed specialized attempt and
   the checked-driver re-record into one ``wall_seconds``.
3. ``commit_bytes()`` bypassed the ``_escalate_full`` bookkeeping: a FULL
   epoch committed through it never cleared a pending escalation, and a
   pending escalation it could not honor was silently ignored.
"""

import pytest

from repro.core.storage import FULL, INCREMENTAL, MemoryStore
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import MemoryExporter, Tracer
from repro.runtime.policy import EpochPolicy
from repro.runtime.session import CheckpointSession
from repro.runtime.strategy import Strategy
from tests.conftest import build_root
from tests.runtime.test_receipts import _BrokenSpecialized


class TestMeasurePreservesFlags:
    """Regression 1: measure()-then-commit() must equal commit() alone."""

    def _mutate(self, root):
        root.mid.leaf.value = 4242
        root.kids[0].weight = 9.5

    def test_commit_after_measure_reports_the_full_delta(self):
        root = build_root()
        session = CheckpointSession(roots=root, sink=MemoryStore())
        session.base()
        self._mutate(root)
        # measure() sees the delta commit() is about to write; before the
        # fix its record pass cleared the flags, so the commit that
        # followed wrote an empty epoch
        measured = session.measure()
        committed = session.commit()
        assert measured.size > 0
        assert committed.data == measured.data

    def test_measure_still_observes_the_delta(self):
        root = build_root()
        session = CheckpointSession(roots=root, sink=MemoryStore())
        session.base()
        self._mutate(root)
        assert session.measure().size > 0
        # and the flags survive, so measure is repeatable
        assert session.measure().size > 0

    def test_measure_restores_flags_even_when_the_strategy_raises(self):
        root = build_root()
        session = CheckpointSession(
            roots=root,
            strategy=_BrokenSpecialized(fail_times=1),
            sink=MemoryStore(),
        )
        with pytest.raises(RuntimeError):
            session.measure()
        # the broken strategy recorded (and cleared) part of the structure
        # before raising; measure must have undone that
        assert any(
            obj._ckpt_dirty
            for obj in [root, root.mid, root.mid.leaf]
        )


class TestFallbackTimingSplit:
    """Regression 2: failed-attempt and re-record durations are separate."""

    def _degraded_commit(self):
        session = CheckpointSession(
            roots=build_root(),
            strategy=_BrokenSpecialized(fail_times=1),
            sink=MemoryStore(),
            policy=EpochPolicy.delta_only(),
        )
        session.base()
        return session.commit()

    def test_receipt_carries_both_durations(self):
        receipt = self._degraded_commit().receipt
        assert receipt.degraded
        assert receipt.failed_wall_seconds is not None
        assert receipt.fallback_wall_seconds is not None
        assert receipt.failed_wall_seconds >= 0.0
        assert receipt.fallback_wall_seconds > 0.0

    def test_total_wall_covers_both_attempts(self):
        result = self._degraded_commit()
        receipt = result.receipt
        assert result.wall_seconds >= (
            receipt.failed_wall_seconds + receipt.fallback_wall_seconds
        ) - 1e-9

    def test_clean_commit_leaves_the_split_fields_unset(self):
        session = CheckpointSession(roots=build_root(), sink=MemoryStore())
        receipt = session.base().receipt
        assert receipt.failed_wall_seconds is None
        assert receipt.fallback_wall_seconds is None


class TestCommitBytesEscalation:
    """Regression 3: commit_bytes participates in escalation bookkeeping."""

    def _degraded_session(self):
        session = CheckpointSession(
            roots=build_root(),
            strategy=_BrokenSpecialized(fail_times=1),
            sink=MemoryStore(),
            policy=EpochPolicy.delta_only(),
        )
        session.base()
        session.commit()  # degrades, schedules escalation
        assert session._escalate_full
        return session

    def test_full_bytes_clear_a_pending_escalation(self):
        session = self._degraded_session()
        result = session.commit_bytes(FULL, b"\x00" * 8)
        assert result.receipt.escalated
        assert not session._escalate_full
        # the next policy-decided commit is back to normal deltas
        after = session.commit()
        assert after.kind == INCREMENTAL
        assert not after.receipt.escalated

    def test_incremental_bytes_keep_the_escalation_pending(self):
        session = self._degraded_session()
        result = session.commit_bytes(INCREMENTAL, b"\x00" * 8)
        assert not result.receipt.escalated
        assert session._escalate_full  # not silently consumed
        assert any("still pending" in event for event in result.receipt.events)
        # the escalation eventually lands through the normal commit path
        assert session.commit().kind == FULL

    def test_unescalated_sessions_are_unaffected(self):
        session = CheckpointSession(roots=build_root(), sink=MemoryStore())
        session.base()
        result = session.commit_bytes(INCREMENTAL, b"\x00" * 4)
        assert not result.receipt.escalated
        assert result.receipt.events == []


class TestSessionInstrumentation:
    def test_commit_emits_start_and_end_events(self):
        exporter = MemoryExporter()
        session = CheckpointSession(
            roots=build_root(), sink=MemoryStore(), tracer=Tracer([exporter])
        )
        session.base()
        session.commit(phase="hot")
        ends = exporter.of_type("commit.end")
        assert len(ends) == 2
        assert ends[1]["phase"] == "hot"
        assert ends[1]["bytes"] >= 0
        assert ends[1]["epoch_index"] == 1
        assert len(exporter.of_type("commit.start")) == 2
        assert len(exporter.of_type("sink.put")) == 2

    def test_fallback_emits_a_fallback_event(self):
        exporter = MemoryExporter()
        session = CheckpointSession(
            roots=build_root(),
            strategy=_BrokenSpecialized(fail_times=1),
            sink=MemoryStore(),
            tracer=Tracer([exporter]),
            policy=EpochPolicy.delta_only(),
        )
        session.base()
        session.commit()
        fallback = exporter.of_type("commit.fallback")
        assert len(fallback) == 1
        assert "RuntimeError" in fallback[0]["error"]
        end = exporter.of_type("commit.end")[-1]
        assert end["degraded"]
        assert end["failed_wall_seconds"] is not None
        assert end["fallback_wall_seconds"] is not None

    def test_metrics_record_commit_histograms_and_tier_hits(self):
        registry = MetricsRegistry()
        session = CheckpointSession(
            roots=build_root(), sink=MemoryStore(), metrics=registry
        )
        session.base()
        session.commit(phase="hot")
        snapshot = registry.snapshot()
        assert snapshot["counters"]["commits_total{kind=full,phase=}"] == 1
        assert (
            snapshot["counters"]["commits_total{kind=incremental,phase=hot}"]
            == 1
        )
        assert snapshot["counters"]["strategy_hits_total{strategy=full}"] == 1
        hist = snapshot["histograms"]["commit_seconds{phase=hot}"]
        assert hist["count"] == 1
        assert hist["p50"] is not None

    def test_measure_event_and_histogram(self):
        exporter = MemoryExporter()
        registry = MetricsRegistry()
        root = build_root()
        session = CheckpointSession(
            roots=root,
            sink=MemoryStore(),
            tracer=Tracer([exporter]),
            metrics=registry,
        )
        session.base()
        root.mid.leaf.value = 1
        session.measure(phase="SE")
        assert len(exporter.of_type("measure")) == 1
        assert (
            registry.snapshot()["histograms"]["measure_seconds{phase=SE}"][
                "count"
            ]
            == 1
        )

    def test_compaction_is_traced(self):
        exporter = MemoryExporter()
        root = build_root()
        session = CheckpointSession(
            roots=root,
            sink=MemoryStore(),
            tracer=Tracer([exporter]),
            policy=EpochPolicy.bounded_chain(max_delta_chain=2),
        )
        session.base()
        for step in range(5):
            root.mid.leaf.value = step
            session.commit()
        assert len(exporter.of_type("compaction")) >= 1
