"""Shadow-heap dirtiness oracle: byte-level ground truth for the flags.

The guarantees pinned here:

- on honest workloads (every write through a descriptor or tracked
  list) the flag-predicted dirty set equals the byte diff **exactly**,
  across every built-in strategy tier and the synthetic benchmark's
  variant tiers (including the specialized routines);
- flag-bypassing writes surface as ``unflagged-mutation`` naming the
  class and field;
- the ``none`` tier, which never clears flags, accumulates benign
  over-approximation — and nothing worse;
- the degraded-fallback commit path (a specialized routine dying
  mid-commit) stays oracle-clean: the fallback loses no bytes;
- ``restore()`` resyncs the shadow to the materialized epoch;
- violations are reported once per (kind, class, field) through the
  obs seam.
"""

import pytest

from repro.core.storage import FULL, INCREMENTAL, MemoryStore
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import MemoryExporter, Tracer
from repro.runtime.session import CheckpointSession
from repro.runtime.strategy import Strategy
from repro.sanitize.oracle import OVER, UNDER, ShadowHeapOracle
from tests.conftest import build_root

#: the tiers that clear flags as they record (exact agreement expected)
CLEARING_TIERS = ("full", "incremental", "reflective", "iterative", "checking")


def oracle_session(strategy="incremental", root=None):
    root = root if root is not None else build_root()
    oracle = ShadowHeapOracle()
    session = CheckpointSession(
        roots=root, strategy=strategy, sink=MemoryStore()
    )
    session.attach_oracle(oracle)
    return session, oracle, root


class TestHonestWorkloads:
    @pytest.mark.parametrize("tier", CLEARING_TIERS)
    def test_flags_equal_byte_diff(self, tier):
        session, oracle, root = oracle_session(strategy=tier)
        session.base()
        # two objects mutated, both through descriptors
        root.mid.leaf.value = 1234
        root.kids[0].label = "renamed"
        session.commit(kind=FULL if tier == "full" else INCREMENTAL)
        report = oracle.reports[-1]
        assert report.predicted == 2
        assert report.changed == 2
        assert report.exact
        assert oracle.violations == []
        session.close()

    @pytest.mark.parametrize("tier", CLEARING_TIERS)
    def test_quiescent_commit_is_empty_both_ways(self, tier):
        session, oracle, root = oracle_session(strategy=tier)
        session.base()
        session.commit(kind=FULL if tier == "full" else INCREMENTAL)
        report = oracle.reports[-1]
        assert report.predicted == 0
        assert report.changed == 0
        assert oracle.violations == []
        session.close()

    def test_none_tier_only_overapproximates(self):
        session, oracle, root = oracle_session(strategy="none")
        session.base()
        root.mid.leaf.value = 9
        session.commit(kind=INCREMENTAL)  # writes nothing, clears nothing
        assert oracle.under() == []
        session.commit(kind=INCREMENTAL)
        # the stale flag is now set over unchanged bytes: benign waste
        assert oracle.under() == []
        assert any(v.kind == OVER for v in oracle.over())
        session.close()


class TestSyntheticVariants:
    @pytest.mark.parametrize(
        "variant",
        ("full", "incremental", "reflective", "spec_struct", "spec_struct_mod"),
    )
    def test_variant_tiers_agree_with_byte_diff(self, variant):
        from repro.synthetic.runner import (
            SyntheticConfig,
            SyntheticWorkload,
            variant_strategy,
        )
        from repro.synthetic.workload import (
            apply_modifications,
            draw_modified_positions,
        )

        workload = SyntheticWorkload(
            SyntheticConfig(
                num_structures=6,
                num_lists=2,
                list_length=3,
                percent_modified=0.5,
                seed=23,
            )
        )
        oracle = ShadowHeapOracle()
        session = CheckpointSession(
            roots=workload.structures,
            strategy=variant_strategy(workload, variant),
            sink=MemoryStore(),
        )
        session.attach_oracle(oracle)
        session.base()
        positions = draw_modified_positions(
            len(workload.structures), workload.eligible, 0.5, seed=99
        )
        modified = apply_modifications(workload.structures, positions)
        assert modified > 0
        session.commit(kind=FULL if variant == "full" else INCREMENTAL)
        report = oracle.reports[-1]
        assert report.predicted == modified
        assert report.changed == modified
        assert oracle.violations == []
        session.close()


class TestBypassDetection:
    def test_slot_write_is_an_unflagged_mutation(self):
        session, oracle, root = oracle_session()
        session.base()
        root.mid.leaf._f_value = 4242  # bypasses the descriptor
        session.commit()
        keys = oracle.violation_keys()
        assert ("Leaf", "value") in keys
        [violation] = oracle.under()
        assert violation.kind == UNDER
        assert violation.commit_kind == INCREMENTAL
        session.close()

    def test_raw_list_mutation_is_caught(self):
        session, oracle, root = oracle_session()
        session.base()
        root.kids._items.append(root.extra)  # never touches the flag
        session.commit()
        assert ("Root", "kids") in oracle.violation_keys()
        session.close()

    def test_measure_sees_the_bypass_without_advancing(self):
        session, oracle, root = oracle_session()
        session.base()
        shadow_before = oracle.shadow_size()
        root.mid.leaf._f_value = 7007
        session.measure(phase="probe")
        assert ("Leaf", "value") in oracle.violation_keys()
        assert oracle.shadow_size() == shadow_before
        session.close()

    def test_full_commit_adopts_instead_of_accusing(self):
        from repro.core.checkpoint import reset_flags

        session, oracle, root = oracle_session(strategy="full")
        session.base()
        root.mid.leaf._f_value = 31
        reset_flags(root)
        # a full epoch rewrites every object, so nothing can be lost;
        # the oracle adopts the state rather than reporting
        session.commit(kind=FULL)
        assert oracle.violations == []
        # and the adopted bytes are the new baseline: an honest write
        # afterwards diffs against them exactly
        root.mid.leaf.value = 32
        session.commit(kind=INCREMENTAL)
        assert oracle.violations == []
        session.close()


class _DyingSpecialized(Strategy):
    """A specialized routine that partially records, then raises."""

    name = "dying_spec"

    def __init__(self):
        self.calls = 0

    def write(self, roots, out):
        from repro.core.checkpoint import Checkpoint

        self.calls += 1
        if self.calls == 1:
            if roots:
                Checkpoint(out).checkpoint(roots[0])
            raise RuntimeError("unproved shape")


class TestDegradedFallback:
    def test_fallback_path_is_oracle_clean(self):
        root = build_root()
        oracle = ShadowHeapOracle()
        session = CheckpointSession(
            roots=root, strategy=_DyingSpecialized(), sink=MemoryStore()
        )
        session.attach_oracle(oracle)
        session.base()
        root.mid.leaf.value = 4321
        degraded = session.commit()  # specialized dies -> checked full
        assert degraded.receipt.degraded
        escalated = session.commit()  # chain repair
        assert escalated.kind == FULL
        assert oracle.violations == []
        # the folded shadow matches the durable state: a quiescent
        # commit diffs empty
        session.commit(kind=INCREMENTAL)
        assert oracle.reports[-1].changed == 0
        assert oracle.violations == []
        session.close()


class TestRestoreResync:
    def test_restore_rebaselines_the_shadow(self):
        session, oracle, root = oracle_session()
        session.base()
        root.mid.leaf.value = 777
        session.commit()
        table = session.restore(0)
        restored = table[root._ckpt_info.object_id]
        assert restored.mid.leaf.value != 777
        # the shadow follows the restored epoch: an honest write on the
        # restored graph commits clean
        restored.mid.leaf.value = 888
        session.commit()
        report = oracle.reports[-1]
        assert report.predicted == report.changed == 1
        assert oracle.violations == []
        session.close()


class TestReporting:
    def test_reported_once_per_site_through_obs(self):
        exporter = MemoryExporter()
        tracer = Tracer([exporter])
        metrics = MetricsRegistry()
        root = build_root()
        oracle = ShadowHeapOracle()
        session = CheckpointSession(
            roots=root, sink=MemoryStore(), tracer=tracer, metrics=metrics
        )
        session.attach_oracle(oracle)
        session.base()
        root.mid.leaf._f_value = 1
        session.commit()
        root.mid.leaf._f_value = 2
        session.commit()  # same (kind, class, field): not re-reported
        events = [
            r for r in exporter.records if r["type"] == "oracle.violation"
        ]
        assert len(events) == 1
        assert events[0]["class"] == "Leaf"
        assert events[0]["field"] == "value"
        assert events[0]["kind"] == UNDER
        counters = metrics.snapshot()["counters"]
        assert any("oracle.violations" in key for key in counters)
        assert sum(
            v for k, v in counters.items() if "oracle.violations" in k
        ) == 1
        session.close()

    def test_detach_and_reset(self):
        session, oracle, root = oracle_session()
        session.base()
        assert session.detach_oracle() is oracle
        root.mid.leaf._f_value = 3
        session.commit()  # no oracle attached: nothing observed
        assert oracle.violations == []
        oracle.reset()
        assert oracle.shadow_size() == 0
        assert oracle.reports == []
        session.close()
