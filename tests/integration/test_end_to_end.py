"""Integration tests spanning the whole stack.

These exercise realistic end-to-end flows: the analysis engine persisting
to a durable store across a crash, specialized checkpoints feeding the
recovery path, and the synthetic population surviving a full
checkpoint/delta/restore cycle driven by compiled specialized routines.
"""

import os

import pytest

from repro.analysis.engine import AnalysisEngine
from repro.analysis.programs import image_division, image_pipeline_source
from repro.core.checkpoint import FullCheckpoint, collect_objects, reset_flags
from repro.core.restore import replay, state_digest, structurally_equal
from repro.core.storage import FileStore, MemoryStore
from repro.core.streams import DataOutputStream
from repro.spec.modpattern import ModificationPattern
from repro.spec.shape import Shape
from repro.spec.specclass import SpecClass, SpecializedCheckpointer
from repro.synthetic.structures import build_structures, element_at


@pytest.fixture(scope="module")
def source():
    return image_pipeline_source(kernels=2)


class TestEngineCrashRecovery:
    def test_crash_after_partial_run_recovers_and_resumes(self, source, tmp_path):
        store = FileStore(str(tmp_path / "ckpt"))
        engine = AnalysisEngine(source, division=image_division(), store=store)

        # Crash after the SE phase: run only side effects with checkpoints.
        engine._base_checkpoint()
        engine.side_effects.run(
            lambda i: engine._iteration_checkpoint("SE", i)
        )
        partial_digest = state_digest(engine.attributes, include_ids=True)

        # Tear a trailing epoch as a crash would.
        count = len(store.epochs())
        torn = os.path.join(store.directory, f"epoch-{count:06d}.ckpt")
        with open(torn, "wb") as handle:
            handle.write(b"RCKP\x01")

        recovered = AnalysisEngine.recover(
            source, FileStore(store.directory), division=image_division()
        )
        assert (
            state_digest(recovered.attributes, include_ids=True) == partial_digest
        )

        # Resuming completes all phases; results equal an uninterrupted run.
        recovered.run()
        reference = AnalysisEngine(source, division=image_division(), strategy="none")
        reference.run()
        assert state_digest(recovered.attributes) == state_digest(
            reference.attributes
        )

    def test_specialized_strategy_recovery_equivalence(self, source):
        """A store written by specialized checkpoints recovers identically."""
        digests = {}
        for strategy in ("incremental", "specialized"):
            store = MemoryStore()
            engine = AnalysisEngine(
                source, division=image_division(), strategy=strategy, store=store
            )
            engine.run()
            recovered_table = store.recover()
            restored = [
                o
                for o in recovered_table.objects()
                if type(o).__name__ == "AttributesTable"
            ][0]
            digests[strategy] = state_digest(restored)
            assert state_digest(restored) == state_digest(engine.attributes)
        assert digests["incremental"] == digests["specialized"]


class TestSyntheticRecoveryChain:
    def test_spec_written_deltas_replay_to_live_state(self):
        population = build_structures(25, 3, 4, 2)
        shape = Shape.of(population[0])
        pattern = ModificationPattern.restricted_to_lists(shape, ["list0", "list1"])
        fn = SpecializedCheckpointer(SpecClass(shape, pattern, name="e2e_spec"))

        base_driver = FullCheckpoint()
        for compound in population:
            base_driver.checkpoint(compound)
        base = base_driver.getvalue()

        deltas = []
        for round_index in range(5):
            for compound_index in range(0, 25, 3):
                element = element_at(population[compound_index], round_index % 2, 1)
                element.v0 = round_index * 100 + compound_index
            out = DataOutputStream()
            for compound in population:
                fn(compound, out)
            deltas.append(out.getvalue())

        table = replay(base, deltas)
        for compound in population:
            recovered = table[compound._ckpt_id]
            assert structurally_equal(compound, recovered, compare_ids=True)

    def test_mixed_driver_chain(self):
        """Generic and specialized epochs interleave in one recovery line."""
        from repro.core.checkpoint import Checkpoint

        population = build_structures(10, 2, 3, 1)
        shape = Shape.of(population[0])
        fn = SpecializedCheckpointer(SpecClass(shape, name="e2e_mixed"))

        base_driver = FullCheckpoint()
        for compound in population:
            base_driver.checkpoint(compound)
        deltas = []

        population[0].list0.v0 = 1
        generic = Checkpoint()
        for compound in population:
            generic.checkpoint(compound)
        deltas.append(generic.getvalue())

        population[5].list1.next.v0 = 2
        out = DataOutputStream()
        for compound in population:
            fn(compound, out)
        deltas.append(out.getvalue())

        table = replay(base_driver.getvalue(), deltas)
        assert table[population[0]._ckpt_id].list0.v0 == 1
        assert table[population[5]._ckpt_id].list1.next.v0 == 2


class TestWholeStackConsistency:
    def test_flags_clean_after_any_full_pipeline(self, source):
        engine = AnalysisEngine(source, division=image_division())
        engine.run()
        for attrs in engine.attributes.entries:
            for obj in collect_objects(attrs):
                assert not obj._ckpt_dirty

    def test_engine_reports_sum_to_store_content(self, source):
        store = MemoryStore()
        engine = AnalysisEngine(source, division=image_division(), store=store)
        report = engine.run()
        delta_bytes = sum(
            len(e.data) for e in store.epochs() if e.kind == "incremental"
        )
        assert delta_bytes == report.total_checkpoint_bytes()
        base = next(e for e in store.epochs() if e.kind == "full")
        assert len(base.data) == report.base_bytes
