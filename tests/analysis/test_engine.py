"""Unit tests for the analysis engine and its checkpointing strategies."""

import pytest

from repro.analysis.attributes import AttributesTable
from repro.analysis.engine import PHASE_WRITES, AnalysisEngine
from repro.analysis.programs import image_division, image_pipeline_source, tiny_source
from repro.core.errors import CheckpointError, RestoreError
from repro.core.restore import state_digest
from repro.core.storage import MemoryStore


@pytest.fixture(scope="module")
def tiny():
    return tiny_source()


class TestBasicRun:
    def test_phases_run_and_report(self, tiny):
        engine = AnalysisEngine(tiny, division=image_division())
        report = engine.run()
        assert set(report.phase_iterations) == {"SE", "BTA", "ETA"}
        assert all(v >= 2 for v in report.phase_iterations.values())
        assert report.base_bytes > 0
        assert len(report.records) == sum(report.phase_iterations.values())
        assert report.analysis_seconds > 0

    def test_unknown_strategy_rejected(self, tiny):
        with pytest.raises(CheckpointError, match="unknown strategy"):
            AnalysisEngine(tiny, strategy="bogus")

    def test_strategy_none_takes_no_checkpoints(self, tiny):
        engine = AnalysisEngine(tiny, strategy="none")
        report = engine.run()
        assert report.records == []
        assert report.base_bytes == 0

    def test_attributes_one_per_ast_node(self, tiny):
        engine = AnalysisEngine(tiny)
        assert len(engine.attributes.entries) == engine.program.node_count
        assert engine.attributes.of(engine.program).node_id == 0


class TestCheckpointShrinkage:
    def test_incremental_sizes_decrease_to_zero(self, tiny):
        engine = AnalysisEngine(tiny, division=image_division())
        report = engine.run()
        for phase in ("SE", "BTA", "ETA"):
            sizes = [r.checkpoint_bytes for r in report.phase_records(phase)]
            assert sizes[-1] == 0  # the verification pass changes nothing
            assert sizes[0] >= sizes[-1]

    def test_full_sizes_constant(self, tiny):
        engine = AnalysisEngine(tiny, division=image_division(), strategy="full")
        report = engine.run()
        sizes = {r.checkpoint_bytes for r in report.records}
        assert len(sizes) == 1

    def test_incremental_much_smaller_than_full(self, tiny):
        incremental = AnalysisEngine(tiny, division=image_division()).run()
        full = AnalysisEngine(tiny, division=image_division(), strategy="full").run()
        assert (
            incremental.total_checkpoint_bytes()
            < full.total_checkpoint_bytes() / 2
        )


class TestStrategyEquivalence:
    def test_all_strategies_write_identical_incremental_bytes(self, tiny):
        """incremental / reflective / specialized record the same data."""
        data = {}
        for strategy in ("incremental", "reflective", "specialized"):
            engine = AnalysisEngine(
                tiny, division=image_division(), strategy=strategy
            )
            engine.run()
            data[strategy] = [
                r.checkpoint_bytes for r in engine.report.records
            ]
        assert data["incremental"] == data["reflective"] == data["specialized"]

    def test_final_states_identical_across_strategies(self, tiny):
        digests = set()
        for strategy in ("none", "full", "incremental", "specialized"):
            engine = AnalysisEngine(tiny, division=image_division(), strategy=strategy)
            engine.run()
            digests.add(state_digest(engine.attributes))
        assert len(digests) == 1

    def test_specialized_patterns_conform(self, tiny):
        """No phase ever dirties a subtree outside its declared pattern."""
        from repro.spec.modpattern import ModificationPattern

        engine = AnalysisEngine(tiny, division=image_division(), strategy="specialized")
        shape = engine.attributes_shape()
        violations = []

        original = engine._iteration_checkpoint

        def checked(phase, iteration):
            pattern = ModificationPattern.subtrees(shape, [PHASE_WRITES[phase]])
            for attrs in engine.attributes.entries:
                violations.extend(pattern.validate_against(attrs))
            original(phase, iteration)

        engine._iteration_checkpoint = checked
        engine.run()
        assert violations == []

    def test_guarded_specialized_run_passes(self, tiny):
        engine = AnalysisEngine(
            tiny, division=image_division(), strategy="specialized", guards=True
        )
        engine.run()  # guards verify the phase declarations at run time

    def test_metered_run_counts_and_bytes(self, tiny):
        engine = AnalysisEngine(
            tiny, division=image_division(), strategy="incremental", meter=True
        )
        report = engine.run()
        assert all(r.counts is not None for r in report.records)
        plain = AnalysisEngine(tiny, division=image_division()).run()
        assert [r.checkpoint_bytes for r in report.records] == [
            r.checkpoint_bytes for r in plain.records
        ]

    def test_traversal_measurement(self, tiny):
        engine = AnalysisEngine(
            tiny, division=image_division(), measure_traversal=True
        )
        report = engine.run()
        assert all(r.traversal_seconds > 0 for r in report.records)


class TestPersistenceAndRecovery:
    def test_store_receives_base_plus_deltas(self, tiny):
        store = MemoryStore()
        engine = AnalysisEngine(tiny, division=image_division(), store=store)
        report = engine.run()
        epochs = store.epochs()
        assert epochs[0].kind == "full"
        assert len(epochs) == 1 + len(report.records)

    def test_recover_restores_exact_state(self, tiny):
        store = MemoryStore()
        engine = AnalysisEngine(tiny, division=image_division(), store=store)
        engine.run()
        before = state_digest(engine.attributes, include_ids=True)
        recovered = AnalysisEngine.recover(tiny, store, division=image_division())
        assert state_digest(recovered.attributes, include_ids=True) == before

    def test_recover_builds_no_throwaway_table(self, tiny, monkeypatch):
        # recovery replays the store and adopts its table; a fresh
        # table for the program would only be dropped
        store = MemoryStore()
        engine = AnalysisEngine(tiny, division=image_division(), store=store)
        engine.run()
        before = state_digest(engine.attributes, include_ids=True)

        def refuse(cls, node_count):
            raise AssertionError("recover built a fresh AttributesTable")

        monkeypatch.setattr(AttributesTable, "for_program", classmethod(refuse))
        recovered = AnalysisEngine.recover(tiny, store, division=image_division())
        assert state_digest(recovered.attributes, include_ids=True) == before

    def test_recover_rejects_different_program(self, tiny):
        store = MemoryStore()
        AnalysisEngine(tiny, division=image_division(), store=store).run()
        other = image_pipeline_source(kernels=1)
        with pytest.raises(RestoreError, match="different program"):
            AnalysisEngine.recover(other, store, division=image_division())

    def test_resumed_run_converges_with_small_deltas(self, tiny):
        store = MemoryStore()
        first = AnalysisEngine(tiny, division=image_division(), store=store)
        first_report = first.run()
        resumed = AnalysisEngine.recover(tiny, store, division=image_division())
        resumed_report = resumed.run()
        assert (
            resumed_report.total_checkpoint_bytes()
            < first_report.total_checkpoint_bytes() / 2
        )


class TestSpecializedRoutineCache:
    def test_per_phase_routines_cached(self, tiny):
        engine = AnalysisEngine(tiny, strategy="specialized")
        first = engine.specialized_for("BTA")
        assert engine.specialized_for("BTA") is first
        assert engine.specialized_for("ETA") is not first

    def test_phase_routine_touches_only_its_entry(self, tiny):
        engine = AnalysisEngine(tiny, strategy="specialized")
        bta_source = engine.specialized_for("BTA").source
        assert "_f_bt_entry" in bta_source
        assert "_f_se_entry" not in bta_source
        assert "_f_et_entry" not in bta_source


class TestAutospecStrategy:
    def test_bytes_identical_to_incremental(self, tiny):
        auto = AnalysisEngine(tiny, division=image_division(), strategy="autospec")
        auto.run()
        plain = AnalysisEngine(
            tiny, division=image_division(), strategy="incremental"
        )
        plain.run()
        assert [r.checkpoint_bytes for r in auto.report.records] == [
            r.checkpoint_bytes for r in plain.report.records
        ]

    def test_final_state_matches(self, tiny):
        auto = AnalysisEngine(tiny, division=image_division(), strategy="autospec")
        auto.run()
        reference = AnalysisEngine(
            tiny, division=image_division(), strategy="none"
        )
        reference.run()
        assert state_digest(auto.attributes) == state_digest(reference.attributes)

    def test_derived_patterns_within_declared(self, tiny):
        from repro.spec.modpattern import ModificationPattern

        engine = AnalysisEngine(tiny, division=image_division(), strategy="autospec")
        engine.run()
        shape = engine.attributes_shape()
        for phase, auto in engine._auto.items():
            declared = ModificationPattern.subtrees(shape, [PHASE_WRITES[phase]])
            assert auto.observer.seen_dirty() <= declared.may_modify_paths()
            assert auto.recompilations >= 1

    def test_store_recovery_from_autospec_run(self, tiny):
        store = MemoryStore()
        engine = AnalysisEngine(
            tiny, division=image_division(), strategy="autospec", store=store
        )
        engine.run()
        recovered = AnalysisEngine.recover(
            tiny, store, division=image_division()
        )
        assert state_digest(recovered.attributes, include_ids=True) == state_digest(
            engine.attributes, include_ids=True
        )

    def test_meter_rejected(self, tiny):
        with pytest.raises(CheckpointError, match="metering"):
            AnalysisEngine(tiny, strategy="autospec", meter=True)
