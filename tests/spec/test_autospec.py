"""Unit tests for automatic specialization-class construction (paper §7)."""

import pytest

from repro.core.checkpoint import Checkpoint, collect_objects, reset_flags
from repro.core.errors import PatternViolationError
from repro.core.streams import DataOutputStream
from repro.spec.autospec import AutoSpecializer, PatternObserver
from repro.spec.shape import Shape
from tests.conftest import build_root


def _generic(root):
    driver = Checkpoint()
    driver.checkpoint(root)
    return driver.getvalue()


def _spec(fn, root):
    out = DataOutputStream()
    fn(root, out)
    return out.getvalue()


@pytest.fixture
def scenario():
    root = build_root()
    shape = Shape.of(root)
    reset_flags(root)
    return root, shape


class TestPatternObserver:
    def test_observes_dirty_positions(self, scenario):
        root, shape = scenario
        root.mid.leaf.value = 1
        root.extra.value = 2
        observer = PatternObserver(shape)
        added = observer.observe(root)
        assert added == 2
        assert observer.seen_dirty() == {("mid", "leaf"), ("extra",)}
        # Observation must not consume the flags.
        assert root.mid.leaf._ckpt_dirty

    def test_accumulates_across_runs(self, scenario):
        root, shape = scenario
        observer = PatternObserver(shape)
        root.mid.leaf.value = 1
        observer.observe(root)
        reset_flags(root)
        root.kids[0].value = 2
        observer.observe(root)
        assert observer.seen_dirty() == {("mid", "leaf"), (("kids", 0),)}
        assert observer.observations == 2

    def test_coverage(self, scenario):
        root, shape = scenario
        observer = PatternObserver(shape)
        assert observer.coverage() == 0.0
        root.mid.leaf.value = 1
        observer.observe(root)
        assert observer.coverage() == pytest.approx(1 / 6)

    def test_derived_pattern_queries(self, scenario):
        root, shape = scenario
        observer = PatternObserver(shape)
        root.mid.leaf.value = 1
        observer.observe(root)
        pattern = observer.pattern()
        assert pattern.node_may_be_modified(shape.node_at(("mid", "leaf")))
        assert not pattern.node_may_be_modified(shape.node_at(("extra",)))


class TestAutoSpecializer:
    def test_derived_routine_matches_generic(self, scenario):
        root, shape = scenario
        observer = PatternObserver(shape)
        root.mid.leaf.value = 1
        observer.observe(root)
        auto = AutoSpecializer(shape, observer, name="auto_eq")
        fn = auto.compiled()
        snapshot = [(o.get_checkpoint_info(), o._ckpt_dirty) for o in collect_objects(root)]
        expected = _generic(root)
        for info, modified in snapshot:
            info.modified = modified
        assert _spec(fn, root) == expected

    def test_guarded_violation_then_refine(self, scenario):
        root, shape = scenario
        observer = PatternObserver(shape)
        root.mid.leaf.value = 1
        observer.observe(root)
        auto = AutoSpecializer(shape, observer, name="auto_refine")
        fn = auto.compiled()
        _spec(fn, root)  # consumes the observed modification

        # A new behaviour appears: a kid is modified. kids[0] is not on the
        # traversed path of the narrow pattern, so the routine would
        # silently skip it... except root itself is clean too, making the
        # divergence observable as missing bytes. Use a traversed-path
        # violation instead: dirty mid (spine of mid.leaf).
        root.mid.notes.append(7)
        with pytest.raises(PatternViolationError):
            _spec(fn, root)

        refined = auto.refine(root)
        assert auto.recompilations == 2
        snapshot = [(o.get_checkpoint_info(), o._ckpt_dirty) for o in collect_objects(root)]
        expected = _generic(root)
        for info, modified in snapshot:
            info.modified = modified
        assert _spec(refined, root) == expected

    def test_compiled_is_cached_until_refined(self, scenario):
        root, shape = scenario
        auto = AutoSpecializer(shape, name="auto_cache")
        assert auto.compiled() is auto.compiled()
        assert auto.recompilations == 1

    def test_empty_observations_compile_to_noop(self, scenario):
        root, shape = scenario
        auto = AutoSpecializer(shape, name="auto_empty", guards=False)
        fn = auto.compiled()
        root.extra.value = 5
        assert _spec(fn, root) == b""  # nothing observed -> nothing recorded


class TestPatternCacheFreshness:
    """Regression: refine() must never act on stale subtree-cache facts.

    ``ModificationPattern._subtree_cache`` memoizes "may anything in this
    subtree be modified?" — a fact derived from the immutable
    ``_may_modify`` set. Refinement therefore has to build a *new* pattern
    (and with it an empty cache); reusing or mutating the old one would
    let the recompiled routine keep skipping a subtree that just became
    modifiable.
    """

    def test_refine_builds_fresh_pattern_with_fresh_cache(self, scenario):
        root, shape = scenario
        observer = PatternObserver(shape)
        root.mid.leaf.value = 1
        observer.observe(root)
        auto = AutoSpecializer(shape, observer, name="auto_fresh_cache")
        fn = auto.compiled()
        old_pattern = fn.spec.pattern
        extra_node = shape.node_at(("extra",))
        # Populate the old pattern's subtree cache with "extra is quiescent".
        assert not old_pattern.subtree_may_be_modified(extra_node)
        _spec(fn, root)

        root.extra.value = 3
        with pytest.raises(PatternViolationError):
            _spec(fn, root)
        refined = auto.refine(root)
        new_pattern = refined.spec.pattern

        assert new_pattern is not old_pattern
        assert new_pattern._subtree_cache is not old_pattern._subtree_cache
        assert new_pattern.subtree_may_be_modified(extra_node)
        # The stale fact stays confined to the retired pattern object.
        assert not old_pattern.subtree_may_be_modified(extra_node)

    def test_observe_violate_refine_recompile_matches_generic(self, scenario):
        root, shape = scenario
        observer = PatternObserver(shape)
        root.mid.leaf.value = 1
        observer.observe(root)
        auto = AutoSpecializer(shape, observer, name="auto_full_cycle")
        fn = auto.compiled()
        _spec(fn, root)

        # A subtree the first compile skipped entirely becomes dirty.
        root.extra.value = 4
        with pytest.raises(PatternViolationError):
            _spec(fn, root)
        refined = auto.refine(root)

        snapshot = [
            (o.get_checkpoint_info(), o._ckpt_dirty) for o in collect_objects(root)
        ]
        expected = _generic(root)
        for info, modified in snapshot:
            if modified:
                info.set_modified()
            else:
                info.reset_modified()
        assert _spec(refined, root) == expected
        # The recompiled routine now traverses and records the subtree.
        assert set(refined.recorded_paths) >= {("mid", "leaf"), ("extra",)}

    def test_constructor_copies_its_input_set(self, scenario):
        _root, shape = scenario
        from repro.spec.modpattern import ModificationPattern

        paths = {("extra",)}
        pattern = ModificationPattern.only(shape, paths)
        paths.add(("mid",))  # caller keeps mutating its set
        assert pattern.may_modify_paths() == {("extra",)}
        assert not pattern.node_may_be_modified(shape.node_at(("mid",)))

    def test_widened_leaves_original_untouched(self, scenario):
        _root, shape = scenario
        from repro.spec.modpattern import ModificationPattern

        pattern = ModificationPattern.only(shape, [("mid", "leaf")])
        extra_node = shape.node_at(("extra",))
        assert not pattern.subtree_may_be_modified(extra_node)  # fill cache
        widened = pattern.widened([("extra",)])
        assert widened.subtree_may_be_modified(extra_node)
        assert widened.may_modify_paths() == {("mid", "leaf"), ("extra",)}
        assert pattern.may_modify_paths() == {("mid", "leaf")}
        assert not pattern.subtree_may_be_modified(extra_node)


class TestEngineIntegration:
    def test_observer_reconstructs_phase_patterns(self):
        """Observing one engine phase re-derives the declared pattern."""
        from repro.analysis.engine import PHASE_WRITES, AnalysisEngine
        from repro.analysis.programs import image_division, tiny_source
        from repro.spec.modpattern import ModificationPattern

        engine = AnalysisEngine(
            tiny_source(), division=image_division(), strategy="none"
        )
        shape = engine.attributes_shape()
        observer = PatternObserver(shape)
        engine._base_checkpoint()  # clears construction flags

        engine.bta.run(
            lambda i: [observer.observe(a) for a in engine.attributes.entries]
        )
        declared = ModificationPattern.subtrees(shape, [PHASE_WRITES["BTA"]])
        # Everything observed dirty must lie inside the declared pattern.
        assert observer.seen_dirty() <= declared.may_modify_paths()
        assert observer.seen_dirty()  # and the phase did modify something
