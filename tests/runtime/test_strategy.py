"""Unit tests for strategies and the strategy registry."""

import pytest

from repro.core.checkpoint import (
    Checkpoint,
    collect_objects,
    reset_flags,
    set_all_flags,
)
from repro.core.errors import CheckpointError
from repro.core.streams import DataOutputStream
from repro.runtime import (
    DEFAULT_STRATEGIES,
    AutoSpecStrategy,
    DriverStrategy,
    SpecializedStrategy,
    Strategy,
    StrategyRegistry,
)
from repro.runtime.strategy import NullStrategy
from repro.spec.shape import Shape
from tests.conftest import build_root


def _write(strategy, roots):
    out = DataOutputStream()
    strategy.write(roots, out)
    return out.getvalue()


def _generic_bytes(roots):
    out = DataOutputStream()
    driver = Checkpoint(out)
    for root in roots:
        driver.checkpoint(root)
    return out.getvalue()


def _snapshot_flags(root):
    return [(o.get_checkpoint_info(), o._ckpt_dirty) for o in collect_objects(root)]


def _restore_flags(snapshot):
    for info, modified in snapshot:
        info.modified = modified


class TestRegistry:
    def test_default_tiers_registered(self):
        for name in (
            "none",
            "full",
            "incremental",
            "reflective",
            "iterative",
            "checking",
            "packed",
            "differential",
            "differential-verify",
        ):
            assert name in DEFAULT_STRATEGIES
        assert len(DEFAULT_STRATEGIES) == 9

    def test_create_unknown_raises(self):
        with pytest.raises(CheckpointError, match="unknown strategy"):
            DEFAULT_STRATEGIES.create("bogus")

    def test_duplicate_registration_raises(self):
        registry = DEFAULT_STRATEGIES.copy()
        with pytest.raises(CheckpointError, match="already registered"):
            registry.register("full", NullStrategy)
        registry.register("full", NullStrategy, replace=True)
        assert isinstance(registry.create("full"), NullStrategy)

    def test_copy_isolates_the_default(self):
        registry = DEFAULT_STRATEGIES.copy()
        registry.register("custom", NullStrategy)
        assert "custom" in registry
        assert "custom" not in DEFAULT_STRATEGIES

    def test_resolve_accepts_name_instance_and_factory(self):
        registry = DEFAULT_STRATEGIES.copy()
        by_name = registry.resolve("incremental")
        assert by_name.name == "incremental"
        instance = NullStrategy()
        assert registry.resolve(instance) is instance
        assert isinstance(registry.resolve(NullStrategy), NullStrategy)

    def test_resolve_rejects_garbage(self):
        with pytest.raises(CheckpointError, match="cannot resolve"):
            DEFAULT_STRATEGIES.resolve(42)

    def test_factory_must_return_a_strategy(self):
        registry = StrategyRegistry({"bad": lambda: "nope"})
        with pytest.raises(CheckpointError, match="not a Strategy"):
            registry.create("bad")
        with pytest.raises(CheckpointError, match="not a Strategy"):
            registry.resolve(lambda: object())

    def test_names_sorted(self):
        assert DEFAULT_STRATEGIES.names() == sorted(DEFAULT_STRATEGIES.names())


class TestDriverStrategy:
    @pytest.mark.parametrize(
        "name", ["incremental", "reflective", "iterative", "checking"]
    )
    def test_flag_gated_tiers_match_generic_driver(self, name):
        root = build_root()
        reset_flags(root)
        root.mid.leaf.value = 5
        root.extra.label = "x"
        flags = _snapshot_flags(root)
        expected = _generic_bytes([root])
        _restore_flags(flags)
        strategy = DEFAULT_STRATEGIES.create(name)
        assert _write(strategy, [root]) == expected

    def test_fresh_driver_per_commit(self):
        root = build_root()
        strategy = DEFAULT_STRATEGIES.create("full")
        first = _write(strategy, [root])
        second = _write(strategy, [root])
        assert first == second  # no state bleeds between commits

    def test_multiple_roots_in_order(self):
        a, b = build_root(), build_root()
        flags = _snapshot_flags(a) + _snapshot_flags(b)
        expected = _generic_bytes([a, b])
        _restore_flags(flags)
        strategy = DriverStrategy("incremental", Checkpoint)
        assert _write(strategy, [a, b]) == expected

    def test_null_strategy_writes_nothing(self):
        root = build_root()
        assert _write(NullStrategy(), [root]) == b""


class TestSpecializedStrategy:
    def test_for_prototype_matches_generic_on_conforming_state(self):
        root = build_root()
        set_all_flags(root)
        flags = _snapshot_flags(root)
        expected = _generic_bytes([root])
        _restore_flags(flags)
        strategy = SpecializedStrategy.for_prototype(build_root())
        assert _write(strategy, [root]) == expected

    def test_source_exposed(self):
        strategy = SpecializedStrategy.for_prototype(build_root())
        assert "def spec_checkpoint" in strategy.source

    def test_name_defaults_to_spec_name(self):
        strategy = SpecializedStrategy.for_prototype(build_root())
        assert strategy.name == "specialized:spec_checkpoint"
        named = SpecializedStrategy(strategy.checkpointer, name="tier-x")
        assert named.name == "tier-x"


class TestAutoSpecStrategy:
    def test_requires_shape_or_auto(self):
        with pytest.raises(CheckpointError, match="needs a shape"):
            AutoSpecStrategy()

    def test_first_commit_observes_and_matches_generic(self):
        root = build_root()
        strategy = AutoSpecStrategy(shape=Shape.of(root))
        flags = _snapshot_flags(root)
        expected = _generic_bytes([root])
        _restore_flags(flags)
        assert _write(strategy, [root]) == expected
        assert strategy.auto.observer.observations > 0

    def test_specialized_commits_match_generic(self):
        root = build_root()
        strategy = AutoSpecStrategy(shape=Shape.of(root))
        _write(strategy, [root])  # observe + generic
        reset_flags(root)
        root.mid.leaf.value = 9  # same position again: conforming
        flags = _snapshot_flags(root)
        expected = _generic_bytes([root])
        _restore_flags(flags)
        assert _write(strategy, [root]) == expected

    def test_refines_on_pattern_violation(self):
        root = build_root()
        strategy = AutoSpecStrategy(shape=Shape.of(root))
        reset_flags(root)
        root.mid.leaf.value = 1
        _write(strategy, [root])  # observes only the leaf position
        reset_flags(root)
        root.extra.label = "surprise"  # outside the observed pattern
        flags = _snapshot_flags(root)
        expected = _generic_bytes([root])
        _restore_flags(flags)
        assert _write(strategy, [root]) == expected  # widened, not dropped


class TestStrategyBase:
    def test_write_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Strategy().write([], DataOutputStream())
