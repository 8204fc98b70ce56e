"""Tests for the ``inferred`` strategy tier and its runtime wiring."""

import pytest

from repro.core.checkpoint import Checkpoint, collect_objects, reset_flags
from repro.core.errors import CheckpointError
from repro.core.streams import DataOutputStream
from repro.runtime import (
    DEFAULT_STRATEGIES,
    CheckpointSession,
    InferredStrategy,
)
from repro.spec.effects.wholeprogram import infer_phases
from repro.spec.shape import Shape
from tests.conftest import Root, build_root


def _generic_bytes(roots):
    # snapshot/restore flags: the generic driver clears them as it records
    snapshot = [
        (o.get_checkpoint_info(), o._ckpt_dirty)
        for root in roots
        for o in collect_objects(root)
    ]
    out = DataOutputStream()
    driver = Checkpoint(out)
    for root in roots:
        driver.checkpoint(root)
    for info, modified in snapshot:
        info.modified = modified
    return out.getvalue()


def _strategy_bytes(strategy, roots):
    out = DataOutputStream()
    strategy.write(roots, out)
    return out.getvalue()


# -- phases / drivers (module level: the analyzer needs their source) -------


def bump_leaf(root: Root):
    root.mid.leaf.value += 1


def rename(root: Root):
    root.name = "renamed"


def inferred_driver(root: Root, session):
    session.base(roots=[root])
    bump_leaf(root)
    session.commit(phase="bump", roots=[root])
    rename(root)
    session.commit(phase="rename", roots=[root])


def unlabeled_driver(root: Root, session):
    session.base(roots=[root])
    bump_leaf(root)
    session.commit(roots=[root])


class TestInferredStrategy:
    def test_from_phases_matches_the_generic_driver(self):
        root = build_root()
        strategy = InferredStrategy.from_phases(
            Shape.of(root), [bump_leaf], name="bump_ckpt"
        )
        reset_flags(root)
        bump_leaf(root)
        expected = _generic_bytes([root])  # snapshots + restores the flags
        assert _strategy_bytes(strategy, [root]) == expected

    def test_name_and_report(self):
        strategy = InferredStrategy.from_phases(
            Shape.of(build_root()), [bump_leaf], name="bump_ckpt"
        )
        assert strategy.name == "inferred:bump_ckpt"
        assert strategy.report.may_write == {("mid", "leaf")}
        assert strategy.report.is_exact()

    def test_from_inferred_phase(self):
        root = build_root()
        shape = Shape.of(root)
        report = infer_phases(shape, inferred_driver, roots=["root"])
        strategy = InferredStrategy.from_inferred(report.bindable()["bump"])
        reset_flags(root)
        bump_leaf(root)
        expected = _generic_bytes([root])  # snapshots + restores the flags
        assert _strategy_bytes(strategy, [root]) == expected


class TestRegisterInferred:
    def test_register_and_create(self):
        registry = DEFAULT_STRATEGIES.copy()
        shape = Shape.of(build_root())
        registry.register_inferred("bump-tier", shape, [bump_leaf])
        strategy = registry.create("bump-tier")
        assert isinstance(strategy, InferredStrategy)
        assert strategy.report.may_write == {("mid", "leaf")}

    def test_factory_compiles_once(self):
        registry = DEFAULT_STRATEGIES.copy()
        shape = Shape.of(build_root())
        registry.register_inferred("bump-tier", shape, [bump_leaf])
        assert registry.create("bump-tier") is registry.create("bump-tier")

    def test_duplicate_name_needs_replace(self):
        registry = DEFAULT_STRATEGIES.copy()
        shape = Shape.of(build_root())
        registry.register_inferred("bump-tier", shape, [bump_leaf])
        with pytest.raises(CheckpointError, match="already registered"):
            registry.register_inferred("bump-tier", shape, [bump_leaf])
        registry.register_inferred(
            "bump-tier", shape, [bump_leaf], replace=True
        )


class TestSessionBinding:
    def test_bind_inferred_routes_the_phase(self):
        root = build_root()
        session = CheckpointSession(roots=root)
        strategy = session.bind_inferred("bump", Shape.of(root), [bump_leaf])
        assert session.bound("bump")
        session.base()
        bump_leaf(root)
        generic = _generic_bytes([root])
        result = session.commit(phase="bump")
        assert result.data == generic
        assert isinstance(strategy, InferredStrategy)

    def test_bind_program_binds_every_labeled_phase(self):
        root = build_root()
        session = CheckpointSession(roots=root)
        report = session.bind_program(
            Shape.of(root), inferred_driver, roots=["root"]
        )
        assert session.bound("bump") and session.bound("rename")
        assert set(report.bindable()) == {"bump", "rename"}

    def test_bind_program_end_to_end_matches_generic(self):
        root = build_root()
        session = CheckpointSession(roots=root)
        session.bind_program(Shape.of(root), inferred_driver, roots=["root"])
        session.base()
        bump_leaf(root)
        expected = _generic_bytes([root])
        assert session.commit(phase="bump").data == expected
        rename(root)
        expected = _generic_bytes([root])
        assert session.commit(phase="rename").data == expected

    def test_bind_program_without_labels_is_an_error(self):
        root = build_root()
        session = CheckpointSession(roots=root)
        with pytest.raises(CheckpointError, match="no labeled commit site"):
            session.bind_program(
                Shape.of(root), unlabeled_driver, roots=["root"]
            )

    def test_unbound_phases_fall_back_to_the_session_strategy(self):
        root = build_root()
        session = CheckpointSession(roots=root)
        session.bind_program(Shape.of(root), inferred_driver, roots=["root"])
        session.base()
        bump_leaf(root)
        expected = _generic_bytes([root])
        # a label the program never committed: generic incremental applies
        assert session.commit(phase="elsewhere").data == expected
