"""Tests for the residual-program verifier.

The verifier must accept everything the real specializer emits (it runs
on every compile) and reject hand-broken residual programs — each broken
program models one way a specializer bug could silently drop data or
corrupt the checkpoint stream.
"""

import pytest

from repro.core.errors import ResidualVerificationError
from repro.spec import (
    ModificationPattern,
    Shape,
    SpecClass,
    SpecializedCheckpointer,
    ir,
    verify_residual,
)
from repro.spec.pe import Specializer
from tests.conftest import build_root


@pytest.fixture(scope="module")
def shape():
    return Shape.of(build_root())


def _patterns(shape):
    return {
        "all_dynamic": ModificationPattern.all_dynamic(shape),
        "none": ModificationPattern.none_modified(shape),
        "leaf_only": ModificationPattern.only(shape, [("mid", "leaf")]),
        "kids": ModificationPattern.only(
            shape, [(("kids", 0),), (("kids", 1),)]
        ),
        "subtree": ModificationPattern.subtrees(shape, [("mid",)]),
    }


def _residual(shape, pattern, guards=False):
    return Specializer(shape, pattern, guards=guards).specialize()


def _record_if_indices(residual):
    return [
        index
        for index, stmt in enumerate(residual.stmts)
        if isinstance(stmt, ir.If)
    ]


class TestAcceptsSpecializerOutput:
    @pytest.mark.parametrize("guards", [False, True])
    @pytest.mark.parametrize(
        "name", ["all_dynamic", "none", "leaf_only", "kids", "subtree"]
    )
    def test_verifies_and_reports_recorded_paths(self, shape, name, guards):
        pattern = _patterns(shape)[name]
        residual = _residual(shape, pattern, guards=guards)
        recorded = verify_residual(residual, shape, pattern, guards)
        assert set(recorded) == set(pattern.may_modify_paths())

    def test_none_pattern_pairs_with_cleanup_off(self, shape):
        # cleanup=False keeps dead bindings; the verifier only demands
        # single assignment and use-before-def, not minimality
        pattern = _patterns(shape)["leaf_only"]
        residual = Specializer(shape, pattern, cleanup=False).specialize()
        recorded = verify_residual(residual, shape, pattern, guards=False)
        assert set(recorded) == {("mid", "leaf")}

    def test_compiler_hook_exposes_recorded_paths(self, shape):
        pattern = _patterns(shape)["kids"]
        compiled = SpecializedCheckpointer(
            SpecClass(shape, pattern, name="verify_hook")
        )
        assert set(compiled.recorded_paths) == set(pattern.may_modify_paths())


class TestRejectsBrokenResiduals:
    def test_dropped_record_block(self, shape):
        pattern = _patterns(shape)["all_dynamic"]
        residual = _residual(shape, pattern)
        index = _record_if_indices(residual)[-1]
        broken = ir.Seq(
            residual.stmts[:index] + residual.stmts[index + 1 :]
        )
        with pytest.raises(ResidualVerificationError, match="dropped subtree"):
            verify_residual(broken, shape, pattern, guards=False)

    def test_missing_flag_reset(self, shape):
        pattern = _patterns(shape)["leaf_only"]
        residual = _residual(shape, pattern)
        index = _record_if_indices(residual)[0]
        block = residual.stmts[index]
        truncated = ir.If(block.cond, ir.Seq(block.then.stmts[:-1]))
        broken = ir.Seq(
            residual.stmts[:index]
            + [truncated]
            + residual.stmts[index + 1 :]
        )
        with pytest.raises(
            ResidualVerificationError, match="resetting the flag"
        ):
            verify_residual(broken, shape, pattern, guards=False)

    def test_wrong_id_write_kind(self, shape):
        pattern = _patterns(shape)["leaf_only"]
        residual = _residual(shape, pattern)
        index = _record_if_indices(residual)[0]
        block = residual.stmts[index]
        body = list(block.then.stmts)
        body[0] = ir.Write("float", body[0].expr)
        broken = ir.Seq(
            residual.stmts[:index]
            + [ir.If(block.cond, ir.Seq(body))]
            + residual.stmts[index + 1 :]
        )
        with pytest.raises(ResidualVerificationError):
            verify_residual(broken, shape, pattern, guards=False)

    def test_record_block_on_quiescent_position(self, shape):
        wide = _patterns(shape)["all_dynamic"]
        narrow = _patterns(shape)["leaf_only"]
        residual = _residual(shape, wide)
        with pytest.raises(ResidualVerificationError, match="quiescent"):
            verify_residual(residual, shape, narrow, guards=False)

    def test_guard_in_unguarded_compile(self, shape):
        pattern = _patterns(shape)["leaf_only"]
        residual = _residual(shape, pattern, guards=True)
        with pytest.raises(ResidualVerificationError, match="unguarded"):
            verify_residual(residual, shape, pattern, guards=False)

    def test_surviving_unspecialized_construct(self, shape):
        pattern = _patterns(shape)["leaf_only"]
        residual = _residual(shape, pattern)
        broken = ir.Seq(
            list(residual.stmts) + [ir.FoldChildren(ir.Var("root"))]
        )
        with pytest.raises(
            ResidualVerificationError, match="unspecialized construct"
        ):
            verify_residual(broken, shape, pattern, guards=False)

    def test_variable_bound_twice(self, shape):
        pattern = _patterns(shape)["leaf_only"]
        residual = _residual(shape, pattern)
        broken = ir.Seq(
            [ir.Assign("root", ir.Const(1))] + list(residual.stmts)
        )
        with pytest.raises(ResidualVerificationError, match="bound twice"):
            verify_residual(broken, shape, pattern, guards=False)

    def test_use_before_assignment(self, shape):
        pattern = _patterns(shape)["leaf_only"]
        broken = ir.Seq([ir.Write("int", ir.Var("n99"))])
        with pytest.raises(
            ResidualVerificationError, match="before assignment"
        ):
            verify_residual(broken, shape, pattern, guards=False)

    def test_header_slot_store_is_rejected(self, shape):
        pattern = _patterns(shape)["leaf_only"]
        residual = _residual(shape, pattern)
        bypass = ir.SetAttr(ir.Var("root"), "_ckpt_dirty", ir.Const(False))
        broken = ir.Seq(list(residual.stmts) + [bypass])
        with pytest.raises(ResidualVerificationError, match="header slot"):
            verify_residual(broken, shape, pattern, guards=False)

    def test_stray_flag_reset_outside_record_block(self, shape):
        pattern = _patterns(shape)["leaf_only"]
        residual = _residual(shape, pattern)
        stray = ir.SetAttr(
            ir.FieldGet(ir.Var("root"), "_ckpt_info"),
            "modified",
            ir.Const(False),
        )
        broken = ir.Seq(list(residual.stmts) + [stray])
        with pytest.raises(ResidualVerificationError, match="stray"):
            verify_residual(broken, shape, pattern, guards=False)
