"""Unit tests for the IR templates and the binding-time analysis over them."""

import pytest

from repro.core.errors import SpecializationError
from repro.spec import bta, ir, templates
from repro.spec.modpattern import ModificationPattern
from repro.spec.shape import Shape
from tests.conftest import Leaf, Mid, Root, build_root


@pytest.fixture
def shape():
    return Shape.of(build_root())


def _annotate_checkpoint(shape, pattern, node=None):
    template = templates.checkpoint_ir()
    env = {
        "o": bta.ps(node or shape.root),
        "out": bta.OUT,
        "ckpt": bta.DRIVER,
    }
    bta.annotate(template, bta.BTContext(env, pattern))
    return template


class TestTemplates:
    def test_checkpoint_template_shape(self):
        template = templates.checkpoint_ir()
        assert isinstance(template, ir.Seq)
        assign, conditional, fold = template.stmts
        assert isinstance(assign, ir.Assign)
        assert isinstance(conditional, ir.If)
        assert isinstance(fold, ir.ExprStmt)
        assert isinstance(fold.expr, ir.MethodCall)
        assert fold.expr.method == "fold"

    def test_record_ir_covers_schema(self):
        body = templates.record_ir(Leaf)
        writes = [s for s in body.stmts if isinstance(s, ir.Write)]
        assert len(writes) == 4  # int, float, str, bool scalars

    def test_record_ir_child_conditional(self):
        body = templates.record_ir(Mid)
        kinds = [type(s).__name__ for s in body.stmts]
        assert "Assign" in kinds and "If" in kinds and "WriteScalarList" in kinds

    def test_fold_ir_only_children(self):
        assert templates.fold_ir(Leaf).stmts == []
        body = templates.fold_ir(Root)
        assert any(isinstance(s, ir.FoldChildren) for s in body.stmts)

    def test_non_checkpointable_class_rejected(self):
        class Plain:
            pass

        with pytest.raises(SpecializationError):
            templates.record_ir(Plain)
        with pytest.raises(SpecializationError):
            templates.fold_ir(Plain)

    def test_full_template_has_no_test(self):
        template = templates.full_checkpoint_ir()
        assert not any(isinstance(s, ir.If) for s in template.stmts)

    def test_pretty_renders(self):
        text = ir.pretty(templates.checkpoint_ir())
        assert "modified" in text


class TestBindingTimes:
    def test_modified_dynamic_when_node_may_change(self, shape):
        pattern = ModificationPattern.all_dynamic(shape)
        template = _annotate_checkpoint(shape, pattern)
        conditional = template.stmts[1]
        assert conditional.bt == "residual"
        assert conditional.cond.bt == "D"

    def test_modified_static_when_quiescent(self, shape):
        pattern = ModificationPattern.none_modified(shape)
        template = _annotate_checkpoint(shape, pattern)
        conditional = template.stmts[1]
        assert conditional.bt == "reduce"
        assert conditional.cond.bt == "S"

    def test_virtual_calls_marked_unfold(self, shape):
        pattern = ModificationPattern.all_dynamic(shape)
        template = _annotate_checkpoint(shape, pattern)
        fold_stmt = template.stmts[2]
        assert fold_stmt.bt == "unfold"

    def test_class_serial_static(self, shape):
        pattern = ModificationPattern.all_dynamic(shape)
        template = _annotate_checkpoint(shape, pattern)
        body = template.stmts[1].then
        serial_write = body.stmts[1]
        assert isinstance(serial_write, ir.Write)
        assert serial_write.expr.bt == "S"

    def test_object_id_dynamic(self, shape):
        pattern = ModificationPattern.all_dynamic(shape)
        template = _annotate_checkpoint(shape, pattern)
        id_write = template.stmts[1].then.stmts[0]
        assert id_write.expr.bt == "D"

    def test_record_child_isnone_static(self, shape):
        pattern = ModificationPattern.all_dynamic(shape)
        body = templates.record_ir(Mid)
        env = {"self": bta.ps(shape.node_at(("mid",))), "out": bta.OUT}
        bta.annotate(body, bta.BTContext(env, pattern))
        conditional = next(s for s in body.stmts if isinstance(s, ir.If))
        assert conditional.bt == "reduce"  # presence is a structural fact

    def test_child_list_unrolls(self, shape):
        pattern = ModificationPattern.all_dynamic(shape)
        body = templates.fold_ir(Root)
        env = {"self": bta.ps(shape.root), "ckpt": bta.DRIVER}
        bta.annotate(body, bta.BTContext(env, pattern))
        fold_children = next(
            s for s in body.stmts if isinstance(s, ir.FoldChildren)
        )
        assert fold_children.bt == "unroll"

    def test_header_slot_store_rejected(self, shape):
        pattern = ModificationPattern.all_dynamic(shape)
        body = ir.Seq([ir.SetAttr(ir.Var("o"), "_ckpt_block", ir.Const(None))])
        with pytest.raises(SpecializationError, match="header slot"):
            bta.annotate(body, bta.BTContext({"o": bta.ps(shape.root)}, pattern))

    def test_unbound_variable_rejected(self, shape):
        pattern = ModificationPattern.all_dynamic(shape)
        with pytest.raises(SpecializationError, match="unbound"):
            bta.annotate(
                ir.Seq([ir.Assign("x", ir.Var("ghost"))]),
                bta.BTContext({}, pattern),
            )

    def test_scalar_fields_dynamic(self, shape):
        pattern = ModificationPattern.all_dynamic(shape)
        body = templates.record_ir(Leaf)
        env = {"self": bta.ps(shape.node_at(("extra",))), "out": bta.OUT}
        bta.annotate(body, bta.BTContext(env, pattern))
        first_write = body.stmts[0]
        assert first_write.expr.bt == "D"
