"""Binding-time analysis over the checkpointing IR.

An offline partial evaluator (Tempo-style, paper section 3) first runs a
*binding-time analysis* that classifies every expression of the source
program as static (S — computable from the specialization-time facts) or
dynamic (D — must remain in the residual program), and every statement
with the action the specializer must take. Only then does the specializer
(:mod:`repro.spec.pe`) transform the program, following the annotations.

Binding-time values of this domain:

``S``
    Fully static: constants, class serials, absent children,
    ``modified`` flags of positions declared quiescent.
``D``
    Fully dynamic: field contents, object identifiers, live flags.
``PS``
    Partially static object: its class and shape are static (so calls on
    it can be unfolded and its field layout is known), but its identity is
    a run-time value.
``PSINFO``
    The ``CheckpointInfo`` of a partially static object.
``PSLIST``
    A child list of a partially static object: members' shapes and the
    length are static, the member identities are dynamic.
``DRIVER`` / ``OUT``
    The checkpoint driver and the output stream — pure residual artifacts.

Statement actions: ``bind`` (Assign), ``reduce`` / ``residual`` (If),
``unfold`` (virtual call with a PS receiver), ``unroll`` (child-list
iteration with static length), ``residual`` (everything that must be
emitted), ``seq``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.errors import SpecializationError
from repro.core.info import HEADER_SLOTS
from repro.spec import ir
from repro.spec.modpattern import ModificationPattern
from repro.spec.shape import ShapeNode

# Binding-time values: ("S",) | ("D",) | ("PS", node) | ("PSINFO", node)
# | ("PSLIST", node, field) | ("DRIVER",) | ("OUT",)
BTVal = Tuple


S = ("S",)
D = ("D",)
DRIVER = ("DRIVER",)
OUT = ("OUT",)


def ps(node: ShapeNode) -> BTVal:
    return ("PS", node)


def psinfo(node: ShapeNode) -> BTVal:
    return ("PSINFO", node)


def pslist(node: ShapeNode, field: str) -> BTVal:
    return ("PSLIST", node, field)


class BTContext:
    """Environment + facts the analysis classifies against."""

    def __init__(self, env: Dict[str, BTVal], pattern: ModificationPattern) -> None:
        self.env = env
        self.pattern = pattern


def annotate(stmt: ir.Stmt, ctx: BTContext) -> None:
    """Annotate every node under ``stmt`` (sets ``node.bt`` in place)."""
    _annotate_stmt(stmt, ctx)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def _annotate_expr(expr: ir.Expr, ctx: BTContext) -> BTVal:
    value = _classify(expr, ctx)
    expr.bt = value[0]
    return value


def _field_spec(node: ShapeNode, slot: str):
    for spec in node.cls._ckpt_schema:
        if spec.slot == slot:
            return spec
    raise SpecializationError(
        f"class {node.cls.__name__} has no checkpointable slot {slot!r}"
    )


def _classify(expr: ir.Expr, ctx: BTContext) -> BTVal:
    if isinstance(expr, ir.Const):
        return S
    if isinstance(expr, ir.Var):
        try:
            return ctx.env[expr.name]
        except KeyError:
            raise SpecializationError(f"unbound variable {expr.name!r} in IR")
    if isinstance(expr, ir.FieldGet):
        base = _annotate_expr(expr.base, ctx)
        return _classify_field(base, expr.field, ctx)
    if isinstance(expr, ir.IndexGet):
        base = _annotate_expr(expr.base, ctx)
        if base[0] == "PSLIST":
            _, node, field = base
            members = node.list_nodes(field)
            if expr.index >= len(members):
                raise SpecializationError(
                    f"index {expr.index} out of range for list {field!r} "
                    f"at {node.path!r}"
                )
            return ps(members[expr.index])
        return D
    if isinstance(expr, ir.ListLen):
        base = _annotate_expr(expr.base, ctx)
        return S if base[0] == "PSLIST" else D
    if isinstance(expr, ir.IsNone):
        base = _annotate_expr(expr.base, ctx)
        # Presence of a child is a structural fact: static for PS values and
        # for statically known None (S); dynamic otherwise.
        return S if base[0] in ("PS", "S") else D
    if isinstance(expr, ir.Not):
        return _annotate_expr(expr.operand, ctx)
    if isinstance(expr, ir.ClassSerialOf):
        base = _annotate_expr(expr.base, ctx)
        return S if base[0] == "PS" else D
    if isinstance(expr, ir.MethodCall):
        base = _annotate_expr(expr.base, ctx)
        for arg in expr.args:
            _annotate_expr(arg, ctx)
        if base[0] == "PS" and expr.method in ("record", "fold"):
            return ("UNFOLD",)
        if base[0] == "DRIVER" and expr.method == "checkpoint":
            return ("UNFOLD",)
        return D
    raise SpecializationError(f"unknown IR expression {expr!r}")


def _classify_field(base: BTVal, field: str, ctx: BTContext) -> BTVal:
    if base[0] == "PS":
        node = base[1]
        if field == "_ckpt_info":
            return psinfo(node)
        if field.startswith("_f_"):
            spec = _field_spec(node, field)
            if spec.role == "child":
                child = node.child_node(spec.name)
                return S if child is None else ps(child)
            if spec.role == "child_list":
                return pslist(node, spec.name)
            return D  # scalar and scalar_list contents are run-time values
        raise SpecializationError(
            f"IR reads unexpected attribute {field!r} of a checkpointable object"
        )
    if base[0] == "PSINFO":
        node = base[1]
        if field == "modified":
            if ctx.pattern.node_may_be_modified(node):
                return D
            return S  # declared quiescent: statically False
        if field == "object_id":
            return D
        raise SpecializationError(f"IR reads unexpected info attribute {field!r}")
    return D


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


def _annotate_stmt(stmt: ir.Stmt, ctx: BTContext) -> None:
    if isinstance(stmt, ir.Seq):
        stmt.bt = "seq"
        for inner in stmt.stmts:
            _annotate_stmt(inner, ctx)
    elif isinstance(stmt, ir.Assign):
        value = _annotate_expr(stmt.expr, ctx)
        ctx.env[stmt.name] = value
        stmt.bt = "bind"
    elif isinstance(stmt, ir.If):
        cond = _annotate_expr(stmt.cond, ctx)
        stmt.bt = "reduce" if cond[0] == "S" else "residual"
        # Both arms are analysed in either case; a reduced If only keeps one.
        _annotate_stmt(stmt.then, ctx)
        if stmt.orelse is not None:
            _annotate_stmt(stmt.orelse, ctx)
    elif isinstance(stmt, ir.ExprStmt):
        value = _annotate_expr(stmt.expr, ctx)
        stmt.bt = "unfold" if value[0] == "UNFOLD" else "residual"
    elif isinstance(stmt, ir.Write):
        _annotate_expr(stmt.expr, ctx)
        stmt.bt = "residual"
    elif isinstance(stmt, ir.SetAttr):
        base = _annotate_expr(stmt.base, ctx)
        if base[0] == "PS" and (
            stmt.field == ir.INFO_FIELD or stmt.field in HEADER_SLOTS
        ):
            raise SpecializationError(
                f"IR writes header slot {stmt.field!r} of a checkpointable "
                "object directly; flag writes go through its CheckpointInfo"
            )
        _annotate_expr(stmt.expr, ctx)
        stmt.bt = "residual"
    elif isinstance(stmt, ir.WriteScalarList):
        _annotate_expr(stmt.expr, ctx)
        stmt.bt = "residual"
    elif isinstance(stmt, (ir.RecordChildIds, ir.FoldChildren)):
        value = _annotate_expr(stmt.expr, ctx)
        stmt.bt = "unroll" if value[0] == "PSLIST" else "residual"
    elif isinstance(stmt, ir.Guard):
        _annotate_expr(stmt.cond, ctx)
        stmt.bt = "residual"
    else:
        raise SpecializationError(f"unknown IR statement {stmt!r}")
