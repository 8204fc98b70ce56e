"""Residual-program verifier: well-formedness + "no dropped subtree".

The specializer (:mod:`repro.spec.pe`) removes tests, record blocks and
whole traversals from the generic checkpoint algorithm. Each removal is
justified by a pattern fact, but a specializer bug could remove too much —
and an over-eager removal silently *drops data from every checkpoint*.
This module re-checks the residual IR independently, after every compile:

Well-formedness
    Every variable is bound before use and bound exactly once; no
    unspecialized construct (virtual call, un-unrolled traversal, symbolic
    class serial) survives; scalar writes use the wire kind the field
    schema declares; class guards name the class the shape declares;
    guards appear only in guarded compiles.

Record blocks
    A residual ``if info.modified:`` block must be exactly an entry:
    object id write, class-serial constant matching the shape node's
    class, the payload, and a final flag reset. The set of positions with
    such a block is the set of positions the routine can record.

No dropped subtree
    Every path of the shape is either *recorded* by the residual program
    or *justified quiescent* by the modification pattern. Equivalently:
    the recorded set equals the pattern's may-modify set exactly — one
    direction catches dropped data, the other catches useless residual
    code (a binding-time bug).

The verifier is cheap (one pass over the residual IR, which is linear in
the live part of the shape) and runs on every
:class:`~repro.spec.specclass.SpecializedCheckpointer` construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.errors import ResidualVerificationError
from repro.core.info import HEADER_SLOTS
from repro.spec import ir
from repro.spec.modpattern import ModificationPattern
from repro.spec.shape import Path, Shape


# -- abstract values of the verifier's symbolic walk ------------------------


class _Val:
    __slots__ = ()


class _Obj(_Val):
    __slots__ = ("path",)

    def __init__(self, path: Path) -> None:
        self.path = path


class _Info(_Val):
    __slots__ = ("path",)

    def __init__(self, path: Path) -> None:
        self.path = path


class _List(_Val):
    __slots__ = ("path", "field")

    def __init__(self, path: Path, field: str) -> None:
        self.path = path
        self.field = field


class _Scalar(_Val):
    """A scalar or scalar_list field value of the object at ``path``."""

    __slots__ = ("path", "spec")

    def __init__(self, path: Path, spec) -> None:
        self.path = path
        self.spec = spec


class _Flag(_Val):
    __slots__ = ("path",)

    def __init__(self, path: Path) -> None:
        self.path = path


class _Id(_Val):
    __slots__ = ("path",)

    def __init__(self, path: Path) -> None:
        self.path = path


class _Const(_Val):
    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value


class _Bool(_Val):
    __slots__ = ()


_BOOL = _Bool()


class _Verifier:
    def __init__(
        self, shape: Shape, pattern: ModificationPattern, guards: bool, name: str
    ) -> None:
        self.shape = shape
        self.pattern = pattern
        self.guards = guards
        self.name = name
        self.may_modify = pattern.may_modify_paths()
        self.env: Dict[str, _Val] = {"root": _Obj(())}
        self.recorded: Set[Path] = set()

    def fail(self, message: str) -> None:
        raise ResidualVerificationError(
            f"residual program {self.name!r}: {message}"
        )

    # -- expression evaluation ---------------------------------------------

    def eval(self, expr: ir.Expr) -> _Val:
        if isinstance(expr, ir.Var):
            value = self.env.get(expr.name)
            if value is None:
                self.fail(f"variable {expr.name!r} is used before assignment")
            return value
        if isinstance(expr, ir.Const):
            return _Const(expr.value)
        if isinstance(expr, ir.FieldGet):
            return self._field(self.eval(expr.base), expr.field, expr)
        if isinstance(expr, ir.IndexGet):
            base = self.eval(expr.base)
            if not isinstance(base, _List):
                self.fail(f"indexing a non-list value in {expr!r}")
            members = self.shape.node_at(base.path).list_nodes(base.field)
            if not 0 <= expr.index < len(members):
                self.fail(
                    f"index {expr.index} out of range for list "
                    f"{base.field!r} at {base.path!r}"
                )
            return _Obj(members[expr.index].path)
        if isinstance(expr, ir.ListLen):
            base = self.eval(expr.base)
            if not isinstance(base, _List):
                self.fail(f"len() of a non-list value in {expr!r}")
            return _Const(len(self.shape.node_at(base.path).list_nodes(base.field)))
        if isinstance(expr, ir.IsNone):
            self.eval(expr.base)
            return _BOOL
        if isinstance(expr, ir.Not):
            self.eval(expr.operand)
            return _BOOL
        if isinstance(expr, ir.Eq):
            self.eval(expr.left)
            self.eval(expr.right)
            return _BOOL
        if isinstance(expr, ir.ClassIs):
            base = self.eval(expr.base)
            if not isinstance(base, _Obj):
                self.fail(f"class guard on a non-object value in {expr!r}")
            return _BOOL
        if isinstance(expr, (ir.ClassSerialOf, ir.MethodCall)):
            self.fail(f"unspecialized construct survived: {expr!r}")
        self.fail(f"unknown residual expression {expr!r}")

    def _field(self, base: _Val, field: str, expr: ir.Expr) -> _Val:
        if isinstance(base, _Obj):
            node = self.shape.node_at(base.path)
            if field == "_ckpt_info":
                return _Info(base.path)
            spec = None
            for candidate in node.cls._ckpt_schema:
                if candidate.slot == field:
                    spec = candidate
                    break
            if spec is None:
                self.fail(
                    f"read of unknown attribute {field!r} of "
                    f"{node.cls.__name__} at {base.path!r}"
                )
            if spec.role == "child":
                child = node.child_node(spec.name)
                if child is None:
                    self.fail(
                        f"residual reads absent child {spec.name!r} at "
                        f"{base.path!r} (should have been folded to None)"
                    )
                return _Obj(child.path)
            if spec.role == "child_list":
                return _List(base.path, spec.name)
            return _Scalar(base.path, spec)
        if isinstance(base, _Info):
            if field == "modified":
                return _Flag(base.path)
            if field == "object_id":
                return _Id(base.path)
            self.fail(f"read of unknown info attribute {field!r}")
        self.fail(f"attribute read {field!r} on a non-object value in {expr!r}")

    # -- statement walk ----------------------------------------------------

    def walk(self, stmt: ir.Stmt, in_record: Optional[Path] = None) -> None:
        if isinstance(stmt, ir.Seq):
            for inner in stmt.stmts:
                self.walk(inner, in_record)
            return
        if isinstance(stmt, ir.Assign):
            if stmt.name in self.env:
                self.fail(f"variable {stmt.name!r} is bound twice")
            self.env[stmt.name] = self.eval(stmt.expr)
            return
        if isinstance(stmt, ir.If):
            cond = self.eval(stmt.cond)
            if isinstance(cond, _Flag):
                if in_record is not None:
                    self.fail(
                        f"nested record block for {cond.path!r} inside the "
                        f"record block of {in_record!r}"
                    )
                self._record_block(cond.path, stmt)
                return
            self.walk(stmt.then, in_record)
            if stmt.orelse is not None:
                self.walk(stmt.orelse, in_record)
            return
        if isinstance(stmt, ir.Write):
            self._check_write(stmt)
            return
        if isinstance(stmt, ir.WriteScalarList):
            value = self.eval(stmt.expr)
            if not isinstance(value, _Scalar) or value.spec.role != "scalar_list":
                self.fail(f"WriteScalarList of a non-scalar_list value: {stmt!r}")
            if value.spec.kind != stmt.kind:
                self.fail(
                    f"scalar_list field {value.spec.name!r} at {value.path!r} "
                    f"has kind {value.spec.kind!r} but is written as {stmt.kind!r}"
                )
            return
        if isinstance(stmt, ir.RecordChildIds):
            value = self.eval(stmt.expr)
            if not isinstance(value, _List):
                self.fail(f"RecordChildIds of a non-child_list value: {stmt!r}")
            return
        if isinstance(stmt, ir.SetAttr):
            # the only legal SetAttr is the validated flag reset closing a
            # record block, which _record_block consumes before walking
            if stmt.field == ir.INFO_FIELD or stmt.field in HEADER_SLOTS:
                self.fail(
                    f"direct write to header slot {stmt.field!r} bypasses "
                    f"the flag protocol: {stmt!r}"
                )
            self.fail(f"stray attribute write outside a record block: {stmt!r}")
        if isinstance(stmt, ir.Guard):
            self._check_guard(stmt)
            return
        if isinstance(stmt, (ir.ExprStmt, ir.FoldChildren)):
            self.fail(f"unspecialized construct survived: {stmt!r}")
        self.fail(f"unknown residual statement {stmt!r}")

    # -- record blocks -----------------------------------------------------

    def _record_block(self, path: Path, stmt: ir.If) -> None:
        if path not in self.may_modify:
            self.fail(
                f"modified-flag test on {path!r}, which the pattern declares "
                "quiescent (the test should have been folded away)"
            )
        if path in self.recorded:
            self.fail(f"position {path!r} is recorded twice")
        if stmt.orelse is not None:
            self.fail(f"record block for {path!r} has an else branch")
        body = stmt.then.stmts if isinstance(stmt.then, ir.Seq) else [stmt.then]
        if len(body) < 3:
            self.fail(f"record block for {path!r} is truncated: {body!r}")

        node = self.shape.node_at(path)
        header_id, header_serial, footer = body[0], body[1], body[-1]
        if not (
            isinstance(header_id, ir.Write)
            and header_id.kind == "int"
            and isinstance(self.eval(header_id.expr), _Id)
            and self.eval(header_id.expr).path == path
        ):
            self.fail(f"record block for {path!r} does not start with its id write")
        if not (
            isinstance(header_serial, ir.Write)
            and header_serial.kind == "int"
            and isinstance(header_serial.expr, ir.Const)
            and header_serial.expr.value == node.cls._ckpt_serial
        ):
            self.fail(
                f"record block for {path!r} does not write the class serial "
                f"of {node.cls.__name__} ({node.cls._ckpt_serial})"
            )
        if not (
            isinstance(footer, ir.SetAttr)
            and footer.field == "modified"
            and isinstance(footer.expr, ir.Const)
            and footer.expr.value is False
        ):
            self.fail(f"record block for {path!r} does not end by resetting the flag")
        footer_base = self.eval(footer.base)
        if not (isinstance(footer_base, _Info) and footer_base.path == path):
            self.fail(f"record block for {path!r} resets the flag of another object")

        self.recorded.add(path)
        for inner in body[2:-1]:
            self.walk(inner, in_record=path)

    # -- leaf statement checks ---------------------------------------------

    def _check_write(self, stmt: ir.Write) -> None:
        value = self.eval(stmt.expr)
        if isinstance(value, _Scalar):
            if value.spec.role != "scalar":
                self.fail(
                    f"field {value.spec.name!r} at {value.path!r} has role "
                    f"{value.spec.role!r} but is written as a plain scalar"
                )
            if value.spec.kind != stmt.kind:
                self.fail(
                    f"scalar field {value.spec.name!r} at {value.path!r} has "
                    f"kind {value.spec.kind!r} but is written as {stmt.kind!r}"
                )
            return
        if isinstance(value, _Id):
            if stmt.kind != "int":
                self.fail(f"object id written with kind {stmt.kind!r}")
            return
        if isinstance(value, _Const):
            if stmt.kind != "int":
                self.fail(f"constant {value.value!r} written with kind {stmt.kind!r}")
            return
        self.fail(f"write of an unexpected value: {stmt!r}")

    def _check_guard(self, stmt: ir.Guard) -> None:
        if not self.guards:
            self.fail(f"guard emitted in an unguarded compile: {stmt!r}")
        cond = stmt.cond
        if isinstance(cond, ir.ClassIs):
            base = self.eval(cond.base)
            if not isinstance(base, _Obj):
                self.fail(f"class guard on a non-object value: {stmt!r}")
            declared = self.shape.node_at(base.path).cls
            if cond.cls is not declared:
                self.fail(
                    f"class guard at {base.path!r} checks {cond.cls.__name__} "
                    f"but the shape declares {declared.__name__}"
                )
            return
        if isinstance(cond, ir.Not):
            flag = self.eval(cond.operand)
            if not isinstance(flag, _Flag):
                self.fail(f"negated guard on a non-flag value: {stmt!r}")
            if flag.path in self.may_modify:
                self.fail(
                    f"quiescence guard at {flag.path!r}, but the pattern "
                    "declares the position modifiable"
                )
            return
        if isinstance(cond, ir.Eq):
            left, right = cond.left, cond.right
            if isinstance(left, ir.ListLen) and isinstance(right, ir.Const):
                length = self.eval(left)
                if not (isinstance(length, _Const) and length.value == right.value):
                    self.fail(
                        f"list-length guard disagrees with the shape: {stmt!r}"
                    )
                return
        self.fail(f"guard condition of unknown form: {stmt!r}")

    # -- the global property -----------------------------------------------

    def check_coverage(self) -> None:
        # paths mix str and tuple elements; repr is the stable total order
        dropped = sorted(self.may_modify - self.recorded, key=repr)
        if dropped:
            self.fail(
                "dropped subtree: positions declared modifiable are never "
                f"recorded by the residual program: {dropped!r}"
            )
        spurious = sorted(self.recorded - self.may_modify, key=repr)
        if spurious:  # pragma: no cover - caught earlier per block
            self.fail(
                f"residual program records quiescent positions: {spurious!r}"
            )


def verify_residual(
    residual: ir.Seq,
    shape: Shape,
    pattern: Optional[ModificationPattern],
    guards: bool,
    name: str = "<specialized>",
) -> List[Path]:
    """Verify a residual program against its shape and pattern.

    Raises :class:`~repro.core.errors.ResidualVerificationError` on any
    well-formedness defect or on a violation of the "no dropped subtree"
    property. Returns the list of recorded paths (preorder) on success.
    """
    pattern = pattern or ModificationPattern.all_dynamic(shape)
    verifier = _Verifier(shape, pattern, guards, name)
    verifier.walk(residual)
    verifier.check_coverage()
    order = {path: index for index, path in enumerate(shape.paths())}
    return sorted(verifier.recorded, key=lambda p: order[p])
