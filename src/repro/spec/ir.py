"""A small imperative IR for checkpointing code.

The generic checkpoint algorithm and the per-class generated methods are
expressed in this IR so the specializer can analyse and transform them.
The IR is deliberately tiny: it has exactly the constructs the generated
checkpointing code needs, nothing more.

Expressions
-----------
``Const(value)``
    A literal.
``Var(name)``
    A local variable or parameter.
``FieldGet(base, field)``
    Attribute read ``base.field`` (slots, ``_ckpt_info``, ``modified``, …).
    Header reads keep the paper's Java shape — ``o._ckpt_info`` yields the
    object's ``CheckpointInfo``, whose ``modified`` and ``object_id`` are
    read next — so the IR and its metered op counts match Figure 1. At
    run time the header is the object's own slots; :data:`INFO_SLOTS`
    is the lowering the Python backends apply (``_ckpt_info`` is the
    object itself).
``IndexGet(base, index)``
    ``base._items[index]`` — element of a tracked list.
``ListLen(base)``
    ``len(base._items)``.
``IsNone(base)``
    ``base is None``.
``ClassSerialOf(base)``
    The class serial of the receiver (static once the class is known).
``MethodCall(base, method, args)``
    Virtual call — the dynamic-dispatch points the specializer removes.

Statements
----------
``Seq``, ``Assign``, ``If``, ``ExprStmt``, ``Write(kind, expr)``,
``SetAttr(base, field, expr)``, ``WriteScalarList(kind, expr)``,
``RecordChildIds(expr)``, ``FoldChildren(expr)``, ``Guard(cond, message)``.

Every node carries a ``bt`` slot filled in by the binding-time analysis
(:mod:`repro.spec.bta`).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

WRITE_KINDS = ("int", "float", "bool", "str")

#: the IR's ``CheckpointInfo`` read: lowered to the object itself
INFO_FIELD = "_ckpt_info"

#: ``CheckpointInfo`` attributes and the header slots they lower to
INFO_SLOTS = {"modified": "_ckpt_dirty", "object_id": "_ckpt_id"}


class Node:
    """Base class of all IR nodes."""

    __slots__ = ("bt",)

    def __init__(self) -> None:
        #: binding time / action, filled in by :mod:`repro.spec.bta`
        self.bt: Optional[str] = None


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    __slots__ = ()


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        super().__init__()
        self.value = value

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name

    def __repr__(self) -> str:
        return f"Var({self.name})"


class FieldGet(Expr):
    __slots__ = ("base", "field")

    def __init__(self, base: Expr, field: str) -> None:
        super().__init__()
        self.base = base
        self.field = field

    def __repr__(self) -> str:
        return f"{self.base!r}.{self.field}"


class IndexGet(Expr):
    __slots__ = ("base", "index")

    def __init__(self, base: Expr, index: int) -> None:
        super().__init__()
        self.base = base
        self.index = index

    def __repr__(self) -> str:
        return f"{self.base!r}[{self.index}]"


class ListLen(Expr):
    __slots__ = ("base",)

    def __init__(self, base: Expr) -> None:
        super().__init__()
        self.base = base

    def __repr__(self) -> str:
        return f"len({self.base!r})"


class IsNone(Expr):
    __slots__ = ("base",)

    def __init__(self, base: Expr) -> None:
        super().__init__()
        self.base = base

    def __repr__(self) -> str:
        return f"({self.base!r} is None)"


class Not(Expr):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr) -> None:
        super().__init__()
        self.operand = operand

    def __repr__(self) -> str:
        return f"not {self.operand!r}"


class Eq(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr) -> None:
        super().__init__()
        self.left = left
        self.right = right

    def __repr__(self) -> str:
        return f"({self.left!r} == {self.right!r})"


class ClassIs(Expr):
    """``type(base) is cls`` — emitted only by guarded specialization."""

    __slots__ = ("base", "cls")

    def __init__(self, base: Expr, cls: type) -> None:
        super().__init__()
        self.base = base
        self.cls = cls

    def __repr__(self) -> str:
        return f"(type({self.base!r}) is {self.cls.__name__})"


class ClassSerialOf(Expr):
    __slots__ = ("base",)

    def __init__(self, base: Expr) -> None:
        super().__init__()
        self.base = base

    def __repr__(self) -> str:
        return f"serial({self.base!r})"


class MethodCall(Expr):
    """A virtual call — the dispatch points specialization eliminates."""

    __slots__ = ("base", "method", "args")

    def __init__(self, base: Expr, method: str, args: Sequence[Expr]) -> None:
        super().__init__()
        self.base = base
        self.method = method
        self.args = list(args)

    def __repr__(self) -> str:
        args = ", ".join(repr(a) for a in self.args)
        return f"{self.base!r}.{self.method}({args})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt(Node):
    __slots__ = ()


class Seq(Stmt):
    __slots__ = ("stmts",)

    def __init__(self, stmts: Sequence[Stmt]) -> None:
        super().__init__()
        self.stmts: List[Stmt] = list(stmts)

    def __repr__(self) -> str:
        return f"Seq({self.stmts!r})"


class Assign(Stmt):
    __slots__ = ("name", "expr")

    def __init__(self, name: str, expr: Expr) -> None:
        super().__init__()
        self.name = name
        self.expr = expr

    def __repr__(self) -> str:
        return f"{self.name} = {self.expr!r}"


class If(Stmt):
    __slots__ = ("cond", "then", "orelse")

    def __init__(self, cond: Expr, then: Stmt, orelse: Optional[Stmt] = None) -> None:
        super().__init__()
        self.cond = cond
        self.then = then
        self.orelse = orelse

    def __repr__(self) -> str:
        return f"If({self.cond!r}, {self.then!r}, {self.orelse!r})"


class ExprStmt(Stmt):
    __slots__ = ("expr",)

    def __init__(self, expr: Expr) -> None:
        super().__init__()
        self.expr = expr

    def __repr__(self) -> str:
        return f"ExprStmt({self.expr!r})"


class Write(Stmt):
    """Emit one typed value to the checkpoint output stream."""

    __slots__ = ("kind", "expr")

    def __init__(self, kind: str, expr: Expr) -> None:
        super().__init__()
        assert kind in WRITE_KINDS, kind
        self.kind = kind
        self.expr = expr

    def __repr__(self) -> str:
        return f"Write({self.kind}, {self.expr!r})"


class SetAttr(Stmt):
    """``base.field = expr`` — used for resetting modification flags."""

    __slots__ = ("base", "field", "expr")

    def __init__(self, base: Expr, field: str, expr: Expr) -> None:
        super().__init__()
        self.base = base
        self.field = field
        self.expr = expr

    def __repr__(self) -> str:
        return f"SetAttr({self.base!r}.{self.field} = {self.expr!r})"


class WriteScalarList(Stmt):
    """Emit a length-prefixed list of base-type values (length is dynamic)."""

    __slots__ = ("kind", "expr")

    def __init__(self, kind: str, expr: Expr) -> None:
        super().__init__()
        assert kind in WRITE_KINDS, kind
        self.kind = kind
        self.expr = expr

    def __repr__(self) -> str:
        return f"WriteScalarList({self.kind}, {self.expr!r})"


class RecordChildIds(Stmt):
    """Emit length + identifiers of a child list (unrollable when the shape is known)."""

    __slots__ = ("expr",)

    def __init__(self, expr: Expr) -> None:
        super().__init__()
        self.expr = expr

    def __repr__(self) -> str:
        return f"RecordChildIds({self.expr!r})"


class FoldChildren(Stmt):
    """Apply the checkpoint driver to each member of a child list."""

    __slots__ = ("expr",)

    def __init__(self, expr: Expr) -> None:
        super().__init__()
        self.expr = expr

    def __repr__(self) -> str:
        return f"FoldChildren({self.expr!r})"


class Guard(Stmt):
    """Runtime assertion emitted only by guarded specialization."""

    __slots__ = ("cond", "message")

    def __init__(self, cond: Expr, message: str) -> None:
        super().__init__()
        self.cond = cond
        self.message = message

    def __repr__(self) -> str:
        return f"Guard({self.cond!r}, {self.message!r})"


# ---------------------------------------------------------------------------
# Pretty printing (debugging and documentation of specialized code)
# ---------------------------------------------------------------------------


def pretty(node: Node, indent: int = 0) -> str:
    """Human-readable rendering of an IR tree."""
    pad = "    " * indent
    if isinstance(node, Seq):
        return "\n".join(pretty(s, indent) for s in node.stmts) or f"{pad}pass"
    if isinstance(node, If):
        lines = [f"{pad}if {node.cond!r}:", pretty(node.then, indent + 1)]
        if node.orelse is not None:
            lines.append(f"{pad}else:")
            lines.append(pretty(node.orelse, indent + 1))
        return "\n".join(lines)
    return f"{pad}{node!r}"
