"""Emission of residual IR as compiled Python.

The final stage of the specializer (the analog of the paper's
Harissa/Assirah round trip): the residual IR produced by
:class:`~repro.spec.pe.Specializer` is rendered as the source of one
monolithic Python function ``def <name>(root, out)`` and compiled. The
emitted code contains no virtual calls and no framework entry points —
only attribute reads, flag tests for positions that may genuinely be
modified, typed writes, and flag resets, exactly like the paper's
Figure 5/6 output. Header reads are lowered to the object's own slots
(:data:`repro.spec.ir.INFO_SLOTS`): ``n._ckpt_info.modified`` in the
IR becomes ``n._ckpt_dirty`` in the emitted source.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.core.errors import PatternViolationError, SpecializationError
from repro.spec import ir

_WRITER_LOCALS = {
    "int": ("_w_i", "out.write_int32"),
    "float": ("_w_f", "out.write_float64"),
    "bool": ("_w_b", "out.write_bool"),
    "str": ("_w_s", "out.write_str"),
}


class _Emitter:
    def __init__(self) -> None:
        self.lines: List[str] = []
        self.used_kinds: set = set()
        self.namespace: Dict[str, object] = {
            "PatternViolationError": PatternViolationError
        }
        self._loop_counter = 0

    # -- expressions -----------------------------------------------------------

    def expr(self, node: ir.Expr) -> str:
        if isinstance(node, ir.Var):
            return node.name
        if isinstance(node, ir.Const):
            return repr(node.value)
        if isinstance(node, ir.FieldGet):
            return self.attr(node.base, node.field)
        if isinstance(node, ir.IndexGet):
            return f"{self.expr(node.base)}._items[{node.index}]"
        if isinstance(node, ir.ListLen):
            return f"len({self.expr(node.base)}._items)"
        if isinstance(node, ir.IsNone):
            return f"({self.expr(node.base)} is None)"
        if isinstance(node, ir.Not):
            return f"(not {self.expr(node.operand)})"
        if isinstance(node, ir.Eq):
            return f"({self.expr(node.left)} == {self.expr(node.right)})"
        if isinstance(node, ir.ClassIs):
            ref = f"_cls{node.cls._ckpt_serial}"
            self.namespace[ref] = node.cls
            return f"(type({self.expr(node.base)}) is {ref})"
        raise SpecializationError(
            f"expression {node!r} survived specialization but cannot be emitted"
        )

    def attr(self, base: ir.Expr, field: str) -> str:
        """``base.field``, with header reads lowered to the object's slots."""
        if field == ir.INFO_FIELD:
            return self.expr(base)
        return f"{self.expr(base)}.{ir.INFO_SLOTS.get(field, field)}"

    # -- statements -------------------------------------------------------------

    def stmt(self, node: ir.Stmt, indent: int) -> None:
        pad = "    " * indent
        if isinstance(node, ir.Seq):
            for inner in node.stmts:
                self.stmt(inner, indent)
        elif isinstance(node, ir.Assign):
            self.lines.append(f"{pad}{node.name} = {self.expr(node.expr)}")
        elif isinstance(node, ir.If):
            self.lines.append(f"{pad}if {self.expr(node.cond)}:")
            self._block(node.then, indent + 1)
            if node.orelse is not None:
                self.lines.append(f"{pad}else:")
                self._block(node.orelse, indent + 1)
        elif isinstance(node, ir.Write):
            self.used_kinds.add(node.kind)
            writer = _WRITER_LOCALS[node.kind][0]
            self.lines.append(f"{pad}{writer}({self.expr(node.expr)})")
        elif isinstance(node, ir.SetAttr):
            self.lines.append(
                f"{pad}{self.attr(node.base, node.field)} = {self.expr(node.expr)}"
            )
        elif isinstance(node, ir.WriteScalarList):
            self.used_kinds.add(node.kind)
            self.used_kinds.add("int")
            writer = _WRITER_LOCALS[node.kind][0]
            values = self._fresh_loop_var("_v")
            element = self._fresh_loop_var("_e")
            self.lines.append(f"{pad}{values} = {self.expr(node.expr)}._items")
            self.lines.append(f"{pad}_w_i(len({values}))")
            self.lines.append(f"{pad}for {element} in {values}:")
            self.lines.append(f"{pad}    {writer}({element})")
        elif isinstance(node, ir.RecordChildIds):
            self.used_kinds.add("int")
            values = self._fresh_loop_var("_v")
            element = self._fresh_loop_var("_e")
            self.lines.append(f"{pad}{values} = {self.expr(node.expr)}._items")
            self.lines.append(f"{pad}_w_i(len({values}))")
            self.lines.append(f"{pad}for {element} in {values}:")
            self.lines.append(f"{pad}    _w_i({element}._ckpt_id)")
        elif isinstance(node, ir.Guard):
            self.lines.append(f"{pad}if not {self.expr(node.cond)}:")
            self.lines.append(
                f"{pad}    raise PatternViolationError({node.message!r})"
            )
        else:
            raise SpecializationError(
                f"statement {node!r} survived specialization but cannot be emitted"
            )

    def _block(self, node: ir.Stmt, indent: int) -> None:
        before = len(self.lines)
        self.stmt(node, indent)
        if len(self.lines) == before:
            self.lines.append("    " * indent + "pass")

    def _fresh_loop_var(self, prefix: str) -> str:
        self._loop_counter += 1
        return f"{prefix}{self._loop_counter}"


def emit(
    body: ir.Seq, name: str = "spec_checkpoint"
) -> Tuple[str, Callable]:
    """Render residual IR as Python source and compile it.

    Returns ``(source, function)`` where ``function(root, out)`` performs
    the specialized checkpoint.
    """
    emitter = _Emitter()
    emitter.stmt(body, 1)
    body_lines = emitter.lines or ["    pass"]

    prologue = [f"def {name}(root, out):"]
    for kind in ("int", "float", "bool", "str"):
        if kind in emitter.used_kinds:
            local, source = _WRITER_LOCALS[kind]
            prologue.append(f"    {local} = {source}")
    source = "\n".join(prologue + body_lines) + "\n"

    namespace = dict(emitter.namespace)
    code = compile(source, f"<specialized:{name}>", "exec")
    exec(code, namespace)
    function = namespace[name]
    function.__spec_source__ = source
    return source, function
