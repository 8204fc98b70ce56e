"""An interpreting abstract machine for the checkpointing IR.

:class:`MeteredMachine` *executes* the checkpointing algorithms — the same
IR templates the specializer consumes, and the residual IR it produces —
against live object structures, writing real checkpoint bytes while
counting every abstract operation. Tests verify that its output is
byte-identical to the production drivers and to the compiled specialized
functions, which makes the op counts trustworthy: they are measurements of
an actual execution, not an analytical estimate.

Accounting conventions (see :mod:`repro.vm.ops`):

- In *generic* code, reads of ``_ckpt_info`` / ``modified`` / ``object_id``
  count as accessor calls (``acc``) — in the paper's Java they are
  ``getCheckpointInfo()`` / ``modified()`` / ``getId()`` method calls whose
  price depends on how well the backend inlines accessors. The machine
  meters the paper's separate-object layout (one ``_ckpt_info`` hop, then
  the flag or id) while evaluating each read against the object's header
  slots (:data:`repro.spec.ir.INFO_SLOTS`), so the counts do not depend
  on how the Python runtime lays the header out.
- In *specialized* code the receiver class is static, so the same reads
  count as plain ``getfield`` — the specializer has proven the access.
- Entering ``checkpoint``/``record``/``fold`` in generic code costs one
  ``vcall``; invoking one compiled specialized routine costs one ``call``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.blocks import HASH_OFF, HASH_SKIP, HASH_VERIFY, BlockTier
from repro.core.checkpointable import Checkpointable
from repro.core.errors import (
    CheckpointError,
    PatternViolationError,
    SpecializationError,
)
from repro.core.info import clear_modified
from repro.core.streams import DataOutputStream, NullOutputStream, PackedEncoder
from repro.spec import ir, templates
from repro.vm.ops import OpCounts

_ACCESSOR_FIELDS = (ir.INFO_FIELD, *ir.INFO_SLOTS)


class _Driver:
    """Sentinel bound to the ``ckpt`` variable during interpretation."""


_DRIVER = _Driver()


class MeteredMachine:
    """Executes checkpointing IR with operation accounting."""

    def __init__(self, out: Optional[DataOutputStream] = None) -> None:
        self.counts = OpCounts()
        self.out = out if out is not None else NullOutputStream()
        self._record_cache: Dict[type, ir.Stmt] = {}
        self._fold_cache: Dict[type, ir.Stmt] = {}
        self._checkpoint_template = templates.checkpoint_ir()
        self._full_template = templates.full_checkpoint_ir()
        self._full_mode = False

    # -- public entry points -------------------------------------------------

    def run_incremental(self, root: Checkpointable) -> None:
        """Execute the generic incremental driver on one structure."""
        self._full_mode = False
        self._visit(root)

    def run_full(self, root: Checkpointable) -> None:
        """Execute the generic full-checkpoint driver on one structure."""
        self._full_mode = True
        self._visit(root)

    def run_residual(self, residual: ir.Seq, root: Checkpointable) -> None:
        """Execute a specialized (residual) program on one structure."""
        self.counts.bump("call")  # direct invocation of the routine
        env: Dict[str, Any] = {"root": root}
        self._exec(residual, env, generic=False)

    def run_packed(
        self, root: Checkpointable, enc: Optional[PackedEncoder] = None
    ) -> PackedEncoder:
        """Execute the packed incremental driver on one structure.

        Same traversal and flag protocol as :meth:`run_incremental`, but
        modified objects are recorded through the generated
        ``record_packed`` routines: runs of consecutive fixed-size fields
        cost one ``pack`` op (a single batched ``struct.pack_into``)
        instead of one typed stream write each. The bytes land in ``enc``
        and are byte-identical to the flag-walk driver's output, which is
        what makes the counts trustworthy.

        Like the generic record IR, the accounting is schema-derived, so
        classes with a hand-written ``record`` (which the production
        packed codec replays through a temporary stream) are priced as if
        they were schema-generated.
        """
        enc = enc if enc is not None else PackedEncoder()
        self._packed_visit(root, enc)
        return enc

    def run_differential(
        self, tier: BlockTier, enc: Optional[PackedEncoder] = None
    ) -> PackedEncoder:
        """Execute one differential commit over a partitioned block tier.

        The block-tier skip decision is one ``test`` per block; only dirty
        blocks pay the packed flag walk. In the hash modes every
        fingerprinted member additionally costs one ``hash`` op. The tier
        must already be partitioned and in sync with its roots — the
        (re)partition walk is the caller's baseline commit, modeled by
        running this once right after :meth:`BlockTier.partition` (all
        blocks start dirty, so that commit walks everything).
        """
        if not tier.partitioned:
            raise CheckpointError(
                "run_differential needs a partitioned BlockTier; call "
                "tier.partition(roots) first"
            )
        counts = self.counts
        enc = enc if enc is not None else PackedEncoder()
        for block in tier.blocks:
            counts.bump("test")  # the per-block generation/dirty check
            clean = tier.is_clean(block)
            if clean and tier.hash_mode == HASH_VERIFY:
                counts.bump("test")  # fingerprint comparison
                for _ in tier.members(block):
                    counts.bump("iter")
                    counts.bump("hash")
                if not tier.fingerprint_unchanged(block):
                    tier.heal(block)
                    clean = False
            if clean:
                continue
            if tier.hash_mode == HASH_SKIP:
                counts.bump("test")  # fingerprint comparison
                for _ in tier.members(block):
                    counts.bump("iter")
                    counts.bump("hash")
                if tier.fingerprint_unchanged(block):
                    for obj in tier.members(block):
                        counts.bump("flag_reset")
                        clear_modified(obj)
                    tier.mark_committed(block)
                    continue
            for root in block.roots:
                self._packed_visit(root, enc)
            tier.mark_committed(block)
            if tier.hash_mode != HASH_OFF:
                for _ in tier.members(block):
                    counts.bump("iter")
                    counts.bump("hash")
                tier.refresh_fingerprint(block)
        return enc

    # -- generic interpretation ------------------------------------------------

    def _visit(self, obj: Checkpointable) -> None:
        self.counts.bump("vcall")  # the ckpt.checkpoint(o) dispatch
        template = self._full_template if self._full_mode else self._checkpoint_template
        env: Dict[str, Any] = {"o": obj, "out": self.out, "ckpt": _DRIVER}
        self._exec(template, env, generic=True)

    # -- packed interpretation -------------------------------------------------

    def _packed_visit(self, obj: Checkpointable, enc: PackedEncoder) -> None:
        counts = self.counts
        counts.bump("vcall")  # the ckpt.checkpoint(o) dispatch
        counts.bump("acc")  # getCheckpointInfo()
        counts.bump("acc")  # modified()
        counts.bump("test")
        if obj._ckpt_dirty:
            counts.bump("acc")  # getId()
            counts.bump("pack")  # header: one batched id+serial store
            enc.put_header(obj._ckpt_id, obj._ckpt_serial)
            counts.bump("vcall")  # record_packed dispatch
            self._account_record_packed(obj)
            obj.record_packed(enc)
            counts.bump("flag_reset")
            clear_modified(obj)
        counts.bump("vcall")  # fold dispatch
        for spec in obj._ckpt_schema:
            if spec.role == "child":
                counts.bump("getfield")
                counts.bump("test")
                child = getattr(obj, spec.slot)
                if child is not None:
                    self._packed_visit(child, enc)
            elif spec.role == "child_list":
                counts.bump("getfield")
                for member in getattr(obj, spec.slot)._items:
                    counts.bump("iter")
                    self._packed_visit(member, enc)

    def _account_record_packed(self, obj: Checkpointable) -> None:
        """Meter one ``record_packed`` call, mirroring the codegen's batching.

        Consecutive fixed-size fields (int/float/bool scalars and child
        ids) share one ``pack``; strings and lists break the run exactly
        where the generated source flushes it.
        """
        counts = self.counts
        run = 0  # fixed-size fields accumulated into the pending pack
        for spec in obj._ckpt_schema:
            role = spec.role
            if role == "scalar" and spec.kind != "str":
                counts.bump("getfield")  # the slot read feeding the pack
                run += 1
                continue
            if role == "child":
                counts.bump("getfield")  # child pointer
                counts.bump("test")  # the None test in the id expression
                counts.bump("acc")  # child getId()
                run += 1
                continue
            if run:
                counts.bump("pack")
                run = 0
            if role == "scalar":  # str
                counts.bump("getfield")
                counts.bump("write_str")
            elif role == "scalar_list":
                counts.bump("getfield")  # slot
                counts.bump("getfield")  # len
                members = getattr(obj, spec.slot)._items
                counts.bump("pack")  # the count store
                if spec.kind == "str":
                    for _ in members:
                        counts.bump("iter")
                        counts.bump("write_str")
                else:
                    counts.bump("test")  # non-empty check
                    if members:
                        counts.bump("pack")  # one batched store, all elements
            else:  # child_list
                counts.bump("getfield")  # slot
                counts.bump("getfield")  # len
                members = getattr(obj, spec.slot)._items
                counts.bump("pack")  # the count store
                counts.bump("test")  # non-empty check
                if members:
                    counts.bump("pack")  # one batched store, all ids
                    for _ in members:
                        counts.bump("iter")
                        counts.bump("acc")  # per-member getId()
        if run:
            counts.bump("pack")

    def _record_ir(self, cls: type) -> ir.Stmt:
        cached = self._record_cache.get(cls)
        if cached is None:
            cached = templates.record_ir(cls)
            self._record_cache[cls] = cached
        return cached

    def _fold_ir(self, cls: type) -> ir.Stmt:
        cached = self._fold_cache.get(cls)
        if cached is None:
            cached = templates.fold_ir(cls)
            self._fold_cache[cls] = cached
        return cached

    # -- execution ------------------------------------------------------------

    def _exec(self, stmt: ir.Stmt, env: Dict[str, Any], generic: bool) -> None:
        counts = self.counts
        if isinstance(stmt, ir.Seq):
            for inner in stmt.stmts:
                self._exec(inner, env, generic)
        elif isinstance(stmt, ir.Assign):
            env[stmt.name] = self._eval(stmt.expr, env, generic)
        elif isinstance(stmt, ir.If):
            counts.bump("test")
            if self._eval(stmt.cond, env, generic):
                self._exec(stmt.then, env, generic)
            elif stmt.orelse is not None:
                self._exec(stmt.orelse, env, generic)
        elif isinstance(stmt, ir.Write):
            value = self._eval(stmt.expr, env, generic)
            self._write(stmt.kind, value, generic)
        elif isinstance(stmt, ir.SetAttr):
            counts.bump("flag_reset")
            base = self._eval(stmt.base, env, generic)
            setattr(
                base,
                ir.INFO_SLOTS.get(stmt.field, stmt.field),
                self._eval(stmt.expr, env, generic),
            )
        elif isinstance(stmt, ir.ExprStmt):
            self._call(stmt.expr, env, generic)
        elif isinstance(stmt, ir.WriteScalarList):
            counts.bump("getfield")
            values = self._eval(stmt.expr, env, generic)._items
            self._write("int", len(values), generic)
            for value in values:
                counts.bump("iter")
                self._write(stmt.kind, value, generic)
        elif isinstance(stmt, ir.RecordChildIds):
            counts.bump("getfield")
            members = self._eval(stmt.expr, env, generic)._items
            self._write("int", len(members), generic)
            for member in members:
                counts.bump("iter")
                counts.bump("acc" if generic else "getfield")
                self._write("int", member._ckpt_id, generic)
        elif isinstance(stmt, ir.FoldChildren):
            counts.bump("getfield")
            members = self._eval(stmt.expr, env, generic)._items
            for member in members:
                counts.bump("iter")
                self._visit(member)
        elif isinstance(stmt, ir.Guard):
            counts.bump("test")
            if not self._eval(stmt.cond, env, generic):
                raise PatternViolationError(stmt.message)
        else:
            raise SpecializationError(f"machine cannot execute {stmt!r}")

    def _call(self, call: ir.Expr, env: Dict[str, Any], generic: bool) -> None:
        if not isinstance(call, ir.MethodCall):
            raise SpecializationError(f"machine cannot execute expression {call!r}")
        receiver = self._eval(call.base, env, generic)
        if receiver is _DRIVER and call.method == "checkpoint":
            # _visit accounts the vcall at the callee entry.
            self._visit(self._eval(call.args[0], env, generic))
            return
        self.counts.bump("vcall")
        if call.method == "record":
            body = self._record_ir(type(receiver))
            self._exec(body, {"self": receiver, "out": self.out}, generic)
        elif call.method == "fold":
            body = self._fold_ir(type(receiver))
            self._exec(body, {"self": receiver, "ckpt": _DRIVER}, generic)
        else:
            raise SpecializationError(f"machine cannot dispatch {call!r}")

    def _eval(self, expr: ir.Expr, env: Dict[str, Any], generic: bool) -> Any:
        counts = self.counts
        if isinstance(expr, ir.Var):
            return env[expr.name]
        if isinstance(expr, ir.Const):
            return expr.value
        if isinstance(expr, ir.FieldGet):
            base = self._eval(expr.base, env, generic)
            if generic and expr.field in _ACCESSOR_FIELDS:
                counts.bump("acc")
            else:
                counts.bump("getfield")
            if expr.field == ir.INFO_FIELD:
                return base  # the header is the object's own slots
            return getattr(base, ir.INFO_SLOTS.get(expr.field, expr.field))
        if isinstance(expr, ir.IndexGet):
            counts.bump("getfield")
            return self._eval(expr.base, env, generic)._items[expr.index]
        if isinstance(expr, ir.ListLen):
            counts.bump("getfield")
            return len(self._eval(expr.base, env, generic)._items)
        if isinstance(expr, ir.IsNone):
            return self._eval(expr.base, env, generic) is None
        if isinstance(expr, ir.Not):
            return not self._eval(expr.operand, env, generic)
        if isinstance(expr, ir.Eq):
            return self._eval(expr.left, env, generic) == self._eval(
                expr.right, env, generic
            )
        if isinstance(expr, ir.ClassIs):
            return type(self._eval(expr.base, env, generic)) is expr.cls
        if isinstance(expr, ir.ClassSerialOf):
            return type(self._eval(expr.base, env, generic))._ckpt_serial
        raise SpecializationError(f"machine cannot evaluate {expr!r}")

    def _write(self, kind: str, value: Any, generic: bool) -> None:
        # Reaching the stream costs a small method call in generic code
        # (``d.writeInt(...)``; an attribute lookup plus call in the
        # Python implementation) — priced in the accessor bucket.
        # Specialized code uses statically pre-bound writers, whose call
        # overhead is folded into the write op price itself.
        if generic:
            self.counts.bump("acc")
        self.counts.bump("write_" + kind)
        out = self.out
        if kind == "int":
            out.write_int32(value)
        elif kind == "float":
            out.write_float64(value)
        elif kind == "bool":
            out.write_bool(value)
        else:
            out.write_str(value)
